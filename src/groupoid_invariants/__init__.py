"""Exact invariants of shift-of-finite-type groupoids and their products.

The package computes, with exact integer arithmetic throughout:

  * Smith normal forms, cokernels and kernels (``intmatrix``, ``fggroup``)
    from one diagonal elimination, run over Z or modulo an integer; a square
    presentation with determinant D != 0 gets its cokernel from a certified
    map onto Z/|D| when it is cyclic, else from the elimination modulo |D|,
    and only D = 0 takes a Smith normal form;
  * canonical forms and the tensor/Tor/Ext calculus of finitely generated
    abelian groups over a coprime base, without Smith normal forms
    (``fggroup``);
  * Aut-orbit decisions, witnesses and orbit listings on group elements
    (``automorphisms``);
  * Bowen-Franks data, homology, K-groups and full-group abelianizations of
    single SFT groupoids (``sft``) and of finite products (``homology``,
    ``abelianize``);
  * isomorphism and Morita-equivalence decisions (``classify``);
  * the prefix-table model of the generalized higher-dimensional Thompson
    groups, their defining relations and finite cyclic characters
    (``tables``);
  * a scriptable CLI (``cli``, console command ``gi``).
"""

from .abelianize import (H0Decomposition, decompose_all, decompose_h0,
                         extension_data, strong_ah, tfg_abelianization)
from .automorphisms import aut_orbit_equivalent, aut_orbit_witness, torsion_orbit
from .classify import (ClassificationVerdict, ProductWitness,
                       product_isomorphic, sft_isomorphic, sft_morita)
from .errors import (BoundExceeded, IncompatibleParameters, InternalError,
                     NegativeEntry, NotSquare, ParseError, PermutationMatrix,
                     Reducible, SftValidationError)
from .fggroup import (FgElement, FgGroup, GroupHom, QuotientMap, TensorMap,
                      cokernel, cokernel_and_kernel, direct_sum, ext_group,
                      is_quotient, kernel_group, tensor, tor)
from .graded import GradedGroups
from .homology import (HkReport, KTheory, hk_check, iterated_kunneth,
                       kunneth_pair, product_homology, product_k_theory)
from .intmatrix import (FractionFreeLU, IntMatrix, ModularSnf, SnfResult,
                        smith_form_mod_det, smith_normal_form)
from .sft import (SftInvariants, SftMatrix, companion_matrix, invariants,
                  is_primitive, sft_abelianization, thompson_factor_list,
                  validate)
from .tables import (Brick, CharacterAssignment, RelationReport, TableElement,
                     alpha_element, alpha_parity, alpha_word, baker,
                     character_search, compose, compose_all, equal, gen_s,
                     gen_tau, identity, inverse, permutation_element,
                     tau_tilde, verify_relations)

__version__ = "0.1.0"
