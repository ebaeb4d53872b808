"""Exact invariants of shift-of-finite-type groupoids and their products.

The package computes, with exact integer arithmetic throughout:

  * Smith normal forms, cokernels and kernels (``intmatrix``, ``fggroup``)
    from one diagonal elimination, run over Z or modulo an integer; a square
    presentation with determinant D != 0 gets its cokernel from a map onto
    Z/|D| when it is cyclic, else from that map on the part coprime to the
    rest and the elimination modulo the rest, and every such answer is
    certified; D = 0 and small presentations take the elimination modulo
    |D|, over Z when D = 0, which replays only the rows of the transform
    that the cokernel reads;
  * canonical forms, tensor products and Tor of finitely generated abelian
    groups over a coprime base, without Smith normal forms (``fggroup``);
  * Aut-orbit decisions, witnesses and orbit listings on group elements
    (``automorphisms``);
  * one record per SFT groupoid, its Bowen-Franks group, unit class and
    det(id - A) (``sft``), from which the homology, K-groups and full-group
    abelianizations of finite products follow, one groupoid being the
    one-factor product (``homology``, ``abelianize``);
  * isomorphism and Morita-equivalence decisions (``classify``);
  * the prefix-table model of the generalized higher-dimensional Thompson
    groups (splittings, and transpositions as index permutations), their
    defining relations and finite cyclic characters (``tables``);
  * a scriptable CLI (``cli``, console command ``gi``).
"""

from .abelianize import extension_data, strong_ah, tfg_abelianization
from .automorphisms import aut_orbit_equivalent, aut_orbit_witness, torsion_orbit
from .classify import (ClassificationVerdict, ProductWitness,
                       product_isomorphic, sft_isomorphic, sft_morita)
from .errors import (BoundExceeded, IncompatibleParameters, InternalError,
                     NegativeEntry, NotSquare, ParseError, PermutationMatrix,
                     Reducible, SftValidationError)
from .fggroup import (FgElement, FgGroup, GroupHom, QuotientMap, TensorMap,
                      cokernel, cokernel_and_kernel, direct_sum,
                      kernel_group, tensor, tor)
from .homology import (GradedGroups, HkReport, KTheory, hk_check,
                       product_homology, product_k_theory)
from .intmatrix import (FractionFreeLU, IntMatrix, ModularSnf, SnfResult,
                        smith_form_mod_det, smith_normal_form)
from .sft import (SftInvariants, SftMatrix, companion_matrix, invariants,
                  is_primitive, thompson_factor_list, validate)
from .tables import (Brick, CharacterAssignment, RelationReport, TableElement,
                     alpha_element, alpha_parity, baker,
                     character_search, compose, compose_all, equal, gen_s,
                     gen_tau, identity, inverse, permutation_element,
                     tau_tilde, verify_relations)

__version__ = "0.1.0"
