"""Homology and K-theory of products of SFT groupoids.

``product_homology`` evaluates the closed form for the graded homology of a
product of n factors,
    H_k = (Z^C(n-1,k) (x) H_0(1) (x) ... (x) H_0(n))
          (+) (Z^C(n-1,k-1) (x) H_1(1) (x) ... (x) H_1(n)).
Each H_1 is free, so the second summand is free, and H_k is read off H_0:
free rank C(n-1,k) r_0 + C(n-1,k-1) r_1, and each invariant factor of H_0
repeated C(n-1,k) times, already a divisibility chain.  Only H_0 takes a
merge, one per step of the tensor fold.  The unit class (the class of the
constant function 1) is tracked through the degree-0 tensor product.  The
test suite checks every degree, and the unit up to automorphism, against the
homology of the tensor product of the factors' chain complexes, computed
from Smith normal forms alone.

With one factor the closed form is H_0 = BF, H_1 = K_1 and nothing above,
the homology that ``gi invariants`` prints for each factor.  The result is
a ``GradedGroups``: the nontrivial groups by degree, with the unit class.

K-groups iterate the Z/2-graded Kunneth formula for the factor C*-algebras,
seeded with the single-factor identification K_i = H_i, and ``hk_check``
confirms (+) H_even = K_0 and (+) H_odd = K_1, with the degrees of the closed
form and no unit class.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

from .fggroup import (FgElement, FgGroup, direct_sum, fold_elements, tensor,
                      tensor_fold, tor)
from .sft import SftInvariants, SftMatrix, invariants


class GradedGroups:
    """Finitely supported map degree -> FgGroup plus a degree-0 unit class.

    Equality compares the groups degreewise (canonical forms); the unit class
    is checked separately where it matters, because the isomorphism that
    identifies two computations of the same homology is not canonical.
    """

    def __init__(self, groups: dict[int, FgGroup], unit_class: FgElement):
        if any(n < 0 for n in groups):
            raise ValueError("negative degree")
        self._groups = {n: g for n, g in sorted(groups.items()) if not g.is_trivial}
        if unit_class.group != self.group_at(0):
            raise ValueError("unit class must live in degree 0")
        self.unit_class = unit_class

    def group_at(self, n: int) -> FgGroup:
        return self._groups.get(n, FgGroup.trivial())

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(self._groups)

    def items(self):
        return tuple(self._groups.items())

    @property
    def max_degree(self) -> int:
        return max(self._groups, default=0)

    def __eq__(self, other):
        if not isinstance(other, GradedGroups):
            return NotImplemented
        return self._groups == other._groups

    def __hash__(self):
        return hash(tuple(self._groups.items()))

    def __str__(self):
        if not self._groups:
            return "H_0 = 0"
        return "; ".join(f"H_{n} = {g}" for n, g in self._groups.items())


def product_homology(factors: list[SftMatrix]) -> GradedGroups:
    """Closed-form graded homology of a product of SFT groupoids."""
    invs = _factor_invariants(factors)
    h0, maps = tensor_fold([v.bf for v in invs])
    unit = fold_elements(maps, [v.unit for v in invs])
    return GradedGroups(_degree_groups(invs, h0), unit)


def _factor_invariants(factors: list[SftMatrix]) -> list[SftInvariants]:
    if not factors:
        raise ValueError("need at least one factor")
    return [invariants(f) for f in factors]


def _degree_groups(invs: list[SftInvariants], h0: FgGroup) -> dict[int, FgGroup]:
    """H_0, ..., H_n of the closed form, given H_0 = BF(1) (x) ... (x) BF(n).

    H_k is a = C(n-1, k) copies of H_0 and b = C(n-1, k-1) of H_1, and each
    H_1 is free, Z^a (x) Z^b = Z^(a b).  Each invariant factor of H_0 taken a
    times in turn is again a divisibility chain, so H_k needs no merge.
    """
    n = len(invs)
    h1_rank = prod(v.k1.free_rank for v in invs)
    out = {}
    for k in range(n + 1):
        a, b = comb(n - 1, k), comb(n - 1, k - 1) if k else 0
        out[k] = FgGroup(a * h0.free_rank + b * h1_rank,
                         tuple(d for d in h0.torsion for _ in range(a)))
    return out


@dataclass(frozen=True)
class KTheory:
    k0: FgGroup
    k1: FgGroup


def product_k_theory(factors: list[SftMatrix]) -> KTheory:
    """Z/2-graded Kunneth fold over the factor K-groups."""
    invs = _factor_invariants(factors)
    k0, k1 = invs[0].k0, invs[0].k1
    for v in invs[1:]:
        l0, l1 = v.k0, v.k1
        new0 = direct_sum(tensor(k0, l0)[0], tensor(k1, l1)[0],
                          tor(k0, l1), tor(k1, l0))
        new1 = direct_sum(tensor(k0, l1)[0], tensor(k1, l0)[0],
                          tor(k0, l0), tor(k1, l1))
        k0, k1 = new0, new1
    return KTheory(k0, k1)


@dataclass(frozen=True)
class HkReport:
    holds: bool
    h_even: FgGroup
    h_odd: FgGroup
    k0: FgGroup
    k1: FgGroup


def hk_check(factors: list[SftMatrix]) -> HkReport:
    """Compare (+) H_even with K_0 and (+) H_odd with K_1 on canonical forms.

    The degrees come from ``_degree_groups``; the unit class is not needed.
    """
    invs = _factor_invariants(factors)
    hom = _degree_groups(invs, tensor_fold([v.bf for v in invs])[0])
    kk = product_k_theory(factors)
    h_even = direct_sum(*(g for k, g in hom.items() if k % 2 == 0))
    h_odd = direct_sum(*(g for k, g in hom.items() if k % 2))
    return HkReport(h_even == kk.k0 and h_odd == kk.k1, h_even, h_odd, kk.k0, kk.k1)
