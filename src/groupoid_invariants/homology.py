"""Homology and K-theory of products of SFT groupoids.

``product_homology`` evaluates the closed form for the graded homology of a
product of n factors,
    H_k = (Z^C(n-1,k) (x) H_0(1) (x) ... (x) H_0(n))
          (+) (Z^C(n-1,k-1) (x) H_1(1) (x) ... (x) H_1(n)).
The unit class (the class of the constant function 1) is tracked through the
degree-0 tensor product.  The test suite checks every degree, and the unit
up to automorphism, against the homology of the tensor product of the
factors' chain complexes, computed from Smith normal forms alone.

With one factor the closed form is H_0 = BF, H_1 = K_1 and nothing above,
the homology that ``gi invariants`` prints for each factor.  The result is
a ``GradedGroups``: the nontrivial groups by degree, with the unit class.

K-groups iterate the Z/2-graded Kunneth formula for the factor C*-algebras,
seeded with the single-factor identification K_i = H_i, and ``hk_check``
confirms (+) H_even = K_0 and (+) H_odd = K_1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, prod

from .fggroup import (FgElement, FgGroup, direct_sum, fold_elements, tensor,
                      tensor_fold, tor)
from .sft import SftMatrix, invariants


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
    if not factors:
        raise ValueError("need at least one factor")
    invs = [invariants(f) for f in factors]
    n = len(factors)
    h0, maps = tensor_fold([v.bf for v in invs])
    unit = fold_elements(maps, [v.unit for v in invs])
    # each H_1 is free, and Z^a (x) Z^b = Z^(a b)
    h1 = FgGroup.free(prod(v.k1.free_rank for v in invs))
    out: dict[int, FgGroup] = {}
    for k in range(n + 1):
        parts = [h0] * comb(n - 1, k) + [h1] * (comb(n - 1, k - 1) if k >= 1 else 0)
        out[k] = direct_sum(*parts)
    return GradedGroups(out, unit)


@dataclass(frozen=True)
class KTheory:
    k0: FgGroup
    k1: FgGroup


def product_k_theory(factors: list[SftMatrix]) -> KTheory:
    """Z/2-graded Kunneth fold over the factor K-groups."""
    if not factors:
        raise ValueError("need at least one factor")
    inv = invariants(factors[0])
    k0, k1 = inv.k0, inv.k1
    for f in factors[1:]:
        v = invariants(f)
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
    """Compare (+) H_even with K_0 and (+) H_odd with K_1 on canonical forms."""
    hom = product_homology(factors)
    kk = product_k_theory(factors)
    h_even = direct_sum(*(hom.group_at(i) for i in range(0, hom.max_degree + 1, 2)))
    h_odd = direct_sum(*(hom.group_at(i) for i in range(1, hom.max_degree + 1, 2)))
    return HkReport(h_even == kk.k0 and h_odd == kk.k1, h_even, h_odd, kk.k0, kk.k1)
