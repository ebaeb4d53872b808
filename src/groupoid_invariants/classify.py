"""Isomorphism and Morita-equivalence decisions for SFT groupoids and products.

Single factors: the groupoids are isomorphic iff some isomorphism of
Bowen-Franks groups BF(A^t) -> BF(B^t) carries the unit class to the unit
class and the signs of det(id - A) agree; Morita equivalence drops the unit
condition.  Products: the factor count must agree and some permutation must
match factors with equal canonical BF groups, *exactly* equal determinants
(the product criterion is stated with determinant equality, not just sign
equality), and a tuple of isomorphisms whose tensor product carries the
tensor of unit classes to the tensor of unit classes.

All decisions work in canonical coordinates: once the canonical forms agree,
the isomorphism search reduces to an automorphism search.  For one factor
that is the closed-form Aut-orbit decision of ``automorphisms``, which has
no bound.  Only the product search over automorphism tuples is bounded: the
group order and candidate count of each enumeration and the size of the
tuple space, each raising ``BoundExceeded`` past its bound.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automorphisms import (DEFAULT_CANDIDATE_BOUND, DEFAULT_ORDER_BOUND,
                            aut_orbit_witness, enumerate_automorphisms)
from .errors import BoundExceeded, InternalError
from .fggroup import FgElement, FgGroup, GroupHom, tensor
from .sft import SftMatrix, invariants


@dataclass(frozen=True)
class ProductWitness:
    """Permutation sigma plus per-factor isomorphisms in canonical coordinates.

    hom i identifies BF(A_i^t) with BF(B_{sigma(i)}^t); both are expressed in
    the shared canonical form, so an identity hom means the canonical
    identification itself.
    """

    sigma: tuple[int, ...]
    homs: tuple[GroupHom, ...]

    def is_identity(self) -> bool:
        return all(h.is_identity() for h in self.homs) and \
            self.sigma == tuple(range(len(self.sigma)))


@dataclass(frozen=True)
class ClassificationVerdict:
    isomorphic: bool
    witness: ProductWitness | None
    reason: str | None

    def __post_init__(self):
        if self.isomorphic != (self.witness is not None):
            raise InternalError("a verdict has a witness exactly when it is positive")


def sft_isomorphic(a: SftMatrix, b: SftMatrix) -> ClassificationVerdict:
    """Decide isomorphism of two SFT groupoids."""
    ia, ib = invariants(a), invariants(b)
    if ia.bf != ib.bf:
        return ClassificationVerdict(
            False, None, f"Bowen-Franks groups differ: {ia.bf} vs {ib.bf}")
    if ia.det_sign != ib.det_sign:
        return ClassificationVerdict(
            False, None,
            f"determinant signs differ: {ia.det_sign} vs {ib.det_sign}")
    hom = aut_orbit_witness(ia.bf, ia.unit, ib.unit)
    if hom is None:
        return ClassificationVerdict(
            False, None,
            "no isomorphism of the Bowen-Franks groups carries the unit class "
            f"({ia.unit.coords()} vs {ib.unit.coords()} in {ia.bf})")
    if not (hom.is_isomorphism() and hom(ia.unit) == ib.unit):
        raise InternalError("witness is not an isomorphism carrying unit to unit")
    return ClassificationVerdict(True, ProductWitness((0,), (hom,)), None)


def sft_morita(a: SftMatrix, b: SftMatrix) -> bool:
    """Morita equivalence: equal canonical BF groups and determinant signs."""
    ia, ib = invariants(a), invariants(b)
    return ia.bf == ib.bf and ia.det_sign == ib.det_sign


def product_isomorphic(factors_a: list[SftMatrix], factors_b: list[SftMatrix],
                       order_bound: int = DEFAULT_ORDER_BOUND,
                       candidate_bound: int = DEFAULT_CANDIDATE_BOUND) -> ClassificationVerdict:
    """Decide isomorphism of two products of SFT groupoids."""
    if not factors_a or not factors_b:
        raise ValueError("factor lists must be nonempty")
    if len(factors_a) != len(factors_b):
        return ClassificationVerdict(
            False, None,
            f"factor counts differ: {len(factors_a)} vs {len(factors_b)}")
    if len(factors_a) == 1:
        return sft_isomorphic(factors_a[0], factors_b[0])

    n = len(factors_a)
    data_a = [(inv, inv.det) for inv in map(invariants, factors_a)]
    data_b = [(inv, inv.det) for inv in map(invariants, factors_b)]
    sort_key = lambda pair: (pair[0].free_rank, pair[0].torsion, pair[1])
    keys_a = sorted(((inv.bf, det) for inv, det in data_a), key=sort_key)
    keys_b = sorted(((inv.bf, det) for inv, det in data_b), key=sort_key)
    if keys_a != keys_b:
        return ClassificationVerdict(
            False, None, "multisets of (Bowen-Franks group, det(id-A)) differ")

    if any(not inv.bf.is_finite for inv, _ in data_a):
        raise BoundExceeded(
            "a factor has infinite Bowen-Franks group; the unit-tensor search "
            "over automorphism tuples is only implemented for finite groups "
            "(passed filters: factor counts and (BF, det) multisets match)")

    groups = [inv.bf for inv, _ in data_a]
    units_a = [inv.unit for inv, _ in data_a]
    # one tensor-fold of the canonical groups serves every permutation
    maps = []
    acc = groups[0]
    for g in groups[1:]:
        acc, tmap = tensor(acc, g)
        maps.append(tmap)

    def tensor_elem(elems: list[FgElement]) -> FgElement:
        out = elems[0]
        for tmap, e in zip(maps, elems[1:]):
            out = tmap(out, e)
        return out

    lhs_units = tensor_elem(units_a)

    auts: dict[FgGroup, list[GroupHom]] = {}
    total = 1
    for g in set(groups):
        auts[g] = list(enumerate_automorphisms(g, order_bound=order_bound,
                                               candidate_bound=candidate_bound))
    for g in groups:
        total *= len(auts[g])
        if total > candidate_bound:
            raise BoundExceeded(
                "automorphism tuple space exceeds the configured bound "
                "(passed filters: factor counts and (BF, det) multisets match)")

    # positions ordered by automorphism count keeps the common failure cheap
    search_order = sorted(range(n), key=lambda i: len(auts[groups[i]]))

    for sigma in itertools.permutations(range(n)):
        if any((data_a[i][0].bf, data_a[i][1]) != (data_b[sigma[i]][0].bf, data_b[sigma[i]][1])
               for i in range(n)):
            continue
        units_b = [data_b[sigma[i]][0].unit for i in range(n)]
        rhs = tensor_elem(units_b)
        # identity tuple first: catches the common witness immediately
        if tensor_elem(units_a) == rhs:
            homs = tuple(GroupHom.identity(g) for g in groups)
            return ClassificationVerdict(True, ProductWitness(sigma, homs), None)
        found = _search_tuple(groups, units_a, rhs, auts, tensor_elem, search_order)
        if found is not None:
            witness = ProductWitness(sigma, found)
            _verify_product_witness(witness, data_a, data_b, tensor_elem)
            return ClassificationVerdict(True, witness, None)
    return ClassificationVerdict(
        False, None,
        "(BF, det) multisets match but no permutation admits an isomorphism "
        "tuple carrying the tensor of unit classes to the tensor of unit classes")


def _search_tuple(groups, units_a, target, auts, tensor_elem, search_order):
    n = len(groups)
    chosen: list[GroupHom | None] = [None] * n

    def rec(pos):
        if pos == len(search_order):
            if tensor_elem([chosen[i](units_a[i]) for i in range(n)]) == target:
                return tuple(chosen)
            return None
        i = search_order[pos]
        for alpha in auts[groups[i]]:
            chosen[i] = alpha
            result = rec(pos + 1)
            if result is not None:
                return result
        chosen[i] = None
        return None

    return rec(0)


def _verify_product_witness(witness, data_a, data_b, tensor_elem):
    """Re-check every clause of the product criterion on the found witness."""
    n = len(witness.sigma)
    if sorted(witness.sigma) != list(range(n)):
        raise InternalError("witness sigma is not a permutation")
    imgs = []
    for i in range(n):
        inv_a, det_a = data_a[i]
        inv_b, det_b = data_b[witness.sigma[i]]
        hom = witness.homs[i]
        if det_a != det_b:
            raise InternalError(f"witness matches factor {i} across different determinants")
        if not (hom.domain == inv_a.bf and hom.codomain == inv_b.bf and hom.is_isomorphism()):
            raise InternalError(f"witness hom {i} is not an isomorphism of the Bowen-Franks groups")
        imgs.append(hom(inv_a.unit))
    units_b = [data_b[witness.sigma[i]][0].unit for i in range(n)]
    if tensor_elem(imgs) != tensor_elem(units_b):
        raise InternalError("witness does not carry the unit tensor to the unit tensor")
