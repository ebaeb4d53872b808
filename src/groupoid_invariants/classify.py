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
no bound.

Products of finite BF groups.  Write T = BF_1 (x) ... (x) BF_n, folded from
the left, and u_i, u'_i for the unit classes.  For a permutation sigma that
matches (BF, det), the question is whether (x) alpha_i(u_i) = (x) u'_sigma(i)
for some alpha_i in Aut(BF_i).  Three facts decide it without running over
automorphism tuples:

* Reduction to orbits.  (x) alpha_i(u_i) depends on alpha_i only through
  v_i = alpha_i(u_i), and v_i runs over the whole orbit Orb(u_i) as alpha_i
  runs over Aut(BF_i), independently for each i.  So the reachable tensors
  are those of the tuples in Orb(u_1) x ... x Orb(u_n).  The orbit witness
  turns each v_i of a hit back into an alpha_i, and
  ``_verify_product_witness`` checks it once, with the rest of the criterion.
* The prune is sound.  Tensor products are functorial, so (alpha_i) gives
  the automorphism (x) alpha_i of T carrying (x) u_i to (x) alpha_i(u_i).
  If (x) u'_sigma(i) is not in the Aut(T)-orbit of (x) u_i (the closed-form
  decision on T), no tuple reaches it and sigma is skipped.
* The deduplicated layers are exact.  With S_1 = Orb(u_1) and S_k the set of
  s (x) v over s in S_(k-1) and v in Orb(u_k), the left fold makes the
  tensor of v_1, ..., v_k a function of the tensor of v_1, ..., v_(k-1) and
  of v_k alone.  So S_k is exactly the set of tensors of tuples in the first
  k orbits, however many tuples share a value.  Each value keeps the first
  tuple (v_1, ..., v_k) that reached it, the tuple of its S_(k-1) value
  extended by v_k, so only the last layer is kept.  |S_k| is at most the
  order of the first k factors' tensor product.

The identity tuple is tried first, since it settles most positives; S_n is
built once per call and serves every permutation.  Each orbit
is listed as ``torsion_orbit`` lists it, from its structure, at a cost that
grows with a box around the orbit and not with |BF_i|, so the one bound is
``candidate_bound``: it caps the tensor products the search evaluates, the
sum of |S_(k-1)| |Orb(u_k)|.  Since S_1 = Orb(u_1), the first term is
|Orb(u_1)| |Orb(u_2)|, so those two orbits are listed in step, one element
of each in turn, and the product of the counts listed so far is checked;
each later Orb(u_k) is listed element by element after S_(k-1) is built.
Once the work reached passes the bound, ``BoundExceeded`` states it and no
further element is listed, so a refusal of two large orbits costs about
twice the square root of the bound in elements, not |BF_1|.  Infinite BF
groups raise ``BoundExceeded`` before any search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automorphisms import (DEFAULT_CANDIDATE_BOUND, _orbit_decision,
                            _orbit_elements, aut_orbit_equivalent,
                            aut_orbit_witness)
from .errors import BoundExceeded, InternalError
from .fggroup import GroupHom, fold_elements, tensor_fold
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
    # aut_orbit_witness has checked that hom is an isomorphism carrying unit to unit
    return ClassificationVerdict(True, ProductWitness((0,), (hom,)), None)


def sft_morita(a: SftMatrix, b: SftMatrix) -> bool:
    """Morita equivalence: equal canonical BF groups and determinant signs."""
    ia, ib = invariants(a), invariants(b)
    return ia.bf == ib.bf and ia.det_sign == ib.det_sign


def product_isomorphic(factors_a: list[SftMatrix], factors_b: list[SftMatrix],
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
    data_a = [invariants(f) for f in factors_a]
    data_b = [invariants(f) for f in factors_b]
    key = lambda inv: (inv.bf.free_rank, inv.bf.torsion, inv.det)
    if sorted(map(key, data_a)) != sorted(map(key, data_b)):
        return ClassificationVerdict(
            False, None, "multisets of (Bowen-Franks group, det(id-A)) differ")

    if any(not inv.bf.is_finite for inv in data_a):
        raise BoundExceeded(
            "a factor has infinite Bowen-Franks group; the unit-orbit search "
            "is only implemented for finite groups "
            "(passed filters: factor counts and (BF, det) multisets match)")

    groups = [inv.bf for inv in data_a]
    units_a = [inv.unit for inv in data_a]
    # one tensor-fold of the canonical groups serves every permutation
    acc, maps = tensor_fold(groups)
    lhs = fold_elements(maps, units_a)
    reachable = None
    for sigma in itertools.permutations(range(n)):
        if any(key(data_a[i]) != key(data_b[s]) for i, s in enumerate(sigma)):
            continue
        rhs = fold_elements(maps, [data_b[s].unit for s in sigma])
        # identity tuple first: catches the common witness immediately
        if lhs == rhs:
            homs = tuple(GroupHom.identity(g) for g in groups)
            return ClassificationVerdict(True, ProductWitness(sigma, homs), None)
        if not aut_orbit_equivalent(acc, lhs, rhs):
            continue
        if reachable is None:
            reachable = _reachable(groups, units_a, maps, candidate_bound)
        images = reachable.get(rhs.torsion)
        if images is None:
            continue
        # unchecked here: _verify_product_witness checks each hom once
        homs = tuple(_orbit_decision(g, u, g.element((), v), want_witness=True)
                     for g, u, v in zip(groups, units_a, images))
        witness = ProductWitness(sigma, homs)
        _verify_product_witness(witness, data_a, data_b, maps)
        return ClassificationVerdict(True, witness, None)
    return ClassificationVerdict(
        False, None,
        "(BF, det) multisets match but no permutation admits an isomorphism "
        "tuple carrying the tensor of unit classes to the tensor of unit classes")


def _reachable(groups, units, maps, candidate_bound):
    """The last layer S_n of the module docstring: a dict from the torsion
    coordinates of each value to the first tuple (v_1, ..., v_n) of orbit
    elements that reached it.

    Orb(u_1) and Orb(u_2) are listed in step, one element of each in turn,
    and Orb(u_k) for k > 2 only once S_(k-1) is built.  Each listing stops as
    soon as the work reached passes the bound: |Orb(u_1)| |Orb(u_2)| over the
    elements kept so far, then |S_(k-1)| products per element of Orb(u_k)."""
    first, second = [], []
    for pair in itertools.zip_longest(_orbit_elements(groups[0], units[0]),
                                      _orbit_elements(groups[1], units[1])):
        for orbit, v in zip((first, second), pair):
            if v is not None:
                orbit.append(v)
                _check_work(len(first) * len(second), 2, candidate_bound)
    layer = _next_layer({v: (v,) for v in first}, second, maps[0])
    work = len(first) * len(second)
    for k, (tmap, g, u) in enumerate(zip(maps[1:], groups[2:], units[2:]), start=3):
        orbit = []
        for v in _orbit_elements(g, u):
            orbit.append(v)
            _check_work(work + len(layer) * len(orbit), k, candidate_bound)
        work += len(layer) * len(orbit)
        layer = _next_layer(layer, orbit, tmap)
    return layer


def _next_layer(layer, orbit, tmap):
    nxt = {}
    for s, images in layer.items():
        for v in orbit:
            t = tmap.coords(s, v)
            if t not in nxt:
                nxt[t] = images + (v,)
    return nxt


def _check_work(reached, k, candidate_bound):
    if reached > candidate_bound:
        raise BoundExceeded(
            f"the unit-orbit search needs {reached} tensor products by factor {k}, "
            f"over the bound {candidate_bound} (passed filters: factor counts "
            "and (BF, det) multisets match)")


def _verify_product_witness(witness, data_a, data_b, maps):
    """Re-check every clause of the product criterion on the found witness;
    maps are those of the ``tensor_fold`` of the factors' BF groups."""
    n = len(witness.sigma)
    if sorted(witness.sigma) != list(range(n)):
        raise InternalError("witness sigma is not a permutation")
    imgs = []
    for i in range(n):
        inv_a, inv_b = data_a[i], data_b[witness.sigma[i]]
        hom = witness.homs[i]
        if inv_a.det != inv_b.det:
            raise InternalError(f"witness matches factor {i} across different determinants")
        if not (hom.domain == inv_a.bf and hom.codomain == inv_b.bf and hom.is_isomorphism()):
            raise InternalError(f"witness hom {i} is not an isomorphism of the Bowen-Franks groups")
        imgs.append(hom(inv_a.unit))
    units_b = [data_b[s].unit for s in witness.sigma]
    if fold_elements(maps, imgs) != fold_elements(maps, units_b):
        raise InternalError("witness does not carry the unit tensor to the unit tensor")
