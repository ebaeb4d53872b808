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
  are those of the tuples in Orb(u_1) x ... x Orb(u_n), and
  ``aut_orbit_witness`` turns each v_i of a hit back into an alpha_i.
* The prune is sound.  Tensor products are functorial, so (alpha_i) gives
  the automorphism (x) alpha_i of T carrying (x) u_i to (x) alpha_i(u_i).
  If (x) u'_sigma(i) is not in the Aut(T)-orbit of (x) u_i (the closed-form
  decision on T), no tuple reaches it and sigma is skipped.
* The deduplicated layers are exact.  With S_1 = Orb(u_1) and S_k the set of
  s (x) v over s in S_(k-1) and v in Orb(u_k), the left fold makes the
  tensor of v_1, ..., v_k a function of the tensor of v_1, ..., v_(k-1) and
  of v_k alone.  So S_k is exactly the set of tensors of tuples in the first
  k orbits, however many tuples share a value, and one back-pointer per
  value recovers a tuple.  |S_k| is at most the order of the first k
  factors' tensor product.

The identity tuple is tried first, since it settles most positives; the
layers are built once per call and serve every permutation.  Each orbit
is listed by ``torsion_orbit`` from its structure, at a cost that grows with
a box around the orbit and not with |BF_i|, so the one bound is
``candidate_bound``: it caps the tensor products the search evaluates, the
sum of |S_(k-1)| |Orb(u_k)|, and past it ``BoundExceeded`` states the work
reached.  Infinite BF groups raise ``BoundExceeded`` before any search.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .automorphisms import (DEFAULT_CANDIDATE_BOUND, aut_orbit_equivalent,
                            aut_orbit_witness, torsion_orbit)
from .errors import BoundExceeded, InternalError
from .fggroup import FgElement, GroupHom, tensor
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

    lhs = tensor_elem(units_a)
    layers = None
    for sigma in itertools.permutations(range(n)):
        if any(key(data_a[i]) != key(data_b[s]) for i, s in enumerate(sigma)):
            continue
        rhs = tensor_elem([data_b[s].unit for s in sigma])
        # identity tuple first: catches the common witness immediately
        if lhs == rhs:
            homs = tuple(GroupHom.identity(g) for g in groups)
            return ClassificationVerdict(True, ProductWitness(sigma, homs), None)
        if not aut_orbit_equivalent(acc, lhs, rhs):
            continue
        if layers is None:
            layers = _orbit_layers(groups, units_a, maps, candidate_bound)
        if rhs.torsion not in layers[-1]:
            continue
        images = _walk_back(layers, rhs.torsion)
        homs = tuple(aut_orbit_witness(g, u, g.element((), v))
                     for g, u, v in zip(groups, units_a, images))
        witness = ProductWitness(sigma, homs)
        _verify_product_witness(witness, data_a, data_b, tensor_elem)
        return ClassificationVerdict(True, witness, None)
    return ClassificationVerdict(
        False, None,
        "(BF, det) multisets match but no permutation admits an isomorphism "
        "tuple carrying the tensor of unit classes to the tensor of unit classes")


def _orbit_layers(groups, units, maps, candidate_bound):
    """The layers S_1, ..., S_n of the module docstring, each a dict from the
    torsion coordinates of a value to one (previous value, orbit element)
    pair that reaches it; S_1 maps each orbit element to (None, itself)."""
    orbits = [sorted(torsion_orbit(g, u)) for g, u in zip(groups, units)]
    layer = {v: (None, v) for v in orbits[0]}
    layers = [layer]
    work = 0
    for k, (tmap, orbit) in enumerate(zip(maps, orbits[1:]), start=2):
        work += len(layer) * len(orbit)
        if work > candidate_bound:
            raise BoundExceeded(
                f"the unit-orbit search needs {work} tensor products by factor {k}, "
                f"over the bound {candidate_bound} (passed filters: factor counts "
                "and (BF, det) multisets match)")
        nxt = {}
        for s in layer:
            for v in orbit:
                nxt.setdefault(tmap.coords(s, v), (s, v))
        layer = nxt
        layers.append(layer)
    return layers


def _walk_back(layers, value):
    """Orbit elements v_1, ..., v_n whose tensor is the given last-layer value."""
    images = []
    for layer in reversed(layers):
        value, v = layer[value]
        images.append(v)
    return images[::-1]


def _verify_product_witness(witness, data_a, data_b, tensor_elem):
    """Re-check every clause of the product criterion on the found witness."""
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
    if tensor_elem(imgs) != tensor_elem(units_b):
        raise InternalError("witness does not carry the unit tensor to the unit tensor")
