"""Automorphism groups of f.g. abelian groups and orbit decisions on elements.

``aut_orbit_equivalent`` decides in closed form whether some automorphism
maps a to b, and ``aut_orbit_witness`` builds one.  Neither is bounded: the
work is gcds, valuations and a few elementary automorphisms per base element.
``torsion_orbit`` lists the orbit of an element x of a finite group T, over
which ``classify`` runs its product search: it takes a box that must hold the
orbit and keeps the box elements the decision accepts.  The box comes from the invariance bullet below: over the coprime base of the d_j
and the gcd(x_j, d_j), coordinate j of every orbit element is a multiple of
q^f_j in Z/q^lam_j, where f_j is the least of lam_j and the
v_i + max(0, lam_j - lam_i) over the minimal kept pairs (v_i, lam_i) of x at
delta = max lam (a pair above a minimal one gives no less).  The floor is a
multiple, not a unit times q^f_j: for a base element such as 9, an orbit
element may have coordinates such as 3 mod 9.

``enumerate_automorphisms`` exhausts Aut(T) for a finite T by running over
all generator-image tuples (Hom(Z_d, Z_e) is the multiples of e / gcd(d, e))
and keeping the bijective ones.  The candidate count explodes quickly, so it
is guarded by configurable bounds and raises ``BoundExceeded`` rather than
guessing.  No library code calls it; it is kept for the benchmark tracer,
which times it by name, and for the brute-force oracles of the tests.

Free part.  Hom(T, Z^r) = 0 makes every automorphism of Z^r (+) T lower
triangular, (f, t) -> (M f, psi(t) + phi(f)) with phi: Z^r -> T arbitrary.
So (f, t) and (f', t') share an orbit iff f and f' have the same content c
(the gcd of the coordinates, 0 for f = 0) and some psi in Aut(T) carries t
to t' modulo cT.

Coprime base.  The invariant factors d_j, the gcd(t_j, d_j) and
gcd(t'_j, d_j) of both elements and the gcd(c, d_j) are refined into a
pairwise coprime base (``fggroup._coprime_base``); nothing is factored.  By
CRT, T is the direct sum of its parts T_q = (+)_j Z/q^lam_j over the base
elements q, with q^lam_j exactly dividing d_j.  Aut(T) is the product of the
Aut(T_q), and cT_q = q^delta T_q with q^delta exactly dividing gcd(c, d_s)
(so delta = max lam for c = 0).  Every prime of q sees the same exponents
times its multiplicity in q, so q-adic valuations stand in for p-adic ones.

The criterion (G. A. Miller 1905; Dutta-Prasad, "Degenerations and orbits in
finite abelian groups", J. Group Theory 2011).  A coordinate x_j of T_q of
q-adic valuation v < lam_j gives the pair (v, lam_j).  Pairs are ordered by
(v, lam) <= (v', lam') iff v <= v' and lam' - v' <= lam - v.  The pairs with
v < min(lam, delta) are kept, and x and x' share an orbit modulo q^delta T_q
iff their minimal kept pairs are equal.  Proof:

* Invariance.  An endomorphism's coordinate matrix M has q^max(0, lam_i -
  lam_j) dividing M_ij, so coordinate i of Mx has valuation at least
  v_j + max(0, lam_i - lam_j) for some nonzero x_j: each pair of Mx lies
  above a pair of x.  So automorphisms fix the up-set U(x) of the pairs of x.
  The kept region {v < min(lam, delta)} is closed downwards, so the minimal
  kept pairs are the minimal elements of U(x) inside it, and adding an
  element of q^delta T_q changes no kept pair and creates none.
* Normal form.  Scale each kept coordinate by the inverse of its unit part,
  so that it reads q^v.  Clear each kept pair above another kept pair j (or
  equal to one in an earlier slot) by x_i += -q^(v_i - v_j) x_j; this is an
  automorphism because v_i - v_j >= max(0, lam_i - lam_j).  Minimal pairs
  have distinct lam; swap each into the first slot with its lam.  What is
  left besides sum q^v e_lam over the minimal pairs lies in q^delta T_q.

The witness is N'^-1 N on each T_q, where N and N' normalise t and t', put
together by CRT; the free part then solves c w = t' - psi(t) in T.
"""

from __future__ import annotations

from itertools import product
from math import gcd
from typing import Iterator

from .errors import BoundExceeded, InternalError
from .fggroup import (FgElement, FgGroup, GroupHom, _coprime_base, _idempotent,
                      _valuation)
from .intmatrix import IntMatrix, _inverse_mod, smith_normal_form

DEFAULT_ORDER_BOUND = 10 ** 5
DEFAULT_CANDIDATE_BOUND = 10 ** 7


def torsion_orbit(group: FgGroup, elem: FgElement) -> frozenset[tuple[int, ...]]:
    """Aut(T)-orbit of an element of a finite group, as torsion coordinate
    tuples: the box of the module docstring, filtered by the decision."""
    return frozenset(_orbit_elements(group, elem))


def _orbit_elements(group: FgGroup, elem: FgElement) -> Iterator[tuple[int, ...]]:
    """The elements of ``torsion_orbit`` one at a time, in lexicographic
    order (the box's), so that a caller can stop listing early."""
    if not group.is_finite:
        raise ValueError("torsion_orbit needs a finite group")
    ds, x = group.torsion, elem.torsion
    steps = [1] * len(ds)
    for q in _coprime_base([*ds, *(gcd(c, d) for c, d in zip(x, ds))]):
        lam = [_valuation(d, q) for d in ds]
        pairs = _minimal_pairs(q, lam, max(lam), x)[0]
        for j, l in enumerate(lam):
            steps[j] *= q ** min([l, *(v + max(0, l - m) for v, m in pairs)])
    box = product(*(range(0, d, s) for d, s in zip(ds, steps)))
    return (y for y in box if aut_orbit_equivalent(group, elem, group.element((), y)))


def aut_orbit_equivalent(g: FgGroup, a: FgElement, b: FgElement) -> bool:
    """Decide whether some automorphism of g maps a to b."""
    return _orbit_decision(g, a, b, want_witness=False) is not None


def aut_orbit_witness(g: FgGroup, a: FgElement, b: FgElement) -> GroupHom | None:
    """An explicit automorphism of g mapping a to b, or None; the witness
    is checked before it is returned."""
    hom = _orbit_decision(g, a, b, want_witness=True)
    if hom is not None and not (hom(a) == b and hom.is_isomorphism()):
        raise InternalError("orbit witness is not an automorphism carrying a to b")
    return hom


def _orbit_decision(g, a, b, want_witness):
    """Returns a witness hom (or True when not requested) if equivalent, else None."""
    if a.group != g or b.group != g:
        raise ValueError("elements must belong to the given group")
    c = gcd(*a.free)
    if c != gcd(*b.free):
        return None
    ds = g.torsion
    base = _coprime_base([*ds, *(gcd(c, d) for d in ds),
                          *(gcd(x, d) for e in (a, b) for x, d in zip(e.torsion, ds))])
    parts = []
    for q in base:
        lam = [_valuation(d, q) for d in ds]
        delta = _valuation(gcd(c, ds[-1]), q)
        if want_witness:
            (key_a, ops_a), (key_b, ops_b) = (_normalise(q, lam, delta, e.torsion)
                                              for e in (a, b))
            parts.append((q, lam, ops_a, ops_b))
        else:
            key_a, key_b = (_minimal_pairs(q, lam, delta, e.torsion)[0] for e in (a, b))
        if key_a != key_b:
            return None
    if not want_witness:
        return True
    return _assemble_witness(g, a, b, c, _torsion_witness(FgGroup(0, ds), parts))


def _below(lo, hi) -> bool:
    """(v, lam) <= (v', lam') in the order of the module docstring."""
    return lo[0] <= hi[0] and hi[1] - hi[0] <= lo[1] - lo[0]


def _minimal_pairs(q, lam, delta, coords):
    """The sorted minimal kept pairs of coords at base element q, with the
    kept pairs by slot and the slots of the minimal ones."""
    kept = {}
    for j, (x, l) in enumerate(zip(coords, lam)):
        if l:
            v = _valuation(gcd(x, q ** l), q)
            if v < min(l, delta):
                kept[j] = (v, l)

    def dominated(j):
        # an equal pair in an earlier slot dominates too, so one copy stays
        return any(i != j and _below(kept[i], kept[j]) and (kept[i] != kept[j] or i < j)
                   for i in kept)

    mins = [j for j in kept if not dominated(j)]
    return sorted(kept[i] for i in mins), kept, mins


def _normalise(q, lam, delta, coords):
    """The sorted minimal kept pairs of coords at base element q, and the
    elementary automorphisms of T_q that carry coords to the canonical
    representative modulo q^delta T_q, in the order they apply."""
    key, kept, mins = _minimal_pairs(q, lam, delta, coords)
    ops = []
    for j, (v, l) in kept.items():
        w = coords[j] // q ** v
        ops.append(("scale", j, _inverse_mod(w, q ** l), w))
    for j, (v, _) in kept.items():
        if j not in mins:
            i = next(i for i in mins if _below(kept[i], kept[j]))
            ops.append(("add", j, i, -q ** (v - kept[i][0])))
    for i in mins:
        first = lam.index(kept[i][1])
        if first != i:
            ops.append(("swap", i, first))
    return key, ops


def _act(ops, vec, mods, inverse=False):
    """Apply elementary automorphisms to a coordinate vector of T_q, or
    their inverses in reverse order."""
    x = list(vec)
    for op in (reversed(ops) if inverse else ops):
        match op:
            case ("scale", i, u, w):
                x[i] = x[i] * (w if inverse else u) % mods[i]
            case ("add", i, j, c):
                x[i] = (x[i] + (-c if inverse else c) * x[j]) % mods[i]
            case ("swap", i, j):
                x[i], x[j] = x[j], x[i]
    return x


def _torsion_witness(t_group, parts) -> GroupHom:
    """The automorphism of T that is N'^-1 N on each part T_q, where ops_a
    give N and ops_b give N', put together through the CRT idempotents of
    the q^lam_i in Z/d_i."""
    ds = t_group.torsion
    images = [[0] * len(ds) for _ in ds]
    for q, lam, ops_a, ops_b in parts:
        mods = [q ** l for l in lam]
        idem = [_idempotent(d, m) for d, m in zip(ds, mods)]
        for j, l in enumerate(lam):
            if l:
                unit = [int(i == j) for i in range(len(ds))]
                y = _act(ops_b, _act(ops_a, unit, mods), mods, inverse=True)
                for i, yi in enumerate(y):
                    images[j][i] += yi * idem[i]
    return GroupHom(t_group, t_group, tuple(t_group.element((), img) for img in images))


def _assemble_witness(g, a, b, d, psi):
    """Build the lower-triangular automorphism of Z^r (+) T sending a to b."""
    r = g.free_rank
    t_group = psi.domain
    if d == 0:
        cols = IntMatrix.identity(r).to_rows()
        w = t_group.zero()
        first_row = (0,) * r
    else:
        # ua a = ub b = (d, 0, ..., 0), so M = ub^-1 ua carries a to b.  The
        # inverse comes from the LU of ub: solve gives adj(ub) = det ub^-1,
        # and det = +-1, so column j of M is det solve(column j of ua)
        ua = smith_normal_form(IntMatrix(r, 1, a.free)).u
        lu = smith_normal_form(IntMatrix(r, 1, b.free)).u.fraction_free_lu()
        if abs(lu.det) != 1:
            raise InternalError(f"the free-part transform has determinant {lu.det}, not +-1")
        cols = [[lu.det * x for x in lu.solve(col)] for col in ua.transpose().to_rows()]
        first_row = ua.row(0)
        # solve d*w = b_tor - psi(a_tor) in T, componentwise
        diff = (t_group.element((), b.torsion)
                - psi(t_group.element((), a.torsion))).torsion
        w_coords = []
        for c, dj in zip(diff, t_group.torsion):
            gg = gcd(d, dj)
            if c % gg:
                raise InternalError("orbit decision and witness solve disagree")
            nj = dj // gg
            w_coords.append((c // gg) * _inverse_mod((d // gg) % nj, nj) % nj)
        w = t_group.element((), tuple(w_coords))
    images = [g.element(col, w.scale(x).torsion) for col, x in zip(cols, first_row)]
    images += [g.element((0,) * r, img.torsion) for img in psi.images]
    return GroupHom(g, g, tuple(images))


def enumerate_automorphisms(t: FgGroup,
                            order_bound: int = DEFAULT_ORDER_BOUND,
                            candidate_bound: int = DEFAULT_CANDIDATE_BOUND) -> Iterator[GroupHom]:
    """Yield every automorphism of a finite group exactly once.

    Runs over all generator-image tuples compatible with the relation orders
    and keeps the surjective ones.  Raises BoundExceeded if the group order or
    the number of candidate tuples exceeds its bound.  It has no library
    caller: it is kept for the benchmark tracer and the oracle tests.
    """
    if not t.is_finite:
        raise BoundExceeded("automorphism enumeration needs a finite group")
    if t.order() > order_bound:
        raise BoundExceeded(f"group order {t.order()} exceeds bound {order_bound}")
    ds = t.torsion
    total = 1
    for di in ds:
        for dj in ds:
            total *= gcd(di, dj)
            if total > candidate_bound:
                raise BoundExceeded(
                    f"candidate endomorphism count exceeds bound {candidate_bound}")
    images = [[t.element((), img)
               for img in product(*(range(0, dj, dj // gcd(di, dj)) for dj in ds))]
              for di in ds]
    for imgs in product(*images):
        hom = GroupHom(t, t, imgs)
        if hom.is_surjective():
            yield hom
