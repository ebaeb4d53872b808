"""Automorphism groups of f.g. abelian groups and orbit decisions on elements.

Two complementary tools live here.

``enumerate_automorphisms`` exhausts Aut(T) for a finite T by running over
all generator-image tuples (Hom(Z_d, Z_e) has gcd(d, e) elements) and keeping
the bijective ones.  The candidate count explodes quickly, so it is guarded
by configurable bounds and raises ``BoundExceeded`` rather than guessing.

``aut_orbit_equivalent`` decides whether some automorphism maps a to b.  For
the torsion part it computes the orbit closure under an elementary generating
set of Aut(T_p) per prime p (unit scalings g_i -> u*g_i and transvections
g_j -> g_j + p^max(0, e_i - e_j) * g_i); a Gaussian-elimination argument shows
these generate, so the closure is the full orbit.  Mixed free/torsion groups
reduce to the torsion case: Hom(T, Z^r) = 0 makes every automorphism of
Z^r (+) T lower triangular, so the orbit of (f, t) is determined by the
content gcd d of f together with the Aut(T)-orbit of t modulo d*T.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .errors import BoundExceeded, InternalError
from .fggroup import FgElement, FgGroup, GroupHom, _factorint
from .intmatrix import IntMatrix, smith_normal_form

DEFAULT_ORDER_BOUND = 10 ** 5
DEFAULT_CANDIDATE_BOUND = 10 ** 7


def unimodular_inverse(m: IntMatrix) -> IntMatrix:
    """Exact inverse of a unimodular integer matrix (u m v = I gives m^-1 = v u)."""
    snf = smith_normal_form(m)
    if any(d != 1 for d in snf.diagonal()) or m.rows != m.cols:
        raise ValueError("matrix is not unimodular")
    return snf.v @ snf.u


def _modinv(a: int, n: int) -> int:
    if n == 1:
        return 0
    t, new_t, r, new_r = 0, 1, n, a % n
    while new_r:
        q = r // new_r
        t, new_t = new_t, t - q * new_t
        r, new_r = new_r, r - q * new_r
    if r != 1:
        raise InternalError(f"{a} is not invertible modulo {n}")
    return t % n


@dataclass(frozen=True)
class _Slot:
    prime: int
    exponent: int
    inv_index: int  # which invariant factor this prime power came from

    @property
    def modulus(self) -> int:
        return self.prime ** self.exponent


class _PrimaryView:
    """CRT coordinates of a finite abelian group, one slot per prime power."""

    def __init__(self, group: FgGroup):
        if not group.is_finite:
            raise ValueError("primary view needs a finite group")
        self.group = group
        self.slots: list[_Slot] = []
        for i, d in enumerate(group.torsion):
            for p, e in sorted(_factorint(d).items()):
                self.slots.append(_Slot(p, e, i))
        self.blocks: dict[int, list[int]] = {}
        for s_idx, slot in enumerate(self.slots):
            self.blocks.setdefault(slot.prime, []).append(s_idx)
        # CRT lift coefficients: slot value v contributes v * crt_coeff to its
        # invariant factor coordinate
        self._crt = []
        for slot in self.slots:
            d = group.torsion[slot.inv_index]
            q = slot.modulus
            rest = d // q  # coprime to q, since q is the full p-part of d
            self._crt.append(1 % d if rest == 1 else rest * _modinv(rest % q, q) % d)

    def to_primary(self, torsion_coords) -> tuple[int, ...]:
        return tuple(torsion_coords[s.inv_index] % s.modulus for s in self.slots)

    def from_primary(self, primary) -> tuple[int, ...]:
        coords = [0] * len(self.group.torsion)
        for v, slot, c in zip(primary, self.slots, self._crt):
            d = self.group.torsion[slot.inv_index]
            coords[slot.inv_index] = (coords[slot.inv_index] + v * c) % d
        return tuple(coords)

    def generators(self):
        """Elementary Aut generators as (prime, transition, matrix) triples.

        transition maps a primary coordinate tuple to its image; matrix is the
        action on the prime's block, used for witness reconstruction.
        """
        gens = []
        for p, block in self.blocks.items():
            k = len(block)
            exps = [self.slots[i].exponent for i in block]
            for bi in range(k):
                q = p ** exps[bi]
                s_idx = block[bi]
                for u in range(2, q):
                    if u % p == 0:
                        continue
                    gens.append((p, _unit_transition(s_idx, u, q),
                                 _unit_matrix(k, bi, u)))
            for bi in range(k):
                for bj in range(k):
                    if bi == bj:
                        continue
                    c = p ** max(0, exps[bi] - exps[bj])
                    q = p ** exps[bi]
                    gens.append((p, _transvection_transition(block[bi], block[bj], c, q),
                                 _transvection_matrix(k, bi, bj, c)))
        return gens


def _unit_transition(s_idx, u, q):
    def f(x):
        y = list(x)
        y[s_idx] = y[s_idx] * u % q
        return tuple(y)
    return f


def _transvection_transition(si, sj, c, q):
    def f(x):
        y = list(x)
        y[si] = (y[si] + c * x[sj]) % q
        return tuple(y)
    return f


def _unit_matrix(k, bi, u):
    m = [[1 if a == b else 0 for b in range(k)] for a in range(k)]
    m[bi][bi] = u
    return m


def _transvection_matrix(k, bi, bj, c):
    m = [[1 if a == b else 0 for b in range(k)] for a in range(k)]
    m[bi][bj] = c
    return m


def _orbit(view: _PrimaryView, start: tuple[int, ...], track_parents: bool):
    gens = view.generators()
    parents: dict[tuple, tuple | None] = {start: None}
    frontier = [start]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, (_, trans, _) in enumerate(gens):
                y = trans(x)
                if y not in parents:
                    parents[y] = (x, gi) if track_parents else None
                    nxt.append(y)
        frontier = nxt
    return parents, gens


def torsion_orbit(group: FgGroup, elem: FgElement,
                  order_bound: int = DEFAULT_ORDER_BOUND) -> frozenset[tuple[int, ...]]:
    """Aut(T)-orbit of an element of a finite group, as torsion coordinate tuples."""
    if not group.is_finite:
        raise ValueError("torsion_orbit needs a finite group")
    if group.order() > order_bound:
        raise BoundExceeded(f"group order {group.order()} exceeds bound {order_bound}")
    view = _PrimaryView(group)
    parents, _ = _orbit(view, view.to_primary(elem.torsion), track_parents=False)
    return frozenset(view.from_primary(x) for x in parents)


def _content(vec) -> int:
    g = 0
    for x in vec:
        g = gcd(g, x)
    return g


def _torsion_part(g: FgGroup) -> FgGroup:
    return FgGroup(0, g.torsion)


def aut_orbit_equivalent(g: FgGroup, a: FgElement, b: FgElement,
                         order_bound: int = DEFAULT_ORDER_BOUND) -> bool:
    """Decide whether some automorphism of g maps a to b."""
    return _orbit_decision(g, a, b, want_witness=False, order_bound=order_bound) is not None


def aut_orbit_witness(g: FgGroup, a: FgElement, b: FgElement,
                      order_bound: int = DEFAULT_ORDER_BOUND) -> GroupHom | None:
    """An explicit automorphism of g mapping a to b, or None."""
    hom = _orbit_decision(g, a, b, want_witness=True, order_bound=order_bound)
    if hom is not None and not (hom(a) == b and hom.is_isomorphism()):
        raise InternalError("orbit witness is not an automorphism carrying a to b")
    return hom


def _orbit_decision(g, a, b, want_witness, order_bound):
    """Returns a witness hom (or True when not requested) if equivalent, else None."""
    if a.group != g or b.group != g:
        raise ValueError("elements must belong to the given group")
    da, db = _content(a.free), _content(b.free)
    if da != db:
        return None
    t_group = _torsion_part(g)
    if t_group.order() > order_bound:
        raise BoundExceeded(
            f"torsion order {t_group.order()} exceeds bound {order_bound}")
    view = _PrimaryView(t_group)
    at = view.to_primary(a.torsion)
    bt = view.to_primary(b.torsion)
    parents, gens = _orbit(view, at, track_parents=want_witness)

    if da == 0:
        target = bt if bt in parents else None
    else:
        target = None
        mods = tuple(gcd(da, s.modulus) for s in view.slots)
        for x in parents:
            if all((bx - xx) % m == 0 for bx, xx, m in zip(bt, x, mods)):
                target = x
                break
    if target is None:
        return None
    if not want_witness:
        return True
    psi = _reconstruct_aut(view, parents, gens, target)
    return _assemble_witness(g, a, b, da, view, psi, target)


def _reconstruct_aut(view, parents, gens, target):
    """Per-prime matrices of the automorphism reaching target from the start."""
    mats = {p: _identity_mat(len(block)) for p, block in view.blocks.items()}
    node = target
    while parents[node] is not None:
        prev, gi = parents[node]
        p, _, m = gens[gi]
        mats[p] = _mat_mul(mats[p], m)
        node = prev
    # walking back yields last-applied first, and M_total = M_last ... M_first,
    # so left-to-right accumulation is already in the right order
    return mats


def _identity_mat(k):
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _mat_mul(a, b):
    k = len(a)
    return [[sum(a[i][l] * b[l][j] for l in range(k)) for j in range(k)] for i in range(k)]


def _torsion_hom_from_primary(view: _PrimaryView, mats) -> GroupHom:
    """Convert per-prime coordinate matrices into a GroupHom on the torsion group."""
    t_group = view.group
    images = []
    for i in range(len(t_group.torsion)):
        start = view.to_primary(tuple(1 if j == i else 0 for j in range(len(t_group.torsion))))
        out = [0] * len(view.slots)
        for p, block in view.blocks.items():
            m = mats[p]
            vals = [start[s] for s in block]
            for bi, s_idx in enumerate(block):
                q = view.slots[s_idx].modulus
                out[s_idx] = sum(m[bi][bj] * vals[bj] for bj in range(len(block))) % q
        images.append(t_group.element((), view.from_primary(tuple(out))))
    return GroupHom(t_group, t_group, tuple(images))


def _assemble_witness(g, a, b, d, view, psi_mats, psi_target):
    """Build the lower-triangular automorphism of Z^r (+) T sending a to b."""
    r = g.free_rank
    t_group = view.group
    psi = _torsion_hom_from_primary(view, psi_mats)
    if d == 0:
        m = IntMatrix.identity(r)
        w = t_group.zero()
        first_row = (0,) * r
    else:
        col_a = IntMatrix(r, 1, a.free)
        col_b = IntMatrix(r, 1, b.free)
        ua = smith_normal_form(col_a).u
        ub = smith_normal_form(col_b).u
        m = unimodular_inverse(ub) @ ua
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
            if nj == 1:
                w_coords.append(0)
            else:
                w_coords.append((c // gg) * _modinv((d // gg) % nj, nj) % nj)
        w = t_group.element((), tuple(w_coords))
    images = []
    for j in range(r):
        free = tuple(m[i, j] for i in range(r))
        tor = w.scale(first_row[j]).torsion
        images.append(g.element(free, tor))
    for img in psi.images:
        images.append(g.element((0,) * r, img.torsion))
    return GroupHom(g, g, tuple(images))


def enumerate_automorphisms(t: FgGroup,
                            order_bound: int = DEFAULT_ORDER_BOUND,
                            candidate_bound: int = DEFAULT_CANDIDATE_BOUND) -> Iterator[GroupHom]:
    """Yield every automorphism of a finite group exactly once.

    Runs over all generator-image tuples compatible with the relation orders
    and keeps the surjective ones.  Raises BoundExceeded if the group order or
    the number of candidate tuples exceeds its bound.
    """
    if not t.is_finite:
        raise BoundExceeded("automorphism enumeration needs a finite group")
    if t.order() > order_bound:
        raise BoundExceeded(f"group order {t.order()} exceeds bound {order_bound}")
    ds = t.torsion
    s = len(ds)
    total = 1
    for di in ds:
        for dj in ds:
            total *= gcd(di, dj)
            if total > candidate_bound:
                raise BoundExceeded(
                    f"candidate endomorphism count exceeds bound {candidate_bound}")
    if s == 0:
        yield GroupHom.identity(t)
        return

    def candidates(i):
        di = ds[i]
        choice_sets = []
        for dj in ds:
            g = gcd(di, dj)
            step = dj // g
            choice_sets.append([m * step for m in range(g)])
        def rec(j, acc):
            if j == s:
                yield t.element((), tuple(acc))
                return
            for c in choice_sets[j]:
                acc.append(c)
                yield from rec(j + 1, acc)
                acc.pop()
        yield from rec(0, [])

    def build(i, imgs):
        if i == s:
            hom = GroupHom(t, t, tuple(imgs))
            if hom.is_surjective():
                yield hom
            return
        for img in candidates(i):
            imgs.append(img)
            yield from build(i + 1, imgs)
            imgs.pop()

    yield from build(0, [])
