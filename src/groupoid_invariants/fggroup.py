"""Finitely generated abelian groups in canonical (invariant factor) form.

A group is Z^r (+) Z/d_1 (+) ... (+) Z/d_s with 2 <= d_1 | d_2 | ... | d_s.
Two groups are isomorphic iff their canonical data are equal, so group
equality below *is* the isomorphism test.  Elements carry coordinates with
respect to the canonical generators (free generators first, then one
generator per invariant factor).

Throughout, a cyclic order of 0 encodes Z (the "Z_0 = Z" convention) and
orders of 1 are trivial summands that get dropped.  0 is the identity of
``math.gcd``, so Z_a (x) Z_b = Z_gcd(a, b) holds with Z among the factors.

Canonical form over a coprime base.  The distinct nonzero orders are
refined by gcd splitting into a pairwise coprime base (Bernstein, "Factoring
into coprimes in essentially linear time", J. Algorithms 2005, gives the
fast version; this is the plain splitting loop).  Nothing is factored, so
orders with large prime factors cost no more than small ones.  Each order n
is a product of base powers b^e(n), and Z/n splits by CRT into the
Z/b^e(n).  Sorting each base element's exponents in descending order, the
r-th largest entries of all columns multiply to the r-th largest invariant
factor.  ``canonical_orders``, and through it ``from_orders``,
``direct_sum`` and ``tor``, is that merge.  It counts equal orders and keeps
each column as (exponent, multiplicity) runs; the invariant factor is
constant between run ends, so its Python work grows with the distinct orders
and the runs, not with the length of the list.  The tensor element map
below keeps one column entry per slot, since it sends each slot somewhere.

Tensor products need no Smith normal form: g (x) h is the direct sum of the
pieces Z_gcd(d_i, e_j), whose canonical form is the merge above.  The
element map sends each piece's base-b part x mod b^e to the invariant factor
it was merged into, through the CRT idempotent of b^e there; it is built
on first use.  A product of several groups is ``tensor_fold``, the one
fold: g_1 (x) ... (x) g_n from the left, one ``tensor`` per step, whose
maps ``fold_elements`` applies to elements.  ``automorphisms`` decides
Aut-orbits over the same kind of base, with the same valuations and
idempotents.  The isomorphism onto the canonical form is not canonical, so
element coordinates are meaningful only up to an automorphism.

Cokernels of general matrices (``cokernel``) and kernels (``kernel_group``)
use the Smith normal form: ``intmatrix``'s one diagonal elimination, run over
Z with both transforms.  ``cokernel_reduction`` takes a square
presentation m and computes D = det m = det m^t by one Bareiss
elimination kept as a fraction-free LU: of m itself below
``_CYCLIC_MIN_SIZE`` rows, where only D is read, and of m^t from there on,
where its solves give adjugate columns.  Every path ends in one
``intmatrix.ModularSnf``, the factors other than 1 with the rows of the
left transform that belong to them.  ``cokernel_and_kernel`` reads the
group and its projection off it with ``_projection``; ``sft`` reads the
group and the one class it needs off the rows directly.
When D != 0 and m has at least ``_CYCLIC_MIN_SIZE`` rows, a few adjugate
columns from that LU give a row w with w m = 0 mod N, N = |D|.  If
gcd(w, N) = 1, x -> w x mod N is an isomorphism coker m -> Z/N and no
elimination runs.  Otherwise the columns leave g = gcd(w, N) > 1, and
coker m splits into Z/N', read by w, N' the part of N coprime to g, and
coker m (x) Z/N_g, N_g = N / N', from the elimination modulo N_g; the two
merge by CRT (``_top_factor_first`` proves it).  Smaller m, and every m
with D = 0, take the elimination modulo N, over Z when D = 0
(``intmatrix.smith_form_mod_det``), which replays only the rows it reads.
Every answer for D != 0 is certified, however it was found: its rows
annihilate m, map onto the factors, and the factors multiply to N
(``_certify``); a miss raises ``InternalError``.  ker m, free of the free
rank of coker m, is left to the caller.  Every projection,
these and the tensor map, is a ``QuotientMap``; like the tensor map, each is
one isomorphism onto the canonical form among many, so the coordinates it
gives an element are meaningful only up to an automorphism.

Generation.  ``_onto`` is the one test of whether given elements generate
a group (+) Z/d_i, d_1 | ... | d_r with the zeros of Z at the end: Euclid's
column operations, one row at a time from the top factor down, with no
Smith form.  ``_certify`` runs it on the cokernel rows, and
``GroupHom.is_surjective`` on the images of the generators, read with the
torsion coordinates first.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import product, starmap
from math import gcd, prod
from operator import index, mod, mul
from typing import Iterable, Sequence

from .errors import InternalError
from .intmatrix import (FractionFreeLU, IntMatrix, ModularSnf,
                        smith_form_mod_det, smith_normal_form)


def _coprime_base(values: Iterable[int]) -> list[int]:
    """A pairwise coprime base of integers > 1: every value is a product of
    powers of base elements.

    Gcd splitting only, no factoring: a value x meeting a base element b with
    g = gcd(x, b) > 1 is replaced by g, x/g and b/g, which shrinks the product
    of all pending and base elements by g, so the loop ends.
    """
    base: list[int] = []
    todo = [v for v in values if v > 1]
    while todo:
        x = todo.pop()
        for i, b in enumerate(base):
            g = gcd(x, b)
            if g > 1:
                base[i] = base[-1]
                base.pop()
                todo.extend(v for v in (g, x // g, b // g) if v > 1)
                break
        else:
            base.append(x)
    return sorted(base)


def _valuation(n: int, b: int) -> int:
    """The largest e with b^e dividing n, for n != 0 and b > 1."""
    e = 0
    while n % b == 0:
        n //= b
        e += 1
    return e


def _idempotent(d: int, q: int) -> int:
    """The CRT idempotent of Z/d at its coprime factor q: 1 mod q, 0 mod d/q."""
    rest = d // q
    return rest * pow(rest, -1, q) % d


def _coprime_columns(vals: Sequence[int]) -> dict[int, list[tuple[int, int]]]:
    """Per base element b of the orders > 1, the (exponent, slot) pairs with
    b^exponent exactly dividing vals[slot], in descending order."""
    distinct = {v for v in vals if v > 1}
    base = _coprime_base(distinct)
    split = {v: [(b, e) for b in base if (e := _valuation(v, b))] for v in distinct}
    columns: dict[int, list[tuple[int, int]]] = {}
    for slot, v in enumerate(vals):
        for b, e in split.get(v, ()):
            columns.setdefault(b, []).append((e, slot))
    for col in columns.values():
        col.sort(reverse=True)
    return columns


def canonical_orders(orders: Iterable[int]) -> tuple[int, tuple[int, ...]]:
    """Turn a list of cyclic orders (0 = Z) into (free_rank, invariant factors).

    Refines the distinct nonzero orders into a coprime base and merges the
    exponent columns, kept as (exponent, multiplicity) runs (see the module
    docstring).
    """
    counts = Counter(map(abs, map(index, orders)))
    free = counts.pop(0, 0)
    counts.pop(1, None)
    # each base element's exponents as descending runs, entered as the rank
    # at which a run ends and the power of b from there on
    power = {}
    events = []
    for b in _coprime_base(counts):
        col: dict[int, int] = {}
        for v, m in counts.items():
            if e := _valuation(v, b):
                col[e] = col.get(e, 0) + m
        runs = sorted(col.items(), reverse=True)
        power[b] = b ** runs[0][0]
        end = 0
        for (_, m), (e, _) in zip(runs, runs[1:] + [(0, 0)]):
            end += m
            events.append((end, b, b ** e))
    # the r-th largest exponents of all base elements multiply to the r-th
    # largest invariant factor, which is constant between run ends
    segments = []
    start = 0
    for end, b, p in sorted(events):
        if end > start:
            segments.append((prod(power.values()), end - start))
            start = end
        power[b] = p
    return free, _expand(reversed(segments))


def _expand(runs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """The tuple with each (value, length) run written out in turn."""
    out: list[int] = []
    for v, m in runs:
        out += [v] * m
    return tuple(out)


@dataclass(frozen=True)
class FgGroup:
    """Canonical form of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        # stored as exact ints and a tuple, so that equal groups compare equal;
        # a sum of ints is an int, so data already in that form is kept as is
        free_rank, torsion = self.free_rank, self.torsion
        try:
            if not (type(free_rank) is int and type(torsion) is tuple
                    and type(sum(torsion)) is int):
                object.__setattr__(self, "free_rank", index(free_rank))
                object.__setattr__(self, "torsion", tuple(map(index, torsion)))
        except TypeError:
            raise ValueError(f"free rank and invariant factors must be integers, not "
                             f"{self.free_rank!r} and {self.torsion!r}") from None
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        torsion = self.torsion
        if torsion and min(torsion) < 2:
            raise ValueError("invariant factors must be >= 2")
        if any(map(mod, torsion[1:], torsion)):
            raise ValueError("invariant factors must form a divisibility chain")

    @classmethod
    def from_orders(cls, orders: Iterable[int]) -> "FgGroup":
        r, t = canonical_orders(orders)
        return cls(r, t)

    @classmethod
    def trivial(cls) -> "FgGroup":
        return cls(0, ())

    @classmethod
    def free(cls, rank: int) -> "FgGroup":
        return cls(rank, ())

    @classmethod
    def cyclic(cls, n: int) -> "FgGroup":
        return cls.from_orders([n])

    @property
    def num_generators(self) -> int:
        return self.free_rank + len(self.torsion)

    @property
    def is_trivial(self) -> bool:
        return self.free_rank == 0 and not self.torsion

    @property
    def is_finite(self) -> bool:
        return self.free_rank == 0

    def order(self) -> int:
        """Group order; 0 means infinite."""
        return 0 if self.free_rank else prod(self.torsion, start=1)

    def orders(self) -> tuple[int, ...]:
        """Cyclic orders of the canonical generators (0 for free ones)."""
        return (0,) * self.free_rank + self.torsion

    def zero(self) -> "FgElement":
        return FgElement(self, (0,) * self.free_rank, (0,) * len(self.torsion))

    def element(self, free: Sequence[int] = (), torsion: Sequence[int] = ()) -> "FgElement":
        if len(free) != self.free_rank or len(torsion) != len(self.torsion):
            raise ValueError("coordinate count mismatch")
        red = tuple(index(c) % d for c, d in zip(torsion, self.torsion))
        return FgElement(self, tuple(map(index, free)), red)

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(map("Z/{}".format, self.torsion))
        return " x ".join(parts) if parts else "0"


@dataclass(frozen=True)
class FgElement:
    """Element of an FgGroup in canonical coordinates (torsion reduced)."""

    group: FgGroup
    free: tuple[int, ...]
    torsion: tuple[int, ...]

    def __post_init__(self):
        if (len(self.free), len(self.torsion)) != (self.group.free_rank, len(self.group.torsion)):
            raise ValueError("coordinate count does not match the group")
        for c, d in zip(self.torsion, self.group.torsion):
            if not 0 <= c < d:
                raise ValueError("torsion coordinate not reduced")

    @property
    def is_zero(self) -> bool:
        return not any(self.free) and not any(self.torsion)

    def coords(self) -> tuple[int, ...]:
        return self.free + self.torsion

    def __add__(self, other: "FgElement") -> "FgElement":
        self._check(other)
        return self.group.element(
            tuple(a + b for a, b in zip(self.free, other.free)),
            tuple(a + b for a, b in zip(self.torsion, other.torsion)))

    def __sub__(self, other: "FgElement") -> "FgElement":
        self._check(other)
        return self.group.element(
            tuple(a - b for a, b in zip(self.free, other.free)),
            tuple(a - b for a, b in zip(self.torsion, other.torsion)))

    def scale(self, n: int) -> "FgElement":
        return self.group.element(tuple(n * a for a in self.free),
                                  tuple(n * a for a in self.torsion))

    def order(self) -> int:
        """Order of the element; 0 means infinite."""
        if any(self.free):
            return 0
        n = 1
        for c, d in zip(self.torsion, self.group.torsion):
            if c:
                o = d // gcd(c, d)
                n = n * o // gcd(n, o)
        return n

    def _check(self, other: "FgElement"):
        if self.group != other.group:
            raise ValueError("elements of different groups")


@dataclass(frozen=True)
class GroupHom:
    """Homomorphism given by the images of the domain's canonical generators."""

    domain: FgGroup
    codomain: FgGroup
    images: tuple[FgElement, ...]

    def __post_init__(self):
        if len(self.images) != self.domain.num_generators:
            raise ValueError("need one image per generator")
        if any(img.group != self.codomain for img in self.images):
            raise ValueError("generator image not in the codomain")
        r = self.domain.free_rank
        for d, img in zip(self.domain.torsion, self.images[r:]):
            if not img.scale(d).is_zero:
                raise ValueError("generator image order incompatible with relation")

    def __call__(self, x: FgElement) -> FgElement:
        if x.group != self.domain:
            raise ValueError("element not in the domain")
        acc = self.codomain.zero()
        for c, img in zip(x.coords(), self.images):
            if c:
                acc = acc + img.scale(c)
        return acc

    def is_isomorphism(self) -> bool:
        """True iff the hom is bijective.

        Isomorphic groups have equal canonical forms, and a surjective
        endomorphism of a finitely generated abelian group is bijective, so
        equal canonical forms plus surjectivity decides it.
        """
        return self.domain == self.codomain and self.is_surjective()

    def is_surjective(self) -> bool:
        """Whether the images generate the codomain (``_onto``): one row per
        codomain coordinate, torsion first and then free, so the orders form
        a divisibility chain ending in the zeros of Z."""
        cod = self.codomain
        cols = [img.torsion + img.free for img in self.images]
        rows = [[col[i] for col in cols] for i in range(cod.num_generators)]
        return _onto(rows, cod.torsion + (0,) * cod.free_rank)

    @classmethod
    def identity(cls, g: FgGroup) -> "GroupHom":
        imgs = []
        for i in range(g.num_generators):
            free = tuple(1 if j == i else 0 for j in range(g.free_rank))
            tor = tuple(1 if g.free_rank + j == i else 0 for j in range(len(g.torsion)))
            imgs.append(g.element(free, tor))
        return cls(g, g, tuple(imgs))

    def is_identity(self) -> bool:
        return self == GroupHom.identity(self.domain) if self.domain == self.codomain else False


@dataclass(frozen=True)
class QuotientMap:
    """Linear map Z^N -> group in the group's canonical coordinates.

    ``columns[k]`` is the image of the k-th unit vector, as sparse
    (coordinate, coefficient) pairs; coordinates count free generators first.
    """

    group: FgGroup
    columns: tuple[tuple[tuple[int, int], ...], ...]

    def __call__(self, vec: Sequence[int]) -> FgElement:
        coords = self.reduce(vec)
        r = self.group.free_rank
        return FgElement(self.group, coords[:r], coords[r:])

    def reduce(self, vec: Sequence[int]) -> tuple[int, ...]:
        """The canonical coordinates of the image of vec, torsion reduced."""
        if len(vec) != len(self.columns):
            raise ValueError("vector length mismatch")
        acc = [0] * self.group.num_generators
        for x, col in zip(vec, self.columns):
            if x:
                for i, c in col:
                    acc[i] += x * c
        return tuple(a % d if d else a for a, d in zip(acc, self.group.orders()))


def _projection(diag: Sequence[int], u: IntMatrix) -> tuple[FgGroup, QuotientMap]:
    """The group (+) Z/diag[i] with the map x -> u x read against diag.

    diag is a divisibility chain of the nonzero entries followed by zeros:
    rows with diagonal 0 are free coordinates, rows with diagonal d >= 2 are
    coordinates mod d, rows with diagonal 1 vanish.
    """
    grp = FgGroup(free_rank=diag.count(0), torsion=tuple(d for d in diag if d >= 2))
    # canonical coordinates: free rows first, then torsion rows
    targets = list(enumerate([i for i, d in enumerate(diag) if d == 0]
                             + [i for i, d in enumerate(diag) if d >= 2]))
    rows = [(coord, diag[i], u.row(i)) for coord, i in targets]
    columns = []
    for k in range(u.cols):
        col = []
        for coord, d, row in rows:
            c = row[k] % d if d else row[k]
            if c:
                col.append((coord, c))
        columns.append(tuple(col))
    return grp, QuotientMap(grp, tuple(columns))


def cokernel(m: IntMatrix) -> tuple[FgGroup, QuotientMap]:
    """Z^rows / (m Z^cols) in canonical form, with the projection map."""
    # with u*m*v = s, the class of x is u*x read against the diagonal of s
    snf = smith_normal_form(m)
    return _projection(list(snf.diagonal()) + [0] * (m.rows - min(m.rows, m.cols)), snf.u)


def kernel_group(m: IntMatrix) -> tuple[FgGroup, tuple[tuple[int, ...], ...]]:
    """The (free) kernel {x in Z^cols : m x = 0} with an explicit basis."""
    # with u*m*v = s, the columns of v past the rank span the kernel
    snf = smith_normal_form(m)
    basis = tuple(tuple(snf.v[i, j] for i in range(m.cols))
                  for j in range(snf.rank(), m.cols))
    return FgGroup.free(len(basis)), basis


def cokernel_and_kernel(m: IntMatrix) -> tuple[FgGroup, QuotientMap, int]:
    """coker m with its projection, and D = det m, for a square m: the
    certified reduction of ``cokernel_reduction`` read by ``_projection``.
    ker m is free of the free rank of coker m, so it needs no slot here.
    """
    red, det = cokernel_reduction(m)
    return (*_projection(red.factors, red.u), det)


def cokernel_reduction(m: IntMatrix) -> tuple[ModularSnf, int]:
    """The reduction of a square m that presents coker m, and D = det m.

    D comes from one fraction-free LU (``IntMatrix.fraction_free_lu``): of m
    below ``_CYCLIC_MIN_SIZE`` rows, where only D is read, and of m^t from
    there on, whose ``solve`` gives the adjugate columns of
    ``_top_factor_first`` when D != 0.  Otherwise coker m comes from the
    elimination modulo |D|, over Z when D = 0 (``smith_form_mod_det``).
    Every answer for D != 0 is certified (``_certify``) before it is
    returned.  Row r of the reduction, read modulo factors[r] (free when
    that is 0), is coordinate r of the class of x: x -> (u x)_r.
    """
    if m.rows < _CYCLIC_MIN_SIZE:
        det = m.fraction_free_lu().det  # det m = det m^t
        red = smith_form_mod_det(m, det)
    else:
        lu = m.transpose().fraction_free_lu()
        det = lu.det
        red = _top_factor_first(m, lu) if det else smith_form_mod_det(m, 0)
    if det:
        _certify(m, red, abs(det))
    return red, det


# right-hand sides tried before the cokernel is split
_CYCLIC_COLUMNS = 6
# Below this many rows the elimination modulo |D| costs no more than the
# adjugate columns: on random 0-3 presentations the two paths run level up
# to n = 6 and the columns win from n = 8, while a non-cyclic 2-4-vertex
# presentation pays for its unused columns (about 1.4x).
_CYCLIC_MIN_SIZE = 8


def _top_factor_first(m: IntMatrix, lu: FractionFreeLU) -> ModularSnf:
    """coker m for N = |det m| != 0, from the LU of m^t: a row w for which
    x -> w x mod N is an isomorphism coker m -> Z/N when one is found,
    else the split below.

    Finding w.  For a column c, y = lu.solve(c) = adj(m^t) c, and
    w = y^t = c^t adj(m) has w m = det(m) c^t = 0 mod N.  With u m v = S =
    diag(s_1, ..., s_n) in Smith form, adj(m) = det(m) v S^-1 u, so w is
    +-sum_i (c^t v)_i (N / s_i) u_i over the rows u_i of u, and modulo N the
    terms with s_i = 1 vanish.  A cyclic coker m (s_1 = ... = s_n-1 = 1)
    thus gives w = a u_n mod N with a = +-(c^t v)_n, and u_n, a row of a
    unimodular matrix, has content 1, so gcd(w, N) = gcd(a, N).  A
    non-cyclic one gives g = gcd(w, N) divisible by N / s_n = s_1 ... s_n-1
    > 1 for every c.  A w with g > 1 becomes w + N' y for the next column's
    y, N' the part of N coprime to g: a prime of N that does not divide g
    divides N' and not w, so not the new w; one that divides g does not
    divide N', so it divides the new w only if it divides y's coefficient
    too.  So only the primes of N that divided every coefficient so far are
    left.  Columns are made only when needed, with 16-bit entries from a
    fixed 64-bit linear congruential generator (Knuth's MMIX constants), so
    answers are deterministic.  When g = 1, w mod N is the answer
    (``_certify`` proves it an isomorphism).

    The split.  After ``_CYCLIC_COLUMNS`` columns with g > 1, write
    N = N' N_g with N' the largest divisor of N coprime to g (g's common
    part divided out until none is left, with no factoring); N_g > 1 is
    made of the primes of g.  coker m is the direct sum of its N'-primary
    and N_g-primary parts, of orders N' and N_g.  The N'-part is Z/N',
    read by w mod N': w annihilates m modulo N, hence modulo N', and
    gcd(w, N') = 1 (a prime of N' dividing every w_i would divide g), so
    x -> w x mod N' maps coker m onto Z/N'; it kills the N_g-part, whose
    order is coprime to N', so it maps the N'-part, of order N', onto Z/N'
    and is an isomorphism there.  The N_g-part is coker m (x) Z/N_g: N_g
    kills it, and N_g is invertible on the N'-part, which vanishes there.
    That is the elimination modulo N_g (``smith_form_mod_det``), with
    factors e_1 | ... | e_k.  e_k and N' are coprime, so by CRT coker m =
    Z/e_1 (+) ... (+) Z/e_k-1 (+) Z/(e_k N'), and the row of the top factor
    is w on Z/N' and the elimination's last row on Z/e_k.  So the part N'
    of the largest invariant factor is split off first, as in
    Eberly-Giesbrecht-Villard ("On computing the determinant and Smith form
    of an integer matrix", FOCS 2000), and the elimination runs modulo N_g,
    usually a few bits, instead of N.  When N' = 1 it is the elimination
    modulo N.
    """
    n = m.rows
    mod = abs(lu.det)
    if mod == 1:
        return ModularSnf((), IntMatrix(0, n, ()))
    w: list[int] = []
    g = mod
    state = 1
    for _ in range(_CYCLIC_COLUMNS):
        c = []
        for _ in range(n):
            state = (state * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            c.append(state >> 48)
        y = lu.solve(c)
        if w:
            coprime = _coprime_part(mod, g)
            w = [(x + coprime * z) % mod for x, z in zip(w, y)]
        else:
            w = [x % mod for x in y]
        g = gcd(mod, *w)
        if g == 1:
            return ModularSnf((mod,), IntMatrix(1, n, tuple(w)))
    coprime = _coprime_part(mod, g)
    red = smith_form_mod_det(m, mod // coprime)
    d = red.factors[-1] * coprime
    idem = _idempotent(d, coprime)  # 1 mod N', 0 mod e_k
    k = len(red.factors) - 1
    last = [(y + (x - y) * idem) % d for x, y in zip(w, red.u.row(k))]
    return ModularSnf(red.factors[:-1] + (d,),
                      IntMatrix(k + 1, n, red.u.entries[:k * n] + tuple(last)))


def _coprime_part(n: int, g: int) -> int:
    """The largest divisor of n coprime to g, by gcds alone."""
    while (h := gcd(n, g)) > 1:
        n //= h
    return n


def _certify(m: IntMatrix, red: ModularSnf, mod: int) -> None:
    """Check that red gives an isomorphism coker m -> (+) Z/d_i, for a
    square m with N = |det m| = mod != 0, or raise ``InternalError``.

    Let P be the rows of red.u, row i read modulo d_i.  (a) Row i of P
    annihilates every column of m modulo d_i, so x -> P x factors through
    coker m.  (b) P maps Z^n onto (+) Z/d_i (``_onto``).  (c) prod d_i =
    N = |coker m|, so this surjection between groups of equal order is an
    isomorphism.  None of it depends on how red was found.
    """
    n, ent, u = m.rows, m.entries, red.u.entries
    factors = red.factors
    if prod(factors) != mod:
        raise InternalError(f"the factors {factors} do not multiply to |det| = {mod}")
    rows = [u[i * n:(i + 1) * n] for i in range(len(factors))]
    for row, d in zip(rows, factors):
        for j in range(n):
            if sum(map(mul, row, ent[j::n])) % d:
                raise InternalError(f"a cokernel row does not annihilate the presentation "
                                    f"modulo {d}")
    if not _onto(rows, factors):
        raise InternalError(f"the cokernel rows do not map onto the factors {factors}")


def _onto(rows: Sequence[Sequence[int]], factors: Sequence[int]) -> bool:
    """Whether x -> (row_i x mod d_i)_i maps Z^n onto (+) Z/d_i, for a
    divisibility chain d_1 | ... | d_r that may end in zeros, Z/0 = Z.

    Rows go from the last up; at row t every remaining d_i divides d_t, so
    the remaining sum G_t is a Z/d_t-module (for d_t = 0, a Z-module),
    generated by the columns.  They reach all of Z/d_t only if their row-t
    entries have gcd 1 with d_t.  Then Euclid's column operations, which
    keep the subgroup the columns generate, leave one column c with a unit
    e modulo d_t in row t and 0 there in the others (for d_t = 0, e = +-1;
    rows of Z are never reduced).  (y, y_t) - y_t e^-1 c has row t zero,
    and k c with row t zero has d_t | k, so k c = 0 (for d_t = 0, k e = 0
    forces k = 0): G_t / <c> is G_t-1, and the columns generate G_t iff
    the others generate G_t-1.  On the first row the gcd decides.
    """
    rows = [list(row) for row in rows]
    for t in reversed(range(1, len(rows))):
        d = factors[t]
        top = rows[t] = [x % d for x in rows[t]] if d else rows[t]
        if gcd(d, *top) != 1:
            return False
        while len(live := [j for j, x in enumerate(top) if x]) > 1:
            # column j -= q_j column p: one pass from a unit pivot, else a
            # Euclidean step from the entry of least absolute value, which
            # over Z is also the pass from a pivot +-1
            p = next((j for j in live if d and gcd(top[j], d) == 1), None)
            if p is None:
                p = min(live, key=lambda j: abs(top[j]))
                qs = [x // top[p] for x in top]
            else:
                inv = pow(top[p], -1, d)
                qs = [x * inv % d for x in top]
            qs[p] = 0
            rows[:t + 1] = [[(x - q * row[p]) % f if f else x - q * row[p]
                             for x, q in zip(row, qs)]
                            for row, f in zip(rows[:t + 1], factors)]
            top = rows[t]
        for row in rows[:t]:
            row[live[0]] = 0  # column c leaves the sum
    return not rows or gcd(factors[0], *rows[0]) == 1


def _piece_orders(g: FgGroup, h: FgGroup) -> list[int]:
    # the cyclic orders of the pieces Z_a (x) Z_b, 0 = Z included
    return list(starmap(gcd, product(g.orders(), h.orders())))


@dataclass(frozen=True)
class TensorMap:
    """Bilinear map (a, b) -> a (x) b into the canonical tensor product.

    Generator pair (i, j) spans the piece Z_gcd(d_i, e_j); ``qmap`` sends
    each piece into the canonical coordinates and is built on first use.
    """

    left: FgGroup
    right: FgGroup
    group: FgGroup

    @cached_property
    def qmap(self) -> QuotientMap:
        vals = _piece_orders(self.left, self.right)
        free_slots = [k for k, v in enumerate(vals) if v == 0]
        columns: list[list[tuple[int, int]]] = [[] for _ in vals]
        for coord, k in enumerate(free_slots):
            columns[k].append((coord, 1))
        # the base-b part of a piece goes to the invariant factor d at its
        # rank, through the CRT idempotent of b^e in Z/d
        torsion = self.group.torsion
        for b, col in _coprime_columns(vals).items():
            for r, (e, k) in enumerate(col):
                t = len(torsion) - 1 - r
                d = torsion[t]
                columns[k].append((len(free_slots) + t, _idempotent(d, b ** e)))
        return QuotientMap(self.group, tuple(tuple(c) for c in columns))

    def __call__(self, a: FgElement, b: FgElement) -> FgElement:
        if a.group != self.left or b.group != self.right:
            raise ValueError("element group mismatch")
        ac, bc = a.coords(), b.coords()
        vec = [x * y for x in ac for y in bc]
        return self.qmap(vec)

    def coords(self, ac: Sequence[int], bc: Sequence[int]) -> tuple[int, ...]:
        """a (x) b on coordinate tuples, without building elements."""
        return self.qmap.reduce([x * y for x in ac for y in bc])


def tensor(g: FgGroup, h: FgGroup) -> tuple[FgGroup, TensorMap]:
    """g (x) h, computed summand-wise, with the bilinear element map."""
    grp = FgGroup.from_orders(_piece_orders(g, h))
    return grp, TensorMap(g, h, grp)


def tensor_fold(groups: Sequence[FgGroup]) -> tuple[FgGroup, list[TensorMap]]:
    """g_1 (x) ... (x) g_n folded from the left, with the map of each step:
    maps[k - 1] pairs g_1 (x) ... (x) g_k with g_(k+1)."""
    acc, maps = groups[0], []
    for g in groups[1:]:
        acc, tmap = tensor(acc, g)
        maps.append(tmap)
    return acc, maps


def fold_elements(maps: Sequence[TensorMap], elems: Sequence[FgElement]) -> FgElement:
    """a_1 (x) ... (x) a_n in the group of ``tensor_fold``, over its maps."""
    out = elems[0]
    for tmap, e in zip(maps, elems[1:]):
        out = tmap(out, e)
    return out


def tor(g: FgGroup, h: FgGroup) -> FgGroup:
    """Tor(g, h): torsion summands pair by gcd, free parts contribute nothing."""
    return FgGroup.from_orders(starmap(gcd, product(g.torsion, h.torsion)))


def direct_sum(*groups: FgGroup) -> FgGroup:
    orders: list[int] = []
    for g in groups:
        orders.extend(g.orders())
    return FgGroup.from_orders(orders)
