"""Finitely generated abelian groups in canonical (invariant factor) form.

A group is Z^r (+) Z/d_1 (+) ... (+) Z/d_s with 2 <= d_1 | d_2 | ... | d_s.
Two groups are isomorphic iff their canonical data are equal, so group
equality below *is* the isomorphism test.  Elements carry coordinates with
respect to the canonical generators (free generators first, then one
generator per invariant factor).

Throughout, a cyclic order of 0 encodes Z (the "Z_0 = Z" convention) and
orders of 1 are trivial summands that get dropped.

Canonical form over a coprime base.  The nonzero orders are refined by gcd
splitting into a pairwise coprime base (Bernstein, "Factoring into coprimes
in essentially linear time", J. Algorithms 2005, gives the fast version;
this is the plain splitting loop).  Nothing is factored, so orders with
large prime factors cost no more than small ones.  Each order n is a product
of base powers b^e(n), and Z/n splits by CRT into the Z/b^e(n).  Sorting each
base element's exponents in descending order, the r-th largest entries of
all columns multiply to the r-th largest invariant factor.
``canonical_orders``, and through it ``from_orders``, ``direct_sum``,
``tor`` and ``ext_group``, is that merge.

Tensor products need no Smith normal form: g (x) h is the direct sum of the
pieces Z_gcd(d_i, e_j), whose canonical form is the merge above.  The
element map sends each piece's base-b part x mod b^e to the invariant factor
it was merged into, through the CRT idempotent of b^e there; it is built
on first use.  ``automorphisms`` decides Aut-orbits over the same kind of
base, with the same valuations and idempotents.  The isomorphism onto the canonical form is not canonical, so
element coordinates are meaningful only up to an automorphism.

Cokernels of general matrices (``cokernel``) and kernels (``kernel_group``)
use the Smith normal form: ``intmatrix``'s one diagonal elimination, run over
Z with both transforms.  ``cokernel_and_kernel`` takes a square
presentation m and computes D = det m by one Bareiss elimination, kept as
a fraction-free LU.  For D != 0, ker m is 0 and coker m has order N = |D|.
When coker m is cyclic and m has at least ``_CYCLIC_MIN_SIZE`` rows, a few
adjugate columns from the LU of m^t give a row w with w m = 0 mod N and
gcd(w, N) = 1, checked on every column, which makes x -> w x mod N an
isomorphism coker m -> Z/N (``_cyclic_row`` proves it); no elimination
modulo N runs.  Otherwise, or when the columns tried find no such w,
coker m comes from the same elimination run modulo N
(``intmatrix.smith_form_mod_det``).  For D = 0 one Smith normal form
supplies both.  Every projection, these and the tensor map, is a
``QuotientMap``; like the tensor map, each is one isomorphism onto the
canonical form among many, so the coordinates it gives an element are
meaningful only up to an automorphism.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import gcd, prod
from operator import index, mul
from typing import Iterable, Sequence

from .errors import InternalError
from .intmatrix import (FractionFreeLU, IntMatrix, SnfResult, smith_form_mod_det,
                        smith_normal_form)


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

    Refines the nonzero orders into a coprime base and merges the sorted
    exponent columns (see the module docstring).
    """
    vals = [abs(index(o)) for o in orders]
    columns = _coprime_columns(vals)
    # the r-th largest exponents of all base elements multiply to the r-th
    # largest invariant factor
    factors = [1] * max((len(col) for col in columns.values()), default=0)
    for b, col in columns.items():
        for r, (e, _) in enumerate(col):
            factors[r] *= b ** e
    return vals.count(0), tuple(reversed(factors))


@dataclass(frozen=True)
class FgGroup:
    """Canonical form of a finitely generated abelian group."""

    free_rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.free_rank < 0:
            raise ValueError("negative free rank")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a:
                raise ValueError("invariant factors must form a divisibility chain")
        if any(d < 2 for d in self.torsion):
            raise ValueError("invariant factors must be >= 2")

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

    def elements(self):
        """Iterate all elements; only valid for finite groups."""
        if not self.is_finite:
            raise ValueError("infinite group")
        return (self.element((), c) for c in product(*map(range, self.torsion)))

    def __str__(self):
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
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

    def coord(self, i: int) -> int:
        r = self.group.free_rank
        return self.free[i] if i < r else self.torsion[i - r]

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

    def __neg__(self) -> "FgElement":
        return self.group.zero() - self

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

    def compose(self, inner: "GroupHom") -> "GroupHom":
        """self o inner."""
        if inner.codomain != self.domain:
            raise ValueError("composition mismatch")
        return GroupHom(inner.domain, self.codomain,
                        tuple(self(img) for img in inner.images))

    def is_isomorphism(self) -> bool:
        """True iff the hom is bijective.

        Isomorphic groups have equal canonical forms, and a surjective
        endomorphism of a finitely generated abelian group is bijective, so
        equal canonical forms plus surjectivity decides it.
        """
        return self.domain == self.codomain and self.is_surjective()

    def is_surjective(self) -> bool:
        cod = self.codomain
        if cod.num_generators == 0:
            return True
        # images generate iff Z^g / (image cols + relation cols) is trivial
        rel = [0] * cod.free_rank + list(cod.torsion)
        cols = []
        for img in self.images:
            cols.append(list(img.coords()))
        for i, d in enumerate(rel):
            if d:
                col = [0] * cod.num_generators
                col[i] = d
                cols.append(col)
        m = IntMatrix.from_rows([[col[i] for col in cols] for i in range(cod.num_generators)])
        diag = smith_normal_form(m).diagonal()
        return len(diag) == m.rows and all(d == 1 for d in diag)

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


def _snf_cokernel(m: IntMatrix, snf: SnfResult) -> tuple[FgGroup, QuotientMap]:
    # with u*m*v = s, the class of x is u*x read against the diagonal of s
    return _projection(list(snf.diagonal()) + [0] * (m.rows - min(m.rows, m.cols)), snf.u)


def _snf_kernel(m: IntMatrix, snf: SnfResult) -> tuple[FgGroup, tuple[tuple[int, ...], ...]]:
    # the columns of v past the rank span the kernel
    rank = snf.rank()
    basis = tuple(tuple(snf.v[i, j] for i in range(m.cols))
                  for j in range(rank, m.cols))
    return FgGroup.free(len(basis)), basis


def cokernel(m: IntMatrix) -> tuple[FgGroup, QuotientMap]:
    """Z^rows / (m Z^cols) in canonical form, with the projection map."""
    return _snf_cokernel(m, smith_normal_form(m))


def kernel_group(m: IntMatrix) -> tuple[FgGroup, tuple[tuple[int, ...], ...]]:
    """The (free) kernel {x in Z^cols : m x = 0} with an explicit basis."""
    return _snf_kernel(m, smith_normal_form(m))


def cokernel_and_kernel(m: IntMatrix) -> tuple[FgGroup, QuotientMap, FgGroup, int]:
    """coker m with its projection, ker m, and D = det m, for a square m.

    D comes from one fraction-free LU (``IntMatrix.fraction_free_lu``), of
    m^t when the certificate may run, else of m.
    D != 0: ker m = 0, and coker m comes from a certified isomorphism onto
    Z/|D| (``_cyclic_row``) or, when that finds none or m has fewer than
    ``_CYCLIC_MIN_SIZE`` rows, from the elimination modulo |D|
    (``smith_form_mod_det``).  D = 0: one Smith normal form supplies both.
    """
    certify = m.rows >= _CYCLIC_MIN_SIZE
    # det m^t = det m; only the certificate needs the LU of m^t
    lu = (m.transpose() if certify else m).fraction_free_lu()
    if not lu.det:
        snf = smith_normal_form(m)
        grp, qmap = _snf_cokernel(m, snf)
        return grp, qmap, _snf_kernel(m, snf)[0], 0
    mod = abs(lu.det)
    w = _cyclic_row(m, lu, mod) if certify else None
    if w is None:
        red = smith_form_mod_det(m, lu.det)
        grp, qmap = _projection(red.factors, red.u)
    else:
        grp = FgGroup(0, (mod,) if mod > 1 else ())
        qmap = QuotientMap(grp, tuple(((0, x),) if x else () for x in w))
    return grp, qmap, FgGroup.trivial(), lu.det


# right-hand sides tried before a cokernel is left to smith_form_mod_det
_CYCLIC_COLUMNS = 6
# Below this many rows the elimination modulo |D| costs no more than the
# certificate: on random 0-3 presentations the two paths run level up to
# n = 6 and the certificate wins from n = 8, while a non-cyclic 2-4-vertex
# presentation pays for its unused columns (about 1.4x).
_CYCLIC_MIN_SIZE = 8


def _cyclic_row(m: IntMatrix, lu: FractionFreeLU, mod: int) -> tuple[int, ...] | None:
    """A row w for which x -> w x mod N is an isomorphism coker m -> Z/N,
    N = |det m| = mod, from the LU of m^t; None when none is found.

    The certificate.  Let w m = 0 mod N and gcd(w_1, ..., w_n, N) = 1.  The
    first makes x -> w x mod N vanish on the image of m, so it factors
    through coker m; by the second its image, generated by the w_i mod N, is
    all of Z/N.  |coker m| = |det m| = N, so this surjection between groups
    of order N is an isomorphism.  Both facts are checked here, the first on
    every column of m, so a returned w is never wrong, however it was found.

    Finding w.  For a column c, y = lu.solve(c) = adj(m^t) c, and
    w = y^t = c^t adj(m) has w m = det(m) c^t = 0 mod N.  With u m v = S =
    diag(s_1, ..., s_n) in Smith form, adj(m) = det(m) v S^-1 u, so w is
    +-sum_i (c^t v)_i (N / s_i) u_i over the rows u_i of u, and modulo N the
    terms with s_i = 1 vanish.  A cyclic coker m (s_1 = ... = s_n-1 = 1)
    thus gives w = a u_n mod N with a = +-(c^t v)_n, and u_n, a row of a
    unimodular matrix, has content 1, so gcd(w, N) = gcd(a, N).  A
    non-cyclic one gives gcd(w, N) divisible by N / s_n = s_1 ... s_n-1 > 1
    for every c, so it is never certified.  A w with g = gcd(w, N) > 1
    becomes w + N' y for the next column's y, N' the part of N coprime to g:
    a prime of N that does not divide g divides N' and not w, so not the
    new w; one that divides g does not divide N', so it divides the new w
    only if it divides y's coefficient too.  So only the primes of N that
    divided every coefficient so far are left.  Columns are made only when
    needed, with 16-bit entries from a fixed 64-bit linear congruential
    generator (Knuth's MMIX constants), so answers are deterministic; after
    ``_CYCLIC_COLUMNS`` columns without a certificate, the caller falls back.
    """
    n = m.rows
    if mod == 1:
        return (0,) * n
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
            coprime = mod
            while (h := gcd(coprime, g)) > 1:
                coprime //= h
            w = [(x + coprime * z) % mod for x, z in zip(w, y)]
        else:
            w = [x % mod for x in y]
        g = gcd(mod, *w)
        if g == 1:
            break
    else:
        return None
    if any(sum(map(mul, w, m.entries[j::n])) % mod for j in range(n)):
        raise InternalError(f"a certificate row does not annihilate the presentation "
                            f"modulo {mod}")
    return tuple(w)


def _piece_order(a: int, b: int) -> int:
    # cyclic order of Z_a (x) Z_b with 0 = Z
    if a == 0 and b == 0:
        return 0
    if a == 0:
        return b
    if b == 0:
        return a
    return gcd(a, b)


def _piece_orders(g: FgGroup, h: FgGroup) -> list[int]:
    return [_piece_order(a, b) for a in g.orders() for b in h.orders()]


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


def tor(g: FgGroup, h: FgGroup) -> FgGroup:
    """Tor(g, h): torsion summands pair by gcd, free parts contribute nothing."""
    return FgGroup.from_orders(gcd(a, b) for a in g.torsion for b in h.torsion)


def ext_group(g: FgGroup, h: FgGroup) -> FgGroup:
    """Ext(g, h): Ext(Z, -) = 0, Ext(Z_m, Z) = Z_m, Ext(Z_m, Z_n) = Z_gcd."""
    orders = [d for d in g.torsion for _ in range(h.free_rank)]
    orders.extend(gcd(a, b) for a in g.torsion for b in h.torsion)
    return FgGroup.from_orders(orders)


def direct_sum(*groups: FgGroup) -> FgGroup:
    orders: list[int] = []
    for g in groups:
        orders.extend(g.orders())
    return FgGroup.from_orders(orders)


def is_quotient(g: FgGroup, h: FgGroup) -> bool:
    """True iff h is an epimorphic image of g.

    Align the two order sequences (invariant factors, then 0s for free
    summands) at the large end; each factor of h must divide its partner,
    where "divides 0" means any order and "0 divides" only 0.
    """
    gs = list(g.torsion) + [0] * g.free_rank
    hs = list(h.torsion) + [0] * h.free_rank
    if len(hs) > len(gs):
        return False
    for i in range(1, len(hs) + 1):
        e, d = hs[-i], gs[-i]
        if e == 0:
            if d != 0:
                return False
        elif d % e:
            return False
    return True
