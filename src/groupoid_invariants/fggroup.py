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
use the Smith normal form.  ``cokernel_and_kernel`` takes a square
presentation m with its determinant D: for D != 0 it reads coker m off one
elimination modulo |D| (``intmatrix.smith_form_mod_det``) and ker m is 0;
for D = 0 one Smith normal form supplies both.  Every projection, these and
the tensor map, is a ``QuotientMap``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, prod
from typing import Iterable, Sequence

from .intmatrix import IntMatrix, SnfResult, smith_form_mod_det, smith_normal_form


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
    vals = [abs(int(o)) for o in orders]
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
        red = tuple(int(c) % d for c, d in zip(torsion, self.torsion))
        return FgElement(self, tuple(int(c) for c in free), red)

    def elements(self):
        """Iterate all elements; only valid for finite groups."""
        if not self.is_finite:
            raise ValueError("infinite group")
        def rec(i, acc):
            if i == len(self.torsion):
                yield self.element((), tuple(acc))
                return
            for c in range(self.torsion[i]):
                acc.append(c)
                yield from rec(i + 1, acc)
                acc.pop()
        yield from rec(0, [])

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

    def matrix(self) -> IntMatrix:
        """Integer matrix of image coordinates, one column per domain generator."""
        rows = self.codomain.num_generators
        cols = self.domain.num_generators
        ent = [0] * (rows * cols)
        for j, img in enumerate(self.images):
            for i, c in enumerate(img.coords()):
                ent[i * cols + j] = c
        return IntMatrix(rows, cols, tuple(ent))

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
        if len(vec) != len(self.columns):
            raise ValueError("vector length mismatch")
        acc = [0] * self.group.num_generators
        for x, col in zip(vec, self.columns):
            if x:
                for i, c in col:
                    acc[i] += x * c
        r = self.group.free_rank
        return self.group.element(acc[:r], acc[r:])


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
    columns = []
    for k in range(u.cols):
        col = []
        for coord, i in targets:
            d = diag[i]
            c = u[i, k] % d if d else u[i, k]
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


def cokernel_and_kernel(m: IntMatrix, det: int) -> tuple[FgGroup, QuotientMap, FgGroup]:
    """coker m with its projection, and ker m, for a square m whose
    determinant is det.

    det != 0: one elimination modulo |det| (``smith_form_mod_det``), and the
    kernel is 0.  det = 0: one Smith normal form supplies both.
    """
    if det:
        red = smith_form_mod_det(m, det)
        grp, qmap = _projection(red.factors, red.u)
        return grp, qmap, FgGroup.trivial()
    snf = smith_normal_form(m)
    grp, qmap = _snf_cokernel(m, snf)
    return grp, qmap, _snf_kernel(m, snf)[0]


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
