"""Single shift-of-finite-type groupoid invariants.

For an irreducible, non-permutation adjacency matrix A the groupoid
invariants are exact integer-linear-algebra data.  ``invariants`` stores
one record, ``SftInvariants(bf, unit, det)``:

  * H_0 = K_0 = coker(id - A^t) on Z^N  (the Bowen-Franks group of A^t),
  * the unit class u_A = class of (1, ..., 1) in H_0,
  * det(id - A) = det(id - A^t).

The rest is derived from it: the sign of det; H_1 = K_1 = ker(id - A^t),
which is free of the free rank of H_0, because a square integer matrix
has a kernel of the rank of its cokernel's free part; and the full-group
abelianization (H_0 (x) Z/2) (+) H_1, which ``abelianize`` computes as
the one-factor case of its product formula.

``invariants`` builds the presentation id - A^t in one pass over the
entries of A and gets its reduction from ``fggroup.cokernel_reduction``,
which computes D = det(id - A^t) once, by one Bareiss elimination kept as
a fraction-free LU: of id - A^t itself below 8 rows, where only D is read,
and of id - A, the transpose, from 8 rows on.  For D != 0, H_1 = 0 and H_0
has order N = |D|, and:

  * when n >= 8, the LU of id - A solves (id - A) y = D c
    for a few seeded c, each in O(n^2), giving y = adj(id - A) c exactly,
    and the y combine into a row w with w (id - A^t) = 0 mod N.  When
    gcd(w, N) = 1, x -> w x mod N is an isomorphism H_0 -> Z/N, and the
    unit class is sum(w) mod N, with no elimination.  Otherwise, N' being
    the part of N coprime to gcd(w, N), w mod N' reads the cyclic
    N'-part of H_0 and one elimination modulo N / N' the rest;
  * when n < 8, where the elimination costs no more than the columns,
    H_0 and the unit class come from one elimination modulo N
    (``intmatrix.smith_form_mod_det``).

For D = 0 the same elimination runs over Z and gives H_0 and the unit
class.  For D != 0 every answer is certified in ``fggroup._certify``
before the unit class is read: the rows annihilate id - A^t, they map
onto the factors, and the factors multiply to N, so the map is an
isomorphism H_0 -> BF and the unit class is the image of (1, ..., 1).
That image is read off the reduction's rows: coordinate r is the sum of
row r, reduced modulo its factor (a free row's sum is left as it is).
This is exactly what the projection of ``fggroup.cokernel_and_kernel``
gives (1, ..., 1), with no ``QuotientMap`` built.
The coordinates of the unit class depend on which isomorphism onto
the canonical form a path found, so they are meaningful only up to an
automorphism of H_0: compare unit classes with
``automorphisms.aut_orbit_equivalent``, never coordinate by coordinate.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from operator import mod

from . import errors
from .fggroup import FgElement, FgGroup, cokernel_reduction
from .intmatrix import IntMatrix


@dataclass(frozen=True)
class SftMatrix:
    """A validated SFT adjacency matrix: square, nonnegative, irreducible,
    not a permutation matrix."""

    a: IntMatrix

    @property
    def size(self) -> int:
        return self.a.rows

    @cached_property
    def _invariants(self) -> "SftInvariants":
        # computed once per object; read through the module-level invariants()
        return _compute_invariants(self.a)


def _as_matrix(a) -> IntMatrix:
    return a if isinstance(a, IntMatrix) else IntMatrix.from_rows(a)


def validate(a, factor_index: int | None = None) -> SftMatrix:
    """Check the SFT admissibility conditions, naming the first that fails."""
    m = _as_matrix(a)
    loc = "" if factor_index is None else f"factor {factor_index}: "
    if not m.is_square or m.rows == 0:
        raise errors.NotSquare(f"{loc}matrix must be square and nonempty", factor_index)
    if any(x < 0 for x in m.entries):
        raise errors.NegativeEntry(f"{loc}matrix has a negative entry", factor_index)
    if not _irreducible(m):
        raise errors.Reducible(f"{loc}matrix is not irreducible", factor_index)
    if _is_permutation(m):
        raise errors.PermutationMatrix(f"{loc}matrix is a permutation matrix", factor_index)
    return SftMatrix(m)


def _irreducible(m: IntMatrix) -> bool:
    # every ordered vertex pair must be joined by a path of length >= 1: for
    # n > 1 that holds iff every vertex is reached from vertex 0 and reaches
    # it, and for n = 1 iff the vertex carries a loop
    n = m.rows
    if n == 1:
        return m[0, 0] > 0
    succ = [[j for j, x in enumerate(m.row(i)) if x] for i in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(succ):
        for j in row:
            pred[j].append(i)
    return len(_reach(succ)) == n and len(_reach(pred)) == n


def _reach(adj) -> dict[int, int]:
    """Breadth-first levels from vertex 0 along the adjacency lists adj."""
    level = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj[u]:
                if v not in level:
                    level[v] = level[u] + 1
                    nxt.append(v)
        frontier = nxt
    return level


def _is_permutation(m: IntMatrix) -> bool:
    n = m.rows
    for i in range(n):
        if sum(m.row(i)) != 1 or any(x not in (0, 1) for x in m.row(i)):
            return False
    return all(sum(m[i, j] for i in range(n)) == 1 for j in range(n))


@dataclass(frozen=True)
class SftInvariants:
    """The record that fixes one factor: BF, the unit class and det(id - A).

    The rest follows from it: K_0 = H_0 = BF, and K_1 = H_1 is free of the
    free rank of BF.
    """

    bf: FgGroup
    unit: FgElement
    det: int

    @property
    def det_sign(self) -> int:
        return (self.det > 0) - (self.det < 0)

    @property
    def k0(self) -> FgGroup:
        return self.bf

    @property
    def k1(self) -> FgGroup:
        return FgGroup.free(self.bf.free_rank)


def invariants(a: SftMatrix) -> SftInvariants:
    """The (BF, unit, det) record of one SFT, computed once per SftMatrix."""
    return a._invariants


def _compute_invariants(m: IntMatrix) -> SftInvariants:
    n, e = m.rows, m.entries
    # id - A^t from the entries of A: row i is e_i minus column i of A
    pres = [-x for i in range(n) for x in e[i::n]]
    pres[::n + 1] = [x + 1 for x in pres[::n + 1]]
    red, det = cokernel_reduction(IntMatrix(n, n, tuple(pres)))
    # the unit class: row r of the reduction applied to (1, ..., 1), read
    # modulo factors[r]; the zero factors, the free rows, trail
    factors, u = red.factors, red.u.entries
    k = len(factors) - factors.count(0)
    sums = [sum(u[r * n:r * n + n]) for r in range(len(factors))]
    bf = FgGroup(len(factors) - k, factors[:k])
    unit = FgElement(bf, tuple(sums[k:]), tuple(map(mod, sums, factors[:k])))
    return SftInvariants(bf, unit, det)


def is_primitive(a: SftMatrix) -> bool:
    """True iff some power of A is entrywise positive.

    A is irreducible, so that holds iff its period is 1.  The period is the
    gcd over the edges (u, v) of level(u) + 1 - level(v), with breadth-first
    levels from vertex 0.  The levels telescope, so the length of a cycle is
    the sum of its edges' terms; and each term is the difference of the
    lengths of two closed walks through vertex 0 (via u and v, and via v),
    so the period divides it.
    """
    n = a.size
    succ = [[j for j, x in enumerate(a.a.row(i)) if x] for i in range(n)]
    level = _reach(succ)
    period = 0
    for u in range(n):
        for v in succ[u]:
            period = gcd(period, level[u] + 1 - level[v])
    return period == 1


def companion_matrix(k: int, r: int) -> SftMatrix:
    """The r x r matrix with k in the upper-right corner and a subdiagonal of
    ones; its full group is the Higman-Thompson group V_{k,r}."""
    if k < 2 or r < 1:
        raise ValueError("need k >= 2 and r >= 1")
    rows = [[0] * r for _ in range(r)]
    rows[0][r - 1] = k
    for i in range(1, r):
        rows[i][i - 1] = 1
    return validate(rows)


def thompson_factor_list(n: int, k: int, r: int) -> list[SftMatrix]:
    """Factor list whose product groupoid has full group nV_{k,r}."""
    if n < 1:
        raise ValueError("need n >= 1")
    return [companion_matrix(k, r)] + [companion_matrix(k, 1) for _ in range(n - 1)]
