"""Dense matrices of arbitrary-precision integers, Smith normal form, exact determinants.

Everything here is exact: entries are Python ints, so adjacency matrices with
large determinants never overflow.

One Bareiss elimination serves determinants and solving:
``IntMatrix.fraction_free_lu`` keeps the multipliers of the fraction-free
elimination below the diagonal (``FractionFreeLU``), ``IntMatrix.det`` reads
the determinant off it, and ``FractionFreeLU.solve`` runs a right-hand side c
through the same steps in O(n^2) to return adj(m) c exactly, the solution of
m y = det(m) c.

Two diagonal reductions serve cokernels.  ``smith_normal_form`` works over Z
and keeps both transforms; it is the one for singular matrices, whose kernel
needs the right transform.  ``smith_form_mod_det`` is for a square matrix m
with det m = D != 0: m @ adj(m) = D * I puts D Z^n inside the image of m, so
coker m = (Z/|D|)^n / image, and elimination modulo |D| keeps every entry
below |D| (the modular-determinant method of Domich-Kannan-Trotter, Math.
Oper. Res. 1987, and Hafner-McCurley, SIAM J. Comput. 1991).  Over Z the
transform entries of a dense n x n matrix grow to thousands of bits; modulo
|D| they stay at the size of D.  ``fggroup.cokernel_and_kernel`` needs it
only for small matrices and for cokernels that are not cyclic: a cyclic one
is read off adjugate columns from ``solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import InternalError


@dataclass(frozen=True)
class IntMatrix:
    """Immutable dense integer matrix, row-major storage."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        flat = tuple(int(x) for r in rows for x in r)
        return cls(n, m, flat)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        ent = [0] * (n * n)
        ent[::n + 1] = [1] * n
        return cls(n, n, tuple(ent))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, (0,) * (rows * cols))

    @classmethod
    def diagonal(cls, diag: Iterable[int], rows: int | None = None, cols: int | None = None) -> "IntMatrix":
        d = list(diag)
        n = len(d)
        rows = n if rows is None else rows
        cols = n if cols is None else cols
        ent = [0] * (rows * cols)
        for i, x in enumerate(d):
            ent[i * cols + i] = int(x)
        return cls(rows, cols, tuple(ent))

    def __getitem__(self, ij: tuple[int, int]) -> int:
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def transpose(self) -> "IntMatrix":
        e, c = self.entries, self.cols
        return IntMatrix(c, self.rows, tuple(chain.from_iterable(e[j::c] for j in range(c))))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix(self.rows, self.cols,
                         tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        self._check_same_shape(other)
        return IntMatrix(self.rows, self.cols,
                         tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> "IntMatrix":
        return IntMatrix(self.rows, self.cols, tuple(-a for a in self.entries))

    def _check_same_shape(self, other: "IntMatrix"):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ra = a[i]
            for j in range(other.cols):
                out.append(sum(ra[k] * b[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        """Matrix-vector product."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        return tuple(sum(self[i, k] * vec[k] for k in range(self.cols))
                     for i in range(self.rows))

    def det(self) -> int:
        """Exact determinant, read off the fraction-free LU."""
        return self.fraction_free_lu().det

    def fraction_free_lu(self) -> "FractionFreeLU":
        """Bareiss elimination with its multipliers kept (``FractionFreeLU``).

        Step k swaps up the first row below with a nonzero entry in column k
        when a_kk = 0 (none: det = 0), then replaces every entry (i, j) with
        i, j > k by (a_ij a_kk - a_ik a_kj) / p, p the previous pivot.
        Column k below the diagonal is left in place: those entries are the
        step's multipliers.
        """
        if not self.is_square:
            raise ValueError("fraction-free LU of a non-square matrix")
        n = self.rows
        a = self.to_rows()
        perm = list(range(n))
        sign = prev = 1
        for k in range(n):
            if not a[k][k]:
                for r in range(k + 1, n):
                    if a[r][k]:
                        break
                else:
                    return FractionFreeLU(tuple(perm), (), 0)
                a[k], a[r] = a[r], a[k]
                perm[k], perm[r] = perm[r], perm[k]
                sign = -sign
            rk = a[k]
            p = rk[k]
            for i in range(k + 1, n):
                ri = a[i]
                x = ri[k]
                for j in range(k + 1, n):
                    ri[j] = (ri[j] * p - x * rk[j]) // prev
            prev = p
        return FractionFreeLU(tuple(perm), tuple(map(tuple, a)), sign * prev)

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


class FractionFreeLU(NamedTuple):
    """The Bareiss elimination of a square matrix m, kept for solving.

    Row perm[k] of m is the k-th pivot row, and ``rows`` is the eliminated
    matrix: on and above the diagonal the factor U, below it the multipliers
    L_ik, the entries of column k under the pivot at step k, which the
    elimination leaves in place.  By Sylvester's identity every entry after
    step k is a (k+2)-minor of the row-permuted m (Bareiss, "Sylvester's
    identity and multistep integer-preserving Gaussian elimination", Math.
    Comp. 1968), so all are integers, every division by the previous pivot
    is exact, and U_n-1,n-1 = det(m permuted).  ``det`` is det m, with the
    sign of the permutation.  For det = 0, ``rows`` is empty.

    ``solve`` reuses the elimination: its steps applied to a right-hand side
    c are Bareiss on the augmented matrix [m | c], whose new column holds
    minors too, so they stay exact.  The eliminated system U x = c' is
    equivalent to m x = c, and its solution scaled by det m, adj(m) c, is
    integral, so back substitution divides exactly as well.
    """

    perm: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    det: int

    def solve(self, c: Sequence[int]) -> list[int]:
        """adj(m) c: the integer vector y with m y = det(m) c, in O(n^2)
        operations on numbers of the size of det m."""
        if not self.det:
            raise ValueError("solve needs a nonzero determinant")
        if len(c) != len(self.perm):
            raise ValueError("vector length mismatch")
        rows = self.rows
        pivots = [r[k] for k, r in enumerate(rows)]
        prevs = [1] + pivots[:-1]
        y = [c[i] for i in self.perm]
        for i, r in enumerate(rows):
            # steps 0..i-1 of the elimination, on entry i of the right-hand side
            x = y[i]
            for l, z, p, q in zip(r[:i], y, pivots, prevs):
                x = (x * p - l * z) // q
            y[i] = x
        for i in reversed(range(len(y))):
            r = rows[i]
            y[i] = (self.det * y[i] - sum(map(mul, r[i + 1:], y[i + 1:]))) // r[i]
        return y


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form data: u @ m @ v == s with u, v unimodular.

    The diagonal of ``s`` is nonnegative, satisfies d_i | d_{i+1}, and all
    zero entries trail.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.s[i, i] for i in range(min(self.s.rows, self.s.cols)))

    def rank(self) -> int:
        return sum(1 for d in self.diagonal() if d != 0)


def smith_normal_form(m: IntMatrix) -> SnfResult:
    """Compute the Smith normal form with both transformation matrices.

    Pivoting picks the nonzero entry of minimal absolute value in the
    remaining submatrix, which keeps intermediate entries small at the
    matrix sizes arising here.
    """
    rows, cols = m.rows, m.cols
    a = m.to_rows()
    u = IntMatrix.identity(rows).to_rows()
    v = IntMatrix.identity(cols).to_rows()

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, q):
        # row dst += q * row src
        arow, urow = a[src], u[src]
        ad, ud = a[dst], u[dst]
        for k in range(cols):
            ad[k] += q * arow[k]
        for k in range(rows):
            ud[k] += q * urow[k]

    def add_col(src, dst, q):
        for r in a:
            r[dst] += q * r[src]
        for r in v:
            r[dst] += q * r[src]

    def negate_row(i):
        a[i] = [-x for x in a[i]]
        u[i] = [-x for x in u[i]]

    n = min(rows, cols)
    for t in range(n):
        while True:
            # minimal-absolute-value nonzero pivot in the trailing block
            best = None
            for i in range(t, rows):
                ai = a[i]
                for j in range(t, cols):
                    x = ai[j]
                    if x != 0 and (best is None or abs(x) < abs(best[2])):
                        best = (i, j, x)
            if best is None:
                # trailing block is zero; diagonal zeros trail
                return _finalize(a, u, v)
            bi, bj, _ = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            if a[t][t] < 0:
                negate_row(t)
            pivot = a[t][t]
            # clear column t below the pivot
            dirty = False
            for i in range(t + 1, rows):
                x = a[i][t]
                if x != 0:
                    q = x // pivot
                    if q:
                        add_row(t, i, -q)
                    if a[i][t] != 0:
                        dirty = True
            # clear row t beyond the pivot
            for j in range(t + 1, cols):
                x = a[t][j]
                if x != 0:
                    q = x // pivot
                    if q:
                        add_col(t, j, -q)
                    if a[t][j] != 0:
                        dirty = True
            if dirty:
                continue  # remainders became smaller pivot candidates
            # divisibility: the pivot must divide every remaining entry
            offender = None
            for i in range(t + 1, rows):
                ai = a[i]
                for j in range(t + 1, cols):
                    if ai[j] % pivot:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)  # reintroduces row entries; redo with smaller gcd pivot
    return _finalize(a, u, v)


def _finalize(a, u, v) -> SnfResult:
    # column operations were applied to v directly, so v is already u*m*v's
    # right transform
    return SnfResult(IntMatrix.from_rows(u), IntMatrix.from_rows(a), IntMatrix.from_rows(v))


@dataclass(frozen=True)
class ModularSnf:
    """Diagonal reduction of a square matrix m modulo N = |det m| != 0.

    For some u and v invertible modulo N, u @ m @ v is congruent modulo N to
    a diagonal matrix diag(s_1, ..., s_n).  ``factors`` are the gcd(s_i, N)
    other than 1, a divisibility chain: coker m is their direct sum.  Row r
    of ``u`` is the row of u that belongs to factors[r], reduced modulo it,
    so the class of x in coker m has coordinates (u x)_r mod factors[r].
    """

    factors: tuple[int, ...]
    u: IntMatrix


def _inverse_mod(x: int, n: int) -> int:
    try:
        return pow(x, -1, n)
    except ValueError:
        raise InternalError(f"{x} has no inverse modulo {n}") from None


def smith_form_mod_det(m: IntMatrix, det: int) -> ModularSnf:
    """Reduce a square m with determinant det != 0 by row and column
    operations modulo N = |det|.

    The pivot is the first unit modulo N in the remaining block, row by row,
    and when there is none the nonzero entry of least absolute value in
    symmetric residues.  A unit pivot is scaled to 1 and its column cleared
    exactly; its row then needs no column operations, because they leave u
    alone, and its diagonal entry is 1.  Any other pivot p clears every entry
    that g = gcd(p, N) divides exactly (q p = x modulo N with
    q = (x/g) (p/g)^-1 modulo N/g) and leaves the Euclidean remainder of the
    rest, so the next pivot is a unit or smaller; once its row and column
    are clear, g must divide the remaining block, or an offending row is
    added to the pivot row, as in ``smith_normal_form``.  A remaining block
    that is 0 modulo N gives diagonal entries N.

    Row operations are logged, not applied to u: row r of u is e_r times the
    operations in reverse order, and only the rows of nontrivial factors are
    needed, so u costs O(n^2) per factor instead of O(n^3).
    """
    if not m.is_square or det == 0:
        raise ValueError("need a square matrix and its nonzero determinant")
    n = m.rows
    mod = abs(det)
    half = mod // 2
    a = [[x % mod for x in m.row(i)] for i in range(n)]
    log: list[tuple[int, int, int | None]] = []  # row dst += q * row src; q None: swap
    diag: list[int] = []

    def pick(t):
        best, best_v = None, mod
        for i in range(t, n):
            ai = a[i]
            for j in range(t, n):
                x = ai[j]
                if x:
                    if gcd(x, mod) == 1:
                        return i, j
                    v = x if x <= half else mod - x
                    if v < best_v:
                        best, best_v = (i, j), v
        return best

    def add_row(src, dst, q, t):
        # row dst += q * row src, modulo N; columns < t of both rows are 0
        rs, rd = a[src], a[dst]
        rd[t:] = [(y + q * z) % mod for y, z in zip(rd[t:], rs[t:])]
        log.append((src, dst, q))

    def scale_row(t, c):
        a[t] = [x * c % mod for x in a[t]]
        log.append((t, t, c - 1))

    def clear(t, p, g, pinv):
        # clear column t below and row t beyond the pivot p = a[t][t] as far
        # as exact multiples allow; True if a Euclidean remainder is left
        dirty = False
        ng = mod // g
        for i in range(t + 1, n):
            x = a[i][t]
            if x:
                q = (x // g) * pinv % ng if x % g == 0 else x // p
                add_row(t, i, -q, t)
                dirty = dirty or a[i][t] != 0
        rt = a[t]
        touched = [r for r in a[t:] if r[t]]  # column operations change only these rows
        for j in range(t + 1, n):
            x = rt[j]
            if x:
                q = (x // g) * pinv % ng if x % g == 0 else x // p
                for r in touched:
                    r[j] = (r[j] - q * r[t]) % mod
                dirty = dirty or rt[j] != 0
        return dirty

    t = 0
    while t < n:
        best = pick(t)
        if best is None:
            diag.extend([mod] * (n - t))  # the remaining block is 0 modulo N
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            log.append((t, bi, None))
        if bj != t:
            for r in a[t:]:
                r[t], r[bj] = r[bj], r[t]
        p = a[t][t]
        g = gcd(p, mod)
        if g == 1:
            if p != 1:
                scale_row(t, _inverse_mod(p, mod))
            for i in range(t + 1, n):
                x = a[i][t]
                if x:
                    add_row(t, i, -x, t)
            diag.append(1)
            t += 1
            continue
        if p > half:
            scale_row(t, mod - 1)
            p = a[t][t]
        pinv = _inverse_mod(p // g, mod // g)
        while not (dirty := clear(t, p, g, pinv)):
            offender = next((i for i in range(t + 1, n)
                             if any(x % g for x in a[i][t + 1:])), None)
            if offender is None:
                break
            add_row(offender, t, 1, t)  # its row entries leave remainders mod p
        if dirty:
            continue  # a remainder below p is the next pivot
        diag.append(g)
        t += 1
    if any(b % c for c, b in zip(diag, diag[1:])):
        raise InternalError(f"modular diagonal {diag} is not a divisibility chain")
    first = next((r for r, d in enumerate(diag) if d > 1), n)
    u = [x for r in range(first, n) for x in _transform_row(log, r, diag[r], n)]
    return ModularSnf(tuple(diag[first:]), IntMatrix(n - first, n, tuple(u)))


def _transform_row(log, r: int, d: int, n: int) -> list[int]:
    """Row r of the product of the logged row operations, modulo d.

    With u = E_K ... E_1, e_r u is e_r E_K ... E_1: right-multiplying a row
    vector by "row dst += q row src" adds q y[dst] to y[src], and by a swap
    swaps two entries, so each operation costs O(1).
    """
    y = [0] * n
    y[r] = 1 % d
    for src, dst, q in reversed(log):
        if q is None:
            y[src], y[dst] = y[dst], y[src]
        else:
            y[src] = (y[src] + q * y[dst]) % d
    return y
