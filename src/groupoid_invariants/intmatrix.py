"""Dense matrices of arbitrary-precision integers, Smith normal form, exact determinants.

Everything here is exact: entries are Python ints, so adjacency matrices with
large determinants never overflow.

Two diagonal reductions serve cokernels.  ``smith_normal_form`` works over Z
and keeps both transforms; it is the one for singular matrices, whose kernel
needs the right transform.  ``smith_form_mod_det`` is for a square matrix m
with det m = D != 0: m @ adj(m) = D * I puts D Z^n inside the image of m, so
coker m = (Z/|D|)^n / image, and elimination modulo |D| keeps every entry
below |D| (the modular-determinant method of Domich-Kannan-Trotter, Math.
Oper. Res. 1987, and Hafner-McCurley, SIAM J. Comput. 1991).  Over Z the
transform entries of a dense n x n matrix grow to thousands of bits; modulo
|D| they stay at the size of D.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

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
        return cls(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

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
        return IntMatrix(self.cols, self.rows,
                         tuple(self[i, j] for j in range(self.cols) for i in range(self.rows)))

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
        """Exact determinant by fraction-free Bareiss elimination."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]

    def __str__(self):
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


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
