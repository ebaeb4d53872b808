"""Dense matrices of arbitrary-precision integers, Smith normal form, exact determinants.

Everything here is exact: entries are Python ints, so adjacency matrices with
large determinants never overflow.

One Bareiss elimination serves determinants and solving:
``IntMatrix.fraction_free_lu`` keeps the multipliers of the fraction-free
elimination below the diagonal (``FractionFreeLU``), ``IntMatrix.det`` reads
the determinant off it, and ``FractionFreeLU.solve`` runs a right-hand side c
through the same steps in O(n^2) to return adj(m) c exactly, the solution of
m y = det(m) c.

One diagonal elimination (``_eliminate``) serves cokernels and kernels.  It
runs over Z/N, N = 0 meaning Z, and logs its row and column operations.
``smith_normal_form`` is the case N = 0: it replays both transforms from the
logs, and it is the one for singular and rectangular matrices, whose kernel
needs the right transform.  ``smith_form_mod_det`` is for a square matrix m
with det m = D != 0: m @ adj(m) = D * I puts D Z^n inside the image of m, so
coker m = (Z/|D|)^n / image, and elimination modulo N = |D| keeps every
entry below |D| (the modular-determinant method of Domich-Kannan-Trotter,
Math. Oper. Res. 1987, and Hafner-McCurley, SIAM J. Comput. 1991).  Over Z
the transform entries of a dense n x n matrix grow to thousands of bits;
modulo |D| they stay at the size of D.  ``fggroup.cokernel_and_kernel``
needs it only for small matrices and for cokernels that are not cyclic: a
cyclic one is read off adjugate columns from ``solve``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd, inf
from operator import index, mul
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
        try:
            flat = tuple(map(index, chain.from_iterable(rows)))
        except TypeError:
            i, j, x = next((i, j, x) for i, r in enumerate(rows) for j, x in enumerate(r)
                           if not hasattr(type(x), "__index__"))
            raise ValueError(f"entry ({i}, {j}) is {x!r}, not an integer") from None
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
            ent[i * cols + i] = index(x)
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
    """Smith normal form with both transforms: ``_eliminate`` over Z, then
    every row of u replayed from the row operations and every column of v
    from the column operations (``_transform_row``)."""
    rows, cols = m.rows, m.cols
    diag, row_log, col_log = _eliminate(m, 0)
    u = [x for r in range(rows) for x in _transform_row(row_log, r, 0, rows)]
    v_cols = [x for j in range(cols) for x in _transform_row(col_log, j, 0, cols)]
    return SnfResult(IntMatrix(rows, rows, tuple(u)), IntMatrix.diagonal(diag, rows, cols),
                     IntMatrix(cols, cols, tuple(v_cols)).transpose())


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
    """Reduce a square m with determinant det != 0 modulo N = |det|
    (``_eliminate``).

    Only the rows of u that belong to nontrivial factors are replayed from
    the logged row operations, so u costs O(n^2) per factor instead of
    O(n^3).
    """
    if not m.is_square or det == 0:
        raise ValueError("need a square matrix and its nonzero determinant")
    n = m.rows
    diag, log, _ = _eliminate(m, abs(det))
    first = next((r for r, d in enumerate(diag) if d > 1), n)
    u = [x for r in range(first, n) for x in _transform_row(log, r, diag[r], n)]
    return ModularSnf(tuple(diag[first:]), IntMatrix(n - first, n, tuple(u)))


def _eliminate(m: IntMatrix, mod: int) -> tuple[list[int], list, list]:
    """Diagonalize m by row and column operations over Z/N, N = mod; N = 0
    is Z.

    Returns the diagonal, a divisibility chain of min(rows, cols) entries
    gcd(s_i, N) for some diagonal form diag(s_i) of m (over Z, |s_i|), and
    the logs of the row and of the column operations: (src, dst, q) adds q
    times line src to line dst, and q None swaps them.

    The pivot is the first unit in the remaining block, row by row (over Z,
    the first entry +-1), and when there is none the nonzero entry of least
    absolute value in symmetric residues.  A unit pivot is scaled to 1 and
    its column cleared exactly.  Its row is cleared only over Z, for v:
    modulo N column operations leave u alone, and the diagonal entry is 1
    either way.  Any other pivot p, negated if it is negative in symmetric
    residues, clears every entry that g = gcd(p, N) divides exactly
    (q p = x modulo N with q = (x/g) (p/g)^-1 modulo N/g; over Z, g = p)
    and leaves the Euclidean remainder of the rest, so the next pivot is a
    unit or smaller.  Once its row and column are clear, g must divide the
    remaining block, or an offending row is added to the pivot row and
    cleared again.  A remaining block that is 0 modulo N gives diagonal
    entries N, so zeros trail over Z.
    """
    rows, cols = m.rows, m.cols
    half = mod // 2
    a = [[x % mod for x in m.row(i)] for i in range(rows)] if mod else m.to_rows()
    row_log: list[tuple[int, int, int | None]] = []
    col_log: list[tuple[int, int, int | None]] = []
    diag: list[int] = []

    def pick(t):
        best, best_v = None, mod or inf
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                x = ai[j]
                if x:
                    if gcd(x, mod) == 1:
                        return i, j
                    v = abs(x - mod if x > half else x)
                    if v < best_v:
                        best, best_v = (i, j), v
        return best

    def add_row(src, dst, q, t):
        # row dst += q * row src; columns < t of both rows are 0
        rs, rd = a[src], a[dst]
        if mod:
            rd[t:] = [(y + q * z) % mod for y, z in zip(rd[t:], rs[t:])]
        else:
            rd[t:] = [y + q * z for y, z in zip(rd[t:], rs[t:])]
        row_log.append((src, dst, q))

    def scale_row(t, c):
        a[t] = [x * c % mod for x in a[t]] if mod else [x * c for x in a[t]]
        row_log.append((t, t, c - 1))

    def clear(t, p, g, pinv):
        # clear column t below and row t beyond the pivot p = a[t][t] as far
        # as exact multiples allow; True if a Euclidean remainder is left
        dirty = False
        ng = mod // g
        for i in range(t + 1, rows):
            x = a[i][t]
            if x:
                q = (x // g) * pinv % ng if mod and x % g == 0 else x // p
                add_row(t, i, -q, t)
                dirty = dirty or a[i][t] != 0
        rt = a[t]
        touched = [r for r in a[t:] if r[t]]  # column operations change only these rows
        for j in range(t + 1, cols):
            x = rt[j]
            if x:
                q = (x // g) * pinv % ng if mod and x % g == 0 else x // p
                for r in touched:
                    r[j] = (r[j] - q * r[t]) % mod if mod else r[j] - q * r[t]
                col_log.append((t, j, -q))
                dirty = dirty or rt[j] != 0
        return dirty

    t, n = 0, min(rows, cols)
    while t < n:
        best = pick(t)
        if best is None:
            diag.extend([mod] * (n - t))  # the remaining block is 0 modulo N
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
            row_log.append((t, bi, None))
        if bj != t:
            for r in a[t:]:
                r[t], r[bj] = r[bj], r[t]
            col_log.append((t, bj, None))
        p = a[t][t]
        g = gcd(p, mod)
        if g == 1 and mod:  # over Z, +-1 is cleared below like any pivot, row too
            if p != 1:
                scale_row(t, _inverse_mod(p, mod))
            for i in range(t + 1, rows):
                x = a[i][t]
                if x:
                    add_row(t, i, -x, t)
            diag.append(1)
            t += 1
            continue
        if (p - mod if p > half else p) < 0:  # negative in symmetric residues
            scale_row(t, -1)
            p = a[t][t]
        pinv = _inverse_mod(p // g, mod // g) if mod else None  # unused over Z
        while not (dirty := clear(t, p, g, pinv)):
            offender = next((i for i in range(t + 1, rows)
                             if any(x % g for x in a[i][t + 1:])), None)
            if offender is None:
                break
            add_row(offender, t, 1, t)  # its row entries leave remainders mod p
        if dirty:
            continue  # a remainder below p is the next pivot
        diag.append(g)
        t += 1
    if any(b % c for c, b in zip(diag, diag[1:]) if c):
        raise InternalError(f"diagonal {diag} is not a divisibility chain")
    return diag, row_log, col_log


def _transform_row(log, r: int, d: int, n: int) -> list[int]:
    """Row r of the product u of the logged row operations, modulo d (d = 0:
    over Z).

    With u = E_K ... E_1, e_r u is e_r E_K ... E_1: right-multiplying a row
    vector by "row dst += q row src" adds q y[dst] to y[src], and by a swap
    swaps two entries, so each operation costs O(1).  The same loop gives
    column r of v = C_1 ... C_K from a log of column operations: v e_r is
    C_1 ... C_K e_r, and "column dst += q column src" applied to a column
    vector adds q x[dst] to x[src] as well.
    """
    y = [0] * n
    y[r] = 1
    for src, dst, q in reversed(log):
        if q is None:
            y[src], y[dst] = y[dst], y[src]
        elif d:
            y[src] = (y[src] + q * y[dst]) % d
        else:
            y[src] += q * y[dst]
    return y
