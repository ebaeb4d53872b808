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
``smith_normal_form`` is the case N = 0 with both transforms replayed from
the logs, for callers that read them: kernels need the right transform.
``smith_form_mod_det`` reduces a square matrix m modulo the integer N it
is given and replays only the rows of the left transform that a cokernel
reads; what it presents is coker m (x) Z/N = (Z/N)^n / image.  For
D = det m != 0, m @ adj(m) = D * I puts D Z^n inside the image of m, so
with N = |D| that is coker m itself, and elimination modulo N keeps every
entry below |D| (the modular-determinant method of Domich-Kannan-Trotter,
Math. Oper. Res. 1987, and Hafner-McCurley, SIAM J. Comput. 1991).  Over Z
the transform entries of a dense n x n matrix grow to thousands of bits;
modulo N they stay at the size of N.  N = 0 eliminates over Z.
``fggroup.cokernel_reduction`` runs it modulo |D| for singular and small
matrices, and modulo a divisor N_g of |D| for the part of a large
cokernel that adjugate columns from ``solve`` do not read: the primes of
|D| shared by the factors below the largest.
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
    """Immutable dense integer matrix, row-major storage.

    Entries are read through ``operator.index``, so any entry that is not an
    integer raises ValueError, with its position, at construction."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match rows*cols")
        # one pass at C speed when the entries are already a tuple of ints
        if type(self.entries) is tuple and set(map(type, self.entries)) <= {int}:
            return
        ints = []
        for k, x in enumerate(self.entries):
            try:
                ints.append(index(x))
            except TypeError:
                raise ValueError(f"entry ({k // self.cols}, {k % self.cols}) is {x!r}, "
                                 "not an integer") from None
        object.__setattr__(self, "entries", tuple(ints))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n = len(rows)
        m = len(rows[0]) if rows else 0
        if any(len(r) != m for r in rows):
            raise ValueError("ragged rows")
        return cls(n, m, tuple(chain.from_iterable(rows)))

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
            ent[i * cols + i] = x
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

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return IntMatrix(self.rows, self.cols,
                         tuple(a - b for a, b in zip(self.entries, other.entries)))

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
        n, e = self.rows, self.entries
        a = [list(e[i * n:i * n + n]) for i in range(n)]
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
    """Diagonal reduction of a square matrix m modulo N, N = 0 meaning Z.

    For some u and v invertible modulo N, u @ m @ v is congruent modulo N to
    a diagonal matrix diag(s_1, ..., s_n).  ``factors`` are the gcd(s_i, N)
    other than 1, a divisibility chain with zeros trailing (only for N = 0):
    coker m (x) Z/N is the direct sum of the Z/factors[r], Z/0 = Z, and for
    N = |det m| or N = 0 that is coker m.  Row r of ``u`` is the row of u
    that belongs to factors[r], reduced modulo it when it is nonzero, so the
    class of x has coordinates (u x)_r, read modulo factors[r].
    """

    factors: tuple[int, ...]
    u: IntMatrix


def _inverse_mod(x: int, n: int) -> int:
    try:
        return pow(x, -1, n)
    except ValueError:
        raise InternalError(f"{x} has no inverse modulo {n}") from None


def smith_form_mod_det(m: IntMatrix, det: int) -> ModularSnf:
    """Reduce a square m modulo N = |det| (``_eliminate``), presenting
    coker m (x) Z/N; det = 0 eliminates over Z.  With det = det m that is
    coker m, but any N may be given.

    Only the rows of u that belong to factors other than 1 are replayed from
    the logged row operations, and no column of v, so u costs O(n^2) per
    factor instead of O(n^3).
    """
    if not m.is_square:
        raise ValueError("need a square matrix")
    n = m.rows
    diag, log, _ = _eliminate(m, abs(det))
    first = diag.count(1)  # the ones lead the divisibility chain
    u: list[int] = []
    for r in range(first, n):
        u += _transform_row(log, r, diag[r], n)
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

    The row and column operations are written out as plain loops, with no
    inner functions: on the 2-7-row presentations of single factors the
    calls, not the arithmetic, were most of the cost.
    """
    rows, cols = m.rows, m.cols
    half = mod // 2
    e = [x % mod for x in m.entries] if mod else m.entries
    a = [list(e[i * cols:i * cols + cols]) for i in range(rows)]
    row_log: list[tuple[int, int, int | None]] = []
    col_log: list[tuple[int, int, int | None]] = []
    diag: list[int] = []
    t, n = 0, min(rows, cols)
    while t < n:
        # the pivot: the first unit, else the least nonzero symmetric residue
        best, best_v = None, mod or inf
        for i in range(t, rows):
            ai = a[i]
            for j in range(t, cols):
                x = ai[j]
                if x:
                    if gcd(x, mod) == 1:
                        best = i, j
                        break
                    v = abs(x - mod if x > half else x)
                    if v < best_v:
                        best, best_v = (i, j), v
            else:
                continue
            break
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
        # rows from t on are 0 before column t, so row operations start there
        rt = a[t]
        p = rt[t]
        g = gcd(p, mod)
        if g == 1 and mod:  # over Z, +-1 is cleared below like any pivot, row too
            if p != 1:
                c = _inverse_mod(p, mod)
                for j in range(t, cols):
                    rt[j] = rt[j] * c % mod
                row_log.append((t, t, c - 1))
            for i in range(t + 1, rows):
                ri = a[i]
                x = ri[t]
                if x:  # row i -= x row t
                    for j in range(t + 1, cols):
                        ri[j] = (ri[j] - x * rt[j]) % mod
                    ri[t] = 0
                    row_log.append((t, i, -x))
            diag.append(1)
            t += 1
            continue
        if (p - mod if p > half else p) < 0:  # negative in symmetric residues
            for j in range(t, cols):
                rt[j] = -rt[j] % mod if mod else -rt[j]
            row_log.append((t, t, -2))
            p = rt[t]
        ng = mod // g
        pinv = _inverse_mod(p // g, ng) if mod else None  # unused over Z
        while True:
            # clear column t below and row t beyond the pivot as far as exact
            # multiples allow; dirty if a Euclidean remainder is left
            dirty = False
            for i in range(t + 1, rows):
                ri = a[i]
                x = ri[t]
                if x:  # row i -= q row t
                    q = (x // g) * pinv % ng if mod and x % g == 0 else x // p
                    for j in range(t, cols):
                        ri[j] = (ri[j] - q * rt[j]) % mod if mod else ri[j] - q * rt[j]
                    row_log.append((t, i, -q))
                    dirty = dirty or ri[t] != 0
            touched = [r for r in a[t:] if r[t]]  # column operations change only these rows
            for j in range(t + 1, cols):
                x = rt[j]
                if x:  # column j -= q column t
                    q = (x // g) * pinv % ng if mod and x % g == 0 else x // p
                    for r in touched:
                        r[j] = (r[j] - q * r[t]) % mod if mod else r[j] - q * r[t]
                    col_log.append((t, j, -q))
                    dirty = dirty or rt[j] != 0
            if dirty:
                break
            for i in range(t + 1, rows):
                if any(x % g for x in a[i][t + 1:]):
                    break
            else:
                break
            ri = a[i]  # its entries leave remainders mod p: row t += row i
            for j in range(t, cols):
                rt[j] = (rt[j] + ri[j]) % mod if mod else rt[j] + ri[j]
            row_log.append((i, t, 1))
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
