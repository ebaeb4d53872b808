"""Reference arithmetic for the answer checks, written apart from the library.

Nothing here imports ``groupoid_invariants``: each check compares a library
answer with a value reached by a different route (determinants, ranks modulo
a prime, element indicators, naive tensor coordinates).
"""

from __future__ import annotations

from itertools import product as iproduct
from math import gcd, prod


def det(rows) -> int:
    """Exact determinant by Bareiss elimination with row pivoting."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        pk = m[k][k]
        rk = m[k]
        for i in range(k + 1, n):
            ri = m[i]
            rik = ri[k]
            for j in range(k + 1, n):
                ri[j] = (ri[j] * pk - rik * rk[j]) // prev
            ri[k] = 0
        prev = pk
    return sign * m[n - 1][n - 1] if n else 1


def id_minus(rows, transpose=False):
    """I - A, or I - A^t."""
    n = len(rows)
    return [[(i == j) - (rows[j][i] if transpose else rows[i][j]) for j in range(n)]
            for i in range(n)]


def rank_mod_p(rows, p: int) -> int:
    """Rank over the field Z/p (p prime)."""
    m = [[x % p for x in r] for r in rows]
    rank, cols = 0, len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        prow = [x * inv % p for x in m[rank]]
        m[rank] = prow
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], prow)]
        rank += 1
    return rank


def relabel(rows, perm):
    """The adjacency matrix of the same graph with vertex i renamed perm[i]."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


def transpose(rows):
    return [list(c) for c in zip(*rows)]


def _vp(x: int, p: int) -> int:
    v = 0
    while x % p == 0:
        x //= p
        v += 1
    return v


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def signature(free_rank: int, torsion) -> tuple:
    """Isomorphism invariant of a f.g. abelian group: free rank and the
    sorted prime-power orders of its primary cyclic summands."""
    powers = []
    for d in torsion:
        powers.extend(p ** _vp(d, p) for p in prime_factors(d))
    return free_rank, tuple(sorted(powers))


def is_quotient(g_torsion, h_torsion) -> bool:
    """For finite groups: h is an epimorphic image of g, compared per prime
    by the partitions of the primary parts."""
    for p in set(prime_factors(prod(g_torsion, start=1) * prod(h_torsion, start=1))):
        lg = sorted((_vp(d, p) for d in g_torsion), reverse=True)
        lh = sorted((_vp(d, p) for d in h_torsion), reverse=True)
        lh = [e for e in lh if e]
        if len(lh) > len(lg) or any(a < b for a, b in zip(lg, lh)):
            return False
    return True


def indicator(coords, orders) -> tuple:
    """Heights of x, px, p^2x, ... at every prime, for x in (+) Z/orders[j].

    In a finite abelian group two elements lie in one automorphism orbit
    exactly when their indicators agree, so this is an orbit invariant.
    """
    out = []
    for p in prime_factors(prod(orders, start=1)):
        mods = [p ** _vp(d, p) for d in orders]
        ys = [c % q for c, q in zip(coords, mods)]
        seq = []
        while any(ys):
            seq.append(min(_vp(y, p) for y in ys if y))
            ys = [y * p % q for y, q in zip(ys, mods)]
        out.append((p, tuple(seq)))
    return tuple(out)


def naive_tensor(elements, torsions):
    """x_1 (x) ... (x) x_n in (+)_J Z/gcd(d_1[j_1], ..., d_n[j_n]), where an
    order of 0 stands for Z and is the identity of gcd.

    The summands of the tensor product of cyclic decompositions, before any
    canonical form: both sides of a classify pair share the factor groups, so
    their unit tensors are comparable here.
    """
    coords, orders = [], []
    for idx in iproduct(*(range(len(t)) for t in torsions)):
        g = 0
        c = 1
        for x, t, j in zip(elements, torsions, idx):
            g = gcd(g, t[j])
            c *= x[j]
        orders.append(g)
        coords.append(c % g if g else c)
    return tuple(coords), tuple(orders)


def apply_hom(images, x, orders):
    """Image of x under the hom sending generator j to images[j] (order 0 = Z)."""
    out = []
    for i, d in enumerate(orders):
        s = sum(c * img[i] for c, img in zip(x, images))
        out.append(s % d if d else s)
    return tuple(out)


def is_automorphism(images, torsion) -> bool:
    """Well defined on every relation and onto, hence bijective (finite group)."""
    for d, img in zip(torsion, images):
        if any(d * c % m for c, m in zip(img, torsion)):
            return False
    if len(images) != len(torsion):
        return False
    seen = {tuple(0 for _ in torsion)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for x in frontier:
            for img in images:
                y = tuple((a + b) % d for a, b, d in zip(x, img, torsion))
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == prod(torsion, start=1)


def candidate_space(torsion) -> int:
    """|Hom(T, T)| = prod gcd(d_i, d_j): the candidates enumerated for Aut(T)."""
    return prod(gcd(a, b) for a in torsion for b in torsion)


def aut_order(torsion) -> int:
    """|Aut(T)| for finite T, by the Hillar-Rhea formula on each primary part."""
    total = 1
    for p in prime_factors(prod(torsion, start=1)):
        e = sorted(_vp(d, p) for d in torsion if d % p == 0)
        n = len(e)
        d = [max(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
        c = [min(l for l in range(n) if e[l] == e[k]) + 1 for k in range(n)]
        total *= prod(p ** d[k] - p ** k for k in range(n))
        total *= prod(p ** (e[j] * (n - d[j])) for j in range(n))
        total *= prod(p ** ((e[i] - 1) * (n - c[i] + 1)) for i in range(n))
    return total


def _tensor(g, h):
    # on prime powers, Z/q (x) Z/r = Z/gcd(q, r): trivial across primes
    (fg, pg), (fh, ph) = g, h
    parts = list(pg) * fh + list(ph) * fg + [gcd(q, r) for q in pg for r in ph]
    return fg * fh, [q for q in parts if q > 1]


def _tor(g, h):
    return 0, [q for q in (gcd(x, y) for x in g[1] for y in h[1]) if q > 1]


def kunneth_fold(factors) -> dict[int, tuple]:
    """Graded homology of a product, by folding the Kunneth formula
    H_n(G x H) = (+) H_i (x) H_j (+) (+) Tor(H_i, H_j') over primary
    decompositions.  `factors` holds (H_0, H_1) of each factor as
    (free rank, torsion) pairs; returns degree -> signature()."""
    acc = None
    for h0, h1 in factors:
        h = {0: signature(*h0), 1: signature(*h1)}
        if acc is None:
            acc = h
            continue
        out = {}
        for n in range(max(acc) + max(h) + 2):
            free, parts = 0, []
            for i in acc:
                for j in h:
                    if i + j == n:
                        f, p = _tensor(acc[i], h[j])
                    elif i + j == n - 1:
                        f, p = _tor(acc[i], h[j])
                    else:
                        continue
                    free += f
                    parts += p
            if free or parts:
                out[n] = (free, tuple(sorted(parts)))
        acc = out
    return acc
