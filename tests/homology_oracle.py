"""Chain-level homology of a product of SFT groupoids.

Each factor G_A has the two-term free complex Z^n --d--> Z^n, d = I - A^t,
with H_0 = coker d (the Bowen-Franks group) and H_1 = ker d.  The homology of
G_{A_1} x ... x G_{A_k} is that of the tensor product of these complexes:
degree j is spanned by a subset S of the factors, |S| = j, taken in degree 1,
and one vertex per factor, so it has C(k, j) * prod n_i generators; the
differential applies d_i to the coordinate of each i in S, with the Koszul
sign (-1)^(number of members of S before i).  H_j comes from the Smith normal
form diagonals of d_j and d_(j+1): its free rank is dim C_j - rank d_j -
rank d_(j+1), and its invariant factors are the diagonal entries of d_(j+1)
above 1.  The unit class is the image of the all-ones vector in coker d_1.

Only ``IntMatrix`` and ``smith_normal_form`` are used: groups are read
straight off the diagonals, never through ``tensor``, ``tor``,
``direct_sum`` or ``canonical_orders``, so the oracle shares no group
calculus with ``homology``.

``is_quotient`` compares a homology group with the group it should be an
epimorphic image of (H_1 and the full-group abelianization).
"""

from itertools import combinations, product

from groupoid_invariants.fggroup import FgGroup
from groupoid_invariants.intmatrix import IntMatrix, smith_normal_form


def _basis(sizes, j):
    """The generators of degree j as (subset, vertices) pairs."""
    cells = list(product(*map(range, sizes)))
    return [(s, v) for s in combinations(range(len(sizes)), j) for v in cells]


def _differential(ds, sizes, j) -> IntMatrix:
    """d_j: degree j -> degree j - 1 of the tensor product complex."""
    rows = {cell: r for r, cell in enumerate(_basis(sizes, j - 1))}
    cols = _basis(sizes, j)
    ent = [0] * (len(rows) * len(cols))
    for c, (s, v) in enumerate(cols):
        for pos, i in enumerate(s):
            t = s[:pos] + s[pos + 1:]
            sign = -1 if pos % 2 else 1
            for a in range(sizes[i]):
                x = ds[i][a][v[i]]
                if x:
                    r = rows[t, v[:i] + (a,) + v[i + 1:]]
                    ent[r * len(cols) + c] += sign * x
    return IntMatrix(len(rows), len(cols), tuple(ent))


def chain_homology(factors):
    """(groups, unit): H_j for j = 0..k, and the class of the constant 1."""
    sizes = [f.size for f in factors]
    ds = [[[int(a == b) - f.a[b, a] for b in range(n)] for a in range(n)]
          for f, n in zip(factors, sizes)]
    k = len(factors)
    dims = [len(_basis(sizes, j)) for j in range(k + 1)]
    snfs = [None] + [smith_normal_form(_differential(ds, sizes, j)) for j in range(1, k + 1)]
    ranks = [0] + [snf.rank() for snf in snfs[1:]] + [0]
    groups = {}
    for j in range(k + 1):
        incoming = snfs[j + 1].diagonal() if j < k else ()
        groups[j] = FgGroup(dims[j] - ranks[j] - ranks[j + 1],
                            tuple(d for d in incoming if d > 1))
    # coker d_1: the class of x is u x, free rows past the rank, torsion rows
    # where the diagonal exceeds 1
    snf = snfs[1]
    diag = snf.diagonal() + (0,) * (dims[0] - len(snf.diagonal()))
    ux = snf.u.apply((1,) * dims[0])
    unit = groups[0].element([x for x, d in zip(ux, diag) if d == 0],
                             [x for x, d in zip(ux, diag) if d > 1])
    return groups, unit


def graded_sum(groups) -> FgGroup:
    """The direct sum of groups, by the Smith normal form of their orders."""
    free = sum(g.free_rank for g in groups)
    orders = [d for g in groups for d in g.torsion]
    diag = smith_normal_form(IntMatrix.diagonal(orders)).diagonal()
    return FgGroup(free, tuple(d for d in diag if d > 1))


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
    for e, d in zip(reversed(hs), reversed(gs)):
        if (d % e if e else d):
            return False
    return True
