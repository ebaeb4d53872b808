"""Moves on adjacency matrices whose effect on the groupoid is known.

* Out-splitting (Lind-Marcus, "An Introduction to Symbolic Dynamics and
  Coding", 1995, section 2.4).  Partition the out-edges of each vertex i
  into nonempty parts, one new vertex (i, p) per part.  With the division
  matrix D (D[i][(i, p)] = 1) and the edge matrix E (E[(i, p)][j] = the
  edges i -> j in part p), A = D E and the split graph is A' = E D.  It is
  a one-sided conjugacy, so G_A and G_A' are isomorphic.
* In-splitting: the transpose of an out-splitting of A^t.  It is a flow
  equivalence (Parry-Sullivan, "A topological invariant of flows on
  1-dimensional spaces", Topology 1975), so G_A and G_A' are Morita
  equivalent; the unit class may move, so they need not be isomorphic.
* The Cuntz splice (Franks, "Flow equivalence of subshifts of finite type",
  ETDS 1984).  Two new vertices w1, w2, each with a loop, joined to each
  other and w1 to a vertex v both ways.  It keeps the Bowen-Franks group
  and negates det(id - A), so for det != 0 the groupoids are not Morita
  equivalent.
"""

from __future__ import annotations

import random


def out_split(rows: list[list[int]], rng: random.Random,
              max_parts: int = 2) -> tuple[list[list[int]], list[list[int]]]:
    """A random out-splitting of rows as (D, E), with A = D E.

    Each vertex's out-edges are shuffled and cut into 1 to max_parts
    nonempty runs."""
    n = len(rows)
    owners, e = [], []
    for i, row in enumerate(rows):
        edges = [j for j, x in enumerate(row) for _ in range(x)]
        rng.shuffle(edges)
        k = rng.randint(1, min(max_parts, len(edges)))
        cuts = sorted(rng.sample(range(1, len(edges)), k - 1))
        for lo, hi in zip([0, *cuts], [*cuts, len(edges)]):
            part = [0] * n
            for j in edges[lo:hi]:
                part[j] += 1
            e.append(part)
            owners.append(i)
    d = [[int(owner == i) for owner in owners] for i in range(n)]
    return d, e


def split_matrix(d: list[list[int]], e: list[list[int]]) -> list[list[int]]:
    """A' = E D, the out-split graph."""
    return mat_mul(e, d)


def in_split(rows: list[list[int]], rng: random.Random, max_parts: int = 2) -> list[list[int]]:
    """A random in-splitting of rows: the transpose of an out-split graph of
    the transpose."""
    d, e = out_split(transpose(rows), rng, max_parts)
    return transpose(split_matrix(d, e))


def transpose(rows: list[list[int]]) -> list[list[int]]:
    return [list(col) for col in zip(*rows)]


def mat_mul(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    """The product x y of two matrices given by their rows."""
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def cuntz_splice(rows: list[list[int]], v: int = 0) -> list[list[int]]:
    """rows with the Cuntz splice attached at vertex v."""
    n = len(rows)
    out = [list(row) + [0, 0] for row in rows] + [[0] * (n + 2) for _ in range(2)]
    w1, w2 = n, n + 1
    for i, j in ((v, w1), (w1, v), (w1, w1), (w1, w2), (w2, w1), (w2, w2)):
        out[i][j] = 1
    return out
