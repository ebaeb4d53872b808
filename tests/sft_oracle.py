"""Reference decisions for SFT adjacency matrices, by closure and powers.

``irreducible_oracle(rows)`` is True iff every ordered vertex pair is joined
by a path of length >= 1 (Warshall closure, O(n^3)).  ``primitive_oracle(rows)``
is True iff some power of the matrix is entrywise positive, looked for among
the exponents up to Wielandt's bound (n-1)^2 + 1 with support arithmetic,
O(n^5); keep the matrices small.
"""


def irreducible_oracle(rows) -> bool:
    n = len(rows)
    reach = [[x > 0 for x in row] for row in rows]
    for k in range(n):
        rk = reach[k]
        for i in range(n):
            if reach[i][k]:
                ri = reach[i]
                for j in range(n):
                    if rk[j]:
                        ri[j] = True
    return all(all(row) for row in reach)


def primitive_oracle(rows) -> bool:
    n = len(rows)
    base = [[x > 0 for x in row] for row in rows]
    power = [row[:] for row in base]
    for _ in range((n - 1) ** 2 + 1):
        if all(all(row) for row in power):
            return True
        power = [[any(power[i][k] and base[k][j] for k in range(n))
                  for j in range(n)] for i in range(n)]
    return False
