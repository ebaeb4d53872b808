import random

import pytest

from groupoid_invariants.errors import SftValidationError
from groupoid_invariants.sft import SftMatrix, validate


def random_sft(rng: random.Random, max_size: int = 4, max_entry: int = 3) -> SftMatrix:
    """Rejection-sample a valid SFT adjacency matrix."""
    while True:
        n = rng.randint(1, max_size)
        rows = [[rng.randint(0, max_entry) for _ in range(n)] for _ in range(n)]
        try:
            return validate(rows)
        except SftValidationError:
            continue


def random_factor_list(rng: random.Random, max_factors: int = 3,
                       max_size: int = 4, max_entry: int = 3) -> list[SftMatrix]:
    return [random_sft(rng, max_size, max_entry)
            for _ in range(rng.randint(1, max_factors))]


def relabel(rows, perm):
    """The matrix with vertex i renamed perm[i]: a conjugate by a permutation."""
    n = len(rows)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = rows[i][j]
    return out


# BF = Z/2 + Z/2 + Z/82, det(I - A) = -328, |Aut(BF)| = 6720: two copies put
# 6720^2 automorphism tuples in front of a search over tuples
WALL_MATRIX = [[1, 4, 0, 2, 2], [4, 1, 1, 3, 0], [2, 4, 2, 3, 0],
               [4, 2, 4, 1, 3], [4, 0, 4, 2, 2]]
# relabellings of WALL_MATRIX whose unit coordinates differ from its own
WALL_PERMS = ((0, 1, 4, 3, 2), (0, 2, 3, 1, 4))


@pytest.fixture
def rng():
    return random.Random(20240811)
