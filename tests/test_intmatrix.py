import math
import random
from itertools import permutations

import pytest

from groupoid_invariants.automorphisms import aut_orbit_equivalent
from groupoid_invariants.errors import InternalError
from groupoid_invariants.fggroup import FgGroup, GroupHom, cokernel, cokernel_and_kernel
from groupoid_invariants.intmatrix import (IntMatrix, _inverse_mod, smith_form_mod_det,
                                          smith_normal_form)


def snf_invariants_hold(m, snf):
    assert (snf.u @ m @ snf.v).entries == snf.s.entries
    assert abs(snf.u.det()) == 1
    assert abs(snf.v.det()) == 1
    diag = snf.diagonal()
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert all(b % a == 0 for a, b in zip(nonzero, nonzero[1:]))
    assert diag == tuple(nonzero) + (0,) * (len(diag) - len(nonzero))
    # off-diagonal entries vanish
    for i in range(snf.s.rows):
        for j in range(snf.s.cols):
            if i != j:
                assert snf.s[i, j] == 0


def test_snf_identity():
    m = IntMatrix.identity(2)
    assert smith_normal_form(m).s == m


def test_snf_zero():
    m = IntMatrix.zeros(2, 2)
    assert smith_normal_form(m).s == m


def test_snf_diag_2_3():
    # determinantal-divisor oracle: d1 = gcd of all entries, d1*d2 = |det|
    m = IntMatrix.diagonal([2, 3])
    d1 = math.gcd(*(x for x in m.entries))
    assert d1 == 1
    d1d2 = abs(m.det())
    assert d1d2 == 6
    snf = smith_normal_form(m)
    assert snf.diagonal() == (d1, d1d2 // d1) == (1, 6)
    snf_invariants_hold(m, snf)


def test_snf_random_matrices():
    rng = random.Random(7)
    for _ in range(250):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = IntMatrix(r, c, tuple(rng.randint(-9, 9) for _ in range(r * c)))
        snf_invariants_hold(m, smith_normal_form(m))


def test_snf_determinantal_divisors_random():
    # product of the first k invariant factors equals the gcd of all k x k minors
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = IntMatrix(n, n, tuple(rng.randint(-4, 4) for _ in range(n * n)))
        diag = smith_normal_form(m).diagonal()
        rows = m.to_rows()
        for k in range(1, n + 1):
            minors = []
            for rsel in _subsets(range(n), k):
                for csel in _subsets(range(n), k):
                    sub = IntMatrix.from_rows([[rows[i][j] for j in csel] for i in rsel])
                    minors.append(sub.det())
            g = 0
            for x in minors:
                g = math.gcd(g, x)
            assert math.prod(diag[:k]) == g


def _subsets(pool, k):
    pool = list(pool)
    def rec(start, acc):
        if len(acc) == k:
            yield tuple(acc)
            return
        for i in range(start, len(pool)):
            acc.append(pool[i])
            yield from rec(i + 1, acc)
            acc.pop()
    yield from rec(0, [])


def _det_by_permutation_expansion(m):
    n = m.rows
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = [False] * n
        # parity via cycle decomposition
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
                length += 1
            if length % 2 == 0:
                sign = -sign
        prod = 1
        for i in range(n):
            prod *= m[i, perm[i]]
        total += sign * prod
    return total


def test_bareiss_det_against_permanent_expansion():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 5)
        m = IntMatrix(n, n, tuple(rng.randint(-6, 6) for _ in range(n * n)))
        assert m.det() == _det_by_permutation_expansion(m)


def test_matrix_basics():
    m = IntMatrix.from_rows([[1, 2], [3, 4]])
    assert m.transpose() == IntMatrix.from_rows([[1, 3], [2, 4]])
    assert (m @ IntMatrix.identity(2)) == m
    assert m.apply((1, 1)) == (3, 7)
    assert (m - m) == IntMatrix.zeros(2, 2)
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))


def _random_unimodular(rng, n, steps=24):
    rows = IntMatrix.identity(n).to_rows()
    for _ in range(steps):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i == j:
            rows[i] = [-x for x in rows[i]]
        else:
            q = rng.choice((-2, -1, 1, 2))
            rows[i] = [x + q * y for x, y in zip(rows[i], rows[j])]
    return IntMatrix.from_rows(rows)


def _modular_corpus():
    """Nonsingular square matrices: SFT presentations id - A^t with entries
    0-3 and n = 2..12, companion-matrix presentations, and diagonal block sums
    with square factors ((Z/2)^k, (Z/4)^2, ...) hidden by unimodular changes
    of basis, which force pivots that are not units modulo det."""
    rng = random.Random(1512)
    corpus = []
    for n in range(2, 13):
        for _ in range(12):
            a = IntMatrix.from_rows([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
            corpus.append(IntMatrix.identity(n) - a.transpose())
    for k in range(2, 7):
        for r in range(1, 5):
            comp = [[0] * r for _ in range(r)]
            comp[0][r - 1] = k
            for i in range(1, r):
                comp[i][i - 1] = 1
            corpus.append(IntMatrix.identity(r) - IntMatrix.from_rows(comp).transpose())
    for diag in ([2, 2], [2, 2, 2], [4, 4], [2, 4, 8], [3, 9, 3], [6, 12],
                 [1, 2, 2, 4], [2, 2, 2, 2, 3], [5, 1, 25], [-2, 2, 1, 1, 4]):
        d = IntMatrix.diagonal(diag)
        n = d.rows
        corpus.append(d)
        for _ in range(3):
            corpus.append(_random_unimodular(rng, n) @ d @ _random_unimodular(rng, n))
    return [m for m in corpus if m.det() != 0]


def test_modular_cokernel_matches_snf_cokernel():
    corpus = _modular_corpus()
    assert len(corpus) > 150
    for m in corpus:
        n = m.rows
        det = m.det()
        grp, qmap, ker = cokernel_and_kernel(m, det)
        ref, ref_map = cokernel(m)
        assert grp == ref and ker.is_trivial
        assert grp.order() == abs(det)
        # the projection kills the image and its unit vectors generate: with
        # |grp| = |coker m| it is the cokernel projection
        for j in range(n):
            assert qmap([m[i, j] for i in range(n)]).is_zero
        basis = [qmap([int(i == k) for i in range(n)]) for k in range(n)]
        assert GroupHom(FgGroup.free(n), grp, tuple(basis)).is_surjective()
        ones = (1,) * n
        u, ref_u = qmap(ones), ref_map(ones)
        assert u.order() == ref_u.order()
        assert aut_orbit_equivalent(grp, u, ref_u)


def test_modular_reduction_of_square_factor_block_sums():
    rng = random.Random(5)
    for diag, factors in (([2, 2, 2], (2, 2, 2)), ([4, 4], (4, 4)),
                          ([2, 4, 8], (2, 4, 8)), ([6, 12], (6, 12)),
                          ([3, 9, 3], (3, 3, 9)), ([1, 1, 7], (7,)),
                          ([1, 1, 1], ())):
        d = IntMatrix.diagonal(diag)
        m = _random_unimodular(rng, d.rows) @ d @ _random_unimodular(rng, d.rows)
        red = smith_form_mod_det(m, m.det())
        assert red.factors == factors and math.prod(factors) == math.prod(diag)
        assert (red.u.rows, red.u.cols) == (len(factors), d.rows)
        assert all(0 <= x < f for r, f in enumerate(factors) for x in red.u.row(r))


def test_modular_inverse_failure_is_an_internal_error():
    assert _inverse_mod(3, 8) == 3
    with pytest.raises(InternalError):
        _inverse_mod(2, 4)
