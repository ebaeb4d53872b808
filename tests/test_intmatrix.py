import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from groupoid_invariants.automorphisms import aut_orbit_equivalent
from groupoid_invariants.errors import InternalError
from groupoid_invariants import fggroup
from groupoid_invariants.fggroup import (FgGroup, GroupHom, cokernel, cokernel_and_kernel,
                                         kernel_group)
from groupoid_invariants.intmatrix import (FractionFreeLU, IntMatrix, _inverse_mod,
                                          smith_form_mod_det, smith_normal_form)


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
        assert [math.prod(diag[:k]) for k in range(1, n + 1)] == _minor_gcds(m)


def test_snf_clears_the_row_of_a_unit_pivot():
    # the first pivot is the 1 at (0, 0); only column operations clear the
    # 5 and 3 beside it, and v must record them
    m = IntMatrix.from_rows([[1, 5, 3], [2, 4, 7]])
    snf = smith_normal_form(m)
    snf_invariants_hold(m, snf)
    assert snf.diagonal() == (1, 1) and snf.v != IntMatrix.identity(3)
    grp, basis = kernel_group(m)
    assert grp == FgGroup.free(1) and not any(m.apply(basis[0]))


def _minor_gcds(m):
    """For k = 1..n, the gcd of the k x k minors of a square m, each minor by
    IntMatrix.det: the product of the first k invariant factors."""
    n, rows = m.rows, m.to_rows()
    return [math.gcd(*(IntMatrix.from_rows([[rows[i][j] for j in csel] for i in rsel]).det()
                       for rsel in _subsets(range(n), k) for csel in _subsets(range(n), k)))
            for k in range(1, n + 1)]


def test_modular_factors_match_the_determinantal_divisors():
    # an oracle that shares nothing with the elimination; entries without
    # many units make pivots that are not units and the divisibility fix-up
    rng = random.Random(1991)
    values = (0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -6, 9, 10)
    checked = 0
    while checked < 200:
        n = rng.randint(1, 4)
        m = IntMatrix(n, n, tuple(rng.choice(values) for _ in range(n * n)))
        det = m.det()
        if not det:
            continue
        checked += 1
        factors = smith_form_mod_det(m, det).factors
        diag = (1,) * (n - len(factors)) + factors
        assert [math.prod(diag[:k]) for k in range(1, n + 1)] == _minor_gcds(m)


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


def test_diagonal_entries_must_be_integers():
    assert IntMatrix.diagonal([2, 3], 2, 3) == IntMatrix.from_rows([[2, 0, 0], [0, 3, 0]])
    for bad in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            IntMatrix.diagonal([bad, 3])


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
    0-3 and n = 2..12, and dense ones with n = 14..30, half of them with
    A_00 = 1, so the LU of id - A has a zero leading pivot and swaps rows;
    companion-matrix presentations; diagonal block sums with square factors
    ((Z/2)^k, (Z/4)^2, ...) hidden by unimodular changes of basis, which
    force pivots that are not units modulo det; and unimodular matrices,
    |det| = 1."""
    rng = random.Random(1512)
    corpus = []
    for n in range(2, 13):
        for _ in range(12):
            a = IntMatrix.from_rows([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
            corpus.append(IntMatrix.identity(n) - a.transpose())
    for n in range(14, 31, 2):
        for lead in (None, 1):
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            if lead is not None:
                rows[0][0] = lead
            corpus.append(IntMatrix.identity(n) - IntMatrix.from_rows(rows).transpose())
    for n in (1, 2, 5, 9):
        corpus.append(_random_unimodular(rng, n))
    corpus.append(IntMatrix.from_rows([[0, -1], [-1, 1]]))  # id - golden mean shift^t
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


def test_modular_cokernel_matches_snf_cokernel(monkeypatch):
    fallbacks = []
    reduce = fggroup.smith_form_mod_det
    monkeypatch.setattr(fggroup, "smith_form_mod_det",
                        lambda m, det: fallbacks.append(m) or reduce(m, det))
    corpus = _modular_corpus()
    assert len(corpus) > 150
    expect_fallback = 0
    for m in corpus:
        n = m.rows
        det = m.det()
        grp, qmap, ker, got = cokernel_and_kernel(m)
        expect_fallback += len(grp.torsion) > 1 or n < fggroup._CYCLIC_MIN_SIZE
        ref, ref_map = cokernel(m)
        assert grp == ref and ker.is_trivial and got == det
        assert grp.order() == abs(det)
        assert grp.torsion == reduce(m, det).factors
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
    # both branches run: every cyclic cokernel with at least
    # _CYCLIC_MIN_SIZE rows is certified, and exactly the others fall back
    assert 0 < len(fallbacks) == expect_fallback < len(corpus)


def test_fraction_free_solve_gives_the_adjugate_column():
    rng = random.Random(1968)
    for _ in range(40):
        n = rng.randint(1, 30)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.5:
            rows[0][0] = 0  # the first pivot needs a row swap
        m = IntMatrix.from_rows(rows)
        lu = m.fraction_free_lu()
        assert lu.det == (_det_by_permutation_expansion(m) if n <= 5 else _det_over_q(m))
        if lu.det:
            c = [rng.randint(-50, 50) for _ in range(n)]
            assert list(m.apply(lu.solve(c))) == [lu.det * x for x in c]
    for n in (1, 2, 3, 4):
        # the all-ones matrix: for n >= 2 the second pivot is 0 with no row to swap
        assert IntMatrix.from_rows([[1] * n] * n).fraction_free_lu().det == (n == 1)
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [2, 4]]).fraction_free_lu().solve([1, 0])


def _det_over_q(m):
    """det m by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in m.row(i)] for i in range(m.rows)]
    det = Fraction(1)
    for k in range(m.rows):
        piv = next((i for i in range(k, m.rows) if rows[i][k]), None)
        if piv is None:
            return 0
        if piv != k:
            rows[k], rows[piv] = rows[piv], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, m.rows):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return int(det)


def _corrupted_solves(monkeypatch, corrupt):
    solve = FractionFreeLU.solve
    monkeypatch.setattr(FractionFreeLU, "solve", lambda lu, c: corrupt(solve(lu, c)))


def _seeded_presentation(seed, n=12):
    rng = random.Random(seed)
    rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
    return IntMatrix.identity(n) - IntMatrix.from_rows(rows).transpose()


def test_a_doubled_certificate_row_falls_back(monkeypatch):
    # coker = Z/19632, an even order: twice any adjugate row has
    # gcd(w, 19632) >= 2, so no row is certified and the elimination modulo
    # |det| answers
    m = _seeded_presentation(47)
    ref = cokernel(m)[0]
    assert ref == FgGroup.cyclic(19632)
    fallbacks = []
    reduce = fggroup.smith_form_mod_det
    monkeypatch.setattr(fggroup, "smith_form_mod_det",
                        lambda m, det: fallbacks.append(m) or reduce(m, det))
    _corrupted_solves(monkeypatch, lambda y: [2 * x for x in y])
    grp, qmap, _, det = cokernel_and_kernel(m)
    assert len(fallbacks) == 1 and grp == ref and abs(det) == 19632
    assert qmap((1,) * 12).order() == cokernel(m)[1]((1,) * 12).order()


def test_a_certificate_row_that_does_not_annihilate_is_an_internal_error(monkeypatch):
    m = _seeded_presentation(43)
    grp, _, _, _ = cokernel_and_kernel(m)
    assert len(grp.torsion) == 1
    # the first column's row plus e_0: gcd(w, N) = 1 still, w m != 0 mod N
    _corrupted_solves(monkeypatch, lambda y: [y[0] + 1] + y[1:])
    with pytest.raises(InternalError):
        cokernel_and_kernel(m)


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
