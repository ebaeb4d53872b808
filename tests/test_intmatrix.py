import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from groupoid_invariants.automorphisms import aut_orbit_equivalent
from groupoid_invariants.errors import InternalError
from groupoid_invariants import fggroup
from groupoid_invariants.fggroup import (FgGroup, GroupHom, cokernel, cokernel_and_kernel,
                                         kernel_group)
from groupoid_invariants.intmatrix import (FractionFreeLU, IntMatrix, ModularSnf,
                                          _inverse_mod, smith_form_mod_det,
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
    # many units make pivots that are not units and the divisibility fix-up.
    # Singular matrices, drawn or made by copying the first row over the
    # last two, are reduced over Z: their trailing zero factors match the
    # minor gcds that vanish.
    rng = random.Random(1991)
    values = (0, 0, 1, -1, 2, -2, 3, -3, 4, 6, -6, 9, 10)
    checked, zeros = 0, []
    while checked < 200:
        n = rng.randint(1, 4)
        rows = [[rng.choice(values) for _ in range(n)] for _ in range(n)]
        for m in (IntMatrix.from_rows(rows), IntMatrix.from_rows(rows[:-2] + rows[:1] * 2)):
            if m.rows != n:
                continue
            det = m.det()
            checked += det != 0
            factors = smith_form_mod_det(m, det).factors
            diag = (1,) * (n - len(factors)) + factors
            assert [math.prod(diag[:k]) for k in range(1, n + 1)] == _minor_gcds(m)
            if not det:
                zeros.append(factors.count(0))
    assert len(zeros) > 100 and {1, 2, 3} <= set(zeros)


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
        with pytest.raises(ValueError, match=r"entry \(0, 0\)"):
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


def _singular_corpus():
    """Singular square matrices, n = 1-30, with rank deficiency k = 1-3 and
    torsion: diag(t_1, ..., t_(n-k), 0, ..., 0) hidden by unimodular
    changes of basis, and dense products B diag(t) C of rank at most n - k."""
    rng = random.Random(2016)
    corpus = []
    for n in range(1, 31):
        for dense in (False, True, False, True):
            k = rng.randint(1, min(3, n))
            t = [1] * (n - k)
            for i in rng.sample(range(n - k), min(3, n - k)):
                t[i] = rng.choice((2, 3, 4, 6, 12, -9))
            if dense:
                b = IntMatrix(n, n - k, tuple(rng.randint(-2, 2) for _ in range(n * (n - k))))
                c = IntMatrix(n - k, n, tuple(rng.randint(-2, 2) for _ in range(n * (n - k))))
                m = b @ IntMatrix.diagonal(t) @ c
            else:
                d = IntMatrix.diagonal(t + [0] * k)
                m = _random_unimodular(rng, n, 2 * n) @ d @ _random_unimodular(rng, n, 2 * n)
            corpus.append((m, k))
    return corpus


def test_modular_cokernel_matches_snf_cokernel(monkeypatch):
    fallbacks = []
    reduce = fggroup.smith_form_mod_det
    monkeypatch.setattr(fggroup, "smith_form_mod_det",
                        lambda m, det: fallbacks.append(m) or reduce(m, det))
    corpus = [(m, 0) for m in _modular_corpus()]
    assert len(corpus) > 150
    corpus += _singular_corpus()
    expect_fallback = singular_torsion = 0
    for m, k in corpus:
        n = m.rows
        det = m.det()
        grp, qmap, got = cokernel_and_kernel(m)
        expect_fallback += len(grp.torsion) > 1 or n < fggroup._CYCLIC_MIN_SIZE or not det
        ref, ref_map = cokernel(m)
        assert grp == ref and got == det and (det == 0) == (k > 0)
        # ker m is free of the free rank of coker m, which SftInvariants.k1 reads
        assert grp.free_rank == len(kernel_group(m)[1])
        assert grp.order() == abs(det) and grp.free_rank >= k  # order 0: infinite
        assert reduce(m, det).factors == grp.torsion + (0,) * grp.free_rank
        singular_torsion += k > 0 and bool(grp.torsion)
        # the projection kills the image and its unit vectors generate: with
        # grp = coker m the induced surjection coker m -> grp is bijective (a
        # surjective endomorphism of a finitely generated abelian group is)
        for j in range(n):
            assert qmap([m[i, j] for i in range(n)]).is_zero
        basis = [qmap([int(i == c) for i in range(n)]) for c in range(n)]
        assert GroupHom(FgGroup.free(n), grp, tuple(basis)).is_surjective()
        ones = (1,) * n
        u, ref_u = qmap(ones), ref_map(ones)
        assert u.order() == ref_u.order()
        assert aut_orbit_equivalent(grp, u, ref_u)
    # both branches run: every nonsingular cyclic cokernel with at least
    # _CYCLIC_MIN_SIZE rows is certified within the columns, and exactly the
    # others reach smith_form_mod_det, modulo |det| or, split, modulo a divisor
    assert 0 < len(fallbacks) == expect_fallback < len(corpus)
    assert singular_torsion > 90


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
    # gcd(w, 19632) >= 2, so no row is certified within the columns and the
    # split answers, w on the odd part and the elimination modulo 16 on the rest
    m = _seeded_presentation(47)
    ref = cokernel(m)[0]
    assert ref == FgGroup.cyclic(19632)
    fallbacks = []
    reduce = fggroup.smith_form_mod_det
    monkeypatch.setattr(fggroup, "smith_form_mod_det",
                        lambda m, det: fallbacks.append(m) or reduce(m, det))
    _corrupted_solves(monkeypatch, lambda y: [2 * x for x in y])
    grp, qmap, det = cokernel_and_kernel(m)
    assert len(fallbacks) == 1 and grp == ref and abs(det) == 19632
    assert qmap((1,) * 12).order() == cokernel(m)[1]((1,) * 12).order()


def _split_corpus():
    """Nonsingular presentations with 8-60 rows: id - A^t with entries 0-3,
    most with a cyclic cokernel; the same with rows 0 and 1 multiplied by 2
    or 3, whose cokernel is never cyclic; and diagonal
    matrices whose largest factor has no prime that the others lack, so that
    N' = 1, hidden by unimodular changes of basis."""
    rng = random.Random(1724)
    corpus = []
    for n in range(8, 61, 4):
        for scale in (1, 2, 3):
            rows = (IntMatrix.identity(n)
                    - IntMatrix.from_rows([[rng.randint(0, 3) for _ in range(n)]
                                           for _ in range(n)]).transpose()).to_rows()
            rows[:2] = [[scale * x for x in r] for r in rows[:2]]
            corpus.append(IntMatrix.from_rows(rows))
    for diag in ((2, 2), (2, 4), (3, 9), (6, 12), (2, 2, 8), (4, 4)):
        n = rng.randint(8, 14)
        d = IntMatrix.diagonal([1] * (n - len(diag)) + list(diag))
        corpus.append(_random_unimodular(rng, n) @ d @ _random_unimodular(rng, n))
    return corpus


def test_split_matches_the_elimination_modulo_det(monkeypatch):
    # the oracle is the elimination modulo |det|; each cyclic cokernel is
    # also forced into the split by solves multiplied by a prime p of |det|,
    # which leaves p in every row's gcd
    moduli = []
    reduce = fggroup.smith_form_mod_det
    monkeypatch.setattr(fggroup, "smith_form_mod_det",
                        lambda m, det: moduli.append(det) or reduce(m, det))
    answers = []
    certify = fggroup._certify
    monkeypatch.setattr(fggroup, "_certify",
                        lambda m, red, mod: answers.append(red) or certify(m, red, mod))
    scale = [1]
    _corrupted_solves(monkeypatch, lambda y: [scale[0] * x for x in y])
    kinds = {"cyclic": 0, "split": 0, "whole": 0, "forced": 0}
    for m in _split_corpus():
        n, det = m.rows, m.det()
        mod = abs(det)
        ref = reduce(m, det)
        ref_grp, ref_map = fggroup._projection(ref.factors, ref.u)
        cyclic = len(ref.factors) == 1
        p = next((p for p in (2, 3, 5, 7) if mod % p == 0), 1)
        for scale[0] in ((1, p) if cyclic and p > 1 else (1,)):
            moduli.clear()
            answers.clear()
            grp, qmap, got = cokernel_and_kernel(m)
            ones = (1,) * n
            assert grp == ref_grp and got == det
            assert aut_orbit_equivalent(grp, qmap(ones), ref_map(ones))
            if cyclic and scale[0] == 1:
                kinds["cyclic"] += 1
                assert moduli == []
                continue
            # one elimination, modulo N_g: a divisor of N coprime to N / N_g
            # that holds every prime of the factors below the top one
            [n_g] = moduli
            assert mod % n_g == 0 and math.gcd(n_g, mod // n_g) == 1
            assert math.gcd(mod // n_g, mod // ref.factors[-1]) == 1
            if n_g == mod:
                # N' = 1: the CRT merge leaves the elimination's answer byte for byte
                [red] = answers
                assert (red.factors, red.u.rows, red.u.entries) == \
                    (ref.factors, ref.u.rows, ref.u.entries)
            if scale[0] > 1:
                kinds["forced"] += 1
                assert n_g == p ** fggroup._valuation(mod, p)
            else:
                kinds["split" if n_g < mod else "whole"] += 1
    assert all(k >= 5 for k in kinds.values()), kinds


def test_a_non_cyclic_cokernel_is_eliminated_modulo_a_proper_divisor_of_det(monkeypatch):
    # BF = Z/2 + Z/1184, det 2368 = 2^6 * 37: the columns leave g = 2, so the
    # elimination runs modulo 64 and the top factor's 37 comes from w
    rows = [[0, 1, 2, 0, 0, 3, 1, 1, 3], [3, 1, 0, 3, 1, 3, 3, 1, 0],
            [3, 2, 3, 2, 0, 1, 1, 1, 1], [0, 0, 2, 2, 2, 0, 3, 0, 1],
            [2, 2, 2, 2, 2, 2, 1, 2, 0], [3, 0, 2, 3, 0, 1, 3, 0, 3],
            [2, 3, 2, 1, 2, 1, 1, 3, 2], [0, 3, 1, 0, 2, 1, 1, 3, 0],
            [3, 2, 0, 3, 0, 0, 0, 1, 1]]
    m = IntMatrix.identity(9) - IntMatrix.from_rows(rows).transpose()
    moduli = []
    reduce = fggroup.smith_form_mod_det
    monkeypatch.setattr(fggroup, "smith_form_mod_det",
                        lambda m, det: moduli.append(det) or reduce(m, det))
    grp, qmap, det = cokernel_and_kernel(m)
    assert grp == FgGroup(0, (2, 1184)) and det == 2368
    assert moduli == [64]


def test_the_certificate_rejects_each_failed_clause():
    # id - A^t of A = 2J - I on 3 vertices: coker = Z/2 + Z/2 + Z/4, det -16
    m = IntMatrix.from_rows([[0, -2, -2], [-2, 0, -2], [-2, -2, 0]])
    red = smith_form_mod_det(m, -16)
    assert red.factors == (2, 2, 4)
    fggroup._certify(m, red, 16)
    u = red.u.to_rows()
    bad = {
        # (a) the last row plus e_0 no longer annihilates m modulo 4
        "annihilate": ModularSnf(red.factors, IntMatrix.from_rows(
            u[:2] + [[u[2][0] + 1] + u[2][1:]])),
        # (b) twice the last row annihilates, but misses the odd classes of Z/4
        "onto": ModularSnf(red.factors, IntMatrix.from_rows(
            u[:2] + [[2 * x % 4 for x in u[2]]])),
        # (c) a row dropped: the rest annihilates and is onto, of order 8 != 16
        "multiply": ModularSnf(red.factors[1:], IntMatrix.from_rows(u[1:])),
    }
    for clause, wrong in bad.items():
        with pytest.raises(InternalError, match=clause):
            fggroup._certify(m, wrong, 16)
    # a single row is onto iff its entries and the factor are coprime
    n = 12
    m = _seeded_presentation(43, n)
    grp, qmap, det = cokernel_and_kernel(m)
    w = [qmap([int(i == j) for i in range(n)]).torsion[0] for j in range(n)]
    fggroup._certify(m, ModularSnf(grp.torsion, IntMatrix(1, n, tuple(w))), abs(det))
    p = next(p for p in (2, 3, 5, 7) if det % p == 0)
    with pytest.raises(InternalError, match="onto"):
        fggroup._certify(m, ModularSnf(grp.torsion, IntMatrix(1, n, tuple(p * x for x in w))),
                         abs(det))


def test_onto_agrees_with_the_generated_subgroup():
    # the subgroup the columns generate, listed by closure under addition
    rng = random.Random(1987)
    chains = [(2,), (6,), (2, 2), (2, 4), (2, 6), (3, 9), (6, 6), (2, 2, 4), (2, 6, 12)]
    verdicts = set()
    for _ in range(1500):
        factors = rng.choice(chains)
        n = rng.randint(1, 4)
        rows = [[rng.randrange(-2 * d, 2 * d) for _ in range(n)] for d in factors]
        gens = [tuple(r[j] % d for r, d in zip(rows, factors)) for j in range(n)]
        seen = {(0,) * len(factors)}
        todo = list(seen)
        while todo:
            x = todo.pop()
            for g in gens:
                y = tuple((a + b) % d for a, b, d in zip(x, g, factors))
                if y not in seen:
                    seen.add(y)
                    todo.append(y)
        onto = len(seen) == math.prod(factors)
        assert fggroup._onto(rows, factors) == onto
        verdicts.add(onto)
    assert verdicts == {True, False}
    # chains that end in Z, where the subgroup is infinite: the columns and
    # the relation columns d_i e_i span Z^r iff their r x r minors have gcd 1
    rng = random.Random(1988)
    chains = [(0,), (0, 0), (2, 0), (6, 0), (2, 0, 0), (0, 0, 0), (2, 4, 0), (3, 9, 0)]
    verdicts = set()
    for _ in range(600):
        factors = rng.choice(chains)
        n = rng.randint(0, 4)
        rows = [[rng.choice((rng.randrange(-2 * d, 2 * d), rng.randint(-10 ** 4, 10 ** 4)))
                 if d else rng.choice((rng.randint(-3, 3), rng.randint(-10 ** 4, 10 ** 4)))
                 for _ in range(n)] for d in factors]
        onto = _minors_onto(rows, factors)
        assert fggroup._onto(rows, factors) == onto
        verdicts.add((factors, onto))
    assert {f for f, onto in verdicts if onto} == set(chains)
    assert {f for f, onto in verdicts if not onto} == set(chains)


def _minors_onto(rows, factors):
    """Whether the columns of rows, with the relation columns d_i e_i, span
    Z^r: the gcd of the r x r minors, the product of the Smith diagonal, is 1."""
    r = len(rows)
    cols = [[row[j] for row in rows] for j in range(len(rows[0]))]
    cols += [[d * (i == k) for i in range(r)] for k, d in enumerate(factors) if d]
    g = 0
    for pick in combinations(cols, r):
        g = math.gcd(g, sum(_sign(p) * math.prod(pick[p[i]][i] for i in range(r))
                       for p in permutations(range(r))))
    return g == 1


def _sign(p):
    """The sign of a permutation, by counting inversions."""
    return (-1) ** sum(a > b for a, b in combinations(p, 2))


def test_a_certificate_row_that_does_not_annihilate_is_an_internal_error(monkeypatch):
    m = _seeded_presentation(43)
    grp, _, _ = cokernel_and_kernel(m)
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
