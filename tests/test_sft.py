import hashlib
import json
import random
import re
import sys
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sft
from groupoid_invariants import errors, fggroup, sft
from groupoid_invariants.abelianize import tfg_abelianization
from groupoid_invariants.automorphisms import aut_orbit_equivalent
from groupoid_invariants.classify import product_isomorphic
from groupoid_invariants.fggroup import (FgGroup, cokernel, cokernel_and_kernel, direct_sum,
                                         tensor)
from groupoid_invariants.homology import hk_check, product_homology
from groupoid_invariants.intmatrix import IntMatrix, ModularSnf
from groupoid_invariants.sft import (_irreducible, companion_matrix, invariants,
                                     is_primitive, validate)
from move_oracle import out_split, split_matrix
from sft_oracle import irreducible_oracle, primitive_oracle


def test_validate_examples():
    assert validate([[2]]).size == 1
    with pytest.raises(errors.PermutationMatrix):
        validate([[0, 1], [1, 0]])
    with pytest.raises(errors.Reducible):
        validate([[1, 1], [0, 1]])
    with pytest.raises(errors.NotSquare):
        validate([[1, 2]])
    with pytest.raises(errors.NegativeEntry):
        validate([[2, -1], [1, 2]])
    with pytest.raises(errors.Reducible):
        validate([[0]])
    with pytest.raises(errors.PermutationMatrix):
        validate([[1]])


def test_entries_that_are_not_integers_are_rejected():
    # int() converts both 2.5 and "3", but neither is an integer entry
    for rows, where in (([[2.5]], "(0, 0)"), ([["3"]], "(0, 0)"),
                        ([[1, 2], [3, None]], "(1, 1)")):
        for build in (IntMatrix.from_rows, validate):
            with pytest.raises(ValueError, match=re.escape(where) + ".*not an integer"):
                build(rows)
    assert IntMatrix.from_rows([[True, 2]]).entries == (1, 2)


def test_the_matrix_constructor_rejects_entries_that_are_not_integers():
    # a matrix built directly once carried 2.5 through validate() into
    # invariants(), which reported the input as an InternalError
    for rows, cols, entries, where in ((1, 1, (2.5,), "(0, 0)"),
                                       (2, 2, (1, 2, 3, "4"), "(1, 1)"),
                                       (2, 3, [0, 1, 2, None, 4, 5], "(1, 0)")):
        with pytest.raises(ValueError, match=re.escape(where) + ".*not an integer"):
            validate(IntMatrix(rows, cols, entries))
    m = IntMatrix(1, 2, [True, 2])
    assert m.entries == (1, 2) and all(type(x) is int for x in m.entries)


def test_unit_coordinates_of_small_presentations_are_pinned():
    """BF and unit coordinates of 200 seeded 2-4-vertex SFTs, 10 of them
    singular, against a fixed digest.  Unit coordinates are meaningful only
    up to Aut(BF), but the classify benchmark (``bench/workloads.py``)
    buckets its pairs by them, so a change to the elimination that moves
    them redraws that corpus; such a change must also update this digest."""
    rng = random.Random(425)
    data, singular = [], 0
    while len(data) < 200:
        n = rng.randint(2, 4)
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        try:
            inv = invariants(validate(rows))
        except errors.SftValidationError:
            continue
        singular += inv.det == 0
        data.append([rows, inv.bf.free_rank, inv.bf.torsion, inv.unit.free, inv.unit.torsion])
    digest = hashlib.sha256(json.dumps(data).encode()).hexdigest()
    assert singular == 10
    assert digest == "927b991ac8fb7eb59fc917811940ee4fcd2c0bc5b3611f474ab87bf7a5798bce"


def test_invariants_companion_matrices():
    # BF = Z/(k-1) with the unit class in the automorphism orbit of r
    for k in range(2, 9):
        for r in range(1, 5):
            inv = invariants(companion_matrix(k, r))
            assert inv.bf == FgGroup.from_orders([k - 1])
            assert inv.det_sign == (-1 if k > 1 else 0)
            assert inv.det == 1 - k
            assert inv.k1.is_trivial
            if k > 2:
                target = inv.bf.element((), (r % (k - 1),))
                assert aut_orbit_equivalent(inv.bf, inv.unit, target)
                assert inv.unit.order() == (k - 1) // gcd(k - 1, r)


def test_invariants_examples():
    inv = invariants(validate([[2]]))
    assert inv.bf.is_trivial and inv.k1.is_trivial and inv.det_sign == -1
    inv = invariants(validate([[2, 1], [1, 2]]))
    assert inv.k1 == FgGroup.free(1)
    assert inv.bf == FgGroup.free(1)
    assert inv.det_sign == 0
    hom = product_homology([validate([[2, 1], [1, 2]])])
    assert hom.group_at(0) == inv.k0
    assert hom.group_at(1) == inv.k1
    assert hom.group_at(2).is_trivial


def test_invariants_random_properties(rng):
    for _ in range(40):
        f = random_sft(rng)
        inv = invariants(f)
        det = inv.det
        assert inv.bf.is_finite == (det != 0)
        if det != 0:
            assert inv.bf.order() == abs(det)
        assert inv.k1.torsion == ()  # kernel subgroups of Z^N are free
        hom = product_homology([f])
        assert inv.k0 == hom.group_at(0)
        assert inv.k1 == hom.group_at(1)


def test_invariants_permutation_invariance(rng):
    for _ in range(25):
        f = random_sft(rng, max_size=4)
        n = f.size
        perm = list(range(n))
        rng.shuffle(perm)
        rows = f.a.to_rows()
        prows = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        g = validate(prows)
        iv_f, iv_g = invariants(f), invariants(g)
        assert iv_f.bf == iv_g.bf
        assert iv_f.det_sign == iv_g.det_sign
        assert product_homology([f]) == product_homology([g])
        if iv_f.bf.order() <= 10 ** 5:
            assert aut_orbit_equivalent(iv_f.bf, iv_f.unit, iv_g.unit)


def _primitive_oracle(m: IntMatrix) -> bool:
    # explicit integer powers up to the Wielandt bound
    n = m.rows
    power = m
    for _ in range((n - 1) ** 2 + 1):
        if all(x > 0 for x in power.entries):
            return True
        power = power @ m
    return False


def test_is_primitive():
    assert is_primitive(validate([[3]]))
    # period-2 supports are irreducible but not primitive; this includes the
    # 2x2 companion matrix [[0,2],[1,0]], whose powers alternate between
    # diagonal and antidiagonal support
    assert not is_primitive(companion_matrix(2, 2))
    assert not _primitive_oracle(companion_matrix(2, 2).a)
    assert not is_primitive(validate([[0, 1], [2, 0]]))
    assert is_primitive(validate([[1, 1], [1, 0]]))


def test_is_primitive_matches_power_oracle(rng):
    for _ in range(40):
        f = random_sft(rng)
        assert is_primitive(f) == _primitive_oracle(f.a)


def _random_rows(rng):
    """A random nonnegative matrix, n = 1-12: sparse or dense entries, or a
    cycle through every vertex plus extra edges, which may all step from one
    class modulo p to the next (period p)."""
    n = rng.randint(1, 12)
    kind = rng.choice(("random", "cycle", "periodic"))
    if kind == "random":
        density = rng.choice((0.1, 0.3, 0.6))
        return [[rng.randint(1, 2) if rng.random() < density else 0
                 for _ in range(n)] for _ in range(n)]
    rows = [[0] * n for _ in range(n)]
    order = list(range(n))
    rng.shuffle(order)
    p = rng.randint(1, n)
    if kind == "periodic" and n % p == 0:
        cls = {v: t % p for t, v in enumerate(order)}
    else:
        cls = {v: 0 for v in order}
        p = 1
    for t, v in enumerate(order):
        rows[v][order[(t + 1) % n]] = 1
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if (cls[u] + 1) % p == cls[v]:
            rows[u][v] += 1
    return rows


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_irreducible_and_primitive_match_closure_oracles(seed):
    rows = _random_rows(random.Random(seed))
    irreducible = irreducible_oracle(rows)
    assert _irreducible(IntMatrix.from_rows(rows)) == irreducible
    try:
        f = validate(rows)
    except errors.SftValidationError:
        return
    assert is_primitive(f) == primitive_oracle(rows)


def test_is_primitive_decides_a_long_cycle_fast():
    # a 40-cycle with one doubled edge has period 40; Wielandt's power loop
    # took seconds here
    n = 40
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][(i + 1) % n] = 1
    rows[0][1] = 2
    f = validate(rows)
    start = time.perf_counter()
    assert not is_primitive(f)
    rows[5][5] = 1
    assert is_primitive(validate(rows))
    assert time.perf_counter() - start < 1


def test_sft_abelianization_examples():
    assert tfg_abelianization([validate([[2]])]).is_trivial
    assert tfg_abelianization([validate([[3]])]) == FgGroup.cyclic(2)
    # even k: BF = Z/(k-1) with k-1 odd, so the Z/2 tensor dies
    assert tfg_abelianization([validate([[4]])]).is_trivial
    inv = invariants(validate([[2, 1], [1, 2]]))
    expected = direct_sum(tensor(inv.bf, FgGroup.cyclic(2))[0], inv.k1)
    assert tfg_abelianization([validate([[2, 1], [1, 2]])]) == expected == FgGroup(1, (2,))


def test_invariants_are_computed_once_per_object(monkeypatch):
    calls = []
    compute = sft._compute_invariants
    monkeypatch.setattr(sft, "_compute_invariants",
                        lambda m: calls.append(m) or compute(m))
    a = validate([[1, 2], [1, 1]])
    first = invariants(a)
    assert invariants(a) is first and len(calls) == 1
    # a product run reads each factor's invariants from its object
    b = validate([[3]])
    hk_check([a, b, b])
    tfg_abelianization([a, b, b])
    assert len(calls) == 2
    # an equal but distinct object computes its own
    assert invariants(validate([[1, 2], [1, 1]])) == first and len(calls) == 3


def _count_calls(monkeypatch, name):
    """Count calls of the package function ``name`` through every module
    that bound it."""
    calls = []
    original = getattr(sys.modules["groupoid_invariants.intmatrix"], name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)
    for modname, mod in list(sys.modules.items()):
        if modname.startswith("groupoid_invariants") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counting)
    return calls


def test_singular_presentation_takes_one_reduction(monkeypatch):
    # a singular presentation goes through the one reduction that replays
    # only the rows it reads, never a Smith normal form with both transforms
    snf_calls = _count_calls(monkeypatch, "smith_normal_form")
    calls = _count_calls(monkeypatch, "smith_form_mod_det")
    inv = invariants(validate([[2, 1], [1, 2]]))  # det(id - A) = 0
    assert len(calls) == 1 and calls[0][1] == 0 and not snf_calls
    assert inv.det == 0 and inv.bf == FgGroup.free(1) and inv.k1 == FgGroup.free(1)
    # a nonsingular presentation takes no Smith normal form either
    inv = invariants(validate([[1, 2], [2, 1]]))
    assert not snf_calls
    assert inv.det == -4 and inv.bf == FgGroup.from_orders([2, 2]) and inv.k1.is_trivial


def test_product_isomorphic_computes_each_determinant_once(monkeypatch):
    calls = []
    lu = IntMatrix.fraction_free_lu
    monkeypatch.setattr(IntMatrix, "fraction_free_lu", lambda m: calls.append(m) or lu(m))
    fa = [validate([[3]]), validate([[1, 2], [1, 1]])]
    fb = [validate([[1, 2], [1, 1]]), validate([[3]])]
    assert product_isomorphic(fa, fb).isomorphic
    assert len(calls) == 4  # one per factor object
    assert [invariants(f).det for f in fa + fb] == [-2, -2, -2, -2]
    assert len(calls) == 4


def _presentation(a):
    return IntMatrix.identity(a.size) - a.a.transpose()


def test_a_small_factor_takes_one_lean_reduction(monkeypatch):
    # below _CYCLIC_MIN_SIZE rows only det is read off the LU, so it is the LU
    # of id - A^t itself; the unit class comes off the reduction's rows, with
    # no projection built; 8 rows or more still take the adjugate columns
    calls = {name: [] for name in ("lu", "smith_form_mod_det", "_certify", "_projection",
                                   "_top_factor_first")}
    lu = IntMatrix.fraction_free_lu
    monkeypatch.setattr(IntMatrix, "fraction_free_lu",
                        lambda m: calls["lu"].append(m) or lu(m))
    for name in list(calls)[1:]:
        original = getattr(fggroup, name)
        monkeypatch.setattr(fggroup, name, lambda *args, name=name, original=original:
                            calls[name].append(args[0]) or original(*args))
    rng = random.Random(1987)
    kinds = set()
    for n in (*range(2, 8), *range(2, 8), 8, 9):
        while True:
            try:
                a = validate([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
                break
            except errors.SftValidationError:
                continue
        for record in calls.values():
            record.clear()
        inv = invariants(a)
        pres = _presentation(a)
        if n >= fggroup._CYCLIC_MIN_SIZE:
            assert calls["lu"] == [pres.transpose()] and len(calls["_top_factor_first"]) == 1
            continue
        assert calls["lu"] == [pres] and calls["smith_form_mod_det"] == [pres]
        assert calls["_certify"] == ([pres] if inv.det else [])
        assert calls["_projection"] == calls["_top_factor_first"] == []
        kinds.add((inv.det == 0, len(inv.bf.torsion) > 1))
    # and a singular one: [[2, 1], [1, 2]] has det 0 and BF = Z
    for record in calls.values():
        record.clear()
    inv = invariants(validate([[2, 1], [1, 2]]))
    assert inv.det == 0 and len(calls["lu"]) == len(calls["smith_form_mod_det"]) == 1
    assert calls["_certify"] == calls["_projection"] == []
    assert {(False, False), (False, True)} <= kinds


def test_invariants_match_the_projection_of_cokernel_and_kernel():
    """BF, det and unit of 2000 seeded SFTs of 1-10 vertices against
    ``cokernel_and_kernel`` of id - A^t, unit = qmap((1, ..., 1)),
    coordinates included: singular, non-cyclic and >= 8-row presentations,
    and out-splits of [[2, 1], [1, 2]] grown to 8 rows or more, which are
    singular."""
    rng = random.Random(1512)
    corpus = []
    while len(corpus) < 1950:
        n = rng.randint(1, 10)
        try:
            corpus.append(validate([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]))
        except errors.SftValidationError:
            continue
    while len(corpus) < 2000:
        rows = [[2, 1], [1, 2]]
        while len(rows) < 8:
            d, e = out_split(rows, rng)
            rows = split_matrix(d, e)
        corpus.append(validate(rows))
    seen = set()
    for a in corpus:
        inv = invariants(a)
        bf, qmap, det = cokernel_and_kernel(_presentation(a))
        assert (inv.bf, inv.det) == (bf, det)
        unit = qmap((1,) * a.size)
        assert inv.unit == unit  # the same group and the same coordinates
        seen.add((a.size >= fggroup._CYCLIC_MIN_SIZE, det == 0, len(bf.torsion) > 1))
    assert {(big, singular, False) for big in (False, True) for singular in (False, True)} \
        | {(False, False, True), (True, False, True)} <= seen


def test_square_factor_bowen_franks_groups():
    # id - A = -k (J - I) off the diagonal: BF = (Z/k)^2 and det = -k^2
    for k in (2, 3, 4, 6):
        inv = invariants(validate([[1, k], [k, 1]]))
        assert inv.bf == FgGroup.from_orders([k, k]) and inv.det == -k * k
        assert inv.unit.order() == k
    pres = IntMatrix.identity(3) - IntMatrix.from_rows([[1, 2, 2], [2, 1, 2], [2, 2, 1]])
    inv = invariants(validate([[1, 2, 2], [2, 1, 2], [2, 2, 1]]))
    assert inv.bf == cokernel(pres)[0] == FgGroup.from_orders([2, 2, 4])
    assert inv.det == pres.det() == -16


def _rank_mod_p(m: IntMatrix, p: int) -> int:
    rows = [[x % p for x in m.row(i)] for i in range(m.rows)]
    rank = 0
    for c in range(m.cols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] * inv % p
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_invariants_of_a_90_vertex_matrix():
    rng = random.Random(9090)
    n = 90
    f = validate([[rng.randint(0, 3) for _ in range(n)] for _ in range(n)])
    inv = invariants(f)
    pres = IntMatrix.identity(n) - f.a.transpose()
    assert inv.det != 0 and inv.k1.is_trivial
    assert inv.bf.order() == abs(inv.det)
    for p in (2, 3):
        # dim (BF (x) Z/p) = n - rank(id - A^t mod p)
        assert sum(1 for d in inv.bf.torsion if d % p == 0) == n - _rank_mod_p(pres, p)


def test_modular_self_check_rejects_a_wrong_reduction(monkeypatch):
    reduce = fggroup.smith_form_mod_det

    def doubled(m, det):
        red = reduce(m, det)
        return ModularSnf(tuple(2 * d for d in red.factors), red.u)
    monkeypatch.setattr(fggroup, "smith_form_mod_det", doubled)
    with pytest.raises(errors.InternalError):
        invariants(validate([[1, 2, 2], [2, 1, 2], [2, 2, 1]]))


def _corrupt_a_row(monkeypatch, row):
    """Make every elimination add 1 to the first entry of the given row of u."""
    reduce = fggroup.smith_form_mod_det

    def corrupted(m, det):
        red = reduce(m, det)
        u = red.u.to_rows()
        u[row][0] += 1
        return ModularSnf(red.factors, IntMatrix.from_rows(u))
    monkeypatch.setattr(fggroup, "smith_form_mod_det", corrupted)


def test_the_certificate_rejects_a_corrupted_unit_row(monkeypatch):
    # uncertified, this row gave BF = Z/2 + Z/2 + Z/4 with unit (1, 1, 0), an
    # element of order 2, instead of (1, 1, 3), of order 4
    rows = [[1, 2, 2], [2, 1, 2], [2, 2, 1]]
    inv = invariants(validate(rows))
    assert inv.bf == FgGroup(0, (2, 2, 4)) and inv.unit.torsion == (1, 1, 3)
    _corrupt_a_row(monkeypatch, -1)
    with pytest.raises(errors.InternalError):
        invariants(validate(rows))


@pytest.mark.parametrize("row", [0, -1])
def test_the_certificate_rejects_a_corrupted_row_of_the_split(monkeypatch, row):
    # BF = Z/2 + Z/1184, det 2368: the elimination modulo 64 gives the rows
    # of Z/2 and Z/32, and the last is merged with w into the row of Z/1184
    rows = [[0, 1, 2, 0, 0, 3, 1, 1, 3], [3, 1, 0, 3, 1, 3, 3, 1, 0],
            [3, 2, 3, 2, 0, 1, 1, 1, 1], [0, 0, 2, 2, 2, 0, 3, 0, 1],
            [2, 2, 2, 2, 2, 2, 1, 2, 0], [3, 0, 2, 3, 0, 1, 3, 0, 3],
            [2, 3, 2, 1, 2, 1, 1, 3, 2], [0, 3, 1, 0, 2, 1, 1, 3, 0],
            [3, 2, 0, 3, 0, 0, 0, 1, 1]]
    assert invariants(validate(rows)).bf == FgGroup(0, (2, 1184))
    _corrupt_a_row(monkeypatch, row)
    with pytest.raises(errors.InternalError, match="annihilate"):
        invariants(validate(rows))
