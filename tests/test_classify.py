import itertools
import random
from collections import Counter
from math import factorial, gcd, prod

import pytest

from conftest import WALL_MATRIX, WALL_PERMS, random_sft, relabel
from groupoid_invariants.errors import (BoundExceeded, InternalError,
                                        SftValidationError)
from groupoid_invariants.automorphisms import (aut_orbit_equivalent,
                                               torsion_orbit)
from groupoid_invariants.classify import (ProductWitness,
                                          _verify_product_witness,
                                          product_isomorphic, sft_isomorphic,
                                          sft_morita)
from groupoid_invariants.fggroup import GroupHom, tensor
from groupoid_invariants.sft import (companion_matrix, det_id_minus,
                                     invariants, thompson_factor_list,
                                     validate)
from product_oracle import automorphisms, oracle_product_isomorphic


def test_sft_isomorphic_examples():
    # V_2 and V_{2,2}: both BF trivial, both determinants -1
    v = sft_isomorphic(companion_matrix(2, 1), companion_matrix(2, 2))
    assert v.isomorphic
    v = sft_isomorphic(validate([[2]]), validate([[3]]))
    assert not v.isomorphic and "Bowen-Franks" in v.reason
    a = validate([[2, 1], [1, 2]])
    v = sft_isomorphic(a, a)
    assert v.isomorphic and v.witness.is_identity()


def test_sft_isomorphic_witness_is_checked():
    a, b = companion_matrix(3, 1), companion_matrix(3, 2)
    # gcd(2,1) = 1 != 2 = gcd(2,2): unit orbits differ
    assert not sft_isomorphic(a, b).isomorphic
    v = sft_isomorphic(companion_matrix(5, 1), companion_matrix(5, 3))
    assert v.isomorphic
    hom = v.witness.homs[0]
    ia, ib = invariants(companion_matrix(5, 1)), invariants(companion_matrix(5, 3))
    assert hom(ia.unit) == ib.unit and hom.is_isomorphism()


def test_morita_examples():
    for k in (2, 3, 5, 6):
        for r in (1, 2, 3):
            for r2 in (1, 2, 4):
                assert sft_morita(companion_matrix(k, r), companion_matrix(k, r2))
    assert not sft_morita(validate([[2]]), validate([[3]]))
    a = validate([[2, 1], [1, 2]])
    assert sft_morita(a, a)


def test_isomorphic_implies_morita(rng):
    for _ in range(30):
        a, b = random_sft(rng, max_size=3), random_sft(rng, max_size=3)
        try:
            if sft_isomorphic(a, b).isomorphic:
                assert sft_morita(a, b)
        except BoundExceeded:
            pass


def test_reflexive_and_symmetric(rng):
    for _ in range(20):
        a, b = random_sft(rng, max_size=3), random_sft(rng, max_size=3)
        assert sft_isomorphic(a, a).isomorphic
        assert sft_isomorphic(a, b).isomorphic == sft_isomorphic(b, a).isomorphic
        assert sft_morita(a, b) == sft_morita(b, a)


def test_product_single_factor_agrees_with_sft(rng):
    for _ in range(25):
        a, b = random_sft(rng, max_size=3), random_sft(rng, max_size=3)
        assert (product_isomorphic([a], [b]).isomorphic
                == sft_isomorphic(a, b).isomorphic)


def test_product_examples():
    assert not product_isomorphic(thompson_factor_list(2, 4, 1),
                                  thompson_factor_list(2, 4, 3)).isomorphic
    fl = thompson_factor_list(3, 3, 2)
    v = product_isomorphic(fl, fl)
    assert v.isomorphic and v.witness.is_identity()
    # factor count mismatch
    assert not product_isomorphic(fl, fl[:2]).isomorphic


def test_product_gcd_criterion_mini_grid():
    lists = {}
    for n in (1, 2):
        for k in (2, 3, 4, 5):
            for r in (1, 2, 3):
                lists[(n, k, r)] = thompson_factor_list(n, k, r)
    for (n1, k1, r1), fa in lists.items():
        for (n2, k2, r2), fb in lists.items():
            expected = n1 == n2 and k1 == k2 and gcd(k1 - 1, r1) == gcd(k2 - 1, r2)
            assert product_isomorphic(fa, fb).isomorphic == expected, \
                ((n1, k1, r1), (n2, k2, r2))


def test_product_permutation_invariance(rng):
    for _ in range(10):
        factors = [random_sft(rng, max_size=2, max_entry=2) for _ in range(3)]
        if any(not invariants(f).bf.is_finite for f in factors):
            continue
        shuffled = factors[:]
        rng.shuffle(shuffled)
        assert product_isomorphic(factors, shuffled).isomorphic


def test_product_witness_satisfies_the_criterion():
    fa = thompson_factor_list(2, 5, 2)
    fb = [companion_matrix(5, 1), companion_matrix(5, 2)]
    v = product_isomorphic(fa, fb)
    assert v.isomorphic
    sigma, homs = v.witness.sigma, v.witness.homs
    invs_a = [invariants(f) for f in fa]
    invs_b = [invariants(f) for f in fb]
    groups = [iv.bf for iv in invs_a]
    acc, maps = groups[0], []
    for g in groups[1:]:
        acc, tmap = tensor(acc, g)
        maps.append(tmap)

    def fold(elems):
        out = elems[0]
        for tmap, e in zip(maps, elems[1:]):
            out = tmap(out, e)
        return out

    lhs = fold([h(iv.unit) for h, iv in zip(homs, invs_a)])
    rhs = fold([invs_b[sigma[i]].unit for i in range(len(fb))])
    assert lhs == rhs
    for i, h in enumerate(homs):
        assert h.is_isomorphism()
        assert invs_a[i].bf == invs_b[sigma[i]].bf


def test_product_infinite_bf_raises():
    free = validate([[2, 1], [1, 2]])  # BF = Z
    with pytest.raises(BoundExceeded):
        product_isomorphic([free, free], [free, free])
    # but single-factor lists with free parts are decided
    assert product_isomorphic([free], [free]).isomorphic


def test_corrupted_product_witness_is_rejected():
    fa = [companion_matrix(5, 1), companion_matrix(5, 1)]  # BF Z/4, unit 3 each
    fb = [companion_matrix(5, 1), companion_matrix(5, 1)]
    witness = product_isomorphic(fa, fb).witness
    data_a = [(invariants(f), det_id_minus(f)) for f in fa]
    data_b = [(invariants(f), det_id_minus(f)) for f in fb]
    groups = [inv.bf for inv, _ in data_a]
    _, tmap = tensor(groups[0], groups[1])

    def fold(elems):
        return tmap(elems[0], elems[1])

    _verify_product_witness(witness, data_a, data_b, fold)
    g = witness.homs[0].domain
    zero = GroupHom(g, g, tuple(g.zero() for _ in range(g.num_generators)))
    doubled = GroupHom(g, g, tuple(img.scale(2) for img in witness.homs[0].images))
    # an automorphism of Z/4 that moves the unit tensor 3 (x) 3 = 1 to 3
    tripled = GroupHom(g, g, tuple(img.scale(3) for img in witness.homs[0].images))
    for bad in (ProductWitness((0, 0), witness.homs),
                ProductWitness(witness.sigma, (zero,) + witness.homs[1:]),
                ProductWitness(witness.sigma, (doubled,) + witness.homs[1:]),
                ProductWitness(witness.sigma, (tripled,) + witness.homs[1:])):
        with pytest.raises(InternalError):
            _verify_product_witness(bad, data_a, data_b, fold)


def test_positive_sft_verdict_checks_surjectivity_once(monkeypatch):
    a, b = companion_matrix(5, 1), companion_matrix(5, 3)
    invariants(a), invariants(b)
    calls = []
    surjective = GroupHom.is_surjective
    monkeypatch.setattr(GroupHom, "is_surjective",
                        lambda h: calls.append(h) or surjective(h))
    v = sft_isomorphic(a, b)
    assert v.isomorphic and not v.witness.is_identity()
    assert len(calls) == 1  # the one inside aut_orbit_witness


def _fold(groups):
    """The left tensor fold of elements of the given groups."""
    acc, maps = groups[0], []
    for g in groups[1:]:
        acc, tmap = tensor(acc, g)
        maps.append(tmap)

    def fold(elems):
        out = elems[0]
        for tmap, e in zip(maps, elems[1:]):
            out = tmap(out, e)
        return out
    return acc, fold


def _check_witness(fa, fb, witness):
    data_a = [(invariants(f), det_id_minus(f)) for f in fa]
    data_b = [(invariants(f), det_id_minus(f)) for f in fb]
    _, fold = _fold([inv.bf for inv, _ in data_a])
    _verify_product_witness(witness, data_a, data_b, fold)


def _passes_prune(fa, fb) -> bool:
    """Some admissible permutation puts the unit tensors in one Aut(T)-orbit."""
    ia, ib = [invariants(f) for f in fa], [invariants(f) for f in fb]
    t, fold = _fold([inv.bf for inv in ia])
    lhs = fold([inv.unit for inv in ia])
    return any(aut_orbit_equivalent(t, lhs, fold([ib[s].unit for s in sigma]))
               for sigma in itertools.permutations(range(len(fa)))
               if all((ia[i].bf, ia[i].det) == (ib[s].bf, ib[s].det)
                      for i, s in enumerate(sigma)))


def _sft_pool(rng, draws):
    """BF -> det -> least unit-orbit element -> rows, for random 2-4-vertex
    SFTs with entries 0-3 and finite nontrivial BF."""
    pool = {}
    for _ in range(draws):
        n = rng.randint(2, 4)
        rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
        try:
            inv = invariants(validate(rows))
        except SftValidationError:
            continue
        if inv.bf.is_finite and inv.bf.torsion:
            cls = min(torsion_orbit(inv.bf, inv.unit))
            pool.setdefault(inv.bf, {}).setdefault(inv.det, {}).setdefault(cls, []).append(rows)
    return pool


def test_product_isomorphic_matches_tuple_oracle():
    # Pairs are relabelled and shuffled copies (always positive), or factors
    # drawn unit orbit by unit orbit from groups with mixed exponents at a
    # prime, where unit tensors of one Aut(T)-orbit can lie in different
    # orbits of the automorphism tuples.  Pairs are kept by the path that
    # decides them until each path has its quota.
    rng = random.Random(8)
    pool = _sft_pool(rng, 2000)
    groups = sorted(pool, key=lambda g: g.torsion)
    mixed = [g for g in groups
             if any(gcd(d, e // d) > 1 for d, e in zip(g.torsion, g.torsion[1:]))]
    quota = {"positive, identity": 8, "positive, not identity": 20,
             "negative, pruned": 8, "negative, layered search": 10}
    kept = Counter()
    for _ in range(3000):
        if kept == quota:
            break
        relabelled = rng.random() < 0.3
        g = rng.choice(groups if relabelled else mixed)
        dets = [rng.choice(sorted(pool[g])) for _ in range(rng.choice((2, 3)))]
        # the oracle visits prod |Aut| tuples per admissible permutation
        if len(automorphisms(g)) ** len(dets) \
                * prod(factorial(c) for c in Counter(dets).values()) > 3000:
            continue
        rows_a = [rng.choice(rng.choice(list(pool[g][d].values()))) for d in dets]
        if relabelled:
            rows_b = [relabel(r, rng.sample(range(len(r)), len(r))) for r in rows_a]
        else:
            rows_b = [rng.choice(rng.choice(list(pool[g][d].values()))) for d in dets]
        rng.shuffle(rows_b)
        fa, fb = [validate(r) for r in rows_a], [validate(r) for r in rows_b]
        v = product_isomorphic(fa, fb)
        if v.isomorphic:
            path = "positive, " + ("identity" if v.witness.is_identity() else "not identity")
        else:
            path = "negative, " + ("layered search" if _passes_prune(fa, fb) else "pruned")
        if kept[path] == quota[path]:
            continue
        kept[path] += 1
        expected = oracle_product_isomorphic(fa, fb)
        assert v.isomorphic == (expected is not None), (rows_a, rows_b)
        if v.isomorphic:
            _check_witness(fa, fb, v.witness)
    assert kept == quota


def test_product_search_past_the_automorphism_tuple_wall():
    # the tuple search met 6720^2 tuples here and raised BoundExceeded
    p, q = WALL_PERMS
    fa = [validate(WALL_MATRIX), validate(relabel(WALL_MATRIX, q))]
    fb = [validate(relabel(WALL_MATRIX, p)), validate(WALL_MATRIX)]
    inv = invariants(fa[0])
    assert inv.bf.torsion == (2, 2, 82) and inv.det == -328
    v = product_isomorphic(fa, fb)
    assert v.isomorphic and not v.witness.is_identity()
    _check_witness(fa, fb, v.witness)
