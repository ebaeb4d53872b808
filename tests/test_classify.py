import random
from math import gcd

import pytest

from conftest import random_sft
from groupoid_invariants.errors import BoundExceeded, InternalError
from groupoid_invariants.classify import (ProductWitness,
                                          _verify_product_witness,
                                          product_isomorphic, sft_isomorphic,
                                          sft_morita)
from groupoid_invariants.fggroup import GroupHom, tensor
from groupoid_invariants.sft import (companion_matrix, det_id_minus,
                                     invariants, thompson_factor_list,
                                     validate)


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
