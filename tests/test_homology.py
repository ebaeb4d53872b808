import random
from functools import cache
from math import comb

from conftest import random_factor_list
from groupoid_invariants.automorphisms import aut_orbit_equivalent
from groupoid_invariants.fggroup import FgGroup
from groupoid_invariants.homology import hk_check, product_homology, product_k_theory
from groupoid_invariants.sft import invariants, validate
from homology_oracle import chain_homology, graded_sum


def test_product_homology_full_shifts():
    # n copies of the k-symbol full shift: H_l = (Z/(k-1))^C(n-1, l)
    for k in (2, 3, 4, 5):
        for n in (1, 2, 3, 4):
            factors = [validate([[k]])] * n
            h = product_homology(factors)
            for l in range(n + 2):
                assert h.group_at(l) == FgGroup.from_orders([k - 1] * comb(n - 1, l))


def test_product_homology_single_factor():
    f = validate([[2, 1], [1, 2]])
    inv = invariants(f)
    h = product_homology([f])
    assert h.group_at(0) == inv.bf
    assert h.group_at(1) == inv.k1
    assert h.unit_class == inv.unit


def test_three_times_three():
    f = validate([[3]])
    h = product_homology([f, f])
    assert h.group_at(0) == FgGroup.cyclic(2)
    assert h.group_at(1) == FgGroup.cyclic(2)
    assert h.group_at(2).is_trivial


# infinite Bowen-Franks groups (BF, unit class): Z with unit 0, Z with a
# generating unit, Z with unit 2, Z x Z/3 and Z x Z/2
INFINITE_BF = [[[2, 1], [1, 2]], [[3, 1], [2, 2]], [[1, 3, 0], [3, 2, 1], [3, 3, 2]],
               [[1, 1, 2], [3, 3, 1], [3, 2, 2]], [[3, 2, 2], [1, 2, 1], [2, 0, 3]]]


@cache
def _oracle_corpus():
    """Seeded products of 1-3 factors on at most 3 vertices, every sixth with
    an infinite-BF factor put in, and their chain-level homology."""
    rng = random.Random(5)
    corpus = []
    for i in range(60):
        factors = random_factor_list(rng, max_size=3)
        if i % 6 == 0:
            factors[rng.randrange(len(factors))] = validate(rng.choice(INFINITE_BF))
        corpus.append((factors, *chain_homology(factors)))
    hand = [[[5]], [[7]]], [[[2, 1], [1, 2]]] * 2, [[[3, 1], [2, 2]], [[3]], [[5]]]
    corpus.extend((fs, *chain_homology(fs)) for fs in ([validate(m) for m in ms] for ms in hand))
    return corpus


def test_oracle_corpus_has_infinite_factors():
    infinite = [fs for fs, _, _ in _oracle_corpus()
                if any(invariants(f).bf.free_rank for f in fs)]
    assert len(_oracle_corpus()) >= 60 and len(infinite) >= 8


def test_closed_form_equals_chain_oracle_and_permutation_invariance():
    rng = random.Random(11)
    for factors, groups, unit in _oracle_corpus():
        closed = product_homology(factors)
        assert set(closed.degrees) <= set(groups)
        for j, g in groups.items():
            assert closed.group_at(j) == g, (factors, j)
        assert aut_orbit_equivalent(groups[0], closed.unit_class, unit)
        shuffled = factors[:]
        rng.shuffle(shuffled)
        sh = product_homology(shuffled)
        assert sh == closed
        assert aut_orbit_equivalent(groups[0], closed.unit_class, sh.unit_class)


def test_k_theory_equals_chain_oracle_homology():
    """The HK comparison of ``hk_check``, with homology from the chain level."""
    for factors, groups, _ in _oracle_corpus():
        kk = product_k_theory(factors)
        assert kk.k0 == graded_sum([g for j, g in groups.items() if j % 2 == 0])
        assert kk.k1 == graded_sum([g for j, g in groups.items() if j % 2 == 1])


def test_degree_support_bound(rng):
    for _ in range(20):
        factors = random_factor_list(rng)
        h = product_homology(factors)
        assert len(h.degrees) <= len(factors) + 1


def test_k_theory_examples():
    f3 = validate([[3]])
    kk = product_k_theory([f3])
    assert kk.k0 == FgGroup.cyclic(2) and kk.k1.is_trivial
    kk = product_k_theory([f3, f3])
    assert kk.k0 == FgGroup.cyclic(2) and kk.k1 == FgGroup.cyclic(2)
    # a factor with trivial BF and trivial H_1 annihilates both K-groups
    f2 = validate([[2]])
    kk = product_k_theory([f2, f3, validate([[0, 3], [1, 0]])])
    assert kk.k0.is_trivial and kk.k1.is_trivial


def test_hk_examples(rng):
    f3, f5 = validate([[3]]), validate([[5]])
    rep = hk_check([f3, f3, f5])
    assert rep.holds
    assert rep.h_even == rep.k0 and rep.h_odd == rep.k1
    assert hk_check([validate([[7]])]).holds
    for _ in range(25):
        assert hk_check(random_factor_list(rng)).holds
