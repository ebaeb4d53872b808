import random
from functools import cache
from math import comb, prod

from conftest import random_factor_list, random_sft
from groupoid_invariants import fggroup
from groupoid_invariants.automorphisms import aut_orbit_equivalent
from groupoid_invariants.fggroup import FgGroup, TensorMap, direct_sum, tensor_fold
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


def _seeded_products():
    """The oracle corpus's products, then seeded products of 4-6 factors on at
    most 3 vertices, every third with an infinite-BF factor put in and every
    fourth of infinite-BF factors only."""
    yield from (fs for fs, _, _ in _oracle_corpus())
    rng = random.Random(17)
    for i in range(24):
        factors = [random_sft(rng, max_size=3) for _ in range(4 + i % 3)]
        if i % 3 == 0:
            factors[rng.randrange(len(factors))] = validate(rng.choice(INFINITE_BF))
        if i % 4 == 0:
            factors = [validate(rng.choice(INFINITE_BF)) for _ in factors]
        yield factors


def test_degrees_equal_the_direct_sum_of_copies():
    """H_k read off H_0 equals the merge of C(n-1, k) copies of H_0 and
    C(n-1, k-1) of H_1."""
    infinite = free_h0 = 0
    for factors in _seeded_products():
        invs = [invariants(f) for f in factors]
        n = len(factors)
        h0 = tensor_fold([v.bf for v in invs])[0]
        h1 = FgGroup.free(prod(v.k1.free_rank for v in invs))
        h = product_homology(factors)
        for k in range(n + 2):
            parts = [h0] * comb(n - 1, k) + [h1] * (comb(n - 1, k - 1) if k else 0)
            assert h.group_at(k) == direct_sum(*parts), (factors, k)
        infinite += any(v.bf.free_rank for v in invs)
        free_h0 += h0.free_rank > 0
    assert infinite >= 16 and free_h0 >= 4


def test_hk_sums_are_the_sums_of_the_homology_degrees():
    for factors in _seeded_products():
        h = product_homology(factors)
        rep = hk_check(factors)
        assert rep.h_even == direct_sum(*(g for k, g in h.items() if k % 2 == 0))
        assert rep.h_odd == direct_sum(*(g for k, g in h.items() if k % 2))
        assert rep.holds


def _count_calls(monkeypatch, module, name):
    calls = []
    inner = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return inner(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


def test_homology_merges_once_per_fold_step(monkeypatch):
    factors = [validate(m) for m in ([[3]], [[2, 1], [1, 2]], [[7, 6], [6, 13]], [[5]],
                                      [[1, 3, 0], [3, 2, 1], [3, 3, 2]])]
    for f in factors:
        invariants(f)
    merges = _count_calls(monkeypatch, fggroup, "canonical_orders")
    steps = _count_calls(monkeypatch, fggroup, "tensor")
    product_homology(factors)
    assert len(merges) == len(steps) == len(factors) - 1


def test_hk_check_builds_no_tensor_element_map(monkeypatch):
    def refuse(self):
        raise AssertionError("hk_check built a tensor element map")
    monkeypatch.setattr(TensorMap, "qmap", property(refuse))
    f = validate([[3, 2], [2, 3]])
    assert hk_check([f, validate([[3]]), f, validate([[5]])]).holds
