import random
from dataclasses import fields
from itertools import product as iproduct

from abelianize_oracle import oracle_extension_data
from conftest import random_factor_list, random_sft
from homology_oracle import is_quotient
from orbit_oracle import primary_orders
from groupoid_invariants.abelianize import (_extension_data, extension_data,
                                            strong_ah, tfg_abelianization)
from groupoid_invariants import fggroup
from groupoid_invariants.fggroup import FgGroup, direct_sum, tensor, tensor_fold
from groupoid_invariants.homology import product_homology
from groupoid_invariants.sft import (companion_matrix, invariants,
                                     thompson_factor_list, validate)

MIXED_66 = [[7, 6], [6, 13]]  # BF(A^t) = Z/6 (+) Z/6


def _orders(factors):
    """The cyclic orders that extension_data reads: BF's, a zero per Z."""
    return [invariants(f).bf.orders() for f in factors]


def _tuples(orders):
    return iproduct(*(range(len(o)) for o in orders))


def test_h0_orders_examples():
    assert _orders([validate([[5]]), validate([[2]]), validate([[2, 1], [1, 2]]),
                    validate(MIXED_66)]) == [(4,), (), (0,), (6, 6)]


def test_extension_data_two_odd_full_shifts():
    # two equal factors with H_0 = Z/(k-1), k = 3 mod 4: the single tuple is
    # in J_0 and its T_1 block carries the nontrivial class
    for k in (3, 7):
        data = extension_data([validate([[k]]), validate([[k]])])
        assert data.kernel_index == ((0, 0),)
        assert data.tp_summands == {(1, (0, 0)): k - 1}
        assert data.class_components == {(1, (0, 0), (0, 0))}
        assert data.split_part.is_trivial


def test_extension_data_even_full_shifts():
    # even k: all orders odd, J_0 empty, no class support
    for n in (2, 3):
        data = extension_data([validate([[4]])] * n)
        assert data.kernel_index == ()
        assert data.class_components == frozenset()


def test_extension_data_mixed_66():
    data = extension_data([validate(MIXED_66), validate([[7]])])
    # tuples pair each of the two Z/6 summands with the single Z/6
    assert data.kernel_index == ((0, 0), (1, 0))
    comps = {(p, i) for (p, i, _) in data.class_components}
    assert comps == {(1, (0, 0)), (1, (1, 0))}


def test_tfg_examples():
    assert tfg_abelianization(thompson_factor_list(2, 3, 1)) == FgGroup.cyclic(4)
    assert tfg_abelianization(thompson_factor_list(2, 3, 3)) == FgGroup.cyclic(4)
    assert tfg_abelianization(thompson_factor_list(3, 5, 1)) == \
        FgGroup.from_orders([4, 4, 2])
    assert tfg_abelianization(thompson_factor_list(3, 3, 1)) == \
        FgGroup.from_orders([2, 2])


def test_tfg_single_factor_agrees_with_sft_formula(rng):
    def sft_formula(f):
        # (H_0 (x) Z/2) (+) H_1
        inv = invariants(f)
        return direct_sum(tensor(inv.bf, FgGroup.cyclic(2))[0], inv.k1)
    for _ in range(30):
        f = random_sft(rng)
        assert tfg_abelianization([f]) == sft_formula(f)
    for k in range(2, 10):
        for r in (1, 2, 3):
            f = companion_matrix(k, r)
            assert tfg_abelianization([f]) == sft_formula(f)


def test_strong_ah_examples():
    assert strong_ah([validate([[3]])])
    assert strong_ah([validate([[3]]), validate([[3]])])
    assert not strong_ah([validate([[3]])] * 3)
    assert strong_ah([validate([[4]])] * 3)
    # Z/6 contains Z/2 as a direct summand
    assert not strong_ah([validate(MIXED_66), validate([[7]]), validate([[3]])])


def test_strong_ah_matches_kernel_triviality(rng):
    # strong AH iff ker j = 0 iff every all-even tuple lies in J_0
    for _ in range(30):
        factors = random_factor_list(rng)
        kernel = set(extension_data(factors).kernel_index)
        orders = _orders(factors)
        kernel_trivial = all(idx in kernel for idx in _tuples(orders)
                             if all(orders[d][k] % 2 == 0 for d, k in enumerate(idx)))
        assert strong_ah(factors) == kernel_trivial


def test_h1_is_quotient_of_abelianization(rng):
    for _ in range(30):
        factors = random_factor_list(rng)
        ab = tfg_abelianization(factors)
        h1 = product_homology(factors).group_at(1)
        assert is_quotient(ab, h1), (ab, h1)


def test_decomposition_independence(rng):
    pool = [validate(MIXED_66), validate([[7]]), validate([[3]]),
            validate([[2, 1], [1, 2]]), companion_matrix(5, 2)]
    for _ in range(25):
        n = rng.randint(1, 3)
        factors = [rng.choice(pool) if rng.random() < 0.5 else random_sft(rng)
                   for _ in range(n)]
        a = tfg_abelianization(factors)
        primary = [primary_orders(o) for o in _orders(factors)]
        b = _extension_data([invariants(f) for f in factors], primary).group
        assert a == b, [str(f.a) for f in factors]


def test_explicit_decomposition_argument():
    factors = [validate([[7]]), validate([[7]])]
    assert _orders(factors) == [(6,), (6,)]
    assert tfg_abelianization(factors) == FgGroup.cyclic(12)
    invs = [invariants(f) for f in factors]
    # one side primary, one invariant
    assert _extension_data(invs, ((2, 3), (6,))).group == FgGroup.cyclic(12)


def _cyclic_orders(rng, max_torsion):
    """Invariant-factor orders: up to two Z summands (0) and a divisibility
    chain, rich in orders = 2 mod 4."""
    orders = [0] * rng.choice((0, 0, 1, 2))
    d = rng.choice((2, 3, 4, 6, 10, 12, 14, 18))
    for _ in range(rng.randint(0, max_torsion)):
        orders.append(d)
        d *= rng.choice((1, 2, 3))
    return orders


def _oracle_corpus():
    """(factors, orders) pairs: 300 decompositions of n = 1-5 factors given
    to the private closed form, invariant-factor or primary, their Z
    summands moved between the finite orders, then 60 random factor lists
    with their own orders and the primary decomposition of them."""
    rng = random.Random(1701)
    pool = [validate([[2]]), validate([[3]]), validate([[7]]), validate(MIXED_66),
            validate([[2, 1], [1, 2]]), companion_matrix(5, 2)]
    for k in range(300):
        n = 1 + k % 5
        dec = []
        for _ in range(n):
            orders = _cyclic_orders(rng, 3 if n <= 3 else 2)
            if k % 3 == 1:
                orders = list(primary_orders(orders))
            if k % 2:
                rng.shuffle(orders)
            dec.append(tuple(orders))
        yield [rng.choice(pool) for _ in range(n)], dec
    for _ in range(60):
        factors = random_factor_list(rng)
        yield factors, _orders(factors)
        yield factors, [primary_orders(o) for o in _orders(factors)]


def test_extension_data_and_group_match_the_per_position_oracle():
    seen = {"class": 0, "tp": 0, "Z left and right of a finite order": 0,
            "empty H_0": 0, "n": set()}
    for factors, orders in _oracle_corpus():
        want = oracle_extension_data(factors, orders)
        got = (extension_data(factors) if orders == _orders(factors)
               else _extension_data([invariants(f) for f in factors], orders))
        for field in fields(got):
            assert getattr(got, field.name) == getattr(want, field.name), \
                (field.name, orders)
        seen["n"].add(len(orders))
        seen["class"] += len(got.class_components)
        seen["tp"] += len(got.tp_summands)
        tuples = list(_tuples(orders))
        seen["empty H_0"] += not tuples
        for idx in tuples:
            zeros = [p for p, (o, k) in enumerate(zip(orders, idx)) if o[k] == 0]
            finite = [p for p, (o, k) in enumerate(zip(orders, idx)) if o[k]]
            if zeros and finite and min(zeros) < min(finite) and max(zeros) > max(finite):
                seen["Z left and right of a finite order"] += 1
    assert seen["n"] == {1, 2, 3, 4, 5}
    assert min(seen[k] for k in seen if k != "n") > 0, seen


def test_split_part_equals_the_tensor_fold_route():
    """The one merge over order tuples against the direct sum of the folds
    K_1(j) (x) (x)_{d != j} BF(d)."""
    for factors, orders in _oracle_corpus():
        invs = [invariants(f) for f in factors]
        want = direct_sum(*(
            tensor_fold([invs[j].k1] + [v.bf for d, v in enumerate(invs) if d != j])[0]
            for j in range(len(invs))))
        assert _extension_data(invs, orders).split_part == want, orders


def test_extension_data_merges_twice(monkeypatch):
    """One merge for the split part and one for the group, whatever n."""
    cases = [([invariants(f) for f in factors], orders)
             for factors, orders in _oracle_corpus()]
    calls = []
    inner = fggroup.canonical_orders
    monkeypatch.setattr(fggroup, "canonical_orders",
                        lambda orders: calls.append(orders) or inner(orders))
    for invs, orders in cases:
        calls.clear()
        _extension_data(invs, orders)
        assert len(calls) == 2, orders
