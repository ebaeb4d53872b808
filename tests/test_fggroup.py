import itertools
import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_factor_list
from groupoid_invariants.automorphisms import aut_orbit_equivalent
from groupoid_invariants.fggroup import (FgElement, FgGroup, GroupHom, canonical_orders,
                                         cokernel, direct_sum, fold_elements, kernel_group,
                                         tensor, tensor_fold, tor)
from groupoid_invariants.intmatrix import IntMatrix, _eliminate, smith_normal_form
from groupoid_invariants.sft import invariants
from homology_oracle import is_quotient

small_orders = st.lists(st.sampled_from([0, 0, 2, 2, 3, 4, 4, 5, 6, 8, 9, 12]),
                        min_size=0, max_size=4)
small_groups = small_orders.map(FgGroup.from_orders)


def test_canonicalization():
    assert FgGroup.from_orders([2, 3]) == FgGroup.cyclic(6)
    assert FgGroup.from_orders([2, 4]) != FgGroup.cyclic(8)
    assert FgGroup.from_orders([0, 30, 4]) == FgGroup(1, (2, 60))
    assert FgGroup.from_orders([1, 1]).is_trivial
    with pytest.raises(ValueError):
        FgGroup(0, (4, 2))  # not a chain


def test_factors_below_two_are_rejected_before_the_chain_test():
    # a zero factor once reached the chain test and divided by it
    for torsion in ((0, 4), (4, 0), (1, 2), (-2, 4), (0,)):
        with pytest.raises(ValueError, match="must be >= 2"):
            FgGroup(0, torsion)
    with pytest.raises(ValueError, match="divisibility chain"):
        FgGroup(1, (2, 4, 6))


def test_rendering():
    assert str(FgGroup.trivial()) == "0"
    assert str(FgGroup(2, (2, 4))) == "Z^2 x Z/2 x Z/4"
    assert str(FgGroup(1, ())) == "Z"
    assert str(FgGroup.cyclic(6)) == "Z/6"


def test_cokernel_examples():
    g, _ = cokernel(IntMatrix.from_rows([[-2]]))
    assert g == FgGroup.cyclic(2)
    g, _ = cokernel(IntMatrix.from_rows([[0]]))
    assert g == FgGroup.free(1)
    g, _ = cokernel(IntMatrix.from_rows([[1, -1], [-2, 1]]))
    assert g.is_trivial


def test_cokernel_order_matches_determinant():
    rng = random.Random(5)
    for _ in range(80):
        n = rng.randint(1, 4)
        m = IntMatrix(n, n, tuple(rng.randint(-5, 5) for _ in range(n * n)))
        g, _ = cokernel(m)
        det = m.det()
        if det != 0:
            assert g.order() == abs(det)
        else:
            assert not g.is_finite


def test_quotient_map_kills_columns():
    rng = random.Random(6)
    for _ in range(50):
        n = rng.randint(1, 4)
        m = IntMatrix(n, n, tuple(rng.randint(-5, 5) for _ in range(n * n)))
        g, qmap = cokernel(m)
        for j in range(n):
            col = tuple(m[i, j] for i in range(n))
            assert qmap(col).is_zero
        assert qmap((0,) * n).is_zero


def test_kernel_examples():
    for k in (2, 3, 7):
        g, basis = kernel_group(IntMatrix.from_rows([[1 - k]]))
        assert g.is_trivial and basis == ()
    m = IntMatrix.from_rows([[-1, -1], [-1, -1]])
    g, basis = kernel_group(m)
    # brute-force nullspace oracle over small integer vectors
    brute = [(x, y) for x in range(-3, 4) for y in range(-3, 4)
             if x + y == 0 and (x, y) != (0, 0)]
    assert g == FgGroup.free(1)
    v = basis[0]
    assert v in brute
    g, basis = kernel_group(IntMatrix.zeros(2, 2))
    assert g == FgGroup.free(2) and len(basis) == 2
    assert abs(IntMatrix.from_rows(basis).det()) == 1


def test_kernel_rank_plus_matrix_rank():
    rng = random.Random(8)
    from groupoid_invariants.intmatrix import smith_normal_form
    for _ in range(60):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = IntMatrix(r, c, tuple(rng.randint(-4, 4) for _ in range(r * c)))
        g, basis = kernel_group(m)
        assert g.free_rank + smith_normal_form(m).rank() == c
        for v in basis:
            assert all(x == 0 for x in m.apply(v))


def test_group_stores_exact_ints_and_rejects_non_integers():
    g = FgGroup(0, [2, 4])
    assert g == FgGroup(0, (2, 4)) and type(g.torsion) is tuple
    assert hash(g) == hash(FgGroup(0, (2, 4)))
    assert str(FgGroup(True, ())) == "Z"
    for free_rank, torsion in ((0, (2.0,)), (1.5, ()), (0, ("2",)), (0, 6)):
        with pytest.raises(ValueError, match="must be integers"):
            FgGroup(free_rank, torsion)


def test_functor_examples():
    Z = FgGroup.free(1)
    assert tensor(Z, FgGroup.cyclic(6))[0] == FgGroup.cyclic(6)
    assert tor(FgGroup.cyclic(4), FgGroup.cyclic(6)) == FgGroup.cyclic(2)


@settings(max_examples=60, deadline=None)
@given(small_groups, small_groups)
def test_tensor_and_tor_symmetric(g, h):
    assert tensor(g, h)[0] == tensor(h, g)[0]
    assert tor(g, h) == tor(h, g)


@settings(max_examples=40, deadline=None)
@given(small_groups)
def test_unit_laws(g):
    Z = FgGroup.free(1)
    assert tensor(g, Z)[0] == g
    assert tor(g, Z).is_trivial
    assert tensor(g, FgGroup.trivial())[0].is_trivial


def test_tensor_map_is_bilinear():
    g = FgGroup.from_orders([4, 0])
    h = FgGroup.from_orders([6])
    prod, tmap = tensor(g, h)
    rng = random.Random(9)
    for _ in range(40):
        a1 = g.element((rng.randint(-3, 3),), (rng.randint(0, 3),))
        a2 = g.element((rng.randint(-3, 3),), (rng.randint(0, 3),))
        b = h.element((), (rng.randint(0, 5),))
        assert tmap(a1 + a2, b) == tmap(a1, b) + tmap(a2, b)
        assert tmap(a1, b).group == prod


def test_tensor_of_generators_generates():
    g = FgGroup.from_orders([4])
    h = FgGroup.from_orders([6])
    prod, tmap = tensor(g, h)
    assert prod == FgGroup.cyclic(2)
    e = tmap(g.element((), (1,)), h.element((), (1,)))
    assert e.order() == 2


def test_tensor_fold_is_the_gcd_of_every_order_tuple():
    # Z/a (x) Z/b = Z/gcd(a, b), 0 = Z: the fold is the sum of the cyclic
    # groups of order gcd(a_1, ..., a_n) over all tuples of orders
    g = FgGroup.from_orders([4, 0])
    assert tensor_fold([g]) == (g, [])
    a = g.element((-2,), (3,))
    assert fold_elements([], [a]) == a
    rng = random.Random(35)
    for _ in range(300):
        groups = [FgGroup.from_orders(rng.choice((0, 1, 2, 3, 4, 6, 8, 9, 12))
                                      for _ in range(rng.randint(1, 3)))
                  for _ in range(rng.randint(1, 4))]
        folded, maps = tensor_fold(groups)
        assert folded == FgGroup.from_orders(
            gcd(*t) for t in itertools.product(*(h.orders() for h in groups)))
        elems = [h.element(tuple(rng.randint(-5, 5) for _ in range(h.free_rank)),
                           tuple(rng.randrange(d) for d in h.torsion)) for h in groups]
        assert len(maps) == len(groups) - 1 and fold_elements(maps, elems).group == folded


def test_direct_sum_and_quotient():
    assert direct_sum(FgGroup.cyclic(2), FgGroup.cyclic(3)) == FgGroup.cyclic(6)
    a = FgGroup(1, (2, 4))
    assert is_quotient(a, FgGroup.cyclic(8))        # Z surjects onto Z/8
    assert is_quotient(a, FgGroup(1, ()))
    assert not is_quotient(FgGroup.cyclic(4), FgGroup.cyclic(8))
    assert not is_quotient(FgGroup.cyclic(8), FgGroup.from_orders([2, 2]))
    assert is_quotient(FgGroup.from_orders([4, 4]), FgGroup.from_orders([2, 4]))


def test_hom_validation_and_composition():
    g = FgGroup.cyclic(4)
    h = FgGroup.cyclic(2)
    with pytest.raises(ValueError):
        # Z/2 generator cannot map to an order-4 element
        GroupHom(h, g, (g.element((), (1,)),))
    f = GroupHom(g, h, (h.element((), (1,)),))
    assert f(g.element((), (2,))).is_zero
    idg = GroupHom.identity(g)
    assert idg.is_isomorphism() and not f.is_isomorphism()


def test_hom_images_must_lie_in_the_codomain():
    z2, z4 = FgGroup.cyclic(2), FgGroup.cyclic(4)
    with pytest.raises(ValueError):
        # an element of Z/2 is not an element of Z/4, though 2 * 1 = 0 in both
        GroupHom(z2, z4, (z2.element((), (1,)),))
    with pytest.raises(ValueError):
        GroupHom(z4, z4, (z2.element((), (1,)),))
    assert not GroupHom(z2, z4, (z4.element((), (2,)),)).is_surjective()


def test_element_coordinates_must_match_the_group():
    with pytest.raises(ValueError):
        FgElement(FgGroup.cyclic(4), (), (1, 3))
    with pytest.raises(ValueError):
        FgElement(FgGroup(1, (4,)), (), (1,))
    with pytest.raises(ValueError):
        FgElement(FgGroup(1, ()), (1, 0), ())
    assert FgElement(FgGroup(1, (4,)), (5,), (3,)).order() == 0


def test_orders_and_coordinates_must_be_integers():
    for bad in (4.7, 4.0, "4"):
        with pytest.raises(TypeError):
            FgGroup.from_orders([2, bad])
        with pytest.raises(TypeError):
            FgGroup.cyclic(bad)
    g = FgGroup(1, (6,))
    for free, torsion in (((1,), (2.5,)), ((1.0,), (2,)), (("1",), (2,))):
        with pytest.raises(TypeError):
            g.element(free, torsion)
    assert g.element((-1,), (8,)).coords() == (-1, 2)


def test_element_order():
    g = FgGroup(1, (2, 6))
    assert g.element((0,), (1, 2)).order() == 6
    assert g.element((1,), (0, 0)).order() == 0
    assert g.zero().order() == 1


# --- differential oracles: the gcd/lcm fixpoint and the SNF-based tensor ---

def oracle_canonical_orders(orders):
    """The (a, b) -> (gcd, lcm) exchange, run until the divisibility chain holds."""
    vals = [abs(int(o)) for o in orders]
    vals = [v for v in vals if v != 1]
    n = len(vals)
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(i + 1, n):
                a, b = vals[i], vals[j]
                g = gcd(a, b)
                l = 0 if (a == 0 or b == 0) else (a // g) * b
                if (a, b) != (g, l):
                    vals[i], vals[j] = g, l
                    changed = True
    vals = [v for v in vals if v != 1]
    return sum(1 for v in vals if v == 0), tuple(v for v in vals if v != 0)


def oracle_tensor(g, h):
    """g (x) h as the cokernel of the diagonal matrix of piece orders."""
    orders = [gcd(a, b) for a in g.orders() for b in h.orders()]
    grp, qmap = cokernel(IntMatrix.diagonal(orders))

    def tmap(a, b):
        return qmap([x * y for x in a.coords() for y in b.coords()])
    return grp, tmap


LARGE = [2 ** 20 * 3, 3 ** 9 * 5 ** 4, 7 ** 3 * 11 ** 2 * 13, 2 ** 61 - 1,
         (2 ** 61 - 1) * 6, 10 ** 12, 999_983 * 1_000_003]
order_lists = st.lists(
    st.one_of(st.sampled_from([0, 1, 2, 3, 4, 6, 8, 9, 12, 36, 60]),
              st.sampled_from(LARGE), st.integers(-50, 50)),
    max_size=9)


@settings(max_examples=200, deadline=None)
@given(order_lists)
def test_canonical_orders_matches_fixpoint_oracle(orders):
    assert canonical_orders(orders) == oracle_canonical_orders(orders)
    assert canonical_orders(orders + orders) == oracle_canonical_orders(orders + orders)


# orders for the differential tests: Z, trivial, coprime mixes, prime powers
# and a 61-bit prime with multiples of it
P61 = 2 ** 61 - 1
MERGE_POOL = [0, 1, 2, 3, 5, 6, 10, 15, 4, 8, 9, 27, 25, 49, 30, 60, 72, 7 * 11 * 13,
              P61, 2 * P61, 6 * P61, P61 ** 2, 4 * P61 ** 2]
MERGE_PRIMES = (2, 3, 5, 7, 11, 13, P61)


def _merge_lists(rng, max_len):
    """Seeded order lists of up to max_len entries from ``MERGE_POOL``, with
    repeats, signs, and a few fixed lists first."""
    yield from ([], [0], [1, 1], [6, 10, 15], [6, 10, 15] * 3, [P61, 2 * P61, 4],
                [8, 4, 2, 2, 0, 1])
    for _ in range(60):
        width = rng.randint(1, 6)
        pool = rng.sample(MERGE_POOL, width)
        yield [rng.choice(pool) * rng.choice((1, -1)) for _ in range(rng.randint(1, max_len))]


def prime_power_merge(orders):
    """Factor each order over ``MERGE_PRIMES`` by trial division, then give the
    r-th largest invariant factor the r-th largest power of every prime."""
    columns = {p: [] for p in MERGE_PRIMES}
    free = 0
    for o in map(abs, orders):
        if o == 0:
            free += 1
            continue
        for p in MERGE_PRIMES:
            e = 0
            while o % p == 0:
                o //= p
                e += 1
            columns[p].append(e)
        assert o == 1, "order outside the prime list"
    factors = [1] * len(orders)
    for p, col in columns.items():
        for r, e in enumerate(sorted(col, reverse=True)):
            factors[r] *= p ** e
    return free, tuple(reversed([f for f in factors if f > 1]))


def test_canonical_orders_matches_the_smith_diagonal():
    for orders in _merge_lists(random.Random(3), 30):
        diag = smith_normal_form(IntMatrix.diagonal(orders)).diagonal()
        assert canonical_orders(orders) == (diag.count(0), tuple(d for d in diag if d > 1))


def test_canonical_orders_matches_the_prime_power_merge():
    seen = set()
    for orders in _merge_lists(random.Random(4), 2000):
        assert canonical_orders(orders) == prime_power_merge(orders), orders
        seen.add(len(orders) > 1000)
    assert seen == {False, True}


def _random_element(rng, g):
    return g.element(tuple(rng.randint(-9, 9) for _ in range(g.free_rank)),
                     tuple(rng.randrange(d) for d in g.torsion))


tensor_orders = st.lists(st.sampled_from([0, 0, 1, 2, 3, 4, 6, 8, 12, 18, 30, 72, 3 ** 5 * 10]),
                         max_size=4)


@settings(max_examples=80, deadline=None)
@given(tensor_orders, tensor_orders, st.integers(0, 10 ** 6))
def test_tensor_matches_snf_oracle(go, ho, seed):
    g, h = FgGroup.from_orders(go), FgGroup.from_orders(ho)
    grp, tmap = tensor(g, h)
    ogrp, omap = oracle_tensor(g, h)
    assert grp == ogrp
    rng = random.Random(seed)
    for _ in range(6):
        a1, a2 = _random_element(rng, g), _random_element(rng, g)
        b1, b2 = _random_element(rng, h), _random_element(rng, h)
        assert tmap(a1 + a2, b1) == tmap(a1, b1) + tmap(a2, b1)
        assert tmap(a1, b1 + b2) == tmap(a1, b1) + tmap(a1, b2)
        assert tmap(a1, b1).order() == omap(a1, b1).order()
    # the generator pairs span the tensor product
    pairs = tuple(tmap(a, b) for a in GroupHom.identity(g).images
                  for b in GroupHom.identity(h).images)
    assert GroupHom(FgGroup.free(len(pairs)), grp, pairs).is_surjective()


def test_unit_tensors_agree_with_snf_oracle_up_to_automorphism():
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        factors = random_factor_list(rng, max_factors=3, max_size=3)
        invs = [invariants(f) for f in factors]
        if any(not v.bf.is_finite for v in invs):
            continue
        grp, unit = invs[0].bf, invs[0].unit
        ogrp, ounit = grp, unit
        for v in invs[1:]:
            grp, tmap = tensor(grp, v.bf)
            unit = tmap(unit, v.unit)
            ogrp, omap = oracle_tensor(ogrp, v.bf)
            ounit = omap(ounit, v.unit)
        assert grp == ogrp
        assert aut_orbit_equivalent(grp, unit, ounit)
        checked += 1


def test_wide_semiprime_orders_do_not_hang():
    p, q, r = 10 ** 24 + 7, 10 ** 24 + 49, 10 ** 25 + 13  # primes of about 25 digits
    t0 = time.perf_counter()
    g = FgGroup.from_orders([p * q, q * r])
    h = FgGroup.from_orders([p * r, p * q * r])
    total = direct_sum(g, h)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    assert g == FgGroup(0, (q, p * q * r)) and h == FgGroup(0, (p * r, p * q * r))
    assert total == FgGroup(0, (p * q * r,) * 3)


def _eliminated_onto(hom):
    """The reference for GroupHom.is_surjective: the images generate iff
    Z^g / (image columns + relation columns) is trivial, that is, iff the
    diagonal of ``_eliminate`` over Z is g ones."""
    cod = hom.codomain
    g, r = cod.num_generators, cod.free_rank
    cols = [list(img.coords()) for img in hom.images]
    cols += [[d * (i == r + k) for i in range(g)] for k, d in enumerate(cod.torsion)]
    if not cols:
        return g == 0
    diag = _eliminate(IntMatrix.from_rows([[c[i] for c in cols] for i in range(g)]), 0)[0]
    return len(diag) == g and all(d == 1 for d in diag)


def _free_coordinate(rng):
    # mostly small, sometimes negative and large
    return rng.choice((rng.randint(-3, 3), rng.randint(-3, 3),
                       rng.randint(-10 ** 6, 10 ** 6), rng.choice((-1, 1)) * 2 ** 61 + 1))


def test_is_surjective_agrees_with_the_eliminated_reference():
    rng = random.Random(1512)
    torsions = [(), (), (2,), (6,), (2, 2), (2, 12), (3, 9, 27), (4, 8)]
    seen = set()
    for _ in range(3000):
        r = rng.randint(0, 3)
        cod = FgGroup(r, rng.choice(torsions))
        k = rng.randint(0, cod.num_generators + 2)
        # a free domain takes any images; a torsion generator of order d
        # takes multiples of t / gcd(d, t) in each Z/t and nothing free
        dom = FgGroup.from_orders(rng.choice((0, 0, 2, 3, 4)) for _ in range(k))
        images = [cod.element([_free_coordinate(rng) for _ in range(r)],
                              [rng.randrange(t) for t in cod.torsion])
                  for _ in range(dom.free_rank)]
        images += [cod.element((0,) * r, [t // gcd(d, t) * rng.randrange(t)
                                          for t in cod.torsion])
                   for d in dom.torsion]
        hom = GroupHom(dom, cod, tuple(images))
        onto = hom.is_surjective()
        assert onto == _eliminated_onto(hom), hom
        seen.add((r, bool(cod.torsion), bool(images), onto))
    # every free rank 0-3, with and without torsion, reaches both verdicts
    # where it can (the trivial group is always reached); empty image lists
    # reach the trivial group and miss Z^2 (+) T
    assert {key for key in seen if key[2]} == {(r, t, True, o) for r in range(4)
                                               for t in (False, True) for o in (False, True)
                                               if r or t or o}
    assert (0, False, False, True) in seen and (2, True, False, False) in seen
