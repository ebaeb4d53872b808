"""Automorphism enumeration and orbit decisions against independent oracles.

The exhaustive-tuple oracle (all endomorphism image tuples, keep the ones
whose images generate) is re-implemented here from scratch on top of element
arithmetic only, as is the |Aut| formula for p-groups, so agreement is a real
cross-check of the library's enumeration and closed-form orbit decision.  The
orbit search over elementary automorphisms in ``orbit_oracle`` is a second,
faster oracle for the orbit decision, and its listing of every element the
decision accepts is the oracle of ``torsion_orbit``.
"""

import random
import time
from itertools import product as iproduct
from math import gcd, prod

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupoid_invariants.automorphisms import (_orbit_elements,
                                               aut_orbit_equivalent,
                                               aut_orbit_witness,
                                               enumerate_automorphisms,
                                               torsion_orbit)
from groupoid_invariants import automorphisms
from groupoid_invariants.errors import BoundExceeded, InternalError
from groupoid_invariants.fggroup import FgGroup, _coprime_base
from groupoid_invariants.intmatrix import IntMatrix, SnfResult
from orbit_oracle import bfs_orbit_equivalent, brute_torsion_orbit, elements, factorint


def euler_phi(n):
    out = n
    for p in factorint(n):
        out -= out // p
    return out


def oracle_automorphism_images(group):
    """All automorphisms as image tuples, by exhaustive search."""
    ds = group.torsion
    elems = list(elements(group))
    choice_sets = []
    for d in ds:
        choice_sets.append([e for e in elems if e.scale(d).is_zero])
    for imgs in iproduct(*choice_sets):
        # bijective iff the images generate: close the generated subgroup
        seen = {group.zero().torsion}
        frontier = [group.zero()]
        while frontier:
            x = frontier.pop()
            for img in imgs:
                y = x + img
                if y.torsion not in seen:
                    seen.add(y.torsion)
                    frontier.append(y)
        if len(seen) == group.order():
            yield imgs


def hillar_rhea_aut_order(p, exponents):
    """|Aut| of the p-group with the given ascending exponent list."""
    n = len(exponents)
    e = exponents
    d = [max(l + 1 for l in range(n) if e[l] == e[k]) for k in range(n)]
    c = [min(l + 1 for l in range(n) if e[l] == e[k]) for k in range(n)]
    out = 1
    for k in range(n):
        out *= p ** d[k] - p ** k
    for j in range(n):
        out *= (p ** e[j]) ** (n - d[j])
    for i in range(n):
        out *= (p ** (e[i] - 1)) ** (n - c[i] + 1)
    return out


def test_aut_count_examples():
    assert sum(1 for _ in enumerate_automorphisms(FgGroup.cyclic(4))) == 2
    assert sum(1 for _ in enumerate_automorphisms(FgGroup.trivial())) == 1
    assert sum(1 for _ in enumerate_automorphisms(FgGroup.from_orders([2, 2]))) == 6


def test_aut_count_cyclic_is_euler_phi():
    for n in range(2, 31):
        assert sum(1 for _ in enumerate_automorphisms(FgGroup.cyclic(n))) == euler_phi(n)


@pytest.mark.parametrize("p,exps", [(2, [1, 1]), (3, [1, 1]), (2, [1, 2]),
                                    (2, [1, 1, 1]), (2, [2, 2]), (3, [1, 2]),
                                    (5, [1, 1]), (2, [1, 3])])
def test_aut_count_matches_formula(p, exps):
    group = FgGroup.from_orders([p ** e for e in exps])
    count = sum(1 for _ in enumerate_automorphisms(group))
    assert count == hillar_rhea_aut_order(p, sorted(exps))


def test_enumerated_maps_are_automorphisms_and_distinct():
    group = FgGroup.from_orders([2, 4])
    homs = list(enumerate_automorphisms(group))
    assert len(set(tuple(h.images) for h in homs)) == len(homs) == 8
    for h in homs:
        assert h.is_isomorphism()


def test_bounds_raise():
    with pytest.raises(BoundExceeded):
        list(enumerate_automorphisms(FgGroup.cyclic(10), order_bound=5))
    with pytest.raises(BoundExceeded):
        list(enumerate_automorphisms(FgGroup.from_orders([2] * 6),
                                     candidate_bound=1000))


def test_orbit_examples():
    z4 = FgGroup.cyclic(4)
    one, two, three = (z4.element((), (c,)) for c in (1, 2, 3))
    assert aut_orbit_equivalent(z4, one, three)
    assert not aut_orbit_equivalent(z4, one, two)
    z = FgGroup.free(1)
    assert aut_orbit_equivalent(z, z.element((2,), ()), z.element((-2,), ()))
    assert not aut_orbit_equivalent(z, z.element((1,), ()), z.element((2,), ()))
    g = FgGroup(1, (6,))
    assert aut_orbit_equivalent(g, g.zero(), g.zero())


def oracle_orbit_partition(group):
    elems = list(elements(group))
    out = {}
    for imgs in oracle_automorphism_images(group):
        for e in elems:
            img = group.zero()
            for c, g_img in zip(e.torsion, imgs):
                img = img + g_img.scale(c)
            out.setdefault(e.torsion, set()).add(img.torsion)
    return {k: frozenset(v) for k, v in out.items()}


def test_orbits_match_exhaustive_enumeration_small():
    for orders in ([4], [2, 2], [2, 4], [8], [12], [2, 6], [3, 3], [2, 2, 2]):
        group = FgGroup.from_orders(orders)
        oracle = oracle_orbit_partition(group)
        for e in elements(group):
            assert torsion_orbit(group, e) == oracle[e.torsion], orders


def test_torsion_orbit_matches_brute_force_oracle():
    rng = random.Random(1905)
    checked = composite = 0
    while checked < 2000:
        group = FgGroup.from_orders([rng.randint(2, 60) for _ in range(rng.randint(1, 3))])
        if group.order() > 200:
            continue
        elems = list(elements(group))
        oracle = {}
        for e in rng.sample(elems, min(40, len(elems))):
            if e.torsion not in oracle:
                orbit = brute_torsion_orbit(group, e)
                oracle.update(dict.fromkeys(orbit, orbit))
            assert torsion_orbit(group, e) == oracle[e.torsion], (group, e)
            base = _coprime_base([*group.torsion,
                                  *(gcd(c, d) for c, d in zip(e.torsion, group.torsion))])
            composite += any(sum(factorint(q).values()) > 1 for q in base)
            checked += 1
    assert composite > 100


def test_orbit_elements_come_in_sorted_order():
    # classify builds its layers, and so its witnesses, in this order
    rng = random.Random(4)
    for _ in range(60):
        group = FgGroup.from_orders([rng.randint(2, 40) for _ in range(rng.randint(1, 3))])
        e = group.element((), tuple(rng.randrange(d) for d in group.torsion))
        assert list(_orbit_elements(group, e)) == sorted(torsion_orbit(group, e))


def test_torsion_orbit_keeps_non_unit_multiples_of_a_composite_base():
    # the coprime base is {2, 9}: orbit elements of (1, 46) have coordinates
    # such as 3 mod 9, which are no unit times a power of 9
    group = FgGroup.from_orders([36, 72])
    a = group.element((), (1, 46))
    orbit = torsion_orbit(group, a)
    assert len(orbit) == 576 and orbit == brute_torsion_orbit(group, a)
    assert any(y[0] % 9 == 3 for y in orbit)


def test_torsion_orbit_refines_the_base_by_each_box_element():
    # the coprime base of Z/36 and x = 6 alone is {6}, under which 6 and 12
    # both have valuation 1, yet 12 has order 3: a base computed once per
    # orbit would merge them, so each box element's gcds must refine it
    for orders, x, orbit in (([36], (6,), {(6,), (30,)}),
                             ([6, 36], (0, 6), {(0, 6), (0, 30)})):
        group = FgGroup.from_orders(orders)
        a = group.element((), x)
        assert _coprime_base([*group.torsion, *x]) == [6]
        assert torsion_orbit(group, a) == brute_torsion_orbit(group, a) == orbit
        assert {y.torsion for y in elements(group) if bfs_orbit_equivalent(group, a, y)} == orbit


def test_torsion_orbit_costs_the_orbit_not_the_group():
    # |T| = 80000; the orbit of (0, 0, 5000) is (0, 0, +-5000)
    group = FgGroup.from_orders([2, 2, 20000])
    t0 = time.perf_counter()
    orbit = torsion_orbit(group, group.element((), (0, 0, 5000)))
    assert time.perf_counter() - t0 < 1.0
    assert orbit == {(0, 0, 5000), (0, 0, 15000)}


def test_orbit_equivalence_is_equivalence_relation():
    rng = random.Random(77)
    for orders in ([12], [2, 4], [2, 2, 3], [5, 5], [18]):
        group = FgGroup.from_orders(orders)
        elems = list(elements(group))
        for _ in range(25):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert aut_orbit_equivalent(group, a, a)
            ab = aut_orbit_equivalent(group, a, b)
            assert ab == aut_orbit_equivalent(group, b, a)
            if ab and aut_orbit_equivalent(group, b, c):
                assert aut_orbit_equivalent(group, a, c)


def test_orbit_equivalence_preserves_order():
    rng = random.Random(78)
    for orders in ([12], [2, 4], [0, 4], [0, 0, 6]):
        group = FgGroup.from_orders(orders)
        for _ in range(30):
            a = group.element(tuple(rng.randint(-4, 4) for _ in range(group.free_rank)),
                              tuple(rng.randint(0, d - 1) for d in group.torsion))
            b = group.element(tuple(rng.randint(-4, 4) for _ in range(group.free_rank)),
                              tuple(rng.randint(0, d - 1) for d in group.torsion))
            if aut_orbit_equivalent(group, a, b):
                assert a.order() == b.order()


def oracle_mixed_brute_force(group, a, b, entry_bound=3):
    """One-sided brute force over lower-triangular automorphisms with small
    free blocks; returns True if some bounded automorphism maps a to b."""
    from groupoid_invariants.intmatrix import IntMatrix
    r = group.free_rank
    tors = FgGroup(0, group.torsion)
    t_elems = list(elements(tors))
    mats = []
    for entries in iproduct(range(-entry_bound, entry_bound + 1), repeat=r * r):
        m = IntMatrix(r, r, entries)
        if abs(m.det()) == 1:
            mats.append(m)
    phis = list(iproduct(t_elems, repeat=r))
    for m in mats:
        fa = m.apply(a.free)
        for imgs in oracle_automorphism_images(tors):
            psi_at = tors.zero()
            for cc, g_img in zip(a.torsion, imgs):
                psi_at = psi_at + g_img.scale(cc)
            for phi in phis:
                extra = tors.zero()
                for x, u in zip(a.free, phi):
                    extra = extra + u.scale(x)
                if fa == b.free and (psi_at + extra).torsion == b.torsion:
                    return True
    return False


def test_mixed_free_torsion_against_bounded_brute_force():
    rng = random.Random(79)
    cases = [FgGroup(1, (2,)), FgGroup(1, (4,)), FgGroup(2, (2,))]
    for group in cases:
        elems = []
        for _ in range(14):
            elems.append(group.element(
                tuple(rng.randint(-2, 2) for _ in range(group.free_rank)),
                tuple(rng.randint(0, d - 1) for d in group.torsion)))
        for a in elems[:7]:
            for b in elems[7:]:
                got = aut_orbit_equivalent(group, a, b)
                brute = oracle_mixed_brute_force(group, a, b)
                if brute:
                    assert got, (group, a, b)
        # spot exact cases
    g = FgGroup(1, (4,))
    assert aut_orbit_equivalent(g, g.element((2,), (1,)), g.element((-2,), (3,)))
    # content 2 lets the free generator shift torsion by 2T only
    assert aut_orbit_equivalent(g, g.element((2,), (1,)), g.element((2,), (3,)))
    assert not aut_orbit_equivalent(g, g.element((2,), (1,)), g.element((2,), (2,)))
    assert not aut_orbit_equivalent(g, g.element((2,), (1,)), g.element((1,), (1,)))


def test_witness_maps_a_to_b():
    rng = random.Random(80)
    for orders in ([12], [2, 4], [0, 6], [0, 0, 4], [2, 2, 2]):
        group = FgGroup.from_orders(orders)
        for _ in range(20):
            a = group.element(tuple(rng.randint(-3, 3) for _ in range(group.free_rank)),
                              tuple(rng.randint(0, d - 1) for d in group.torsion))
            b = group.element(tuple(rng.randint(-3, 3) for _ in range(group.free_rank)),
                              tuple(rng.randint(0, d - 1) for d in group.torsion))
            w = aut_orbit_witness(group, a, b)
            assert (w is not None) == aut_orbit_equivalent(group, a, b)
            if w is not None:
                assert w(a) == b and w.is_isomorphism()


def test_a_free_part_transform_that_is_not_unimodular_is_an_internal_error(monkeypatch):
    group = FgGroup.from_orders([0, 0, 4])
    a, b = group.element((2, 4), (1,)), group.element((-2, 6), (1,))
    assert aut_orbit_witness(group, a, b)(a) == b
    snf = automorphisms.smith_normal_form

    def doubled(m):
        # a corrupted left transform, of determinant +-2
        res = snf(m)
        return SnfResult(res.u @ IntMatrix.diagonal([1] * (m.rows - 1) + [2]), res.s, res.v)
    monkeypatch.setattr(automorphisms, "smith_normal_form", doubled)
    with pytest.raises(InternalError, match="determinant"):
        aut_orbit_witness(group, a, b)


def random_element(rng, group, free_range=4):
    return group.element(
        tuple(rng.randint(-free_range, free_range) for _ in range(group.free_rank)),
        tuple(rng.randrange(d) for d in group.torsion))


def random_image(rng, group, elem, steps=8):
    """elem moved by random elementary automorphisms of group, in canonical
    coordinates: unit scalings, torsion transvections x_i += c x_j with
    d_i | c d_j, free-to-torsion shears, free transvections and sign flips."""
    r, ds = group.free_rank, group.torsion
    f, t = list(elem.free), list(elem.torsion)
    for _ in range(steps):
        kind = rng.randrange(5)
        if kind == 0 and ds:
            i = rng.randrange(len(ds))
            while gcd(u := rng.randrange(1, ds[i] + 1), ds[i]) != 1:
                pass
            t[i] = t[i] * u % ds[i]
        elif kind == 1 and len(ds) > 1:
            i, j = rng.sample(range(len(ds)), 2)
            c = ds[i] // gcd(ds[i], ds[j]) * rng.randrange(ds[i])
            t[i] = (t[i] + c * t[j]) % ds[i]
        elif kind == 2 and r and ds:
            i, k = rng.randrange(len(ds)), rng.randrange(r)
            t[i] = (t[i] + rng.randrange(ds[i]) * f[k]) % ds[i]
        elif kind == 3 and r > 1:
            k, l = rng.sample(range(r), 2)
            f[k] += rng.choice((-1, 1)) * f[l]
        elif kind == 4 and r:
            k = rng.randrange(r)
            f[k] = -f[k]
    return group.element(f, t)


composite_orders = st.lists(
    st.sampled_from([2, 3, 4, 5, 6, 8, 9, 10, 12, 18, 20, 24, 36, 45, 60, 72, 100]),
    min_size=1, max_size=3)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2), composite_orders, st.integers(0, 10 ** 6))
def test_closed_form_matches_bfs_oracle(rank, orders, seed):
    group = FgGroup.from_orders([0] * rank + orders)
    assume(prod(group.torsion) <= 500)
    rng = random.Random(seed)
    a = random_element(rng, group)
    # a random element, one with a's free part, and an image of a
    others = [random_element(rng, group),
              group.element(a.free, random_element(rng, group).torsion),
              random_image(rng, group, a)]
    for b in others:
        expected = bfs_orbit_equivalent(group, a, b)
        w = aut_orbit_witness(group, a, b)
        assert aut_orbit_equivalent(group, a, b) == (w is not None) == expected, (group, a, b)
        if w is not None:
            assert w(a) == b and w.is_isomorphism()
    assert aut_orbit_equivalent(group, a, others[2])


def test_orbits_with_large_prime_factors():
    p, q = 10 ** 24 + 7, 10 ** 24 + 49  # primes of about 25 digits
    rng = random.Random(82)
    for group in (FgGroup.from_orders([p * q, p * q * q]),
                  FgGroup.from_orders([0, p * q, p * q * q])):
        for _ in range(5):
            x = random_element(rng, group)
            for a in (x, group.element(x.free, (x.torsion[0] * p, x.torsion[1] * q))):
                b = random_image(rng, group, a)
                t0 = time.perf_counter()
                w = aut_orbit_witness(group, a, b)
                assert time.perf_counter() - t0 < 1.0
                assert w is not None and w(a) == b and w.is_isomorphism()
    group = FgGroup.from_orders([p * q, p * q * q])
    # equal orders, different heights at q: 1 and q, then p and pq
    for x, y in (((1, 0), (0, q)), ((p, 0), (0, p * q))):
        a, b = group.element((), x), group.element((), y)
        assert a.order() == b.order()
        t0 = time.perf_counter()
        assert aut_orbit_witness(group, a, b) is None
        assert time.perf_counter() - t0 < 1.0
