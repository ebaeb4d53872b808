"""Finite cyclic characters of the table groups.

The library solves a reduced linear system.  The word oracle here evaluates
the defining relations as literal generator words (expanding the tau~ and
grid words through ``table_oracle.alpha_word``) under a candidate
assignment, so it does not use the library's reduced equations or the grid
parity.  It is not fully
independent, though: like the library it assigns one value per coordinate to
the splitting generators and one shared value to all transpositions, and it
checks the relations at small indices only.  The character-count identity
against ``tfg_abelianization`` shares no reduction with the library.  The
exhaustive oracle of ``table_oracle`` solves the same reduced system by
trying every assignment, and pins the order of the list.
"""

import random
from itertools import combinations_with_replacement
from itertools import product as iproduct
from math import gcd, prod

import pytest

from groupoid_invariants import tables
from groupoid_invariants.abelianize import tfg_abelianization
from groupoid_invariants.errors import BoundExceeded
from groupoid_invariants.sft import validate
from groupoid_invariants.tables import character_search
from table_oracle import alpha_word, oracle_characters


def _relation_word_differences(n, arities, index_bound=3):
    """Pairs (lhs, rhs) of generator words; each letter is ('s', d) or ('t',)."""
    out = []
    dims = range(1, n + 1)
    for d in dims:
        kd = arities[d - 1]
        for dp in dims:
            for i in range(1, index_bound):
                out.append(([("s", d), ("s", dp)], [("s", dp), ("s", d)]))
    for i in range(1, index_bound):
        out.append(([("t",), ("t",)], []))
        out.append(([("t",), ("t",), ("t",)], [("t",), ("t",), ("t",)]))
    for d in dims:
        kd = arities[d - 1]
        # s_{i,d} tau_i = tau~ s_{i+1,d}, with tau~ a word of k(d) transpositions
        out.append(([("s", d), ("t",)], [("t",)] * kd + [("s", d)]))
    for d in dims:
        for dp in dims:
            if d == dp:
                continue
            kd, kdp = arities[d - 1], arities[dp - 1]
            word, _ = alpha_word(1, d, dp, arities)
            lhs = [("s", dp)] * kd + [("s", d)]
            rhs = [("t",)] * len(word) + [("s", d)] * kdp + [("s", dp)]
            out.append((lhs, rhs))
    return out


def _oracle_assignments(n, arities, m):
    rels = _relation_word_differences(n, arities)

    def value(word, xs, t):
        total = 0
        for letter in word:
            total += t if letter == ("t",) else xs[letter[1] - 1]
        return total % m

    found = []
    for t in range(m):
        for xs in iproduct(range(m), repeat=n):
            if all(value(l, xs, t) == value(r, xs, t) for l, r in rels):
                found.append((xs, t))
    return found


@pytest.mark.parametrize("n,arities,m", [
    (2, (2, 2), 2), (2, (3, 3), 4), (2, (5, 5), 2), (3, (3, 5, 5), 2),
    (3, (3, 3, 5), 4), (2, (4, 4), 3), (2, (3, 5), 2), (2, (3, 3), 2),
    (2, (7, 7), 2),
])
def test_search_matches_word_oracle(n, arities, m):
    got = {(a.x, a.t) for a in character_search(arities, m)}
    assert got == set(_oracle_assignments(n, arities, m))


def test_constant_odd_arity_case():
    # all arities equal to l = 1 mod 4: the all-zero x with t = 1 kills every
    # relation in Z/2
    for n in (2, 3):
        for l in (5, 9):
            found = character_search((l,) * n, 2)
            assert ((0,) * n, 1) in {(a.x, a.t) for a in found}


def test_one_three_rest_five_case():
    for n in (2, 3, 4):
        arities = (3,) + (5,) * (n - 1)
        found = character_search(arities, 2)
        assert ((0,) * n, 1) in {(a.x, a.t) for a in found}


def test_two_threes_rest_five_case():
    for n in (2, 3, 4):
        arities = (3, 3) + (5,) * (n - 2)
        found = character_search(arities, 4)
        expected_x = (1,) + (0,) * (n - 1)
        assert (expected_x, 2) in {(a.x, a.t) for a in found}


def test_surjective_character_two_factors_l_3_mod_4():
    for l in (3, 7):
        m = 2 * l - 2
        found = character_search((l, l), m)
        assert any(a.generates_target() for a in found), l
        for a in found:
            # the shared transposition value has order at most 2
            assert 2 * a.t % m == 0


def test_no_transposition_character_for_three_factors_l_3_mod_4():
    # For equal arities l = 3 mod 4 the grid relation of each ordered pair
    # (d, d') reads (l-1)(x_d' - x_d) = t, since the grid transpose has
    # parity C(l,2)^2 = 1 mod 2.  Two factors: mod 2 the left side vanishes,
    # so t = 0, but in Z/4 the choice x = (1, 0) gives t = 2 (the
    # transposition class is (l-1) times a generator of [[G]]_ab =
    # Z/(2l-2)).  Three factors: summing the relation around 1 -> 2 -> 3 -> 1
    # gives 3t = 0, and with 2t = 0 that forces t = 0 in every Z/m.
    for l in (3, 7):
        assert all(a.t == 0 for a in character_search((l, l), 2)), l
        assert any(a.t == 2 for a in character_search((l, l), 4)), l
        for m in (2, 4):
            found = character_search((l, l, l), m)
            assert all(a.t == 0 for a in found), (l, m)


@pytest.mark.parametrize("n", [2, 3])
def test_character_count_matches_full_shift_abelianization(n):
    """|Hom(W_{n,k}, Z/m)| = m * |Hom([[G]]_ab, Z/m)| for G the product of
    the full shifts [[k(d)]].

    Where the factor m comes from: the eventual index offset is a
    homomorphism from W_{n,k} onto the infinite cyclic group g Z, with g the
    gcd of the k(d)-1 (s_{i,d} maps to k(d)-1, tau_i to 0).  It splits, and
    its m characters x_d = c (k(d)-1)/g, t = 0 give the factor m.  Its kernel
    is the union of the full groups of G on the index ranges {1..N}.  That
    this kernel's abelianization is [[G]]_ab, with the offset acting
    trivially on it, is not proved here; so the identity is an observed
    cross-check of ``character_search`` against ``abelianize``.
    """
    for arities in combinations_with_replacement((2, 3, 4, 5, 7, 9), n):
        ab = tfg_abelianization([validate([[k]]) for k in arities])
        for m in (2, 3, 4, 6, 8):
            expected = m * prod(gcd(order, m) if order else m
                                for order in ab.orders())
            assert len(character_search(arities, m)) == expected, \
                (arities, m, ab)


def test_search_matches_exhaustive_oracle_in_order():
    rng = random.Random(1512)
    for _ in range(300):
        n = rng.randint(1, 3)
        arities = tuple(rng.randint(2, 7) for _ in range(n))
        m = rng.randint(2, 12)
        assert character_search(arities, m) == oracle_characters(n, arities, m), \
            (arities, m)


def test_five_coordinates_past_the_exhaustive_wall():
    # 20^5 values of x per t: the count follows the abelianization identity
    # of test_character_count_matches_full_shift_abelianization
    arities, m = (3,) * 5, 20
    found = character_search(arities, m)
    ab = tfg_abelianization([validate([[k]]) for k in arities])
    assert len(found) == m * prod(gcd(order, m) if order else m
                                  for order in ab.orders()) == 320
    assert len({(a.x, a.t) for a in found}) == 320
    assert found == sorted(found, key=lambda a: (a.t, a.x))


def test_character_search_counts_its_characters_before_listing(monkeypatch):
    # arities (2, 2) leave x_1 = x_2 free: Z/m has m characters, prod
    # gcd(s_i, m) over the Smith diagonal, and the bound is checked on that
    # count before any character is built
    monkeypatch.setattr(tables, "DEFAULT_CANDIDATE_BOUND", 12)
    assert len(character_search((2, 2), 12)) == 12
    with pytest.raises(BoundExceeded, match="13 characters"):
        character_search((2, 2), 13)
    monkeypatch.undo()
    with pytest.raises(BoundExceeded, match="100000000 characters"):
        character_search((2, 2), 10 ** 8)
