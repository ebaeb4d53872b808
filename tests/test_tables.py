import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_invariants.errors import BoundExceeded, IncompatibleParameters
from groupoid_invariants.tables import (MAX_WORD_DEPTH, Brick, TableElement,
                                        alpha_element, alpha_parity, alpha_word, baker,
                                        compose, compose_all, equal, gen_s,
                                        gen_tau, identity, inverse,
                                        permutation_element, tau_tilde,
                                        verify_relations)

from table_oracle import oracle_check


def test_gen_tau_action():
    t1 = gen_tau(1, (2, 2))
    assert t1.apply(((), ()), 1) == (((), ()), 2)
    assert t1.apply(((), ()), 2) == (((), ()), 1)
    assert t1.apply(((), ()), 5) == (((), ()), 5)


def test_gen_s_action():
    s = gen_s(1, 1, (2, 2))
    # ((0x, y), 1) -> ((x, y), 1): the first letter of coordinate 1 is read off
    words, j = s.apply(((0, 1), ()), 1)
    assert (words, j) == (((1,), ()), 1)
    words, j = s.apply(((1, 0), ()), 1)
    assert (words, j) == (((0,), ()), 2)
    # above the bound: translate by k(d) - 1
    assert s.apply(((), ()), 2) == (((), ()), 3)
    s3 = gen_s(2, 2, (2, 3))
    assert s3.offset == 2 and s3.bound == 2
    with pytest.raises(ValueError):
        gen_s(1, 3, (2, 2))


def test_wellformedness_rejected():
    with pytest.raises(ValueError):
        # misses index 1 entirely
        TableElement((2,), 1, 0, ())
    with pytest.raises(ValueError):
        # overlapping sources: () covers (0,)
        TableElement((2,), 1, 0,
                     ((Brick(((),), 1), Brick(((),), 1)),
                      (Brick(((0,),), 1), Brick(((1,),), 1))))
    with pytest.raises(ValueError):
        # mass 1/2 missing
        TableElement((2,), 1, 0, ((Brick(((0,),), 1), Brick(((),), 1)),))


def _bricks_at_one(arities, *words):
    """The element pairing each brick (words..., 1) with itself."""
    return TableElement(arities, 1, 0, tuple((Brick(w, 1), Brick(w, 1)) for w in words))


def test_wellformedness_in_several_coordinates():
    # partitions whose bricks are comparable in coordinate 1 and disjoint only
    # through coordinate 2 or 3 are accepted
    _bricks_at_one((2, 3), ((), (0,)), ((), (1,)), ((), (2,)))
    _bricks_at_one((2, 2), ((), (0,)), ((0,), (1,)), ((1,), (1,)))
    _bricks_at_one((2, 2, 2), ((), (), (0,)), ((0,), (), (1,)),
                   ((1,), (0,), (1,)), ((1,), (1,), (1,)))
    # every coordinate leaves some brick uncut, so no single cut separates
    # the bricks; they still partition the cube
    _bricks_at_one((2, 2, 2), ((), (0,), (0,)), ((0,), (), (1,)), ((1,), (1,), ()),
                   ((0,), (1,), (0,)), ((1,), (0,), (1,)))
    # mass exactly 1, but the first two bricks overlap in every coordinate
    # and ((0,), (1,)) is not covered
    with pytest.raises(ValueError, match="overlapping source bricks at index 1"):
        _bricks_at_one((2, 2), ((), (0,)), ((0,), (0,)), ((1,), (1,)))
    with pytest.raises(ValueError, match="overlapping source bricks at index 1"):
        _bricks_at_one((2, 2, 2), ((), (), (0,)), ((0,), (0,), (0,)),
                       ((0,), (), (1,)), ((1,), (0,), (1,)))
    # disjoint bricks of mass 1/2 + 1/6: a deficit
    with pytest.raises(ValueError, match="mass 2/3 != 1"):
        _bricks_at_one((2, 3), ((0,), ()), ((1,), (0,)))
    # mass 1 + 1/4: an excess forces an overlap, which is reported first
    with pytest.raises(ValueError, match="overlapping source bricks"):
        _bricks_at_one((2, 2), ((), (0,)), ((), (1,)), ((0,), (0, 1)))
    empty = ((), ())
    with pytest.raises(ValueError, match="source brick index 3 outside 1..2"):
        TableElement((2, 2), 2, 0, ((Brick(empty, 1), Brick(empty, 1)),
                                    (Brick(empty, 3), Brick(empty, 2))))
    with pytest.raises(ValueError, match="target bricks do not touch every index in 1..2"):
        TableElement((2, 2), 2, 0, ((Brick(empty, 1), Brick(empty, 1)),
                                    (Brick(empty, 2), Brick(empty, 1))))
    with pytest.raises(ValueError, match="letter outside alphabet"):
        _bricks_at_one((2, 3), ((0,), (3,)), ((1,), ()))
    with pytest.raises(BoundExceeded):
        _bricks_at_one((2, 2), ((0,) * (MAX_WORD_DEPTH + 1), ()), ((1,), ()))


def _split(rng, bricks, arities, d):
    """Replace a random brick by its k(d) children in coordinate d."""
    words, j = bricks.pop(rng.randrange(len(bricks)))
    for a in range(arities[d]):
        bricks.append((words[:d] + (words[d] + (a,),) + words[d + 1:], j))


def _random_table(rng):
    """Arguments of a random element: independent refinements of the source
    and target index ranges with equally many bricks, then corruptions."""
    n = rng.randint(1, 3)
    arities = tuple(rng.randint(2, 5) for _ in range(n))
    empty = ((),) * n
    bound = rng.randint(1, 4)
    src = [(empty, j) for j in range(1, bound + 1)]
    for _ in range(rng.randint(0, 6)):
        _split(rng, src, arities, rng.randrange(n))
    top = rng.randint(1, min(4, len(src)))
    dst = [(empty, j) for j in range(1, top + 1)]
    for _ in range(rng.randint(0, 6)):
        d = rng.randrange(n)
        if len(dst) + arities[d] - 1 <= len(src):
            _split(rng, dst, arities, d)
    while len(dst) < len(src):
        top += 1
        dst.append((empty, top))
    rng.shuffle(dst)
    table = [[src[i], dst[i]] for i in range(len(src))]
    tops = (bound, top)
    for _ in range(rng.choice((0, 0, 1, 1, 2))):
        i, side = rng.randrange(len(table)), rng.randrange(2)
        words, j = table[i][side]
        kind = rng.choice(("drop", "duplicate", "copy", "shorten", "extend",
                           "deepen", "move", "move out"))
        d = rng.randrange(n)
        if kind == "drop" and len(table) > 1:
            table.pop(i)
        elif kind == "duplicate":
            table.append(list(table[i]))
        elif kind == "copy":
            table[rng.randrange(len(table))][side] = (words, j)
        elif kind == "shorten" and words[d]:
            table[i][side] = (words[:d] + (words[d][:-1],) + words[d + 1:], j)
        elif kind == "extend":
            # one letter in k(d) + 1 is outside the alphabet
            w = words[d] + (rng.randrange(arities[d] + 1),)
            table[i][side] = (words[:d] + (w,) + words[d + 1:], j)
        elif kind == "deepen":
            w = words[d] + (0,) * (MAX_WORD_DEPTH + 1 - len(words[d]))
            table[i][side] = (words[:d] + (w,) + words[d + 1:], j)
        elif kind == "move":
            table[i][side] = (words, rng.randint(1, tops[side]))
        elif kind == "move out":
            table[i][side] = (words, rng.choice((0, tops[side] + 1)))
    return arities, bound, top - bound, tuple(
        (Brick(*s), Brick(*t)) for s, t in table)


def _verdict(fn, *args):
    try:
        fn(*args)
    except (ValueError, BoundExceeded) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=400, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_wellformedness_matches_pairwise_oracle(seed):
    args = _random_table(random.Random(seed))
    assert _verdict(TableElement, *args) == _verdict(oracle_check, *args)


def test_apply_rejects_malformed_points():
    s = gen_s(1, 1, (2, 2))
    with pytest.raises(ValueError, match="coordinates"):
        s.apply(((0, 1),), 1)
    with pytest.raises(ValueError, match="coordinates"):
        s.apply(((), (), ()), 3)
    with pytest.raises(ValueError, match="index 0"):
        s.apply(((0,), ()), 0)
    with pytest.raises(ValueError, match="alphabet"):
        s.apply(((2,), ()), 1)
    with pytest.raises(ValueError, match="alphabet"):
        s.apply(((), (0, -1)), 3)
    with pytest.raises(ValueError, match="too short"):
        s.apply(((), (1,)), 1)


def test_compose_inverse_equal():
    ar = (2, 2)
    t1 = gen_tau(1, ar)
    assert compose(t1, t1).is_identity()
    s = gen_s(1, 1, ar)
    assert compose(s, inverse(s)).is_identity()
    assert compose(inverse(s), s).is_identity()
    assert equal(compose(gen_s(1, 1, ar), t1),
                 compose(tau_tilde(1, 1, ar), gen_s(2, 1, ar)))
    with pytest.raises(IncompatibleParameters):
        compose(gen_tau(1, (2, 2)), gen_tau(1, (2, 3)))


def test_group_axioms_on_random_words(rng):
    ar = (2, 3)
    gens = [gen_s(i, d, ar) for i in (1, 2, 3) for d in (1, 2)] + \
        [gen_tau(i, ar) for i in (1, 2, 3)]
    for _ in range(20):
        word = [rng.choice(gens) for _ in range(rng.randint(1, 6))]
        w = compose_all(word)
        assert compose(w, inverse(w)).is_identity()
        assert compose(inverse(w), w).is_identity()
    for _ in range(10):
        a, b, c = (rng.choice(gens) for _ in range(3))
        assert equal(compose(compose(a, b), c), compose(a, compose(b, c)))


def test_relation_suite_small_parameter_sets():
    for ks in ((2, 2), (3, 5), (3, 3, 5)):
        rep = verify_relations(len(ks), ks, 3)
        assert rep.all_passed, (ks, rep.failures)
        assert rep.checked > 0


def test_braid_family():
    ar = (2, 2)
    t1, t2 = gen_tau(1, ar), gen_tau(2, ar)
    assert equal(compose_all([t1, t2, t1]), compose_all([t2, t1, t2]))


def test_relation_validity_shifts_with_indices():
    # validity of an instance at base index i implies it at i+1; spot-check the
    # most intricate family so bounded instantiation covers all indices
    ar = (3, 2)
    for i in (1, 2, 3, 4):
        kd = ar[0]
        lhs = compose_all([gen_s(i + t, 2, ar) for t in range(kd)] + [gen_s(i, 1, ar)])
        rhs = compose_all([alpha_element(i, 1, 2, ar)]
                          + [gen_s(i + t, 1, ar) for t in range(ar[1])]
                          + [gen_s(i, 2, ar)])
        assert equal(lhs, rhs), i


def _induced_index_permutation(elem, top):
    out = []
    for j in range(1, top + 1):
        _, jj = elem.apply(tuple(() for _ in elem.arities), j)
        out.append(jj)
    return out


def _parity_by_inversions(perm):
    inv = sum(1 for i in range(len(perm)) for j in range(i + 1, len(perm))
              if perm[i] > perm[j])
    return inv % 2


def test_tau_tilde_parity_is_arity_parity():
    # the induced index permutation of tau~ is odd iff k(d) is odd
    for k in range(2, 8):
        ar = (k, 2)
        tt = tau_tilde(1, 1, ar)
        perm = _induced_index_permutation(tt, tt.bound)
        assert _parity_by_inversions(perm) == k % 2


def test_alpha_parity_bullets():
    # equal arities l: odd iff l = 2 or 3 mod 4; the (3,5) pair is even
    for l in range(2, 8):
        expected = 1 if l % 4 in (2, 3) else 0
        assert alpha_parity(1, 2, (l, l)) == expected
    assert alpha_parity(1, 2, (3, 5)) == 0
    assert alpha_parity(1, 2, (5, 3)) == 0
    # parity always equals the inversion parity of the grid permutation
    for ka in range(2, 8):
        for kb in range(2, 8):
            word, parity = alpha_word(1, 1, 2, (ka, kb))
            el = alpha_element(1, 1, 2, (ka, kb))
            perm = _induced_index_permutation(el, el.bound)
            assert parity == _parity_by_inversions(perm) == len(word) % 2


def test_alpha_word_folds_to_alpha_element():
    for ar in ((2, 2), (3, 2), (3, 5), (4, 3)):
        word, _ = alpha_word(2, 1, 2, ar)
        el = alpha_element(2, 1, 2, ar)
        if word:
            assert equal(compose_all([gen_tau(j, ar) for j in word]), el)
        else:
            assert el.is_identity()


def test_baker_identities():
    for l in (2, 3, 7):
        ar = (l, l, l)
        b12, b23, b13 = baker(1, 2, ar), baker(2, 3, ar), baker(1, 3, ar)
        assert equal(compose(b12, b23), b13)
        assert compose(b12, inverse(b12)).is_identity()
    b = baker(1, 2, (2, 2))
    words, j = b.apply(((1,), (0, 1)), 1)
    assert (words, j) == (((0, 1), (1,)), 1)
    with pytest.raises(ValueError):
        baker(1, 2, (2, 3))


def test_baker_equals_split_generator_word():
    # reading d' and prepending to d is the index-1 block form of
    # s_{1,d}^(-1) s_{1,d'}
    for ar in ((2, 2), (3, 3, 3)):
        got = compose(inverse(gen_s(1, 1, ar)), gen_s(1, 2, ar))
        assert equal(got, baker(1, 2, ar))


def test_block_membership_predicate(rng):
    ar = (2, 2)
    # elements built from index-1 block moves stay in the block
    b = baker(1, 2, ar)
    assert b.fixes_above(1)
    assert not gen_s(1, 1, ar).fixes_above(1)
    conj = compose_all([inverse(gen_s(1, 1, ar)), gen_tau(1, ar), gen_s(1, 1, ar)])
    assert conj.fixes_above(1)
    # closure under composition and inverse
    pool = [b, conj, inverse(b)]
    for _ in range(10):
        x, y = rng.choice(pool), rng.choice(pool)
        assert compose(x, y).fixes_above(1)
        assert inverse(x).fixes_above(1)


def test_permutation_element_requires_bijection():
    with pytest.raises(ValueError):
        permutation_element({1: 2, 2: 2}, (2,))
