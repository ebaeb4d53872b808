import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_invariants import tables
from groupoid_invariants.errors import BoundExceeded, IncompatibleParameters
from groupoid_invariants.tables import (MAX_WORD_DEPTH, Brick, TableElement,
                                        alpha_element, alpha_parity, baker,
                                        character_search, compose, compose_all,
                                        equal, gen_s,
                                        gen_tau, identity, inverse,
                                        permutation_element, tau_tilde,
                                        verify_relations)

from table_oracle import (alpha_word, oracle_check, oracle_compose, oracle_compose_all,
                          oracle_equal)


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


def _random_word_element(rng, arities):
    """A product of 0-6 random generators s_{i,d}, tau_i (i = 1-3) and their
    inverses."""
    letters = []
    for _ in range(rng.randint(0, 6)):
        i = rng.randint(1, 3)
        if rng.random() < 0.5:
            e = gen_s(i, rng.randint(1, len(arities)), arities)
        else:
            e = gen_tau(i, arities)
        letters.append(inverse(e) if rng.random() < 0.5 else e)
    return compose_all(letters) if letters else identity(arities)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_compose_matches_pairwise_oracle(seed):
    rng = random.Random(seed)
    arities = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 3)))
    f, g = _random_word_element(rng, arities), _random_word_element(rng, arities)
    assert compose(f, g) == oracle_compose(f, g)
    assert compose(g, f) == oracle_compose(g, f)


def test_compose_fast_path_shapes_match_oracle():
    ar = (2, 3)
    s, t = gen_s(1, 2, ar), gen_tau(1, ar)
    pairs = [
        # f has one source brick of empty words at the index g's target
        # words reach: g's target words are appended to f's target
        (t, inverse(s)), (gen_tau(2, ar), compose(inverse(s), t)),
        # g's target words are empty and f splits the index: f's source
        # words are prefixed to g's source
        (s, t), (compose(s, gen_s(2, 1, ar)), inverse(gen_s(1, 1, ar))),
        # both, and neither
        (t, t), (compose(inverse(s), s), compose(s, inverse(gen_s(1, 1, ar)))),
    ]
    for f, g in pairs:
        assert compose(f, g) == oracle_compose(f, g)


def _random_word(rng, arities, length):
    """length random letters s_{i,d}, tau_i (i = 1-4) and their inverses."""
    word = []
    for _ in range(length):
        i = rng.randint(1, 4)
        if rng.random() < 0.5:
            e = gen_s(i, rng.randint(1, len(arities)), arities)
        else:
            e = gen_tau(i, arities)
        word.append(inverse(e) if rng.random() < 0.5 else e)
    return word


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 60))
def test_balanced_compose_all_matches_the_left_fold(seed, length):
    rng = random.Random(seed)
    arities = tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 3)))
    word = _random_word(rng, arities, length)
    # == on TableElement compares the table tuple, entry order included
    assert _product(compose_all, word) == _product(oracle_compose_all, word)


def _product(fn, word):
    """The product, or the exception it raised, a word deeper than
    MAX_WORD_DEPTH for example."""
    try:
        return fn(word)
    except (ValueError, BoundExceeded) as exc:
        return type(exc), str(exc)


def _benchmark_word(rng, length=100):
    """A word built as the benchmark's word comparisons build theirs: arities
    (2, 2), s and tau at indices 1-4, net splits kept within one of zero."""
    ar = (2, 2)
    letters = [(g, i, d) for i in (1, 2, 3, 4) for g, d in (("s", 1), ("s", 2), ("t", 0))]
    word, drift = [], 0
    for _ in range(length):
        (g, i, d), sign = rng.choice(letters), rng.choice((1, -1))
        if g == "s":
            if abs(drift + sign) > 1:
                sign = -sign
            drift += sign
        e = gen_s(i, d, ar) if g == "s" else gen_tau(i, ar)
        word.append(e if sign == 1 else inverse(e))
    return word


def test_balanced_compose_all_matches_the_left_fold_on_long_words():
    for seed in (1, 2, 3):
        word = _benchmark_word(random.Random(seed))
        assert compose_all(word) == oracle_compose_all(word)


def test_compose_all_edge_words():
    with pytest.raises(ValueError, match="empty word"):
        compose_all([])
    s = gen_s(2, 1, (2, 3))
    assert compose_all([s]) is s
    assert compose_all(iter([s, inverse(s)])).is_identity()


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_equal_matches_the_compose_inverse_oracle(seed):
    rng = random.Random(seed)
    arities = tuple(rng.randint(2, 4) for _ in range(rng.randint(1, 2)))
    f = _random_word_element(rng, arities)
    g = f if rng.random() < 0.3 else _random_word_element(rng, arities)
    # a relator (tau_i tau_i) keeps the map and usually changes the table
    h = compose_all([f, gen_tau(rng.randint(1, 3), arities), gen_tau(rng.randint(1, 3), arities)])
    for x, y in ((f, g), (g, f), (f, h), (h, f)):
        assert equal(x, y) == oracle_equal(x, y)


def test_equal_on_constructed_tables(monkeypatch):
    ar = (2, 3)
    e = compose_all([gen_s(1, 2, ar), gen_tau(2, ar), inverse(gen_s(2, 1, ar))])
    flipped = TableElement(e.arities, e.bound, e.offset, e.table[::-1])
    assert flipped != e and equal(e, flipped) and equal(flipped, e)
    # one map, two bounds
    twice = compose(gen_tau(1, ar), gen_tau(1, ar))
    assert twice.bound == 2 and equal(identity(ar), twice) and equal(twice, identity(ar))
    assert oracle_equal(identity(ar), twice)
    # equal bound and offset, different maps: decided by the composite
    calls = []
    composite = tables.compose
    monkeypatch.setattr(tables, "compose", lambda f, g: calls.append(1) or composite(f, g))
    for f, g in ((gen_s(1, 1, (2, 2)), gen_s(1, 2, (2, 2))),
                 (gen_tau(1, ar), permutation_element({1: 1, 2: 2}, ar)),
                 (permutation_element({1: 2, 2: 3, 3: 1}, ar),
                  permutation_element({1: 3, 2: 1, 3: 2}, ar))):
        assert (f.bound, f.offset) == (g.bound, g.offset)
        calls.clear()
        assert not equal(f, g) and not oracle_equal(f, g)
        assert len(calls) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_inverse_equals_checked_swap(seed):
    rng = random.Random(seed)
    args = _random_table(rng)
    if _verdict(TableElement, *args) is None:
        f = TableElement(*args)
    else:
        f = _random_word_element(rng, tuple(rng.randint(2, 5) for _ in range(rng.randint(1, 3))))
    swapped = tuple((t, s) for s, t in f.table)
    assert inverse(f) == TableElement(f.arities, f.bound + f.offset, -f.offset, swapped)
    assert inverse(inverse(f)) == f


def test_relation_check_builds_each_generator_once(monkeypatch):
    calls = []
    check = TableElement.__post_init__

    def counted(self):
        calls.append(1)
        check(self)

    monkeypatch.setattr(tables.TableElement, "__post_init__", counted)
    rep = verify_relations((3, 3, 3), 4)
    assert rep.checked == 131 and rep.failures == []
    assert 0 < len(calls) <= 650


def test_relation_check_builds_tau_tilde_from_the_memo(monkeypatch):
    # tau_tilde(i, d) is a product of transpositions the call has already built
    calls = []
    check = TableElement.__post_init__

    def counted(self):
        calls.append(1)
        check(self)

    monkeypatch.setattr(tables.TableElement, "__post_init__", counted)
    rep = verify_relations((3, 3, 3), 4)
    assert rep.checked == 131 and rep.failures == []
    assert len(calls) <= 593


def test_relation_check_settles_identical_tables_without_composing(monkeypatch):
    calls = []
    check = TableElement.__post_init__

    def counted(self):
        calls.append(1)
        check(self)

    monkeypatch.setattr(tables.TableElement, "__post_init__", counted)
    rep = verify_relations((3, 3, 3), 4)
    assert rep.checked == 131 and rep.failures == []
    assert len(calls) <= 470


def test_element_stores_a_list_of_arities_as_a_tuple():
    t = ((Brick(((),), 1), Brick(((),), 1)),)
    e = TableElement([2], 1, 0, t)
    assert e.arities == (2,) and type(e.arities) is tuple
    assert e == TableElement((2,), 1, 0, t)
    assert equal(e, identity((2,)))


def test_element_rejects_non_integer_data():
    t = ((Brick(((),), 1), Brick(((),), 1)),)
    for arities, bound, offset in (((2,), 1.0, 0), ((2,), 1, 0.0), ((2,), "1", 0), ((2.0,), 1, 0)):
        with pytest.raises(ValueError, match="not an integer"):
            TableElement(arities, bound, offset, t)


def test_element_rejects_non_integer_brick_indices_and_letters():
    one = Brick(((),), 1)
    with pytest.raises(ValueError, match="source brick index 1.0 is not an integer"):
        TableElement((2,), 1, 0, ((Brick(((),), 1.0), one),))
    with pytest.raises(ValueError, match="target brick index 1.0 is not an integer"):
        TableElement((2,), 1, 0, ((one, Brick(((),), 1.0)),))
    for letter in (0.0, "0", None):
        halves = ((Brick(((letter,),), 1), Brick(((0,),), 1)),
                  (Brick(((1,),), 1), Brick(((1,),), 1)))
        with pytest.raises(ValueError, match="not an integer"):
            TableElement((2,), 1, 0, halves)


def test_apply_rejects_a_non_integer_index():
    for e in (identity((2,)), gen_s(1, 1, (2,))):
        with pytest.raises(ValueError, match="not an integer"):
            e.apply(((),), 1.5)


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
        rep = verify_relations(ks, 3)
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


def test_alpha_parity_closed_form_matches_the_word():
    # C(k_d, 2) C(k_d', 2) mod 2 against the bubble-sort word's length, both orders
    for ka in range(2, 13):
        for kb in range(2, 13):
            _, parity = alpha_word(1, 1, 2, (ka, kb))
            assert alpha_parity(1, 2, (ka, kb)) == alpha_parity(2, 1, (kb, ka)) == parity
    with pytest.raises(ValueError):
        alpha_parity(1, 1, (3, 3))


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


def fixes_above(x: TableElement, r: int) -> bool:
    """True iff x fixes every point with index > r (the index-block test)."""
    if x.offset != 0:
        return False
    for s, t in x.table:
        if s.index > r and s != t:
            return False
        if s.index <= r and t.index > r:
            return False
    return True


def test_block_membership_predicate(rng):
    ar = (2, 2)
    # elements built from index-1 block moves stay in the block
    b = baker(1, 2, ar)
    assert fixes_above(b, 1)
    assert not fixes_above(gen_s(1, 1, ar), 1)
    conj = compose_all([inverse(gen_s(1, 1, ar)), gen_tau(1, ar), gen_s(1, 1, ar)])
    assert fixes_above(conj, 1)
    # closure under composition and inverse
    pool = [b, conj, inverse(b)]
    for _ in range(10):
        x, y = rng.choice(pool), rng.choice(pool)
        assert fixes_above(compose(x, y), 1)
        assert fixes_above(inverse(x), 1)


def test_permutation_element_requires_bijection():
    with pytest.raises(ValueError):
        permutation_element({1: 2, 2: 2}, (2,))


@pytest.mark.parametrize("call, message", [
    (lambda: gen_s(1, 0, (2, 3)), "coordinate out of range"),
    (lambda: tau_tilde(1, 0, (2, 3)), "coordinate out of range"),
    (lambda: tau_tilde(1, 3, (2, 3)), "coordinate out of range"),
    (lambda: alpha_element(1, 0, 1, (2, 3)), "coordinate out of range"),
    (lambda: alpha_parity(0, 1, (2, 3)), "coordinate out of range"),
    (lambda: baker(0, 1, (3, 3)), "coordinate out of range"),
    (lambda: gen_tau(0, (2, 3)), "index must be >= 1"),
    (lambda: alpha_element(0, 1, 2, (2, 3)), "index must be >= 1"),
    (lambda: TableElement((1,), 0, 0, ()), "all arities must be >= 2"),
    (lambda: character_search((1,), 3), "all arities must be >= 2"),
    (lambda: alpha_parity(1, 2, (2.5, 3)), "arity 2.5 is not an integer"),
], ids=["gen_s-d0", "tau_tilde-d0", "tau_tilde-d3", "alpha_element-d0", "alpha_parity-d0",
        "baker-d0", "gen_tau-i0", "alpha_element-i0", "element-k1", "characters-k1",
        "alpha_parity-k2.5"])
def test_one_coordinate_index_and_arity_rule(call, message):
    # a coordinate outside 1..n, an index below 1 or an arity that is not an
    # integer >= 2 raises the same ValueError from every entry point
    with pytest.raises(ValueError, match=message):
        call()
