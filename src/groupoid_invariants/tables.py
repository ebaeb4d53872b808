"""Prefix-exchange tables: concrete elements of the groups W_{n,k}.

The underlying space is Z x N where Z is a product of n full shifts, the
d-th over the alphabet {0, ..., k(d)-1}.  An element is stored as a finite
table of (source brick, target brick) pairs together with an eventual index
translation: a brick is a product of cylinder sets (one finite word per
coordinate) at a single index, a point (w.y, j) inside a source brick maps to
the matching target brick with the same tails y appended, and points with
index beyond the bound translate by the offset.

Every generator of W_{n,k} has this shape and the shape is closed under
composition and inverse, so equality of group words is decidable with finite
data.  Well-formedness (source and target bricks each partition their index
range) is enforced on construction: per index, an overlap search over the
bricks sorted by their words, coordinate by coordinate, and an integer mass
sum over a common refinement depth.  ``inverse`` alone skips the check: its
table is f's with sides swapped, which meets exactly the predicates f met.
``compose`` output is checked, and that check is an independent test of
``compose``.

``compose(f, g)`` matches each entry (src, mid) of g against f's entries at
mid's index.  Two cases need no prefix tests: when mid's words are all
empty, every f entry (fsrc, fdst) there gives (src + fsrc's words, fdst);
when f has a single source brick of empty words there, mid's words are
appended to its target.  Other indices test every pair of entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain, permutations, product as iproduct
from math import gcd, prod
from operator import add, itemgetter, sub
from typing import NamedTuple

from .errors import BoundExceeded, IncompatibleParameters, InternalError, ParseError
from .intmatrix import IntMatrix, smith_normal_form

MAX_WORD_DEPTH = 64


class Brick(NamedTuple):
    """Product cylinder at one index: one finite word per coordinate."""

    words: tuple[tuple[int, ...], ...]
    index: int

    def extend(self, tails) -> "Brick":
        return Brick(tuple(map(add, self.words, tails)), self.index)


def _is_prefix(a, b) -> bool:
    return len(a) <= len(b) and b[:len(a)] == a


def _empty_words(n):
    return ((),) * n


def _overlap(group, d) -> bool:
    """True iff two of the word tuples in group, which agree in every
    coordinate before d, are prefix-comparable in every coordinate from d on.

    Sorted on coordinate d, the words extending a word u follow the copies of
    u in one run, so each u is compared in the later coordinates with its
    copies and with that run only.
    """
    if d == len(group[0]):
        return True
    group = sorted(group, key=itemgetter(d))
    ws = [b[d] for b in group]
    i, m = 0, len(ws)
    while i < m:
        u = ws[i]
        j = i + 1
        while j < m and ws[j] == u:
            j += 1
        if j == m:
            return j - i > 1 and _overlap(group[i:], d + 1)
        if ws[j][:len(u)] == u:
            k = j + 1
            while k < m and ws[k][:len(u)] == u:
                k += 1
            if _cross(group[i:j], group[j:k], d + 1):
                return True
        if j - i > 1 and _overlap(group[i:j], d + 1):
            return True
        i = j
    return False


def _cross(reds, blues, d) -> bool:
    """True iff some word tuple in reds and some in blues are prefix-comparable
    in every coordinate from d on; the same run argument as ``_overlap``."""
    if d == len(reds[0]):
        return True
    items = sorted([(r[d], 0, r) for r in reds] + [(b[d], 1, b) for b in blues],
                   key=itemgetter(0))
    i, m = 0, len(items)
    while i < m:
        u = items[i][0]
        j = i + 1
        while j < m and items[j][0] == u:
            j += 1
        k = j
        while k < m and items[k][0][:len(u)] == u:
            k += 1
        # (reds, blues) with word u, and with a word that extends u
        here, below = ([], []), ([], [])
        for t in range(i, k):
            _, colour, words = items[t]
            (here if t < j else below)[colour].append(words)
        if here[0] and (here[1] or below[1]) and _cross(here[0], here[1] + below[1], d + 1):
            return True
        if here[1] and below[0] and _cross(below[0], here[1], d + 1):
            return True
        i = j
    return False


@dataclass(frozen=True)
class TableElement:
    """A homeomorphism of Z x N given by a brick table plus index translation."""

    arities: tuple[int, ...]
    bound: int
    offset: int
    table: tuple[tuple[Brick, Brick], ...]

    def __post_init__(self):
        n = len(self.arities)
        if any(k < 2 for k in self.arities):
            raise ValueError("all arities must be >= 2")
        if self.bound < 0 or self.bound + self.offset < 0:
            raise ValueError("bound and bound+offset must be nonnegative")
        empty = _empty_words(n)
        for brick in chain.from_iterable(self.table):
            words = brick.words
            if words == empty:
                continue
            if len(words) != n:
                raise ValueError("brick dimension mismatch")
            for w, k in zip(words, self.arities):
                if w:
                    if len(w) > MAX_WORD_DEPTH:
                        raise BoundExceeded("brick word exceeds refinement depth cap")
                    if min(w) < 0 or max(w) >= k:
                        raise ValueError("letter outside alphabet")
        self._check_partition([s for s, _ in self.table], self.bound, "source")
        self._check_partition([t for _, t in self.table], self.bound + self.offset, "target")

    @classmethod
    def _unchecked(cls, arities, bound, offset, table) -> "TableElement":
        """Build without ``__post_init__``; only for data that met every
        predicate of the check in another element (see ``inverse``)."""
        self = object.__new__(cls)
        for name, value in (("arities", arities), ("bound", bound),
                            ("offset", offset), ("table", table)):
            object.__setattr__(self, name, value)
        return self

    def _check_partition(self, bricks, top, side):
        """Raise ValueError unless the bricks partition Z x {1, ..., top}.

        Per index j, with L_d the deepest word of coordinate d among the
        bricks at j, a brick of words w has measure prod_d k_d^(L_d - |w_d|)
        in units of prod_d k_d^-L_d, so the masses are summed as integers
        and compared with prod_d k_d^L_d.  Two bricks meet iff their words
        are prefix-comparable in every coordinate, which ``_overlap``
        decides.  A partition is pairwise disjoint with mass 1.  Conversely,
        pairwise disjoint bricks of mass 1 partition Z: their union is a
        finite union of clopen cylinders of full measure, so its complement
        is clopen of measure zero, hence empty.
        """
        by_index: dict[int, list] = {}
        for b in bricks:
            if not 1 <= b.index <= top:
                raise ValueError(f"{side} brick index {b.index} outside 1..{top}")
            by_index.setdefault(b.index, []).append(b.words)
        if len(by_index) != top:
            raise ValueError(f"{side} bricks do not touch every index in 1..{top}")
        arities = self.arities
        empty = _empty_words(len(arities))
        for j, group in by_index.items():
            if len(group) == 1 and group[0] == empty:
                continue
            if _overlap(group, 0):
                raise ValueError(f"overlapping {side} bricks at index {j}")
            depths = [max(map(len, ws)) for ws in zip(*group)]   # per coordinate
            total = 0
            for ws in group:
                total += prod(map(pow, arities, map(sub, depths, map(len, ws))))
            whole = prod(map(pow, arities, depths))
            if total != whole:
                raise ValueError(f"{side} bricks at index {j} have mass "
                                 f"{Fraction(total, whole)} != 1")

    @property
    def dimension(self) -> int:
        return len(self.arities)

    def apply(self, words, index: int):
        """Image of the point (words..., index); words must be long enough to
        select a unique source brick.  ValueError for a wrong number of
        coordinates, an index below 1 or a letter outside its alphabet."""
        words = tuple(tuple(w) for w in words)
        if len(words) != self.dimension:
            raise ValueError(f"point has {len(words)} coordinates, not {self.dimension}")
        if index < 1:
            raise ValueError(f"point index {index} is below 1")
        for w, k in zip(words, self.arities):
            if w and (min(w) < 0 or max(w) >= k):
                raise ValueError("point letter outside alphabet")
        if index > self.bound:
            return words, index + self.offset
        for src, dst in self.table:
            if src.index == index and all(_is_prefix(sw, w) for sw, w in zip(src.words, words)):
                out = dst.extend(w[len(sw):] for sw, w in zip(src.words, words))
                return out.words, out.index
        raise ValueError("point words too short to select a source brick")

    def is_identity(self) -> bool:
        return self.offset == 0 and all(s == t for s, t in self.table)

    def fixes_above(self, r: int) -> bool:
        """True iff every point with index > r is fixed (the index-block test)."""
        if self.offset != 0:
            return False
        for s, t in self.table:
            if s.index > r and s != t:
                return False
            if s.index <= r and t.index > r:
                return False
        return True


def identity(arities) -> TableElement:
    return TableElement(tuple(arities), 0, 0, ())


def _lifted_entries(e: TableElement, new_bound: int):
    ents = list(e.table)
    empty = _empty_words(e.dimension)
    for j in range(e.bound + 1, new_bound + 1):
        ents.append((Brick(empty, j), Brick(empty, j + e.offset)))
    return ents


def compose(f: TableElement, g: TableElement) -> TableElement:
    """f after g."""
    if f.arities != g.arities:
        raise IncompatibleParameters("arity data mismatch")
    bound = max(g.bound, f.bound - g.offset, 0)
    out = []
    empty = _empty_words(f.dimension)
    f_by_index: dict[int, list[tuple[Brick, Brick]]] = {}
    for ent in f.table:
        f_by_index.setdefault(ent[0].index, []).append(ent)
    # f's target for indices that hold one source brick of empty words
    lone = {j: ents[0][1] for j, ents in f_by_index.items()
            if len(ents) == 1 and ents[0][0].words == empty}
    for src, mid in _lifted_entries(g, bound):
        j = mid.index
        if j > f.bound:
            out.append((src, Brick(mid.words, j + f.offset)))
        elif mid.words == empty:
            # every f entry at j lies inside mid: prefix its words to src
            out.extend((src.extend(fsrc.words), fdst) for fsrc, fdst in f_by_index[j])
        elif j in lone:
            # mid lies inside f's only entry at j: append its words to f's target
            fdst = lone[j]
            out.append((src, Brick(tuple(map(add, fdst.words, mid.words)), fdst.index)))
        else:
            for fsrc, fdst in f_by_index[j]:
                src_tails, dst_tails = [], []
                for wm, wf in zip(mid.words, fsrc.words):
                    # b[:len(a)] == a iff a is a prefix of b
                    if wf[:len(wm)] == wm:
                        src_tails.append(wf[len(wm):])
                        dst_tails.append(())
                    elif wm[:len(wf)] == wf:
                        src_tails.append(())
                        dst_tails.append(wm[len(wf):])
                    else:
                        break
                else:
                    out.append((src.extend(src_tails), fdst.extend(dst_tails)))
    return TableElement(f.arities, bound, f.offset + g.offset, tuple(out))


def inverse(f: TableElement) -> TableElement:
    """The inverse table: sources and targets swapped.  It is not checked
    again: its sources are f's targets under the top bound + offset, its
    targets are f's sources under the top bound, and its bricks, letters and
    depths are f's, so it meets exactly the predicates f met."""
    return TableElement._unchecked(f.arities, f.bound + f.offset, -f.offset,
                                   tuple((t, s) for s, t in f.table))


def equal(f: TableElement, g: TableElement) -> bool:
    """True iff f and g define the same homeomorphism."""
    if f.arities != g.arities:
        raise IncompatibleParameters("arity data mismatch")
    if f.offset != g.offset:
        return False
    return compose(f, inverse(g)).is_identity()


def compose_all(elems) -> TableElement:
    """Product of a group word, rightmost factor acting first."""
    elems = list(elems)
    if not elems:
        raise ValueError("empty word")
    acc = elems[-1]
    for e in reversed(elems[:-1]):
        acc = compose(e, acc)
    return acc


def gen_s(i: int, d: int, arities) -> TableElement:
    """The splitting generator of coordinate d at index i.

    Identity below i; at index i it consumes the first letter a of coordinate
    d and moves the point to index i+a; above i it translates by k(d)-1.
    """
    arities = tuple(arities)
    n = len(arities)
    if not 1 <= d <= n:
        raise ValueError("coordinate out of range")
    if i < 1:
        raise ValueError("index must be >= 1")
    k = arities[d - 1]
    empty = _empty_words(n)
    ents = [(Brick(empty, j), Brick(empty, j)) for j in range(1, i)]
    for a in range(k):
        words = tuple((a,) if c == d - 1 else () for c in range(n))
        ents.append((Brick(words, i), Brick(empty, i + a)))
    return TableElement(arities, i, k - 1, tuple(ents))


def gen_tau(i: int, arities) -> TableElement:
    """The transposition of indices i and i+1."""
    arities = tuple(arities)
    if i < 1:
        raise ValueError("index must be >= 1")
    empty = _empty_words(len(arities))
    ents = [(Brick(empty, j), Brick(empty, j)) for j in range(1, i)]
    ents.append((Brick(empty, i), Brick(empty, i + 1)))
    ents.append((Brick(empty, i + 1), Brick(empty, i)))
    return TableElement(arities, i + 1, 0, tuple(ents))


def tau_tilde(i: int, d: int, arities) -> TableElement:
    """tau_{i+k(d)-1} ... tau_{i+1} tau_i, the cycle moving index i past the
    block it was split into."""
    arities = tuple(arities)
    return _tau_tilde(i, arities[d - 1], lambda j: gen_tau(j, arities))


def _tau_tilde(i: int, k: int, tau) -> TableElement:
    # tau_tilde over k = k(d), from the transpositions tau(j)
    return compose_all([tau(i + j) for j in range(k - 1, -1, -1)])


def _grid_permutation(i: int, d: int, d_prime: int, arities) -> dict[int, int]:
    kd = arities[d - 1]
    kdp = arities[d_prime - 1]
    perm = {}
    for p in range(kdp):
        for q in range(kd):
            perm[i + p * kd + q] = i + q * kdp + p
    return perm


def permutation_element(perm: dict[int, int], arities) -> TableElement:
    """Finite-support index permutation as a table element."""
    arities = tuple(arities)
    empty = _empty_words(len(arities))
    top = max(perm, default=0)
    ents = []
    for j in range(1, top + 1):
        ents.append((Brick(empty, j), Brick(empty, perm.get(j, j))))
    return TableElement(arities, top, 0, tuple(ents))


def alpha_element(i: int, d: int, d_prime: int, arities) -> TableElement:
    """The grid-transpose permutation element used in the mixed relation."""
    if d == d_prime:
        raise ValueError("need two distinct coordinates")
    arities = tuple(arities)
    return permutation_element(_grid_permutation(i, d, d_prime, arities), arities)


def alpha_word(i: int, d: int, d_prime: int, arities):
    """A word of transpositions realizing the grid permutation, plus its parity.

    Returns (indices, parity) where indices lists j's of the transpositions
    (j j+1), applied right to left, and parity is len(indices) mod 2.
    """
    if d == d_prime:
        raise ValueError("need two distinct coordinates")
    arities = tuple(arities)
    perm = _grid_permutation(i, d, d_prime, arities)
    block = sorted(perm)
    # bubble-sort the one-line form; recorded adjacent swaps compose, applied
    # right to left, to the permutation itself
    arr = [perm[x] for x in block]
    word: list[int] = []
    changed = True
    while changed:
        changed = False
        for t in range(len(arr) - 1):
            if arr[t] > arr[t + 1]:
                arr[t], arr[t + 1] = arr[t + 1], arr[t]
                word.append(block[0] + t)
                changed = True
    word.reverse()
    # sanity: the recorded word really induces the permutation
    if _word_permutation(word, block) != perm:
        raise InternalError("transposition word does not realize the permutation")
    return tuple(word), len(word) % 2


def _word_permutation(word, domain) -> dict[int, int]:
    """Permutation induced by a transposition word, rightmost applied first."""
    out = {}
    for x in domain:
        y = x
        for j in reversed(word):
            if y == j:
                y = j + 1
            elif y == j + 1:
                y = j
        out[x] = y
    return out


def alpha_parity(d: int, d_prime: int, arities) -> int:
    return alpha_word(1, d, d_prime, arities)[1]


def baker(d: int, d_prime: int, arities, block: int = 1) -> TableElement:
    """Move the first letter of coordinate d_prime onto the front of
    coordinate d, on the given index block; identity elsewhere."""
    arities = tuple(arities)
    n = len(arities)
    if d == d_prime:
        raise ParseError("need two distinct coordinates")
    if arities[d - 1] != arities[d_prime - 1]:
        raise ParseError("coordinates must have equal arities")
    empty = _empty_words(n)
    ents = [(Brick(empty, j), Brick(empty, j)) for j in range(1, block)]
    for a in range(arities[d_prime - 1]):
        src = tuple((a,) if c == d_prime - 1 else () for c in range(n))
        dst = tuple((a,) if c == d - 1 else () for c in range(n))
        ents.append((Brick(src, block), Brick(dst, block)))
    return TableElement(arities, block, 0, tuple(ents))


@dataclass
class RelationReport:
    checked: int
    failures: list[str]

    @property
    def all_passed(self) -> bool:
        return not self.failures


def verify_relations(n: int, k, index_bound: int) -> RelationReport:
    """Instantiate every defining relation family up to the index bound and
    check both sides agree as table elements."""
    if index_bound < 2:
        raise ParseError("index_bound must be >= 2")
    arities = tuple(k)
    if len(arities) != n:
        raise ParseError("arity list length must equal n")
    checked = 0
    failures: list[str] = []

    def expect(name, inst, lhs, rhs):
        nonlocal checked
        checked += 1
        if not equal(lhs, rhs):
            failures.append(f"{name}{inst}")

    # each generator is built, and checked, once per call
    s = cache(lambda i, d: gen_s(i, d, arities))
    tau = cache(lambda i: gen_tau(i, arities))
    dims = range(1, n + 1)
    for d in dims:
        kd = arities[d - 1]
        for dp in dims:
            for i in range(1, index_bound + 1):
                for j in range(i + 1, index_bound + 1):
                    expect("commute_s", (i, j, d, dp),
                           compose(s(i, d), s(j, dp)),
                           compose(s(j + kd - 1, dp), s(i, d)))
    for i in range(1, index_bound + 1):
        ti = tau(i)
        expect("tau_involution", (i,), compose(ti, ti), identity(arities))
        expect("tau_braid", (i,),
               compose_all([ti, tau(i + 1), ti]),
               compose_all([tau(i + 1), ti, tau(i + 1)]))
        for j in range(1, index_bound + 1):
            if abs(i - j) >= 2:
                expect("tau_commute", (i, j),
                       compose(ti, tau(j)),
                       compose(tau(j), ti))
    for d in dims:
        kd = arities[d - 1]
        for i in range(1, index_bound + 1):
            expect("split_shift", (i, d),
                   compose(s(i, d), tau(i)),
                   compose(_tau_tilde(i, kd, tau), s(i + 1, d)))
            for j in range(1, index_bound + 1):
                if i < j:
                    expect("s_tau_above", (i, j, d),
                           compose(s(i, d), tau(j)),
                           compose(tau(j + kd - 1), s(i, d)))
                elif i > j + 1:
                    expect("s_tau_below", (i, j, d),
                           compose(s(i, d), tau(j)),
                           compose(tau(j), s(i, d)))
    for d in dims:
        for dp in dims:
            if d == dp:
                continue
            kd, kdp = arities[d - 1], arities[dp - 1]
            for i in range(1, index_bound + 1):
                lhs = compose_all([s(i + t, dp) for t in range(kd)] + [s(i, d)])
                rhs = compose_all([alpha_element(i, d, dp, arities)]
                                  + [s(i + t, d) for t in range(kdp)]
                                  + [s(i, dp)])
                expect("grid", (i, d, dp), lhs, rhs)
    return RelationReport(checked, failures)


@dataclass(frozen=True)
class CharacterAssignment:
    """Values in Z/m for all splitting generators (per coordinate) and all
    transpositions, annihilating every relation."""

    target_order: int
    x: tuple[int, ...]
    t: int

    def generates_target(self) -> bool:
        """True iff the values on the index-block probes (differences of
        splitting generators and conjugated transpositions) generate Z/m."""
        return gcd(self.target_order, self.t, *(a - self.x[0] for a in self.x)) == 1


def character_search(n: int, k, target_order: int) -> list[CharacterAssignment]:
    """All Z/m characters of the generator-relation system, sorted by (t, x).

    The relations reduce, using one unknown per coordinate plus one shared
    transposition value (index independence is forced once 2t = 0 holds), to
      2t = 0,  (k(d)-1) t = 0,
      (k(d)-1) x_{d'} - (k(d')-1) x_d = parity(alpha_{d,d'}) t   for d != d',
    a system R y = 0 over Z/m in y = (x, t).  With u R v = S in Smith normal
    form, u and v are invertible over Z and so modulo m, hence R y = 0 iff
    S z = 0 for z = v^-1 y, that is iff each z_i is a multiple of
    m / gcd(s_i, m) (s_i = 0 past the rank).  So the solutions are y = v z mod m
    over those z, each exactly once.
    """
    if target_order < 2:
        raise ParseError("target_order must be >= 2")
    arities = tuple(k)
    if len(arities) != n:
        raise ParseError("arity list length must equal n")
    m = target_order
    rows = [[0] * n + [2]] + [[0] * n + [kd - 1] for kd in arities]
    for d, dp in permutations(range(n), 2):
        row = [0] * (n + 1)
        row[dp], row[d] = arities[d] - 1, 1 - arities[dp]
        row[n] = -alpha_parity(d + 1, dp + 1, arities)
        rows.append(row)
    # n^2 + 1 >= n + 1 rows, so the diagonal has an entry per unknown
    snf = smith_normal_form(IntMatrix.from_rows(rows))
    sols = (tuple(c % m for c in snf.v.apply(z))
            for z in iproduct(*(range(0, m, m // gcd(s, m)) for s in snf.diagonal())))
    return [CharacterAssignment(m, y[:n], y[n])
            for y in sorted(sols, key=lambda y: (y[n], y[:n]))]
