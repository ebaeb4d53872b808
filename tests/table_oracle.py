"""Reference well-formedness check and composition for prefix-exchange tables.

``oracle_check(arities, bound, offset, table)`` raises what construction of
``TableElement(arities, bound, offset, table)`` raises when the table is
malformed, and returns None otherwise.  It compares every pair of bricks at
an index for overlap and sums exact rational masses, so its cost is
quadratic in the bricks per index; keep the tables small.

``oracle_compose(f, g)`` is f after g, with every entry of g matched against
every entry of f at its target index by prefix tests.

``oracle_characters(n, k, m)`` solves the reduced character system of
``tables.character_search`` by trying all m^n values of x for every
admissible t, in (t, x) order.
"""

from fractions import Fraction
from itertools import product

from groupoid_invariants.errors import BoundExceeded
from groupoid_invariants.tables import (MAX_WORD_DEPTH, Brick, CharacterAssignment,
                                        TableElement, alpha_parity)


def mass(brick, arities) -> Fraction:
    """Measure of a brick: the product of k(d)^-|w_d| over the coordinates."""
    m = Fraction(1)
    for w, k in zip(brick.words, arities):
        m /= Fraction(k) ** len(w)
    return m


def _is_prefix(a, b) -> bool:
    return len(a) <= len(b) and b[:len(a)] == a


def oracle_check(arities, bound, offset, table) -> None:
    n = len(arities)
    if any(k < 2 for k in arities):
        raise ValueError("all arities must be >= 2")
    if bound < 0 or bound + offset < 0:
        raise ValueError("bound and bound+offset must be nonnegative")
    for src, dst in table:
        for brick in (src, dst):
            if len(brick.words) != n:
                raise ValueError("brick dimension mismatch")
            for w, k in zip(brick.words, arities):
                if len(w) > MAX_WORD_DEPTH:
                    raise BoundExceeded("brick word exceeds refinement depth cap")
                if any(not 0 <= a < k for a in w):
                    raise ValueError("letter outside alphabet")
    _check_partition(arities, [s for s, _ in table], bound, "source")
    _check_partition(arities, [t for _, t in table], bound + offset, "target")


def _check_partition(arities, bricks, top, side):
    by_index = {}
    for b in bricks:
        if not 1 <= b.index <= top:
            raise ValueError(f"{side} brick index {b.index} outside 1..{top}")
        by_index.setdefault(b.index, []).append(b)
    if set(by_index) != set(range(1, top + 1)):
        raise ValueError(f"{side} bricks do not touch every index in 1..{top}")
    for j, bs in by_index.items():
        total = Fraction(0)
        for i, b in enumerate(bs):
            total += mass(b, arities)
            for c in bs[i + 1:]:
                if all(_is_prefix(x, y) or _is_prefix(y, x)
                       for x, y in zip(b.words, c.words)):
                    raise ValueError(f"overlapping {side} bricks at index {j}")
        if total != 1:
            raise ValueError(f"{side} bricks at index {j} have mass {total} != 1")


def oracle_compose(f, g) -> TableElement:
    bound = max(g.bound, f.bound - g.offset, 0)
    empty = ((),) * len(f.arities)
    lifted = list(g.table) + [(Brick(empty, j), Brick(empty, j + g.offset))
                              for j in range(g.bound + 1, bound + 1)]
    out = []
    for src, mid in lifted:
        if mid.index > f.bound:
            out.append((src, Brick(mid.words, mid.index + f.offset)))
            continue
        for fsrc, fdst in f.table:
            if fsrc.index != mid.index:
                continue
            src_tails, dst_tails = [], []
            for wm, wf in zip(mid.words, fsrc.words):
                if _is_prefix(wm, wf):
                    src_tails.append(wf[len(wm):])
                    dst_tails.append(())
                elif _is_prefix(wf, wm):
                    src_tails.append(())
                    dst_tails.append(wm[len(wf):])
                else:
                    break
            else:
                out.append((Brick(tuple(w + t for w, t in zip(src.words, src_tails)), src.index),
                            Brick(tuple(w + t for w, t in zip(fdst.words, dst_tails)), fdst.index)))
    return TableElement(f.arities, bound, f.offset + g.offset, tuple(out))


def oracle_characters(n, k, m) -> list[CharacterAssignment]:
    """Every solution in Z/m of the reduced character system, by exhaustion."""
    arities = tuple(k)
    eps = {(d, dp): alpha_parity(d, dp, arities)
           for d in range(1, n + 1) for dp in range(1, n + 1) if d != dp}
    t_candidates = [t for t in range(m)
                    if 2 * t % m == 0 and all((kd - 1) * t % m == 0 for kd in arities)]
    out = []
    for t in t_candidates:
        for xs in product(range(m), repeat=n):
            if all(((arities[d - 1] - 1) * xs[dp - 1] - (arities[dp - 1] - 1) * xs[d - 1]
                    - e * t) % m == 0 for (d, dp), e in eps.items()):
                out.append(CharacterAssignment(m, xs, t))
    return out
