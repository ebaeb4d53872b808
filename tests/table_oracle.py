"""Reference well-formedness check for prefix-exchange tables.

``oracle_check(arities, bound, offset, table)`` raises what construction of
``TableElement(arities, bound, offset, table)`` raises when the table is
malformed, and returns None otherwise.  It compares every pair of bricks at
an index for overlap and sums exact rational masses, so its cost is
quadratic in the bricks per index; keep the tables small.
"""

from fractions import Fraction

from groupoid_invariants.errors import BoundExceeded
from groupoid_invariants.tables import MAX_WORD_DEPTH


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
