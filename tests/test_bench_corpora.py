"""The classify benchmark workload at full size, run as a test.

The workload's set-up draws a pool of 2500 small matrices and calls
``invariants`` on each, and its checks call ``invariants`` again on every
answer, both outside the timed operation: an exception there ends a
benchmark run instead of counting as a failed operation.  The workload
buckets its pairs by unit coordinates (``Classify._same``), so a change to
unit coordinates redraws this corpus.  Seeds 36, 48, 79, 88 and 111 (of
1-160) hit the workload's own ``IndexError`` in ``Classify._same`` and are
not used here.
"""

import random
import sys
from pathlib import Path

import pytest

import groupoid_invariants
from groupoid_invariants import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from bench.run import execute  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


@pytest.mark.parametrize("seed", [1, 2])
def test_one_full_size_classify_round_passes_every_check(seed):
    wl = WORKLOADS["classify"](random.Random(seed), groupoid_invariants)
    assert not wl.smoke
    ops = wl.round()
    assert len(ops) == len(wl.ROUND)
    failures = [(op.argv, reason) for op in ops
                if (reason := wl.check(op, execute(op, groupoid_invariants, cli)))]
    assert failures == []
