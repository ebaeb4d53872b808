"""The classify benchmark workload at full size, run as a test, and the
inputs of the classify and products workloads pinned by digest.

The workload's set-up draws a pool of 2500 small matrices and calls
``invariants`` on each, and its checks call ``invariants`` again on every
answer, both outside the timed operation: an exception there ends a
benchmark run instead of counting as a failed operation.  The workload
buckets its pairs by unit coordinates (``Classify._same``), so a change to
unit coordinates redraws this corpus.  Seeds 36, 48, 79, 88 and 111 (of
1-160) hit the workload's own ``IndexError`` in ``Classify._same`` and are
not used here.  The argv of two rounds on seeds 1-3 is pinned by a digest,
so a library change that moves the unit coordinates of small presentations
fails here, not in the benchmark's set-up.  The products workload draws its
factors through ``invariants`` too, so its argv is pinned the same way.
"""

import hashlib
import json
import random
import sys
from functools import lru_cache
from pathlib import Path

import pytest

import groupoid_invariants
from groupoid_invariants import cli

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from bench.run import execute  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402


@lru_cache(maxsize=None)
def _two_rounds(seed):
    """The full-size classify workload of a seed and its first two rounds."""
    wl = WORKLOADS["classify"](random.Random(seed), groupoid_invariants)
    return wl, (wl.round(), wl.round())


@pytest.mark.parametrize("seed", [1, 2])
def test_one_full_size_classify_round_passes_every_check(seed):
    wl, (ops, _) = _two_rounds(seed)
    assert not wl.smoke
    assert len(ops) == len(wl.ROUND)
    failures = [(op.argv, reason) for op in ops
                if (reason := wl.check(op, execute(op, groupoid_invariants, cli)))]
    assert failures == []


def test_classify_corpus_is_pinned():
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        for ops in _two_rounds(seed)[1]:
            for op in ops:
                digest.update(json.dumps(op.argv).encode() + b"\n")
    assert digest.hexdigest() == \
        "0ef8a40772b7122355da8846eed888cb261f1daf9f1419a9298bf2616a47d03f"


def _argv_digest(workload, seeds, rounds):
    """The sha256 of the argv of the first rounds of a workload, per seed."""
    digest = hashlib.sha256()
    for seed in seeds:
        wl = WORKLOADS[workload](random.Random(seed), groupoid_invariants)
        for _ in range(rounds):
            for op in wl.round():
                digest.update(json.dumps(op.argv).encode() + b"\n")
    return digest.hexdigest()


def test_products_corpus_is_pinned():
    assert _argv_digest("products", (1, 2, 3), 2) == \
        "769e8f1e369e5287ac3321ab3d7b693843c3f1c7d310a15580c801606e2357d2"
