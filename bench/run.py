"""Benchmark of the `gi` command and the groupoid_invariants library.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dense-bf --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each operation starts when the
previous one has returned.  Operations go through ``cli.main(argv)``
in-process with JSON output captured (the tables word operations call the
library directly).  Only the operation itself is timed; answer checks and
input generation run between operations.

With ``--trace 0`` the run measures rounds of operations for ``--seconds``
seconds of operation time and reports the end-to-end metrics.  With
``--trace 1`` it runs the first round and the workload's known-gap probes
twice, untraced and then under ``spans.Tracer``, and reports the per-layer
metrics.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from bench.spans import Tracer  # noqa: E402
from bench.workloads import MAX_ROUNDS, WORKLOADS, Op, Outcome  # noqa: E402

SETUP_SAMPLES = 5        # set-ups per run; setup_s is their median
WALL_FACTOR = 4          # stop early when checks make a run this many times longer
EXIT_BOUND = 3


def load_library():
    """Import groupoid_invariants from this checkout's src/ and nowhere else."""
    if not (SRC / "groupoid_invariants" / "__init__.py").is_file():
        raise SystemExit(f"error: no library source under {SRC}")
    sys.path.insert(0, str(SRC))
    gi = importlib.import_module("groupoid_invariants")
    if Path(gi.__file__).resolve().parent != SRC / "groupoid_invariants":
        raise SystemExit(f"error: imported {gi.__file__}, not the checkout's library")
    cli = importlib.import_module("groupoid_invariants.cli")
    return gi, cli


def set_up(workload: str, seed: int, smoke: bool = False):
    """Import the library and build the first round of inputs: the set-up a
    user of the workload pays before the first operation."""
    t0 = perf_counter()
    gi, cli = load_library()
    wl = WORKLOADS[workload](random.Random(seed), gi, smoke)
    first = wl.round()
    return perf_counter() - t0, gi, cli, wl, first


def execute(op: Op, gi, cli) -> Outcome:
    out = io.StringIO()
    code, answer, status, error = None, None, "ok", ""
    t0 = perf_counter()
    try:
        if op.call is not None:
            answer = op.call()
        else:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(["--format", "json", *op.argv])
    except gi.BoundExceeded as exc:
        status, error = "bound", str(exc)
    except (Exception, SystemExit) as exc:  # a crash is a failed operation
        status, error = "exception", "".join(traceback.format_exception_only(exc)).strip()
    seconds = perf_counter() - t0
    if status == "ok" and op.call is None:
        if code == EXIT_BOUND:
            status = "bound"
        else:
            text = out.getvalue()
            try:
                answer = json.loads(text) if text else None
            except json.JSONDecodeError:
                status, error = "exception", "output is not JSON"
    return Outcome(status, code, answer, seconds, error)


def percentile(values, pct):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def measure_setup(args, first_sample):
    """Median of set-up times: this process's own plus fresh interpreters."""
    samples = [first_sample]
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)]
            + (["--smoke"] if args.smoke else []),
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        samples.append(float(proc.stdout.split()[-1]))
    return statistics.median(samples)


def run_timed(wl, gi, cli, first, seconds, log):
    """Whole rounds until `seconds` of operation time; returns latencies and failures."""
    latencies, failed = [], 0
    ops, busy, wall0 = first, 0.0, perf_counter()
    for rounds in range(1, MAX_ROUNDS + 1):
        for op in ops:
            res = execute(op, gi, cli)
            latencies.append(res.seconds)
            busy += res.seconds
            if (reason := wl.check(op, res)) is not None:
                failed += 1
                log(f"FAILED {op.kind}: {reason}")
        if busy >= seconds or perf_counter() - wall0 > WALL_FACTOR * max(seconds, 1) \
                or rounds == MAX_ROUNDS:
            break
        ops = wl.round()
    return latencies, failed, busy


def end_to_end(args, log):
    setup_first, gi, cli, wl, first = set_up(args.workload, args.seed, args.smoke)
    setup_s = measure_setup(args, setup_first)
    latencies, failed, busy = run_timed(wl, gi, cli, first, args.seconds, log)
    n = len(latencies)
    pct = wl.tail_percentile
    beyond = sum(1 for x in latencies if x > percentile(latencies, pct))
    log(f"{wl.name}: {n} operations, {failed} failed (error_rate {failed / n:.4f}); "
        f"latency_tail_ms is p{pct} with {beyond} samples beyond it")
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((n - failed) / busy, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_tail_ms": (percentile(latencies, pct) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return n, failed, failed == 0, metrics


def traced(args, log):
    _, gi, cli, wl, ops = set_up(args.workload, args.seed, args.smoke)
    gaps = wl.gap_ops()
    batch = ops + gaps
    # each operation runs untraced and traced back to back, in alternating
    # order, so that warm-up and drift do not bias the overhead ratio
    tracer, plain, under = Tracer(), [], []
    for i, op in enumerate(batch):
        for traced_now in ((False, True) if i % 2 == 0 else (True, False)):
            if traced_now:
                with tracer:
                    under.append(execute(op, gi, cli))
            else:
                plain.append(execute(op, gi, cli))
    same = all((a.status, a.code, a.answer) == (b.status, b.code, b.answer)
               for a, b in zip(plain, under))
    if not same:
        log("FAILED traced answers differ from untraced answers")
    failed = 0
    for op, res in zip(ops, plain):
        if (reason := wl.check(op, res)) is not None:
            failed += 1
            log(f"FAILED {op.kind}: {reason}")
    gaps_failed = sum(1 for op, res in zip(gaps, plain[len(ops):]) if wl.check(op, res))
    log(f"{wl.name} traced: {len(ops)} operations, {failed} failed; "
        f"known-gap probes {gaps_failed}/{len(gaps)} failed")
    overhead = sum(r.seconds for r in under) / sum(r.seconds for r in plain)
    bound = sum(1 for r in under if r.status == "bound")
    metrics = tracer.metrics(len(batch), overhead, bound, len(gaps), gaps_failed)
    return len(ops), failed, failed == 0 and same, metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="minimum-size inputs (tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        print(set_up(args.workload, args.seed, args.smoke)[0])
        return 0

    run = traced if args.trace else end_to_end
    attempted, failed, correct, metrics = run(args, functools.partial(print, flush=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
