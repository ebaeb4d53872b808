"""Tests of the benchmark itself: corpus, checks, tracer and output format."""

import contextlib
import copy
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bench import run, spans
from bench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GI, CLI = run.load_library()


def _keys(ops):
    return [json.dumps([op.kind, op.argv, op.data.get("key")]) for op in ops]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_corpus_is_deterministic_and_distinct(name):
    def rounds(seed):
        wl = WORKLOADS[name](random.Random(seed), GI, smoke=True)
        return [op for _ in range(4) for op in wl.round()] + wl.gap_ops()

    a, b = _keys(rounds(7)), _keys(rounds(7))
    assert a == b
    assert len(set(a)) == len(a)
    assert a != _keys(rounds(8))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_checks_accept_answers_and_reject_altered_ones(name):
    wl = WORKLOADS[name](random.Random(3), GI, smoke=True)
    for op in wl.round():
        res = run.execute(op, GI, CLI)
        assert wl.check(op, res) is None, op.kind
        bad = copy.deepcopy(res)
        if op.call is not None:
            bad.answer = (not res.answer[0],) + tuple(res.answer[1:])
        elif bad.code == 0 and op.kind in ("invariants", "abelianization", "k-groups"):
            group = bad.answer.get("abelianization") or bad.answer.get("k0") \
                or bad.answer["factors"][0]["bf"]
            group["free_rank"] += 1
        else:
            bad.code = 3 - res.code if res.code in (0, 1) else 0
        assert wl.check(op, bad) is not None, op.kind
        crash = run.Outcome("exception", None, None, 0.0, "ValueError")
        assert wl.check(op, crash) is not None


def _bindings():
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname.startswith(spans.PACKAGE):
            out[modname] = dict(vars(mod))
    for _, attr in spans.TARGETS.values():
        if "." in attr:
            cls_name, _ = attr.split(".")
            for mod in sys.modules.values():
                cls = getattr(mod, cls_name, None)
                if isinstance(cls, type) and cls.__module__.startswith(spans.PACKAGE):
                    out[cls.__qualname__] = dict(vars(cls))
    return out


def test_tracer_patches_every_binding_and_restores_them():
    before = _bindings()
    original_tensor = GI.fggroup.tensor
    with pytest.raises(RuntimeError):
        with spans.Tracer() as tracer:
            assert GI.homology.tensor is not original_tensor
            assert GI.tensor is not original_tensor
            GI.homology.product_homology([GI.validate([[3]]), GI.validate([[5]])])
            raise RuntimeError("leave the context by an exception")
    assert _bindings() == before
    st = tracer.stats
    assert st["homology.product_homology"].calls == 1
    assert st["fggroup.tensor"].calls >= 1
    assert st["homology.product_homology"].self_s <= 1.0


def _result(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_run_reports_every_metric_with_its_unit(name):
    base = ["--workload", name, "--seed", "1", "--seconds", "0", "--smoke"]
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        res = _result(base + ["--trace", trace])
        assert set(res) == {"correct", "attempted", "failed", "metrics"}
        assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {k: v["unit"] for k, v in res["metrics"].items()} == want
        assert all(isinstance(v["value"], (int, float)) for v in res["metrics"].values())


def test_spec_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == spans.PER_LAYER
    assert SPEC["command"] == ["python3", "bench/run.py"] and SPEC["paths"] == ["bench"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "tables", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
