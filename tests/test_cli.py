import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import WALL_MATRIX, WALL_PERMS, relabel
from groupoid_invariants import cli, errors, tables
from groupoid_invariants.cli import main
from groupoid_invariants.intmatrix import _inverse_mod
from groupoid_invariants.sft import invariants, validate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_and_errors(capsys, tmp_path):
    code, out, _ = run(capsys, "validate", '{"factors": [[[2]]]}')
    assert code == 0 and "valid" in out
    code, _, err = run(capsys, "validate", '{"factors": [[[0,1],[1,0]]]}')
    assert code == 2 and "permutation" in err
    code, _, err = run(capsys, "validate", '{"factors": []}')
    assert code == 2
    code, _, err = run(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 2
    doc = tmp_path / "in.json"
    doc.write_text('{"factors": [[[3]], [[3]], [[3]]]}')
    code, out, _ = run(capsys, "validate", str(doc))
    assert code == 0 and out.count("valid") == 3


def test_invariants_json_round_trip(capsys):
    code, out1, _ = run(capsys, "--format", "json", "invariants",
                        '{"factors": [[[3]], [[2,1],[1,2]]]}')
    assert code == 0
    doc = json.loads(out1)
    assert doc["factors"][0]["bf"]["torsion"] == [2]
    assert doc["factors"][1]["bf"]["free_rank"] == 1
    code, out2, _ = run(capsys, "--format", "json", "invariants",
                        '{"factors": [[[3]], [[2,1],[1,2]]]}')
    assert out1 == out2  # deterministic, field-stable


def test_text_and_json_agree(capsys):
    src = '{"factors": [[[0,3],[1,0]], [[3]]]}'
    code, text_out, _ = run(capsys, "abelianization", src)
    code2, json_out, _ = run(capsys, "--format", "json", "abelianization", src)
    assert code == code2 == 0
    doc = json.loads(json_out)
    assert doc["abelianization"]["str"] == text_out.strip() == "Z/4"


def test_homology_and_k_groups(capsys):
    src = '{"factors": [[[3]], [[3]]]}'
    code, out, _ = run(capsys, "--format", "json", "homology", src)
    assert code == 0
    doc = json.loads(out)
    assert doc["degrees"]["0"]["str"] == "Z/2"
    assert doc["degrees"]["1"]["str"] == "Z/2"
    code, out, _ = run(capsys, "--format", "json", "k-groups", src)
    doc = json.loads(out)
    assert doc["k0"]["str"] == "Z/2" and doc["k1"]["str"] == "Z/2"


def test_hk_check_exit_zero(capsys):
    code, out, _ = run(capsys, "hk-check", '{"factors": [[[3]], [[3]], [[5]]]}')
    assert code == 0 and out.startswith("true")


def test_classify(capsys):
    code, out, _ = run(capsys, "classify", '{"factors": [[[2]]]}',
                       '{"factors": [[[0,2],[1,0]]]}')
    assert code == 0 and "identity witness" in out
    code, out, _ = run(capsys, "classify", '{"factors": [[[2]]]}',
                       '{"factors": [[[3]]]}')
    assert code == 1 and "not isomorphic" in out


def test_classify_relabelled_24_vertex_matrix(capsys):
    # a dense 24-vertex matrix has a Bowen-Franks group of order far beyond
    # any search; the single-factor orbit decision needs no bound
    rng = random.Random(24)
    n = 24
    a = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
    perm = rng.sample(range(n), n)
    b = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            b[perm[i]][perm[j]] = a[i][j]
    assert invariants(validate(a)).bf.order() > 10 ** 10
    code, out, _ = run(capsys, "--format", "json", "classify",
                       json.dumps({"factors": [a]}), json.dumps({"factors": [b]}))
    doc = json.loads(out)
    assert code == 0 and doc["isomorphic"] and doc["witness"]["sigma"] == [0]


def test_classify_past_the_automorphism_tuple_wall(capsys):
    # |Aut(BF)| = 6720 per factor: a search over automorphism tuples exits 3
    p, q = WALL_PERMS
    doc_a = json.dumps({"factors": [WALL_MATRIX, relabel(WALL_MATRIX, q)]})
    doc_b = json.dumps({"factors": [relabel(WALL_MATRIX, p), WALL_MATRIX]})
    code, out, _ = run(capsys, "--format", "json", "classify", doc_a, doc_b)
    doc = json.loads(out)
    assert code == 0 and doc["isomorphic"]
    assert not doc["witness"]["identity"] and len(doc["witness"]["homs"]) == 2


# units (1, 2) (x) u against (1, 0) (x) u in (Z/2 + Z/4) (x) Z/4, u a
# generator: the layered search evaluates |Orb((1, 2))| * |Orb(u)| = 4
# tensor products, and with a third factor Z/4 |S_2| * |Orb(u)| = 4 more
TINY_A = '{"factors": [[[0,1,0],[1,0,2],[1,3,3]], [[5]]]}'
TINY_B = '{"factors": [[[3,3,1],[0,3,2],[2,2,3]], [[5]]]}'
TINY3_A = '{"factors": [[[0,1,0],[1,0,2],[1,3,3]], [[5]], [[5]]]}'
TINY3_B = '{"factors": [[[3,3,1],[0,3,2],[2,2,3]], [[5]], [[5]]]}'


def test_tiny_aut_bound_exits_bound_with_the_work_reached(capsys):
    for a, b, work, k in ((TINY_A, TINY_B, 4, 2), (TINY3_A, TINY3_B, 8, 3)):
        assert run(capsys, "--aut-bound", str(work), "classify", a, b)[0] == 0
        code, out, err = run(capsys, "--aut-bound", str(work - 1), "classify", a, b)
        assert code == 3 and out == ""
        assert f"needs {work} tensor products by factor {k}," in err
        assert f"bound {work - 1}" in err


def test_negative_aut_bound_is_an_input_error(capsys, monkeypatch):
    code, out, err = run(capsys, "--aut-bound", "-5", "classify", TINY_A, TINY_B)
    assert code == 2 and out == "" and "--aut-bound" in err and "-5" in err
    monkeypatch.setenv("GI_AUT_BOUND", "-1")
    code, _, err = run(capsys, "classify", TINY_A, TINY_B)
    assert code == 2 and "GI_AUT_BOUND" in err
    monkeypatch.delenv("GI_AUT_BOUND")
    # 0 is a bound: the search stops before its first tensor product
    code, _, err = run(capsys, "--aut-bound", "0", "classify", TINY_A, TINY_B)
    assert code == 3 and "bound 0" in err


def test_morita(capsys):
    code, out, _ = run(capsys, "morita", '{"factors": [[[0,3],[1,0]]]}',
                       '{"factors": [[[3]]]}')
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "morita", '{"factors": [[[2]]]}',
                       '{"factors": [[[3]]]}')
    assert code == 1
    code, _, err = run(capsys, "morita", '{"factors": [[[2]], [[2]]]}',
                       '{"factors": [[[3]]]}')
    assert code == 2


def test_strong_ah(capsys):
    code, out, _ = run(capsys, "strong-ah", '{"factors": [[[3]], [[3]], [[3]]]}')
    assert code == 1 and out.strip() == "false"
    code, out, _ = run(capsys, "strong-ah", '{"factors": [[[4]], [[4]], [[4]]]}')
    assert code == 0


def test_relations_check(capsys):
    code, out, _ = run(capsys, "--index-bound", "3", "relations-check",
                       "--arities", "2,2")
    assert code == 0 and "all hold" in out
    code, _, err = run(capsys, "relations-check", "--arities", "2,x")
    assert code == 2


def test_character_search(capsys, monkeypatch):
    code, out, _ = run(capsys, "--format", "json", "character-search",
                       "--arities", "3,3", "--target-order", "4")
    assert code == 0
    doc = json.loads(out)
    assert {"x": [1, 0], "t": 2, "generates_target": True} in doc["assignments"]
    code, out, _ = run(capsys, "character-search", "--arities", "4,4",
                       "--target-order", "5")
    # the zero character is always listed, so a search never exits 1
    assert code == 0 and "x = (0, 0), t = 0" in out
    # arities (2, 2) have m characters modulo m: past the bound, exit 3
    # naming the count, before any character is listed
    monkeypatch.setattr(tables, "DEFAULT_CANDIDATE_BOUND", 1000)
    code, _, err = run(capsys, "character-search", "--arities", "2,2",
                       "--target-order", "1001")
    assert code == 3 and "1001 characters" in err


def test_baker_check(capsys):
    code, out, _ = run(capsys, "baker-check", "--arities", "3,3,3")
    assert code == 0 and out.strip() == "true"
    code, _, err = run(capsys, "baker-check", "--arities", "3,5,7")
    assert code == 2


def test_env_fallback_for_index_bound(capsys, monkeypatch):
    monkeypatch.setenv("GI_INDEX_BOUND", "2")
    code, out, _ = run(capsys, "relations-check", "--arities", "2,2")
    assert code == 0
    doc_small = out
    monkeypatch.setenv("GI_INDEX_BOUND", "3")
    code, out, _ = run(capsys, "relations-check", "--arities", "2,2")
    assert out != doc_small  # more instances checked


def test_json_booleans_are_not_matrix_entries(capsys):
    code, _, err = run(capsys, "validate", '{"factors": [[[true,true],[true,false]]]}')
    assert code == 2 and "integer" in err
    code, _, _ = run(capsys, "homology", '{"factors": [[[1,1],[1,false]]]}')
    assert code == 2


@pytest.mark.parametrize("content, message", [
    ('{"factors": [[[2]]]} \u00e9'.encode("latin-1"), "cannot read"),
    (b"[" * 100_000, "invalid JSON"),  # past the decoder's recursion limit
    (b'{"factors": [[[%s]]]}' % (b"1" * 5000), "invalid JSON"),  # past int's digit limit
], ids=["not-utf8", "nested-100000", "digits-5000"])
def test_malformed_input_file_exits_input(capsys, tmp_path, content, message):
    doc = tmp_path / "in.json"
    doc.write_bytes(content)
    code, out, err = run(capsys, "validate", str(doc))
    assert code == 2 and out == "" and err.startswith(f"error: {message}")


def test_exit_codes_tell_verdict_input_bound_and_crash_apart(capsys, monkeypatch):
    assert run(capsys, "morita", '{"factors": [[[2]]]}', '{"factors": [[[2]]]}')[0] == 0
    assert run(capsys, "morita", '{"factors": [[[2]]]}', '{"factors": [[[3]]]}')[0] == 1
    assert run(capsys, "validate", '{"factors": [[[-1]]]}')[0] == 2
    free = '{"factors": [[[2,1],[1,2]], [[2,1],[1,2]]]}'  # BF = Z on each factor
    assert run(capsys, "classify", free, free)[0] == 3

    def crash(args):
        raise RuntimeError("boom")
    monkeypatch.setattr(cli, "_cmd_validate", crash)
    code, out, err = run(capsys, "validate", '{"factors": [[[2]]]}')
    assert code == cli.EXIT_INTERNAL == 4 and out == ""
    assert "internal error" in err and "RuntimeError: boom" in err


def test_internal_errors_are_not_input_errors(capsys, monkeypatch):
    with pytest.raises(errors.InternalError):
        _inverse_mod(2, 4)
    monkeypatch.setattr(cli, "_cmd_validate", lambda args: _inverse_mod(2, 4))
    code, _, err = run(capsys, "validate", '{"factors": [[[2]]]}')
    assert code == 4 and "InternalError" in err


def test_library_value_errors_exit_internal(capsys, monkeypatch):
    # a ValueError from inside the library is a defect, not a bad input; the
    # CLI reads sft.invariants through its own binding
    def broken(factor):
        raise ValueError("generator image order incompatible with relation")
    monkeypatch.setattr(cli, "invariants", broken)
    code, out, err = run(capsys, "invariants", '{"factors": [[[3]]]}')
    assert code == 4 and out == ""
    assert "internal error" in err and "ValueError" in err


def test_bad_parameters_exit_input(capsys):
    assert run(capsys, "relations-check", "--arities", "2,x")[0] == 2
    assert run(capsys, "relations-check", "--arities", "2,1")[0] == 2
    assert run(capsys, "--index-bound", "1", "relations-check", "--arities", "2,2")[0] == 2
    assert run(capsys, "character-search", "--arities", "3,3",
               "--target-order", "1")[0] == 2
    code, _, err = run(capsys, "validate", '{"factors": [[[1, 2], [1]]]}')
    assert code == 2 and "rows of different lengths" in err


def test_bad_environment_defaults_exit_input(capsys, monkeypatch):
    monkeypatch.setenv("GI_INDEX_BOUND", "x")
    code, _, err = run(capsys, "relations-check", "--arities", "2,2")
    assert code == 2 and "GI_INDEX_BOUND" in err
    monkeypatch.delenv("GI_INDEX_BOUND")
    monkeypatch.setenv("GI_AUT_BOUND", "1e7")
    assert run(capsys, "validate", '{"factors": [[[2]]]}')[0] == 2


def test_main_returns_usage_and_help_codes_instead_of_raising(capsys):
    for argv in (["bogus"], ["--aut-bound", "x", "validate", "{}"], ["classify", "{}"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err.startswith("usage: gi")
    code, out, err = run(capsys, "--help")
    assert code == 0 and out.startswith("usage: gi") and err == ""
    assert str(cli.DEFAULT_CANDIDATE_BOUND) in out


def test_env_aut_bound_is_read_on_every_call(capsys, monkeypatch):
    monkeypatch.setenv("GI_AUT_BOUND", "3")
    code, _, err = run(capsys, "classify", TINY_A, TINY_B)
    assert code == 3 and "bound 3" in err
    monkeypatch.delenv("GI_AUT_BOUND")
    assert run(capsys, "classify", TINY_A, TINY_B)[0] == 0


def test_index_bound_flag_does_not_leak_into_the_next_call(capsys, monkeypatch):
    monkeypatch.delenv("GI_INDEX_BOUND", raising=False)
    _, flagged, _ = run(capsys, "--index-bound", "2", "relations-check", "--arities", "2,2")
    code, unflagged, _ = run(capsys, "relations-check", "--arities", "2,2")
    _, default, _ = run(capsys, "--index-bound", "5", "relations-check", "--arities", "2,2")
    assert code == 0 and unflagged == default != flagged


def test_malformed_env_index_bound_exits_input_on_any_command(capsys, monkeypatch):
    monkeypatch.setenv("GI_INDEX_BOUND", "2.5")
    code, out, err = run(capsys, "validate", '{"factors": [[[2]]]}')
    assert code == 2 and out == "" and "GI_INDEX_BOUND" in err


def test_calls_share_one_parser(capsys, monkeypatch):
    parser = cli._build_parser()
    seen = []

    def spy(argv):
        seen.append(argv)
        return type(parser).parse_args(parser, argv)
    monkeypatch.setattr(parser, "parse_args", spy)
    assert run(capsys, "validate", '{"factors": [[[2]]]}')[0] == 0
    assert run(capsys, "--format", "json", "validate", '{"factors": [[[3]]]}')[0] == 0
    assert len(seen) == 2 and cli._build_parser() is parser


def test_console_path_exit_codes():
    env = {k: v for k, v in os.environ.items() if not k.startswith("GI_")}
    env["PYTHONPATH"] = str(Path(cli.__file__).resolve().parent.parent)
    cmd = [sys.executable, "-m", "groupoid_invariants.cli"]
    done = subprocess.run([*cmd, "--help"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0 and done.stdout.startswith("usage: gi")
    done = subprocess.run([*cmd, "bogus"], env=env, capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("usage: gi")


def test_invariants_output_is_pinned(capsys):
    """Text and JSON output of ``gi invariants`` over 120 seeded factor
    lists of 1-3 factors on 1-9 vertices, 8 of the factors singular
    (det(id - A) = 0), against a fixed digest.  Unit coordinates are meaningful only up to
    Aut(BF), so a change to the elimination that moves them must update it."""
    rng = random.Random(2215)
    lines, singular = [], 0
    while len(lines) < 240:
        factors, size = [], rng.randint(1, 3)
        while len(factors) < size:
            n = rng.choice((1, 2, 2, 3, 3, 4, 5, 9))
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            try:
                singular += invariants(validate(rows)).det == 0
            except errors.SftValidationError:
                continue
            factors.append(rows)
        doc = json.dumps({"factors": factors})
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "--format", fmt, "invariants", doc)
            lines.append(f"{code} {out}{err}")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert singular == 8
    assert digest == "247d7fa4b1b56c4d08793863ddf4a7fd948795a39ca9714a857eec062d85f6a1"


def test_other_commands_output_is_pinned(capsys, monkeypatch):
    """Text and JSON output and exit codes of every factor-list and table
    subcommand but ``invariants`` (pinned above) and ``validate``, against a
    fixed digest.  The corpus: 42 factor lists of 1-3 factors on 1-4
    vertices, 6 of the factors with an infinite BF group, 12 input errors,
    41 classify pairs (each seeded list against the next, and against itself
    relabelled and shuffled) and a grid of table parameters, bad ones
    included.  Unit coordinates and classify witnesses are meaningful only
    up to automorphism, so a change that moves them must update it."""
    monkeypatch.delenv("GI_AUT_BOUND", raising=False)
    monkeypatch.delenv("GI_INDEX_BOUND", raising=False)
    rng = random.Random(2416)

    def factor():
        while True:
            n = rng.choice((1, 2, 2, 3, 3, 4))
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            try:
                validate(rows)
                return rows
            except errors.SftValidationError:
                continue

    lists = [[factor() for _ in range(rng.randint(1, 3))] for _ in range(40)]
    lists += [[[[2, 1], [1, 2]]], [[[2, 1], [1, 2]], [[3]], [[1, 1], [1, 1]]]]
    infinite = sum(invariants(validate(f)).bf.free_rank > 0 for fs in lists for f in fs)
    docs = [json.dumps({"factors": fs}) for fs in lists]
    bad = ["{", "[]", '{"factors": []}', '{"factors": [[[0, 1], [1, 0]]]}',
           '{"factors": [[[-1]]]}', '{"factors": [[[1, 0], [0, 1]]]}',
           '{"factors": [[[1, 2], [1]]]}', '{"factors": [[[true]]]}',
           '{"factors": [[[1.5]]]}', '{"factors": [[[2]], 3]}', '{"x": 1}',
           "no-such-file.json"]
    argvs = [[c, d] for d in docs + bad
             for c in ("homology", "k-groups", "hk-check", "abelianization", "strong-ah")]
    for a, b in zip(lists[:20], lists[1:21]):
        shuffled = rng.sample([relabel(f, rng.sample(range(len(f)), len(f))) for f in a],
                              len(a))
        for other in (b, shuffled):
            argvs.append(["classify", json.dumps({"factors": a}),
                          json.dumps({"factors": other})])
    argvs.append(["classify", docs[0], bad[3]])
    for ks in ("2", "3", "2,2", "2,3", "3,2", "2,x", "1,2"):
        for ib in ("1", "2", "3"):
            argvs.append(["--index-bound", ib, "relations-check", "--arities", ks])
    for ks in ("2", "3", "2,2", "2,3", "3,4", "2,2,2", "3,5,2", "x"):
        for m in ("1", "2", "3", "4", "6", "8"):
            argvs.append(["character-search", "--arities", ks, "--target-order", m])
    for ks in ("2,2,2", "3,3,3", "2,2,2,4", "2,2,3", "2,2", "x"):
        argvs.append(["baker-check", "--arities", ks])
    lines, codes = [], []
    for argv in argvs:
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "--format", fmt, *argv)
            codes.append(code)
            lines.append(f"{code} {out}{err}")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert infinite == 6
    assert [codes.count(c) for c in range(5)] == [546, 46, 176, 4, 0]
    assert digest == "c156836815ca53b7d8cc07b6b7f8da0515997a66369b052bea73b329a75ecf2d"


def test_validate_morita_usage_and_help_output_is_pinned(capsys, monkeypatch):
    """Text and JSON output and exit codes of ``validate``, ``morita``,
    argparse usage errors and ``--help``, against a fixed digest.  The
    corpus: 30 seeded factor lists of 1-3 factors on 1-4 vertices and 12
    input errors under ``validate``; ``morita`` on 20 single-factor pairs
    (each against the next, and against itself relabelled) and on multi-factor
    and malformed inputs; 14 usage errors; ``--help`` of ``gi`` and of
    every subcommand.  ``COLUMNS`` is fixed, so that help wraps the same
    way on every terminal."""
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.delenv("GI_AUT_BOUND", raising=False)
    monkeypatch.delenv("GI_INDEX_BOUND", raising=False)
    rng = random.Random(2525)

    def factor():
        while True:
            n = rng.choice((1, 2, 2, 3, 3, 4))
            rows = [[rng.randint(0, 3) for _ in range(n)] for _ in range(n)]
            try:
                validate(rows)
                return rows
            except errors.SftValidationError:
                continue

    lists = [[factor() for _ in range(rng.randint(1, 3))] for _ in range(30)]
    bad = ["{", "[]", '{"factors": []}', '{"factors": [[[0, 1], [1, 0]]]}',
           '{"factors": [[[-1]]]}', '{"factors": [[[1, 0], [0, 1]]]}',
           '{"factors": [[[1, 2], [1]]]}', '{"factors": [[[true]]]}',
           '{"factors": [[[1.5]]]}', '{"factors": [[[2]], 3]}', '{"x": 1}',
           "no-such-file.json"]
    argvs = [["validate", json.dumps({"factors": fs})] for fs in lists]
    argvs += [["validate", b] for b in bad]
    singles = [json.dumps({"factors": [factor()]}) for _ in range(21)]
    for a, b in zip(singles, singles[1:]):
        rows = json.loads(a)["factors"][0]
        twin = relabel(rows, rng.sample(range(len(rows)), len(rows)))
        argvs += [["morita", a, b], ["morita", a, json.dumps({"factors": [twin]})]]
    argvs += [["morita", json.dumps({"factors": lists[0] * 2}), singles[0]],
              ["morita", singles[0], bad[3]], ["morita", bad[0], singles[0]]]
    argvs += [["bogus"], [], ["validate"], ["classify", "{}"], ["morita", "{}"],
              ["--aut-bound", "x", "validate", "{}"],
              ["--index-bound", "1.5", "validate", "{}"],
              ["--format", "xml", "validate", "{}"], ["relations-check"],
              ["relations-check", "--arities"], ["character-search", "--arities", "2"],
              ["character-search", "--arities", "2", "--target-order", "x"],
              ["baker-check", "--arities", "2,2,2", "extra"], ["--nope", "validate", "{}"]]
    argvs += [["--help"], ["-h"]]
    argvs += [[c, "--help"] for c in ("validate", "invariants", "homology", "k-groups",
                                      "hk-check", "abelianization", "strong-ah", "classify",
                                      "morita", "relations-check", "character-search",
                                      "baker-check")]
    lines, codes = [], []
    for argv in argvs:
        for fmt in ("text", "json"):
            code, out, err = run(capsys, "--format", fmt, *argv)
            codes.append(code)
            lines.append(f"{code} {out}{err}")
    digest = hashlib.sha256("".join(lines).encode()).hexdigest()
    assert [codes.count(c) for c in range(5)] == [132, 36, 58, 0, 0]
    assert digest == "98aae41ade9e87bccfdfdcaa7308ef5c231a12a9647f7493629509c9509ff556"


# one parsed-argument example per subcommand
HANDLER_ARGV = {
    "validate": ["validate", '{"factors": [[[2]], [[3]]]}'],
    "invariants": ["invariants", '{"factors": [[[3]], [[2, 1], [1, 2]]]}'],
    "homology": ["homology", '{"factors": [[[3]], [[5]]]}'],
    "k-groups": ["k-groups", '{"factors": [[[3]], [[5]]]}'],
    "hk-check": ["hk-check", '{"factors": [[[3]], [[5]]]}'],
    "abelianization": ["abelianization", '{"factors": [[[0, 3], [1, 0]], [[3]]]}'],
    "strong-ah": ["strong-ah", '{"factors": [[[3]], [[3]], [[3]]]}'],
    "classify": ["--aut-bound", "100", "classify", '{"factors": [[[3]]]}',
                 '{"factors": [[[0, 3], [1, 0]]]}'],
    "morita": ["morita", '{"factors": [[[2]]]}', '{"factors": [[[3]]]}'],
    "relations-check": ["--index-bound", "2", "relations-check", "--arities", "2,2"],
    "character-search": ["character-search", "--arities", "3,3", "--target-order", "4"],
    "baker-check": ["baker-check", "--arities", "2,2,2"],
}


def test_every_subcommand_has_a_handler():
    """Each subcommand of the parser has an example above and a ``_cmd_``
    handler; without one, the subcommand would exit 4 on every call."""
    parser = cli._build_parser()
    names = next(a for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)).choices.keys()
    assert names == HANDLER_ARGV.keys()
    for name in sorted(names):
        assert callable(getattr(cli, "_cmd_" + name.replace("-", "_"), None)), name


@pytest.mark.parametrize("name", sorted(HANDLER_ARGV))
def test_handler_prints_nothing_and_returns_payload_lines_and_verdict(capsys, name):
    # main alone prints the result and maps the verdict to exit 0 or 1
    args = cli._build_parser().parse_args(HANDLER_ARGV[name])
    result = getattr(cli, "_cmd_" + name.replace("-", "_"))(args)
    assert capsys.readouterr() == ("", "")
    payload, lines, verdict = result
    assert isinstance(payload, dict) and type(verdict) is bool
    assert isinstance(lines, list) and all(isinstance(line, str) for line in lines)
