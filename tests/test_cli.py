import json
import random

import pytest

from conftest import WALL_MATRIX, WALL_PERMS, relabel
from groupoid_invariants import cli, errors
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
# tensor products
TINY_A = '{"factors": [[[0,1,0],[1,0,2],[1,3,3]], [[5]]]}'
TINY_B = '{"factors": [[[3,3,1],[0,3,2],[2,2,3]], [[5]]]}'


def test_tiny_aut_bound_exits_bound_with_the_work_reached(capsys):
    assert run(capsys, "classify", TINY_A, TINY_B)[0] == 0
    code, out, err = run(capsys, "--aut-bound", "3", "classify", TINY_A, TINY_B)
    assert code == 3 and out == ""
    assert "needs 4 tensor products" in err and "bound 3" in err


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


def test_character_search(capsys):
    code, out, _ = run(capsys, "--format", "json", "character-search",
                       "--arities", "3,3", "--target-order", "4")
    assert code == 0
    doc = json.loads(out)
    assert {"x": [1, 0], "t": 2, "generates_target": True} in doc["assignments"]
    code, out, _ = run(capsys, "character-search", "--arities", "4,4",
                       "--target-order", "5")
    # Z/5 admits only the zero character here, which does not count as empty
    assert code in (0, 1)


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
