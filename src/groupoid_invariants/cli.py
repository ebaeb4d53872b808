"""Command-line front end.

Factor-list inputs are JSON documents, inline or by path:

    {"factors": [[[2]], [[0, 2], [1, 0]]]}

i.e. a top-level object whose "factors" entry is a list of square integer
matrices in row-major nested-list form; entries are JSON integers, not
booleans.  Exit codes: 0 success, 1 negative verdict (not isomorphic, check
failed, no character), 2 input error, 3 search bound exceeded, 4 internal
error (a failed consistency check or any other uncaught exception; the
traceback goes to stderr).  Input errors are the ``ParseError`` and
``SftValidationError`` raised while parsing and validating documents and
parameters; any other ``ValueError`` is a defect and exits 4.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback

from . import errors
from .abelianize import strong_ah, tfg_abelianization
from .automorphisms import DEFAULT_CANDIDATE_BOUND
from .classify import product_isomorphic, sft_morita
from .fggroup import FgElement, FgGroup
from .graded import GradedGroups
from .homology import hk_check, product_homology, product_k_theory
from .sft import SftMatrix, invariants, validate
from .tables import baker, character_search, compose, equal, verify_relations

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_BOUND = 3
EXIT_INTERNAL = 4


def parse_input(source: str) -> list[SftMatrix]:
    """Load a factor list from an inline JSON string or a file path."""
    text = source
    if not source.lstrip().startswith("{"):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise errors.ParseError(f"cannot read {source}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise errors.ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "factors" not in doc:
        raise errors.ParseError('input must be an object with a "factors" array')
    raw = doc["factors"]
    if not isinstance(raw, list) or not raw:
        raise errors.ParseError('"factors" must be a nonempty array of matrices')
    out = []
    for i, mat in enumerate(raw):
        if (not isinstance(mat, list) or not mat
                or any(not isinstance(row, list) for row in mat)
                # type(), not isinstance(): JSON true/false load as bool, an int subclass
                or any(not all(type(x) is int for x in row) for row in mat)):
            raise errors.ParseError(f"factor {i} is not a nested integer array")
        if any(len(row) != len(mat[0]) for row in mat):
            raise errors.ParseError(f"factor {i} has rows of different lengths")
        out.append(validate(mat, factor_index=i))
    return out


def _group_json(g: FgGroup) -> dict:
    return {"free_rank": g.free_rank, "str": str(g), "torsion": list(g.torsion)}


def _elem_json(e: FgElement) -> dict:
    return {"free": list(e.free), "torsion": list(e.torsion)}


def _graded_json(h: GradedGroups) -> dict:
    return {"degrees": {str(n): _group_json(g) for n, g in h.items()},
            "unit_class": _elem_json(h.unit_class)}


def _env_int(name: str, default: int) -> int:
    text = os.environ.get(name)
    if text is None:
        return default
    try:
        return int(text)
    except ValueError:
        raise errors.ParseError(f"{name} must be an integer, not {text!r}") from None


def _parse_arities(text: str) -> tuple[int, ...]:
    try:
        ks = tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise errors.ParseError(f"bad arity list {text!r}") from exc
    if not ks or any(k < 2 for k in ks):
        raise errors.ParseError("arities must be integers >= 2")
    return ks


def _emit(args, payload: dict, text_lines: list[str]):
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _cmd_validate(args) -> int:
    factors = parse_input(args.input)
    payload = {"factors": [{"size": f.size, "valid": True} for f in factors]}
    _emit(args, payload,
          [f"factor {i}: valid ({f.size} x {f.size})" for i, f in enumerate(factors)])
    return EXIT_OK


def _cmd_invariants(args) -> int:
    factors = parse_input(args.input)
    recs, lines = [], []
    for i, f in enumerate(factors):
        inv = invariants(f)
        recs.append({
            "bf": _group_json(inv.bf),
            "det_sign": inv.det_sign,
            "homology": _graded_json(inv.homology),
            "k0": _group_json(inv.k0),
            "k1": _group_json(inv.k1),
            "unit": _elem_json(inv.unit),
        })
        lines.append(f"factor {i}: BF = {inv.bf}, unit = {inv.unit.coords()}, "
                     f"det sign = {inv.det_sign:+d}, H = [{inv.homology}], "
                     f"K_0 = {inv.k0}, K_1 = {inv.k1}")
    _emit(args, {"factors": recs}, lines)
    return EXIT_OK


def _cmd_homology(args) -> int:
    factors = parse_input(args.input)
    h = product_homology(factors)
    lines = [str(h), f"unit class = {h.unit_class.coords()} in {h.group_at(0)}"]
    _emit(args, _graded_json(h), lines)
    return EXIT_OK


def _cmd_k_groups(args) -> int:
    factors = parse_input(args.input)
    kk = product_k_theory(factors)
    _emit(args, {"k0": _group_json(kk.k0), "k1": _group_json(kk.k1)},
          [f"K_0 = {kk.k0}", f"K_1 = {kk.k1}"])
    return EXIT_OK


def _cmd_hk_check(args) -> int:
    factors = parse_input(args.input)
    rep = hk_check(factors)
    payload = {"holds": rep.holds,
               "h_even": _group_json(rep.h_even), "h_odd": _group_json(rep.h_odd),
               "k0": _group_json(rep.k0), "k1": _group_json(rep.k1)}
    _emit(args, payload,
          [str(rep.holds).lower(),
           f"H_even = {rep.h_even}  vs  K_0 = {rep.k0}",
           f"H_odd  = {rep.h_odd}  vs  K_1 = {rep.k1}"])
    return EXIT_OK if rep.holds else EXIT_NEGATIVE


def _cmd_classify(args) -> int:
    fa = parse_input(args.input_a)
    fb = parse_input(args.input_b)
    verdict = product_isomorphic(fa, fb, candidate_bound=args.aut_bound)
    if verdict.isomorphic:
        w = verdict.witness
        payload = {"isomorphic": True, "reason": None,
                   "witness": {"sigma": list(w.sigma),
                               "homs": [[_elem_json(img) for img in h.images]
                                        for h in w.homs],
                               "identity": w.is_identity()}}
        text = "isomorphic (identity witness)" if w.is_identity() else \
            f"isomorphic (witness: sigma = {w.sigma})"
        _emit(args, payload, [text])
        return EXIT_OK
    _emit(args, {"isomorphic": False, "reason": verdict.reason, "witness": None},
          [f"not isomorphic: {verdict.reason}"])
    return EXIT_NEGATIVE


def _cmd_morita(args) -> int:
    fa = parse_input(args.input_a)
    fb = parse_input(args.input_b)
    if len(fa) != 1 or len(fb) != 1:
        raise errors.ParseError("morita takes single-factor inputs on both sides")
    ok = sft_morita(fa[0], fb[0])
    _emit(args, {"morita_equivalent": ok}, [str(ok).lower()])
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_abelianization(args) -> int:
    factors = parse_input(args.input)
    g = tfg_abelianization(factors)
    _emit(args, {"abelianization": _group_json(g)}, [str(g)])
    return EXIT_OK


def _cmd_strong_ah(args) -> int:
    factors = parse_input(args.input)
    ok = strong_ah(factors)
    _emit(args, {"strong_ah": ok}, [str(ok).lower()])
    return EXIT_OK if ok else EXIT_NEGATIVE


def _cmd_relations_check(args) -> int:
    ks = _parse_arities(args.arities)
    rep = verify_relations(len(ks), ks, args.index_bound)
    payload = {"checked": rep.checked, "failures": rep.failures,
               "passed": rep.all_passed}
    _emit(args, payload,
          [f"checked {rep.checked} relation instances; "
           + ("all hold" if rep.all_passed else f"failures: {rep.failures}")])
    return EXIT_OK if rep.all_passed else EXIT_NEGATIVE


def _cmd_character_search(args) -> int:
    ks = _parse_arities(args.arities)
    found = character_search(len(ks), ks, args.target_order)
    payload = {"assignments": [{"x": list(a.x), "t": a.t,
                                "generates_target": a.generates_target()}
                               for a in found],
               "target_order": args.target_order}
    lines = [f"{len(found)} assignment(s) into Z/{args.target_order}"]
    lines += [f"  x = {a.x}, t = {a.t}"
              + ("  (generates the target)" if a.generates_target() else "")
              for a in found]
    _emit(args, payload, lines)
    return EXIT_OK if found else EXIT_NEGATIVE


def _cmd_baker_check(args) -> int:
    ks = _parse_arities(args.arities)
    if len(ks) < 3 or len(set(ks[:3])) != 1:
        raise errors.ParseError("baker-check needs at least three equal leading arities")
    b12 = baker(1, 2, ks)
    b23 = baker(2, 3, ks)
    b13 = baker(1, 3, ks)
    ok = equal(compose(b12, b23), b13)
    _emit(args, {"baker_identity": ok}, [str(ok).lower()])
    return EXIT_OK if ok else EXIT_NEGATIVE


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gi",
        description="Exact invariants of products of SFT groupoids.")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--aut-bound", type=int,
                   default=_env_int("GI_AUT_BOUND", DEFAULT_CANDIDATE_BOUND),
                   help="cap on the tensor products that classify's unit-orbit "
                        "search evaluates (default GI_AUT_BOUND, else %(default)s)")
    p.add_argument("--index-bound", type=int,
                   default=_env_int("GI_INDEX_BOUND", 5),
                   help="largest generator index instantiated in relation checks")
    sub = p.add_subparsers(dest="command", required=True)

    def one_input(name, fn, help_):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("input", help="JSON file path or inline JSON")
        sp.set_defaults(fn=fn)
        return sp

    one_input("validate", _cmd_validate, "check the factor matrices are admissible")
    one_input("invariants", _cmd_invariants, "per-factor BF group, unit, det sign, homology")
    one_input("homology", _cmd_homology, "graded homology of the product groupoid")
    one_input("k-groups", _cmd_k_groups, "K-groups of the product C*-algebra")
    one_input("hk-check", _cmd_hk_check, "compare summed homology against K-groups")
    one_input("abelianization", _cmd_abelianization, "full-group abelianization of the product")
    one_input("strong-ah", _cmd_strong_ah, "left-exactness test for the abelianization sequence")

    for name, fn, help_ in (("classify", _cmd_classify, "decide isomorphism of two products"),
                            ("morita", _cmd_morita, "decide Morita equivalence of two SFTs")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("input_a")
        sp.add_argument("input_b")
        sp.set_defaults(fn=fn)

    sp = sub.add_parser("relations-check", help="verify the defining relations of W_{n,k}")
    sp.add_argument("--arities", required=True, help="comma-separated k(1),...,k(n)")
    sp.set_defaults(fn=_cmd_relations_check)

    sp = sub.add_parser("character-search", help="finite cyclic characters of W_{n,k}")
    sp.add_argument("--arities", required=True)
    sp.add_argument("--target-order", type=int, required=True)
    sp.set_defaults(fn=_cmd_character_search)

    sp = sub.add_parser("baker-check", help="two-coordinate interleaving map composition law")
    sp.add_argument("--arities", required=True)
    sp.set_defaults(fn=_cmd_baker_check)
    return p


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)  # the defaults read the environment
        if args.aut_bound < 0:
            raise errors.ParseError(
                f"--aut-bound (GI_AUT_BOUND) must be >= 0, not {args.aut_bound}")
        return args.fn(args)
    except (errors.ParseError, errors.SftValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except errors.BoundExceeded as exc:
        print(f"bound exceeded: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except Exception:  # a crash must not read as a verdict
        print(f"internal error:\n{traceback.format_exc()}", file=sys.stderr, end="")
        return EXIT_INTERNAL


def entrypoint():  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
