"""Command-line front end.

Factor-list inputs are JSON documents, inline or by path:

    {"factors": [[[2]], [[0, 2], [1, 0]]]}

i.e. a top-level object whose "factors" entry is a list of square integer
matrices in row-major nested-list form; entries are JSON integers, not
booleans.  Exit codes: 0 success, 1 negative verdict (not isomorphic, check
failed), 2 input error, 3 search bound exceeded, 4 internal
error (a failed consistency check or any other uncaught exception; the
traceback goes to stderr).  Input errors are the ``ParseError`` and
``SftValidationError`` raised while parsing and validating documents and
parameters, a document that cannot be read or decoded among them (a
missing or non-UTF-8 file, malformed JSON, nesting past the decoder's
recursion limit, an integer longer than ``sys.get_int_max_str_digits``);
any other ``ValueError`` is a defect and exits 4.

``main`` builds its argument parser once per process, on its first call, and
reads ``GI_AUT_BOUND`` and ``GI_INDEX_BOUND`` on every call, so the parser
holds no value from the environment; a flag on the command line overrides
the variable.  The handler of a command is looked up by name at call time:
``_cmd_`` and the command with ``-`` read as ``_``.  A handler prints
nothing; it returns ``(payload, text_lines, verdict)``.  ``main`` alone
prints the result, the payload as JSON with sorted keys or the text lines,
and picks every exit code: 0 or 1 from the verdict, 2-4 from what was
raised.  It returns the code and never raises it, usage errors (2) and
``--help`` (0) included.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback

from . import errors
from .abelianize import strong_ah, tfg_abelianization
from .automorphisms import DEFAULT_CANDIDATE_BOUND
from .classify import product_isomorphic, sft_morita
from .fggroup import FgElement, FgGroup
from .homology import GradedGroups, hk_check, product_homology, product_k_theory
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
        except (OSError, UnicodeDecodeError) as exc:
            raise errors.ParseError(f"cannot read {source}: {exc}") from exc
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: JSONDecodeError, or an integer past the int-to-str digit
        # limit; RecursionError: nesting deeper than the decoder's stack
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


def _cmd_validate(args):
    factors = parse_input(args.input)
    payload = {"factors": [{"size": f.size, "valid": True} for f in factors]}
    return payload, [f"factor {i}: valid ({f.size} x {f.size})"
                     for i, f in enumerate(factors)], True


def _cmd_invariants(args):
    factors = parse_input(args.input)
    recs, lines = [], []
    for i, f in enumerate(factors):
        inv = invariants(f)
        hom = product_homology([f])
        recs.append({
            "bf": _group_json(inv.bf),
            "det_sign": inv.det_sign,
            "homology": _graded_json(hom),
            "k0": _group_json(inv.k0),
            "k1": _group_json(inv.k1),
            "unit": _elem_json(inv.unit),
        })
        lines.append(f"factor {i}: BF = {inv.bf}, unit = {inv.unit.coords()}, "
                     f"det sign = {inv.det_sign:+d}, H = [{hom}], "
                     f"K_0 = {inv.k0}, K_1 = {inv.k1}")
    return {"factors": recs}, lines, True


def _cmd_homology(args):
    h = product_homology(parse_input(args.input))
    return (_graded_json(h),
            [str(h), f"unit class = {h.unit_class.coords()} in {h.group_at(0)}"], True)


def _cmd_k_groups(args):
    kk = product_k_theory(parse_input(args.input))
    return ({"k0": _group_json(kk.k0), "k1": _group_json(kk.k1)},
            [f"K_0 = {kk.k0}", f"K_1 = {kk.k1}"], True)


def _cmd_hk_check(args):
    rep = hk_check(parse_input(args.input))
    payload = {"holds": rep.holds,
               "h_even": _group_json(rep.h_even), "h_odd": _group_json(rep.h_odd),
               "k0": _group_json(rep.k0), "k1": _group_json(rep.k1)}
    return payload, [str(rep.holds).lower(),
                     f"H_even = {rep.h_even}  vs  K_0 = {rep.k0}",
                     f"H_odd  = {rep.h_odd}  vs  K_1 = {rep.k1}"], rep.holds


def _cmd_classify(args):
    fa = parse_input(args.input_a)
    fb = parse_input(args.input_b)
    verdict = product_isomorphic(fa, fb, candidate_bound=args.aut_bound)
    if not verdict.isomorphic:
        return ({"isomorphic": False, "reason": verdict.reason, "witness": None},
                [f"not isomorphic: {verdict.reason}"], False)
    w = verdict.witness
    identity = w.is_identity()
    payload = {"isomorphic": True, "reason": None,
               "witness": {"sigma": list(w.sigma),
                           "homs": [[_elem_json(img) for img in h.images] for h in w.homs],
                           "identity": identity}}
    text = "isomorphic (identity witness)" if identity else \
        f"isomorphic (witness: sigma = {w.sigma})"
    return payload, [text], True


def _cmd_morita(args):
    fa = parse_input(args.input_a)
    fb = parse_input(args.input_b)
    if len(fa) != 1 or len(fb) != 1:
        raise errors.ParseError("morita takes single-factor inputs on both sides")
    ok = sft_morita(fa[0], fb[0])
    return {"morita_equivalent": ok}, [str(ok).lower()], ok


def _cmd_abelianization(args):
    g = tfg_abelianization(parse_input(args.input))
    return {"abelianization": _group_json(g)}, [str(g)], True


def _cmd_strong_ah(args):
    ok = strong_ah(parse_input(args.input))
    return {"strong_ah": ok}, [str(ok).lower()], ok


def _cmd_relations_check(args):
    rep = verify_relations(_parse_arities(args.arities), args.index_bound)
    payload = {"checked": rep.checked, "failures": rep.failures,
               "passed": rep.all_passed}
    text = f"checked {rep.checked} relation instances; " \
        + ("all hold" if rep.all_passed else f"failures: {rep.failures}")
    return payload, [text], rep.all_passed


def _cmd_character_search(args):
    # a listing, not a verdict: the zero character is always found
    found = character_search(_parse_arities(args.arities), args.target_order)
    payload = {"assignments": [{"x": list(a.x), "t": a.t,
                                "generates_target": a.generates_target()}
                               for a in found],
               "target_order": args.target_order}
    lines = [f"{len(found)} assignment(s) into Z/{args.target_order}"]
    lines += [f"  x = {a.x}, t = {a.t}"
              + ("  (generates the target)" if a.generates_target() else "")
              for a in found]
    return payload, lines, True


def _cmd_baker_check(args):
    ks = _parse_arities(args.arities)
    if len(ks) < 3 or len(set(ks[:3])) != 1:
        raise errors.ParseError("baker-check needs at least three equal leading arities")
    ok = equal(compose(baker(1, 2, ks), baker(2, 3, ks)), baker(1, 3, ks))
    return {"baker_identity": ok}, [str(ok).lower()], ok


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gi",
        description="Exact invariants of products of SFT groupoids.")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--aut-bound", type=int,
                   help="cap on the tensor products that classify's unit-orbit search "
                        f"evaluates (default GI_AUT_BOUND, else {DEFAULT_CANDIDATE_BOUND})")
    p.add_argument("--index-bound", type=int,
                   help="largest generator index instantiated in relation checks")
    sub = p.add_subparsers(dest="command", required=True)

    for name, help_ in (
            ("validate", "check the factor matrices are admissible"),
            ("invariants", "per-factor BF group, unit, det sign, homology"),
            ("homology", "graded homology of the product groupoid"),
            ("k-groups", "K-groups of the product C*-algebra"),
            ("hk-check", "compare summed homology against K-groups"),
            ("abelianization", "full-group abelianization of the product"),
            ("strong-ah", "left-exactness test for the abelianization sequence")):
        sub.add_parser(name, help=help_).add_argument(
            "input", help="JSON file path or inline JSON")

    for name, help_ in (("classify", "decide isomorphism of two products"),
                        ("morita", "decide Morita equivalence of two SFTs")):
        sp = sub.add_parser(name, help=help_)
        sp.add_argument("input_a")
        sp.add_argument("input_b")

    sp = sub.add_parser("relations-check", help="verify the defining relations of W_{n,k}")
    sp.add_argument("--arities", required=True, help="comma-separated k(1),...,k(n)")

    sp = sub.add_parser("character-search", help="finite cyclic characters of W_{n,k}")
    sp.add_argument("--arities", required=True)
    sp.add_argument("--target-order", type=int, required=True)

    sp = sub.add_parser("baker-check", help="two-coordinate interleaving map composition law")
    sp.add_argument("--arities", required=True)
    return p


def main(argv=None) -> int:
    try:
        aut_bound = _env_int("GI_AUT_BOUND", DEFAULT_CANDIDATE_BOUND)
        index_bound = _env_int("GI_INDEX_BOUND", 5)
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:  # usage error or --help, already printed
            return exc.code
        if args.aut_bound is None:
            args.aut_bound = aut_bound
        if args.index_bound is None:
            args.index_bound = index_bound
        if args.aut_bound < 0:
            raise errors.ParseError(
                f"--aut-bound (GI_AUT_BOUND) must be >= 0, not {args.aut_bound}")
        payload, lines, verdict = globals()["_cmd_" + args.command.replace("-", "_")](args)
        if args.format == "json":
            lines = [json.dumps(payload, sort_keys=True)]
        for line in lines:
            print(line)
        return EXIT_OK if verdict else EXIT_NEGATIVE
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
