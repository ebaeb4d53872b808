"""Per-layer timing from outside the library.

``Tracer`` replaces each traced public function of ``groupoid_invariants``
with a timing wrapper: in its defining module, in every module that bound it
with ``from .x import y``, and on its class for methods.  Leaving the
context restores every original binding.  A span's self time is its
duration minus the time spent in traced calls it made.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from dataclasses import dataclass, field
from time import perf_counter

PACKAGE = "groupoid_invariants"

# span name -> (module, attribute or Class.method)
TARGETS = {
    "intmatrix.smith_normal_form": ("intmatrix", "smith_normal_form"),
    "intmatrix.det": ("intmatrix", "IntMatrix.det"),
    "fggroup.canonical_orders": ("fggroup", "canonical_orders"),
    "fggroup.tensor": ("fggroup", "tensor"),
    "fggroup.tor": ("fggroup", "tor"),
    "fggroup.direct_sum": ("fggroup", "direct_sum"),
    "fggroup.cokernel": ("fggroup", "cokernel"),
    "fggroup.kernel_group": ("fggroup", "kernel_group"),
    "fggroup.is_surjective": ("fggroup", "GroupHom.is_surjective"),
    "sft.validate": ("sft", "validate"),
    "sft.invariants": ("sft", "invariants"),
    "homology.product_homology": ("homology", "product_homology"),
    "homology.product_k_theory": ("homology", "product_k_theory"),
    "homology.hk_check": ("homology", "hk_check"),
    "abelianize.tfg_abelianization": ("abelianize", "tfg_abelianization"),
    "abelianize.extension_data": ("abelianize", "extension_data"),
    "automorphisms.enumerate_automorphisms": ("automorphisms", "enumerate_automorphisms"),
    "automorphisms.aut_orbit_witness": ("automorphisms", "aut_orbit_witness"),
    "classify.product_isomorphic": ("classify", "product_isomorphic"),
    "classify.sft_isomorphic": ("classify", "sft_isomorphic"),
    "tables.compose": ("tables", "compose"),
    "tables.equal": ("tables", "equal"),
    "tables.element_check": ("tables", "TableElement.__post_init__"),
    "tables.verify_relations": ("tables", "verify_relations"),
    "tables.character_search": ("tables", "character_search"),
    "cli.parse_input": ("cli", "parse_input"),
    "cli.main": ("cli", "main"),
}

ENUMERATE = "automorphisms.enumerate_automorphisms"

# (metric, unit, better); reported by every traced run, in this order
PER_LAYER = [
    ("intmatrix.smith_normal_form.calls", "count", "lower"),
    ("intmatrix.smith_normal_form.self_s", "s", "lower"),
    ("intmatrix.smith_normal_form.max_dim", "count", "lower"),
    ("intmatrix.smith_normal_form.max_coeff_bits", "bits", "lower"),
    ("intmatrix.det.calls", "count", "lower"),
    ("intmatrix.det.self_s", "s", "lower"),
    ("fggroup.canonical_orders.calls", "count", "lower"),
    ("fggroup.canonical_orders.self_s", "s", "lower"),
    ("fggroup.canonical_orders.max_len", "count", "lower"),
    ("fggroup.tensor.calls", "count", "lower"),
    ("fggroup.tensor.self_s", "s", "lower"),
    ("fggroup.tensor.max_width", "count", "lower"),
    ("fggroup.tor.self_s", "s", "lower"),
    ("fggroup.direct_sum.self_s", "s", "lower"),
    ("fggroup.cokernel.self_s", "s", "lower"),
    ("fggroup.kernel_group.self_s", "s", "lower"),
    ("fggroup.is_surjective.calls", "count", "lower"),
    ("fggroup.is_surjective.self_s", "s", "lower"),
    ("sft.validate.self_s", "s", "lower"),
    ("sft.invariants.calls", "count", "lower"),
    ("sft.invariants.self_s", "s", "lower"),
    ("sft.invariants.calls_per_op", "ratio", "lower"),
    ("sft.invariants.distinct_ratio", "ratio", "higher"),
    ("homology.product_homology.self_s", "s", "lower"),
    ("homology.product_k_theory.self_s", "s", "lower"),
    ("homology.hk_check.self_s", "s", "lower"),
    ("abelianize.tfg_abelianization.self_s", "s", "lower"),
    ("abelianize.extension_data.self_s", "s", "lower"),
    ("automorphisms.enumerate_automorphisms.calls", "count", "lower"),
    ("automorphisms.enumerate_automorphisms.self_s", "s", "lower"),
    ("automorphisms.enumerate_automorphisms.yielded", "count", "lower"),
    ("automorphisms.candidate_yield_ratio", "ratio", "higher"),
    ("automorphisms.aut_orbit_witness.calls", "count", "lower"),
    ("automorphisms.aut_orbit_witness.self_s", "s", "lower"),
    ("classify.product_isomorphic.self_s", "s", "lower"),
    ("classify.sft_isomorphic.self_s", "s", "lower"),
    ("classify.bound_exceeded", "count", "lower"),
    ("tables.compose.calls", "count", "lower"),
    ("tables.compose.self_s", "s", "lower"),
    ("tables.equal.calls", "count", "lower"),
    ("tables.equal.self_s", "s", "lower"),
    ("tables.element_check.calls", "count", "lower"),
    ("tables.element_check.self_s", "s", "lower"),
    ("tables.verify_relations.self_s", "s", "lower"),
    ("tables.character_search.self_s", "s", "lower"),
    ("cli.parse_input.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
    ("gaps.failed", "count", "lower"),
    ("gaps.error_rate", "ratio", "lower"),
]


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    max_size: int = 0        # max_dim / max_len / max_width, by span
    max_bits: int = 0        # SNF transform coefficient bit length
    yielded: int = 0         # automorphisms produced by the enumeration
    inner_checks: int = 0    # is_surjective calls made inside the enumeration
    keys: set = field(default_factory=set)  # distinct invariants() inputs


def _snf_post(st, args, result):
    m = args[0]
    st.max_size = max(st.max_size, m.rows, m.cols)
    st.max_bits = max(st.max_bits, max((abs(x).bit_length()
                                        for x in result.u.entries + result.v.entries),
                                       default=0))


def _tensor_post(st, args, result):
    st.max_size = max(st.max_size, args[0].num_generators * args[1].num_generators)


def _invariants_post(st, args, result):
    st.keys.add(args[0].a.entries)


POST = {
    "intmatrix.smith_normal_form": _snf_post,
    "fggroup.tensor": _tensor_post,
    "sft.invariants": _invariants_post,
}


class Tracer:
    """Context manager that times every span in TARGETS while active.

    Statistics accumulate over every entry into the context."""

    def __init__(self):
        self.stats = {name: SpanStats() for name in TARGETS}
        self._children: list[float] = []   # traced time spent below each open span
        self._open: list[str] = []         # names of the open spans
        self._restore: list[tuple[object, str, object]] = []

    def __enter__(self):
        mods = [m for n, m in list(sys.modules.items())
                if n == PACKAGE or n.startswith(PACKAGE + ".")]
        try:
            for name, (modname, attr) in TARGETS.items():
                owner = importlib.import_module(f"{PACKAGE}.{modname}")
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(owner, cls_name)
                    self._patch(owner, meth, self._wrap(name, owner.__dict__[meth]))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original)
                for mod in mods:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self._unpatch()
            raise
        return self

    def __exit__(self, *exc):
        self._unpatch()
        return False

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def _unpatch(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name, fn):
        st = self.stats[name]
        children, opened = self._children, self._open
        post = POST.get(name)
        enum_stats = self.stats[ENUMERATE]

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st.calls += 1
                return self._iterate(st, name, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enter = perf_counter()
            if name == "fggroup.canonical_orders":
                args = (list(args[0]),) + args[1:]
                st.max_size = max(st.max_size, len(args[0]))
            elif name == "fggroup.is_surjective" and opened and opened[-1] == ENUMERATE:
                enum_stats.inner_checks += 1
            opened.append(name)
            children.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st.self_s += t1 - t0 - children.pop()
                st.calls += 1
                opened.pop()
            if post is not None:
                post(st, args, result)
            if children:
                children[-1] += perf_counter() - enter
            return result
        return wrapper

    def _iterate(self, st, name, it):
        children, opened = self._children, self._open
        while True:
            enter = perf_counter()
            opened.append(name)
            children.append(0.0)
            t0 = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                t1 = perf_counter()
                st.self_s += t1 - t0 - children.pop()
                opened.pop()
                if children:
                    children[-1] += perf_counter() - enter
            st.yielded += 1
            yield item

    def metrics(self, ops: int, overhead_ratio: float, bound_exceeded: int,
                gaps_attempted: int, gaps_failed: int) -> dict[str, tuple[float, str]]:
        """Every PER_LAYER metric, by name, as (value, unit)."""
        out: dict[str, float] = {}
        for name, st in self.stats.items():
            out[f"{name}.calls"] = st.calls
            out[f"{name}.self_s"] = st.self_s
        s = self.stats
        out["intmatrix.smith_normal_form.max_dim"] = s["intmatrix.smith_normal_form"].max_size
        out["intmatrix.smith_normal_form.max_coeff_bits"] = s["intmatrix.smith_normal_form"].max_bits
        out["fggroup.canonical_orders.max_len"] = s["fggroup.canonical_orders"].max_size
        out["fggroup.tensor.max_width"] = s["fggroup.tensor"].max_size
        inv = s["sft.invariants"]
        out["sft.invariants.calls_per_op"] = inv.calls / ops if ops else 0.0
        out["sft.invariants.distinct_ratio"] = len(inv.keys) / inv.calls if inv.calls else 0.0
        enum = s[ENUMERATE]
        out[f"{ENUMERATE}.yielded"] = enum.yielded
        out["automorphisms.candidate_yield_ratio"] = (
            enum.yielded / enum.inner_checks if enum.inner_checks else 0.0)
        out["classify.bound_exceeded"] = bound_exceeded
        out["trace.overhead_ratio"] = overhead_ratio
        out["gaps.failed"] = gaps_failed
        out["gaps.error_rate"] = gaps_failed / gaps_attempted if gaps_attempted else 0.0
        return {name: (out[name], unit) for name, unit, _ in PER_LAYER}
