"""Per-layer tracing from outside the program.

`Tracer.install` puts a timing wrapper around each layer's public entry
points and rebinds every module attribute in typeflow that refers to the
same function object (the modules import each other by name), plus the
constructors and methods named in METHODS. Each call records a span with
its parent, start and end in memory. When the outermost span of a scenario
ends, the spans are folded into per-name totals: calls, self time (the
span minus its child spans), counters taken from arguments and results,
and self time by call size for the growth tiers. `uninstall` restores
every original binding.

Per-element helpers (membership tests, point ordering, JSON of single
points) are left unwrapped: a span costs more than they do, so their time
counts toward the calling span.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict
from math import gcd

MARK = "_perfbench_span"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _canonical_size(args, kwargs):
    # normal-form width: the period plus the window length handed in
    period = int(_arg(args, kwargs, 1, "period"))
    bits = args[6] if len(args) > 6 else kwargs.get("bits", ())
    return period + len(bits)


def _quotient_size(args, kwargs):
    A, B = args[0], args[1]
    pa, pb = getattr(A, "period", None), getattr(B, "period", None)
    if pa is None or pb is None:
        return None
    return pa * pb // gcd(pa, pb)


def _schema_size(args, kwargs):
    mods = [getattr(p, "modulus", 1) for p in args[1:3]]
    return max(mods) if max(mods) > 1 else None


def _quotient_counts(result):
    if hasattr(result, "hi") and hasattr(result, "lo"):
        return {"out_window": result.hi - result.lo + 1}
    return None


def _generic_counts(result):
    return {"translates": len(result.translates or ()), "generic": int(result.generic)}


# (module, attribute) -> span name, size of the call, counters from the result
FUNCTIONS = {
    "typeflow.defsets": {
        "union": ("defsets.boolean",),
        "intersect": ("defsets.boolean",),
        "complement": ("defsets.boolean",),
        "translate": ("defsets.translate",),
        "right_translate": ("defsets.translate",),
        "integers_from": ("defsets.integers_from",),
        "quotient_set": ("defsets.quotient", _quotient_size, _quotient_counts),
        "is_left_generic": ("defsets.generic", None, _generic_counts),
        "set_from_json": ("defsets.json",),
        "set_to_json": ("defsets.json",),
    },
    "typeflow.typespace": {
        "contains": ("typespace.contains",),
        "acting_set": ("typespace.acting_set",),
        "apply_group": ("typespace.apply_group",),
    },
    "typeflow.ellis": {
        "star": ("ellis.star",),
        "star_via_schema": ("ellis.star_via_schema", _schema_size),
        "find_idempotents": ("ellis.find_idempotents",),
    },
    "typeflow.flows": {
        "is_left_ideal": ("flows.is_left_ideal", lambda a, k: int(_arg(a, k, 1, "level"))),
        "universal_ambit_morphism": ("flows.ambit_morphism",),
        "check_definable_flow": ("flows.check_definable_flow",),
        "minimal_subflows": ("flows.minimal_subflows",),
        "universal_minimal_flow": ("flows.universal_minimal_flow",),
        "flow_from_json": ("flows.json",),
    },
    "typeflow.amenability": {
        "generated_family": ("amenability.family", None, lambda r: {"members": len(r)}),
        "pestov_check": ("amenability.pestov",),
        "kernel_intersection": ("amenability.kernel_intersection",),
        "singleton_minimal_criterion": ("amenability.singleton_minimal",),
        "invariant_measure": ("amenability.measure",),
        "invariant_measure_of_flow": ("amenability.measure",),
        "verify_invariance": ("amenability.measure",),
        "fixed_points": ("amenability.fixed_points",),
        "fixed_points_of_flow": ("amenability.fixed_points",),
    },
    "typeflow.compactify": {
        "universal_compactification": ("compactify.universal",),
        "logic_quotient": ("compactify.logic_quotient",),
        "definable_homomorphism_check": ("compactify.homomorphism_check",),
        "finite_quotient": ("compactify.finite_quotient",),
        "g00_at_level": ("compactify.g00",),
    },
    "typeflow.oracle": {
        "oracle_generic": ("oracle.generic", None, lambda r: {"found": int(r is not None)}),
        "oracle_difference_set": ("oracle.difference_set",),
        "oracle_star": ("oracle.star",),
        "oracle_minimal_subflows": ("oracle.exhaustive",),
        "oracle_idempotents": ("oracle.exhaustive",),
    },
    "typeflow.cli": {
        "main": ("cli.main",),
        "run_scenario": ("cli.run_scenario",),
        "validate_scenario": ("cli.validate",),
    },
}

# (module, class, method) -> span name, size of the call, counters
METHODS = {
    ("typeflow.groups", "FiniteGroup", "__init__"): (
        "groups.construct",
        lambda a, k: len(_arg(a, k, 1, "table")),
    ),
    ("typeflow.defsets", "IntegerSet", "__init__"): ("defsets.canonicalize", _canonical_size),
    ("typeflow.defsets", "RectangleSet", "__init__"): ("defsets.rectangle",),
    ("typeflow.flows", "UniversalMinimalFlow", "isomorphism_to"): ("flows.umf_isomorphism",),
    ("typeflow.flows", "SubflowIsomorphism", "certify"): ("flows.umf_isomorphism",),
    ("typeflow.flows", "AmbitMorphism", "certify"): ("flows.ambit_morphism",),
}

# spans whose calls are reported per small and large size tier
TIERED = (
    "groups.construct",
    "defsets.canonicalize",
    "defsets.quotient",
    "ellis.star_via_schema",
    "flows.is_left_ideal",
)

# family searches whose genericity tests feed amenability.family.generic_ratio
FAMILY_SEARCHES = ("amenability.pestov", "amenability.kernel_intersection")


class _Stat:
    __slots__ = ("calls", "self_ns", "counters", "by_size")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.counters = defaultdict(int)
        self.by_size = defaultdict(lambda: [0, 0])  # size -> [calls, self_ns]


class Tracer:
    """Spans in memory, folded into per-name totals after each scenario."""

    def __init__(self):
        self.spans = []  # [name, parent index, start ns, end ns, size, counters]
        self.stack = []
        self.stats = defaultdict(_Stat)
        self.span_count = 0
        self._saved = []  # (owner, attribute, original)

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, size=None, counts=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns
        fold = self.fold

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0, 0, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if size is not None:
                rec[4] = size(args, kwargs)
            if counts is not None:
                rec[5] = counts(result)
            if not stack:
                fold()
            return result

        traced.__wrapped__ = fn
        setattr(traced, MARK, name)
        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sys.modules.items() if n == "typeflow" or n.startswith("typeflow.")]
        for modname, table in FUNCTIONS.items():
            home = sys.modules[modname]
            for attr, spec in table.items():
                original = getattr(home, attr)
                wrapper = self.wrap(original, *spec)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, key, original))
                            setattr(mod, key, wrapper)
        for (modname, cls_name, attr), spec in METHODS.items():
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self.wrap(original, *spec))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- folding ------------------------------------------------------------

    def fold(self):
        spans = self.spans
        child_ns = [0] * len(spans)
        for rec in spans:
            if rec[1] >= 0:
                child_ns[rec[1]] += rec[3] - rec[2]
        in_ideal = [False] * len(spans)
        stats = self.stats
        for i, (name, parent, start, end, size, counters) in enumerate(spans):
            own = end - start - child_ns[i]
            st = stats[name]
            st.calls += 1
            st.self_ns += own
            if size is not None:
                cell = st.by_size[size]
                cell[0] += 1
                cell[1] += own
            if counters:
                for key, value in counters.items():
                    st.counters[key] += value
            in_ideal[i] = name == "flows.is_left_ideal" or (parent >= 0 and in_ideal[parent])
            if name == "ellis.star" and in_ideal[i]:
                stats["flows.is_left_ideal"].counters["star"] += 1
            if name == "defsets.generic" and parent >= 0 and spans[parent][0] in FAMILY_SEARCHES:
                family = stats["amenability.family"].counters
                family["tested"] += 1
                family["tested_generic"] += counters["generic"]
        self.span_count += len(spans)
        spans.clear()


def installed_wrappers() -> list[str]:
    """Names of typeflow attributes that are tracing wrappers right now."""
    found = []
    for modname, mod in list(sys.modules.items()):
        if modname != "typeflow" and not modname.startswith("typeflow."):
            continue
        for key, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{modname}.{key}")
            elif isinstance(value, type):
                found += [f"{modname}.{key}.{a}" for a, v in vars(value).items() if hasattr(v, MARK)]
    return found


# ---------------------------------------------------------------------------
# per-layer metrics

LAYERS = ("groups", "defsets", "typespace", "ellis", "flows", "amenability", "compactify", "oracle", "cli")

# (metric, span, what): "calls", "self_ms" or a counter name
SIMPLE = [
    ("groups.construct.calls", "groups.construct", "calls"),
    ("groups.construct.self_ms", "groups.construct", "self_ms"),
    ("defsets.canonicalize.calls", "defsets.canonicalize", "calls"),
    ("defsets.canonicalize.self_ms", "defsets.canonicalize", "self_ms"),
    ("defsets.boolean.calls", "defsets.boolean", "calls"),
    ("defsets.boolean.self_ms", "defsets.boolean", "self_ms"),
    ("defsets.translate.calls", "defsets.translate", "calls"),
    ("defsets.translate.self_ms", "defsets.translate", "self_ms"),
    ("defsets.integers_from.calls", "defsets.integers_from", "calls"),
    ("defsets.integers_from.self_ms", "defsets.integers_from", "self_ms"),
    ("defsets.rectangle.calls", "defsets.rectangle", "calls"),
    ("defsets.rectangle.self_ms", "defsets.rectangle", "self_ms"),
    ("defsets.quotient.calls", "defsets.quotient", "calls"),
    ("defsets.quotient.self_ms", "defsets.quotient", "self_ms"),
    ("defsets.quotient.out_window", "defsets.quotient", "out_window"),
    ("defsets.generic.calls", "defsets.generic", "calls"),
    ("defsets.generic.self_ms", "defsets.generic", "self_ms"),
    ("defsets.generic.translates", "defsets.generic", "translates"),
    ("defsets.json.self_ms", "defsets.json", "self_ms"),
    ("typespace.contains.calls", "typespace.contains", "calls"),
    ("typespace.contains.self_ms", "typespace.contains", "self_ms"),
    ("typespace.acting_set.calls", "typespace.acting_set", "calls"),
    ("typespace.acting_set.self_ms", "typespace.acting_set", "self_ms"),
    ("typespace.apply_group.calls", "typespace.apply_group", "calls"),
    ("typespace.apply_group.self_ms", "typespace.apply_group", "self_ms"),
    ("ellis.star.calls", "ellis.star", "calls"),
    ("ellis.star.self_ms", "ellis.star", "self_ms"),
    ("ellis.star_via_schema.calls", "ellis.star_via_schema", "calls"),
    ("ellis.star_via_schema.self_ms", "ellis.star_via_schema", "self_ms"),
    ("ellis.find_idempotents.self_ms", "ellis.find_idempotents", "self_ms"),
    ("flows.is_left_ideal.calls", "flows.is_left_ideal", "calls"),
    ("flows.is_left_ideal.self_ms", "flows.is_left_ideal", "self_ms"),
    ("flows.umf_isomorphism.self_ms", "flows.umf_isomorphism", "self_ms"),
    ("flows.ambit_morphism.self_ms", "flows.ambit_morphism", "self_ms"),
    ("flows.check_definable_flow.self_ms", "flows.check_definable_flow", "self_ms"),
    ("flows.minimal_subflows.self_ms", "flows.minimal_subflows", "self_ms"),
    ("amenability.family.members", "amenability.family", "members"),
    ("amenability.pestov.self_ms", "amenability.pestov", "self_ms"),
    ("amenability.kernel_intersection.self_ms", "amenability.kernel_intersection", "self_ms"),
    ("amenability.singleton_minimal.self_ms", "amenability.singleton_minimal", "self_ms"),
    ("amenability.measure.self_ms", "amenability.measure", "self_ms"),
    ("amenability.fixed_points.self_ms", "amenability.fixed_points", "self_ms"),
    ("compactify.universal.self_ms", "compactify.universal", "self_ms"),
    ("compactify.logic_quotient.self_ms", "compactify.logic_quotient", "self_ms"),
    ("compactify.homomorphism_check.self_ms", "compactify.homomorphism_check", "self_ms"),
    ("compactify.finite_quotient.self_ms", "compactify.finite_quotient", "self_ms"),
    ("oracle.generic.calls", "oracle.generic", "calls"),
    ("oracle.generic.self_ms", "oracle.generic", "self_ms"),
    ("oracle.difference_set.self_ms", "oracle.difference_set", "self_ms"),
    ("oracle.star.calls", "oracle.star", "calls"),
    ("oracle.star.self_ms", "oracle.star", "self_ms"),
    ("oracle.exhaustive.self_ms", "oracle.exhaustive", "self_ms"),
    ("cli.main.self_ms", "cli.main", "self_ms"),
    ("cli.run_scenario.self_ms", "cli.run_scenario", "self_ms"),
    ("cli.validate.self_ms", "cli.validate", "self_ms"),
]

UNITS = {"calls": "count", "self_ms": "ms"}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _tiers(by_size: dict) -> dict:
    """Self time per call in the lower and upper third of the sizes seen
    (thirds on a log scale), with the growth exponent between them."""
    if not by_size:
        return {"small": (0.0, 0.0), "large": (0.0, 0.0), "exponent": 0.0}
    lo, hi = min(by_size), max(by_size)
    low_cut = lo * (hi / lo) ** (1 / 3)
    high_cut = lo * (hi / lo) ** (2 / 3)
    out = {}
    for tier, keep in (("small", lambda s: s <= low_cut), ("large", lambda s: s >= high_cut)):
        calls = sum(c for s, (c, _) in by_size.items() if keep(s))
        ns = sum(t for s, (_, t) in by_size.items() if keep(s))
        size = sum(s * c for s, (c, _) in by_size.items() if keep(s))
        out[tier] = (_ratio(ns / 1000, calls), _ratio(size, calls))
    (us_s, size_s), (us_l, size_l) = out["small"], out["large"]
    out["exponent"] = (
        math.log(us_l / us_s) / math.log(size_l / size_s) if us_s > 0 and us_l > 0 and size_l > size_s else 0.0
    )
    return out


def layer_metrics(stats: dict, passes: int) -> dict:
    """Per-layer metrics for one pass over the corpus: {name: (value, unit)}."""

    def stat(name):
        return stats.get(name) or _Stat()

    out = {}
    for metric, span, what in SIMPLE:
        st = stat(span)
        if what == "calls":
            value = st.calls / passes
        elif what == "self_ms":
            value = st.self_ns / 1e6 / passes
        else:
            value = st.counters.get(what, 0) / passes
        out[metric] = (value, UNITS.get(what, "count"))
    construct = stat("groups.construct")
    out["groups.construct.cells_checked"] = (
        sum(n**3 * c for n, (c, _) in construct.by_size.items()) / passes,
        "count",
    )
    ideal = stat("flows.is_left_ideal")
    out["flows.is_left_ideal.star_per_call"] = (_ratio(ideal.counters.get("star", 0), ideal.calls), "ratio")
    family = stat("amenability.family").counters
    out["amenability.family.generic_ratio"] = (_ratio(family.get("tested_generic", 0), family.get("tested", 0)), "ratio")
    oracle = stat("oracle.generic")
    out["oracle.generic.found_ratio"] = (_ratio(oracle.counters.get("found", 0), oracle.calls), "ratio")
    for span in TIERED:
        tiers = _tiers(stat(span).by_size)
        out[f"{span}.us_per_call.small"] = (tiers["small"][0], "us")
        out[f"{span}.us_per_call.large"] = (tiers["large"][0], "us")
        out[f"{span}.growth_exponent"] = (tiers["exponent"], "power")
    for layer in LAYERS:
        ns = sum(st.self_ns for name, st in stats.items() if name.split(".")[0] == layer)
        out[f"layer.{layer}.self_ms"] = (ns / 1e6 / passes, "ms")
    return out


def tier_sizes(stats: dict) -> dict:
    """Mean call size of each tier, for the printed summary."""
    out = {}
    for span in TIERED:
        st = stats.get(span)
        if st:
            tiers = _tiers(st.by_size)
            out[span] = (tiers["small"][1], tiers["large"][1])
    return out
