"""Scenario-driven batch interface.

A scenario file names a group backend, a level, and a list of tasks; the
tool executes the tasks in order and emits one deterministic report (JSON
by default, human-readable text with --text). Exit codes: 0 success, 2
schema, parse or render error, 3 task error (the report is still emitted,
flagged partial).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from fractions import Fraction

from . import __version__
from .amenability import (
    PestovCertificate,
    fixed_points,
    fixed_points_of_flow,
    invariant_measure,
    invariant_measure_of_flow,
    kernel_intersection,
    measure_definability_check,
    pestov_check,
    singleton_minimal_criterion,
    verify_invariance,
)
from .compactify import (
    definable_homomorphism_check,
    g00_at_level,
    logic_quotient,
    universal_compactification,
)
from .defsets import (
    boolean_op,
    difference_set,
    is_left_generic,
    json_int,
    set_from_json,
    set_to_json,
    subgroup_to_json,
    translate,
)
from .ellis import find_idempotents, star, star_via_schema
from .flows import (
    check_definable_flow,
    EventuallyPeriodicMap,
    extend_definable_map,
    flow_from_json,
    is_left_ideal,
    kernel_of_flow,
    minimal_subflows,
    universal_ambit_morphism,
    universal_minimal_flow,
)
from .groups import FiniteGroup, Group, IntegerGroup, bundled_group, group_from_json
from .oracle import (
    EXHAUSTION_LEVEL_BOUND,
    oracle_difference_set,
    oracle_generic,
    oracle_idempotents,
    oracle_minimal_subflows,
    oracle_star,
    sufficient_radius,
    window_members,
)
from .typespace import (
    Limit,
    acting_set,
    contains,
    limit_points,
    point_from_json,
    point_key,
    point_to_json,
)


class SchemaError(ValueError):
    """The scenario file does not match the expected schema."""


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _points_json(points) -> list:
    return [point_to_json(p) for p in sorted(points, key=point_key)]


def _positive_int(params, name: str, default):
    """A task parameter that, when given, must be a positive JSON integer."""
    if name not in params:
        return default
    value = params[name]
    if type(value) is not int or value < 1:
        raise ValueError(f"{name} must be a positive integer, not {value!r}")
    return value


def _element_lists(params, name: str) -> list:
    """A task parameter that must be a JSON list of element lists."""
    value = params[name]
    if not isinstance(value, list) or not all(isinstance(part, list) for part in value):
        raise ValueError(f"{name} must be a list of element lists, not {value!r}")
    return value


def _point(ctx, obj):
    """A type point of the task; a realized value must be an element of ctx."""
    p = point_from_json(obj)
    if not isinstance(p, Limit):
        ctx.check_element(p)
    return p


# ---------------------------------------------------------------------------
# task handlers; each returns a JSON-ready result


def _task_star(ctx, level, params, opts):
    p = _point(ctx, params["p"])
    q = _point(ctx, params["q"])
    result = star(ctx, p, q)
    out = {"product": point_to_json(result)}
    if opts["with_oracle"]:
        lvl = result.modulus if isinstance(result, Limit) else level
        out["oracle_agrees"] = oracle_star(ctx, p, q, lvl) == result
    return out


def _task_star_via_schema(ctx, level, params, opts):
    p = _point(ctx, params["p"])
    q = _point(ctx, params["q"])
    direct = star(ctx, p, q)
    schema = star_via_schema(ctx, p, q)
    return {"product": point_to_json(schema), "agrees_with_closed_form": schema == direct}


def _task_idempotents(ctx, level, params, opts):
    idems = find_idempotents(ctx, level)
    out = {"idempotents": _points_json(idems)}
    if opts["with_oracle"] and isinstance(ctx, IntegerGroup) and level <= EXHAUSTION_LEVEL_BOUND:
        out["oracle_agrees"] = set(oracle_idempotents(ctx, level)) == set(idems)
    return out


def _task_minimal_subflows(ctx, level, params, opts):
    flows = minimal_subflows(ctx, level)
    out = {"subflows": [_points_json(f) for f in flows]}
    if opts["with_oracle"] and isinstance(ctx, IntegerGroup) and level <= EXHAUSTION_LEVEL_BOUND:
        out["oracle_agrees"] = set(oracle_minimal_subflows(ctx, level)) == set(flows)
    return out


def _task_universal_minimal_flow(ctx, level, params, opts):
    umf = universal_minimal_flow(ctx, level)
    out = {
        "subflow": _points_json(umf.subflow),
        "idempotent": point_to_json(umf.idempotent),
        "isomorphisms": [],
    }
    for other in umf.subflows:
        iso = umf.isomorphism_to(other)
        out["isomorphisms"].append(
            {
                "target": _points_json(other),
                "map": [
                    [point_to_json(p), point_to_json(iso.forward[p])]
                    for p in sorted(iso.forward, key=point_key)
                ],
                "checks": iso.certify(ctx),
            }
        )
    return out


def _task_is_left_ideal(ctx, level, params, opts):
    if not isinstance(params["points"], list):
        raise ValueError(f"points must be a list of type points, not {params['points']!r}")
    points = frozenset(_point(ctx, p) for p in params["points"])
    return {"left_ideal": is_left_ideal(ctx, level, points)}


def _task_check_flow(ctx, level, params, opts):
    F = flow_from_json(ctx, params["flow"])
    verdict = check_definable_flow(F)
    return {
        "valid": verdict.valid,
        "ambit": verdict.ambit,
        "orbit_periods": list(verdict.orbit_periods),
    }


def _task_ambit_morphism(ctx, level, params, opts):
    F = flow_from_json(ctx, params["flow"])
    h = universal_ambit_morphism(level, F)
    return {
        "orbit_period": h.orbit_period,
        "realized_images": list(h.realized_images),
        "limit_images": [
            [point_to_json(p), h.limit_images[p]]
            for p in sorted(h.limit_images, key=point_key)
        ],
        "checks": h.certify(),
    }


def _window_point(key: str) -> int:
    """The point a map window key names; only canonical decimals such as
    "-3" are keys, so that no two keys name the same point."""
    try:
        x = int(key)
    except ValueError:
        x = None
    if x is None or key != str(x):
        raise ValueError(f"map window key {key!r} is not a canonical integer")
    return x


def _task_extend_map(ctx, level, params, opts):
    if not isinstance(ctx, IntegerGroup):
        raise ValueError("extend-map applies to the integer backend")
    spec = params["map"]
    if not isinstance(spec, dict):
        raise ValueError(f"map must be an object, got {spec!r}")
    window = spec.get("window", {})
    if not isinstance(window, dict):
        raise ValueError(f"map window must be an object, got {window!r}")
    for side in ("up", "down"):
        if not isinstance(spec[side], list):
            raise ValueError(f"map {side} values must be a list, got {spec[side]!r}")
    f = EventuallyPeriodicMap(
        json_int(spec["period"], "map period"),
        spec["up"],
        spec["down"],
        {_window_point(k): v for k, v in window.items()},
    )
    points = limit_points(ctx, level)
    ext = extend_definable_map(f, level)
    images = {f"{'+' if p.sign > 0 else '-'}{p.residue}": ext.apply(p) for p in points}
    return {"limit_values": images, "checks": ext.certify()}


def _task_kernel_of_action(ctx, level, params, opts):
    if "flow" in params:
        return {"kernel": subgroup_to_json(kernel_of_flow(flow_from_json(ctx, params["flow"])))}
    # the kernel of the action on the level's minimal subflows
    return {"kernel": subgroup_to_json(g00_at_level(ctx, level))}


def _task_fixed_points(ctx, level, params, opts):
    if "flow" in params:
        return {"fixed_points": fixed_points_of_flow(flow_from_json(ctx, params["flow"]))}
    return {"fixed_points": _points_json(fixed_points(ctx, level))}


def _task_invariant_measure(ctx, level, params, opts):
    if "flow" in params:
        F = flow_from_json(ctx, params["flow"])
        mu = invariant_measure_of_flow(F)
        return {
            "weights": [[x, _frac(w)] for x, w in sorted(mu.weights.items())],
        }
    mu = invariant_measure(ctx, level)
    return {
        "weights": [
            [point_to_json(p), _frac(w)]
            for p, w in sorted(mu.weights.items(), key=lambda kv: point_key(kv[0]))
        ],
        "invariant": verify_invariance(ctx, mu),
    }


def _task_pestov_check(ctx, level, params, opts):
    result = pestov_check(ctx, _positive_int(params, "max_modulus", 4))
    if isinstance(result, PestovCertificate):
        return {
            "verdict": "certificate",
            "witness_set": set_to_json(result.witness_set),
            "translate_cover": list(result.genericity.translates),
            "difference_set": set_to_json(result.difference),
            "missed_element": result.missed_element,
            "note": result.note,
        }
    return {"verdict": "exhausted", "family_size": result.family_size, "note": result.note}


def _task_kernel_intersection(ctx, level, params, opts):
    kernel = kernel_intersection(ctx, _positive_int(params, "max_modulus", 4))
    return {"intersection": set_to_json(kernel), "subgroup": subgroup_to_json(kernel)}


def _task_singleton_minimal(ctx, level, params, opts):
    report = singleton_minimal_criterion(ctx, level, _positive_int(params, "max_modulus", 4))
    out = {
        "all_minimal_singletons": report.all_minimal_singletons,
        "meeting_sets_have_full_difference": report.meeting_sets_have_full_difference,
        "agree": report.agree,
    }
    if report.witness is not None:
        out["witness"] = set_to_json(report.witness)
    return out


def _task_measure_definability(ctx, level, params, opts):
    mu = invariant_measure(ctx, level)
    report = measure_definability_check(ctx, level, mu, _positive_int(params, "max_modulus", 4))
    entries = []
    for entry in report.entries:
        item = dict(entry)
        if "set" in item:
            item["set"] = set_to_json(item["set"])
        entries.append(item)
    return {"definable": report.definable, "entries": entries, "note": report.note}


def _task_difference_set(ctx, level, params, opts):
    Y = set_from_json(ctx, params["set"])
    diff = difference_set(Y)
    out = {"difference_set": set_to_json(diff)}
    if opts["with_oracle"] and isinstance(ctx, IntegerGroup):
        radius = max(
            200,
            8 * diff.period * (1 + abs(diff.lo) + abs(diff.hi)),
            sufficient_radius(Y),
        )
        listed = oracle_difference_set(Y, radius)
        half = radius // 2
        out["oracle_agrees"] = listed == window_members(diff, -half, half)
    return out


def _task_is_generic(ctx, level, params, opts):
    Y = set_from_json(ctx, params["set"])
    verdict = is_left_generic(ctx, Y)
    out = {"generic": verdict.generic}
    if verdict.translates is not None:
        out["translates"] = [list(t) if isinstance(t, tuple) else t for t in verdict.translates]
    if verdict.obstruction:
        out["obstruction"] = verdict.obstruction
    if verdict.note:
        out["note"] = verdict.note
    if opts["with_oracle"] and isinstance(ctx, IntegerGroup):
        # a generic Y has a cover of 2 * period translates within
        # +-(period + (hi - lo) / 2): one period of shifts for each side
        found = oracle_generic(
            Y,
            max_translates=2 * Y.period + 4,
            shift_bound=max(40, Y.period + abs(Y.lo) + abs(Y.hi)),
            radius=max(200, sufficient_radius(Y)),
        )
        out["oracle_agrees"] = (found is not None) == verdict.generic
    return out


def _task_boolean(ctx, level, params, opts):
    A = set_from_json(ctx, params["a"])
    B = set_from_json(ctx, params["b"]) if "b" in params else None
    return {"result": set_to_json(boolean_op(params["kind"], A, B))}


def _task_translate(ctx, level, params, opts):
    Y = set_from_json(ctx, params["set"])
    g = params["g"]
    if isinstance(g, list):
        g = tuple(g)
    return {"result": set_to_json(translate(g, Y))}


def _task_acting_set(ctx, level, params, opts):
    p = _point(ctx, params["p"])
    Y = set_from_json(ctx, params["set"])
    return {"result": set_to_json(acting_set(ctx, p, Y))}


def _task_contains(ctx, level, params, opts):
    p = _point(ctx, params["p"])
    Y = set_from_json(ctx, params["set"])
    return {"contains": contains(p, Y)}


def _task_logic_quotient(ctx, level, params, opts):
    if "modulus" not in params and "blocks" not in params:
        raise ValueError("logic-quotient needs a modulus (integers) or blocks (finite)")
    blocks = _element_lists(params, "blocks") if "blocks" in params else None
    quotient = logic_quotient(ctx, modulus=_positive_int(params, "modulus", None), blocks=blocks)
    return {
        "size": quotient.size,
        "is_group": quotient.is_group,
        "fibers": [set_to_json(f) for f in quotient.fibers],
    }


def _task_g00(ctx, level, params, opts):
    return {"subgroup": subgroup_to_json(g00_at_level(ctx, _positive_int(params, "level", level)))}


def _task_universal_compactification(ctx, level, params, opts):
    targets = params["targets"]
    if isinstance(ctx, IntegerGroup):
        if not isinstance(targets, list) or any(type(m) is not int or m < 1 for m in targets):
            raise ValueError(f"targets must be a list of positive integers, not {targets!r}")
    else:
        _element_lists(params, "targets")
    result = universal_compactification(ctx, level, targets)
    return {
        "quotient_size": result.quotient_size,
        "factors": [{"target_size": f.target_size, "images": list(f.images)} for f in result.factors],
    }


def _task_check_homomorphism(ctx, level, params, opts):
    target_spec = params["target"]
    if isinstance(target_spec, dict):
        target = group_from_json(target_spec)
    else:
        target = bundled_group(target_spec)
    if not isinstance(target, FiniteGroup):
        raise ValueError("homomorphism target must be a finite group")
    values = params["values"]
    if not isinstance(values, list):
        raise ValueError(f"values must be a list of target elements, not {values!r}")
    verdict = definable_homomorphism_check(ctx, values, target, _positive_int(params, "level", None))
    out = {"valid": verdict.valid}
    if verdict.reason:
        out["reason"] = verdict.reason
    if verdict.valid:
        if isinstance(ctx, IntegerGroup):
            out["fiber_modulus"] = verdict.fiber_modulus
        out["fibers"] = [set_to_json(f) for f in verdict.fibers]
        out["factor_images"] = list(verdict.factor_images)
    return out


# op -> (handler, parameter descriptions for --capabilities, the parameters
# the handler reads on every call). Parameters needed only in some cases,
# such as `b` for a binary boolean, are checked by the handler.
TASKS = {
    "star": (_task_star, {"p": "type point", "q": "type point"}, ("p", "q")),
    "star-via-schema": (_task_star_via_schema, {"p": "type point", "q": "type point"}, ("p", "q")),
    "idempotents": (_task_idempotents, {}, ()),
    "minimal-subflows": (_task_minimal_subflows, {}, ()),
    "universal-minimal-flow": (_task_universal_minimal_flow, {}, ()),
    "is-left-ideal": (_task_is_left_ideal, {"points": "list of type points"}, ("points",)),
    "check-flow": (_task_check_flow, {"flow": "flow presentation"}, ("flow",)),
    "universal-ambit-morphism": (_task_ambit_morphism, {"flow": "pointed flow presentation"}, ("flow",)),
    "extend-map": (_task_extend_map, {"map": "eventually periodic map"}, ("map",)),
    "kernel-of-action": (_task_kernel_of_action, {"flow": "optional flow presentation"}, ()),
    "fixed-points": (_task_fixed_points, {"flow": "optional flow presentation"}, ()),
    "invariant-measure": (_task_invariant_measure, {"flow": "optional flow presentation"}, ()),
    "pestov-check": (_task_pestov_check, {"max_modulus": "int, default 4"}, ()),
    "kernel-intersection": (_task_kernel_intersection, {"max_modulus": "int, default 4"}, ()),
    "singleton-minimal": (_task_singleton_minimal, {"max_modulus": "int, default 4"}, ()),
    "measure-definability": (_task_measure_definability, {"max_modulus": "int, default 4"}, ()),
    "difference-set": (_task_difference_set, {"set": "definable set"}, ("set",)),
    "is-generic": (_task_is_generic, {"set": "definable set"}, ("set",)),
    "boolean": (_task_boolean, {"kind": "union|intersection|complement", "a": "set", "b": "set (binary ops)"}, ("kind", "a")),
    "translate": (_task_translate, {"g": "group element", "set": "definable set"}, ("g", "set")),
    "acting-set": (_task_acting_set, {"p": "type point", "set": "definable set"}, ("p", "set")),
    "contains": (_task_contains, {"p": "type point", "set": "definable set"}, ("p", "set")),
    "logic-quotient": (_task_logic_quotient, {"modulus": "int (integers)", "blocks": "partition (finite)"}, ()),
    "g00": (_task_g00, {"level": "int, default scenario level"}, ()),
    "universal-compactification": (_task_universal_compactification, {"targets": "list of moduli or subgroups"}, ("targets",)),
    "check-homomorphism": (_task_check_homomorphism, {"values": "one period of values", "target": "finite group", "level": "optional int"}, ("values", "target")),
}


def list_capabilities() -> dict:
    """Stable machine-readable catalog of task names and parameter schemas."""
    return {
        "tool": "typeflow",
        "version": __version__,
        "tasks": [
            {"op": name, "params": TASKS[name][1]} for name in sorted(TASKS)
        ],
    }


def validate_scenario(scenario) -> Group:
    """Check the scenario's shape; returns the group context it names."""
    if not isinstance(scenario, dict):
        raise SchemaError("scenario must be a JSON object")
    if "group" not in scenario:
        raise SchemaError("scenario must name a group")
    try:
        ctx = group_from_json(scenario["group"])
    except KeyError as exc:
        raise SchemaError(f"bad group spec: missing field {exc}") from exc
    except (ValueError, TypeError) as exc:
        raise SchemaError(f"bad group spec: {exc}") from exc
    level = scenario.get("level", 1)
    if isinstance(level, bool) or not isinstance(level, int) or level < 1:
        raise SchemaError("level must be a positive integer")
    if isinstance(ctx, FiniteGroup) and level != 1:
        raise SchemaError("finite backends have only the trivial level 1")
    tasks = scenario.get("tasks", [])
    if not isinstance(tasks, list):
        raise SchemaError("tasks must be a list")
    for task in tasks:
        if not isinstance(task, dict) or "op" not in task:
            raise SchemaError("each task must be an object with an 'op' field")
        if not isinstance(task["op"], str) or task["op"] not in TASKS:
            raise SchemaError(f"unknown task {task['op']!r}")
        for name in TASKS[task["op"]][2]:
            if name not in task:
                raise SchemaError(f"task {task['op']!r} lacks required parameter {name!r}")
    return ctx


def run_scenario(scenario, with_oracle: bool = False):
    """Execute a scenario dict; returns (report, exit_code)."""
    ctx = validate_scenario(scenario)
    started = time.monotonic()
    level = scenario.get("level", 1)
    opts = {"with_oracle": with_oracle}
    results = []
    partial = False
    for task in scenario.get("tasks", []):
        op = task["op"]
        params = {k: v for k, v in task.items() if k != "op"}
        handler = TASKS[op][0]
        entry = {"op": op, "params": params}
        try:
            entry["result"] = handler(ctx, level, params, opts)
            entry["ok"] = True
        except (
            ValueError,
            KeyError,
            TypeError,
            AssertionError,
            OverflowError,
        ) as exc:
            entry["ok"] = False
            entry["error"] = f"{type(exc).__name__}: {exc}"
            partial = True
        results.append(entry)
    report = {
        "tool": "typeflow",
        "version": __version__,
        "scenario": scenario,
        "results": results,
        "partial": partial,
        "timings": {"total_ms": int((time.monotonic() - started) * 1000)},
    }
    return report, (3 if partial else 0)


# A report is a tree of fresh values and parsed JSON, so no container can
# hold itself and the encoder skips its per-container cycle bookkeeping.
_ENCODER = json.JSONEncoder(sort_keys=True, check_circular=False)


def render_json(report) -> str:
    """The report on one line, as the stdlib's C encoder writes it with sorted keys.

    The separators are the defaults, `", "` and `": "`, and every non-ASCII
    or control character is escaped. The encoder does not check for cycles:
    a report nested deeper than its stack allows, or one that holds itself,
    raises `RecursionError`, which `main` reports as a one-line error.
    """
    return _ENCODER.encode(report)


def render_text(report) -> str:
    lines = [f"typeflow {report['version']}"]
    for entry in report["results"]:
        status = "ok" if entry["ok"] else "error"
        lines.append(f"- {entry['op']}: {status}")
        if entry["ok"]:
            lines.append(f"    {json.dumps(entry['result'], sort_keys=True)}")
        else:
            lines.append(f"    {entry['error']}")
    if report["partial"]:
        lines.append("(partial: some tasks failed)")
    return "\n".join(lines)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use; never mutated."""
    parser = argparse.ArgumentParser(
        prog="typeflow",
        description="scenario-driven analyses of definable dynamics at finite levels",
    )
    parser.add_argument("--scenario", help="path to a scenario JSON file")
    parser.add_argument("--text", action="store_true", help="human-readable report")
    parser.add_argument("--with-oracle", action="store_true", help="re-run oracle agreement checks")
    parser.add_argument("--capabilities", action="store_true", help="print the task catalog and exit")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.capabilities:
        print(render_json(list_capabilities()))
        return 0
    if not args.scenario:
        parser.print_usage(sys.stderr)
        return 2
    try:
        with open(args.scenario, "r", encoding="utf-8") as fh:
            scenario = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, bytes that are not UTF-8 and
        # integer literals past the interpreter's digit limit
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        report, code = run_scenario(scenario, args.with_oracle)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        out = render_text(report) if args.text else render_json(report)
    except RecursionError as exc:
        # the scenario echo nests as deep as the file did
        print(f"error: cannot render report: {exc}", file=sys.stderr)
        return 2
    print(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
