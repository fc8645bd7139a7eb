import argparse
import collections
import contextlib
import copy
import dataclasses
import io
import json
import os
import random
import re
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typeflow import cli, oracle
from typeflow.cli import SchemaError, list_capabilities, main, render_json, render_text, run_scenario
from typeflow.defsets import IntegerSet, complement, congruence_set, intersect, set_from_json
from typeflow.groups import INTEGERS, FiniteGroup
from typeflow.typespace import point_from_json


def strip_timings(report):
    out = dict(report)
    out.pop("timings", None)
    return out


def test_minimal_subflows_scenario():
    scenario = {
        "group": {"kind": "integers"},
        "level": 4,
        "tasks": [{"op": "minimal-subflows"}],
    }
    report, code = run_scenario(scenario)
    assert code == 0
    subflows = report["results"][0]["result"]["subflows"]
    assert len(subflows) == 2
    assert all(len(f) == 4 for f in subflows)


def test_pestov_scenario():
    scenario = {
        "group": {"kind": "integers"},
        "tasks": [{"op": "pestov-check", "max_modulus": 4}],
    }
    report, code = run_scenario(scenario)
    assert code == 0
    result = report["results"][0]["result"]
    assert result["verdict"] == "certificate"
    assert set_from_json(INTEGERS, result["witness_set"]) == congruence_set(2, [0])
    assert result["translate_cover"] == [0, 1]


def test_report_determinism_modulo_timings():
    scenario = {
        "group": {"kind": "integers"},
        "level": 6,
        "tasks": [
            {"op": "minimal-subflows"},
            {"op": "idempotents"},
            {"op": "universal-minimal-flow"},
            {"op": "invariant-measure"},
            {"op": "kernel-intersection", "max_modulus": 4},
        ],
    }
    a, _ = run_scenario(scenario)
    b, _ = run_scenario(scenario)
    dump = lambda r: json.dumps(strip_timings(r), sort_keys=True)
    assert dump(a) == dump(b)


def test_report_values_round_trip():
    scenario = {
        "group": {"kind": "integers"},
        "level": 4,
        "tasks": [
            {"op": "difference-set", "set": "evens"},
            {
                "op": "star",
                "p": {"kind": "realized", "value": 5},
                "q": {"kind": "limit", "sign": "+", "res": 1, "mod": 4},
            },
        ],
    }
    report, code = run_scenario(scenario)
    assert code == 0
    diff = set_from_json(INTEGERS, report["results"][0]["result"]["difference_set"])
    assert diff == congruence_set(2, [0])
    product = point_from_json(report["results"][1]["result"]["product"])
    assert product.residue == 2 and product.modulus == 4


def test_task_error_gives_partial_report_and_exit_3():
    scenario = {
        "group": {"kind": "integers"},
        "level": 6,
        "tasks": [
            {"op": "universal-compactification", "targets": [4]},
            {"op": "minimal-subflows"},
        ],
    }
    report, code = run_scenario(scenario)
    assert code == 3
    assert report["partial"]
    assert not report["results"][0]["ok"]
    assert "level too coarse" in report["results"][0]["error"]
    assert report["results"][1]["ok"]


def test_schema_errors():
    with pytest.raises(SchemaError):
        run_scenario({"tasks": []})
    with pytest.raises(SchemaError):
        run_scenario({"group": {"kind": "integers"}, "tasks": [{"op": "no-such-op"}]})
    with pytest.raises(SchemaError):
        run_scenario({"group": {"kind": "integers"}, "level": 0, "tasks": []})
    # an op that is not a string is an unknown task, not a crash on hashing it
    for op in (["x"], {"name": "star"}):
        with pytest.raises(SchemaError, match="^unknown task "):
            run_scenario({"group": {"kind": "integers"}, "tasks": [{"op": op}]})


def test_capabilities_catalog():
    cat = list_capabilities()
    names = [t["op"] for t in cat["tasks"]]
    assert names == sorted(names)
    for required in ("star", "universal-minimal-flow", "pestov-check"):
        assert required in names
    assert json.loads(json.dumps(cat)) == cat
    assert list_capabilities() == cat


def test_with_oracle_flag():
    scenario = {
        "group": {"kind": "integers"},
        "level": 4,
        "tasks": [
            {"op": "difference-set", "set": "evens"},
            {"op": "is-generic", "set": "evens"},
            {"op": "minimal-subflows"},
        ],
    }
    report, code = run_scenario(scenario, with_oracle=True)
    assert code == 0
    assert all(r["result"].get("oracle_agrees", True) for r in report["results"])
    assert report["results"][0]["result"]["oracle_agrees"] is True


@pytest.mark.parametrize(
    "left, p, q, product",
    [({"kind": "integers"}, [1, 1], [2, 1], [3, 0]), ({"kind": "cyclic", "order": 3}, [2, 1], [2, 0], [1, 1])],
    ids=["z-x-c2", "c3-x-c2"],
)
def test_star_oracle_over_a_product_multiplies_by_the_group_law(left, p, q, product):
    group = {"kind": "product", "left": left, "right": {"kind": "cyclic", "order": 2}}
    task = {"op": "star", "p": {"kind": "realized", "value": p}, "q": {"kind": "realized", "value": q}}
    report, code = run_scenario({"group": group, "tasks": [task]}, with_oracle=True)
    assert code == 0
    assert report["results"][0]["result"] == {
        "product": {"kind": "realized", "value": product},
        "oracle_agrees": True,
    }


def oracle_verdicts(tasks):
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": tasks}, with_oracle=True)
    assert code == 0 and all(r["ok"] for r in report["results"])
    return [r["result"]["oracle_agrees"] for r in report["results"]]


def test_oracle_disagrees_with_a_difference_set_missing_a_member(monkeypatch):
    sets = ("evens", "odds", "all", {"mod": 3, "up": [0], "down": [0]})
    tasks = [{"op": "difference-set", "set": s} for s in sets]
    assert oracle_verdicts(tasks) == [True] * 4
    structured = cli.difference_set

    def one_member_dropped(Y):
        D = structured(Y)
        dropped = IntegerSet(1, lo=6, hi=6, bits=[1])
        assert intersect(D, dropped) == dropped
        return intersect(D, complement(dropped))

    monkeypatch.setattr(cli, "difference_set", one_member_dropped)
    assert oracle_verdicts(tasks) == [False] * 4


def test_oracle_disagrees_with_a_flipped_genericity_verdict(monkeypatch):
    tasks = [{"op": "is-generic", "set": s} for s in ("evens", "nonneg")]
    assert oracle_verdicts(tasks) == [True, True]
    structured = cli.is_left_generic

    def flipped(ctx, Y):
        verdict = structured(ctx, Y)
        return dataclasses.replace(verdict, generic=not verdict.generic)

    monkeypatch.setattr(cli, "is_left_generic", flipped)
    assert oracle_verdicts(tasks) == [False, False]


def test_main_exit_codes(tmp_path, capsys):
    good = tmp_path / "good.json"
    good.write_text(
        json.dumps(
            {"group": {"kind": "integers"}, "level": 4, "tasks": [{"op": "idempotents"}]}
        )
    )
    assert main(["--scenario", str(good)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["results"][0]["ok"]

    assert main(["--scenario", str(good), "--text"]) == 0
    assert "idempotents: ok" in capsys.readouterr().out

    bad = tmp_path / "bad.json"
    bad.write_text("garbage{")
    assert main(["--scenario", str(bad)]) == 2
    capsys.readouterr()

    unknown = tmp_path / "unknown.json"
    unknown.write_text(json.dumps({"group": {"kind": "integers"}, "tasks": [{"op": "zzz"}]}))
    assert main(["--scenario", str(unknown)]) == 2
    capsys.readouterr()

    list_op = tmp_path / "list-op.json"
    list_op.write_text(json.dumps({"group": {"kind": "integers"}, "tasks": [{"op": ["x"]}]}))
    assert main(["--scenario", str(list_op)]) == 2
    assert capsys.readouterr() == ("", "error: unknown task ['x']\n")

    assert main(["--capabilities"]) == 0
    assert "universal-minimal-flow" in capsys.readouterr().out


def test_finite_group_scenario():
    scenario = {
        "group": {"kind": "bundled", "name": "s3"},
        "tasks": [
            {"op": "pestov-check"},
            {"op": "fixed-points"},
            {"op": "g00"},
        ],
    }
    report, code = run_scenario(scenario)
    assert code == 0
    assert report["results"][0]["result"]["verdict"] == "certificate"
    assert report["results"][0]["result"]["witness_set"] == {"elements": [0]}
    assert report["results"][1]["result"]["fixed_points"] == []


@pytest.mark.parametrize("group", [{"kind": "cyclic", "order": 3}, {"kind": "bundled", "name": "s3"}])
@pytest.mark.parametrize("level", [2, 6])
def test_a_finite_backend_at_a_nontrivial_level_exits_2(group, level, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"group": group, "level": level, "tasks": [{"op": "idempotents"}]}))
    assert main(["--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: finite backends have only the trivial level 1\n"
    # the trivial level, given or implied, runs
    for scenario in ({"group": group, "level": 1, "tasks": []}, {"group": group, "tasks": []}):
        assert run_scenario(scenario)[1] == 0


def test_a_limit_point_in_a_finite_left_ideal_check_exits_3(tmp_path, capsys):
    elements = [{"kind": "realized", "value": g} for g in range(3)]
    limit = {"kind": "limit", "sign": "+", "res": 0, "mod": 1}
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "group": {"kind": "cyclic", "order": 3},
                "tasks": [
                    {"op": "is-left-ideal", "points": elements + [limit]},
                    {"op": "is-left-ideal", "points": elements},
                ],
            }
        )
    )
    assert main(["--scenario", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["results"][0]["error"] == "BackendMismatch: limit points live over the integers"
    assert report["results"][1]["result"] == {"left_ideal": True}


def test_raw_table_group_scenario():
    scenario = {
        "group": {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
        "tasks": [{"op": "kernel-intersection", "max_modulus": 3}],
    }
    report, code = run_scenario(scenario)
    assert code == 0
    assert report["results"][0]["result"]["subgroup"] == {"kind": "elements", "elements": [0]}


def test_mixed_level_star_is_answered_at_the_gcd():
    scenario = {
        "group": {"kind": "integers"},
        "level": 1,
        "tasks": [
            {
                "op": "star",
                "p": {"kind": "limit", "sign": "+", "res": 0, "mod": 997},
                "q": {"kind": "limit", "sign": "+", "res": 0, "mod": 996},
            }
        ],
    }
    report, code = run_scenario(scenario, with_oracle=True)
    assert code == 0
    assert report["results"][0]["result"] == {
        "product": {"kind": "limit", "sign": "+", "res": 0, "mod": 1},
        "oracle_agrees": True,
    }


def test_level_guard_flag_is_gone(capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", "integers-level4.json")
    with pytest.raises(SystemExit) as exc:
        main(["--level-guard", "5", "--scenario", path])
    assert exc.value.code == 2
    assert "--level-guard" in capsys.readouterr().err


def test_product_backend_scenario():
    scenario = {
        "group": {"kind": "product", "left": {"kind": "integers"}, "right": {"kind": "cyclic", "order": 2}},
        "tasks": [
            {
                "op": "is-generic",
                "set": {"rectangles": [[{"mod": 2, "up": [0], "down": [0], "window": {"lo": 0, "hi": -1, "bits": []}}, [0]]]},
            }
        ],
    }
    report, code = run_scenario(scenario)
    assert code == 0
    result = report["results"][0]["result"]
    assert result["generic"] and result["note"] == "relative to the rectangle algebra"


@pytest.mark.parametrize(
    "task",
    [
        {"op": "idempotents"},
        {"op": "minimal-subflows"},
        {"op": "fixed-points"},
        {"op": "invariant-measure"},
        {"op": "universal-minimal-flow"},
        {"op": "g00"},
        {"op": "kernel-of-action"},
        {"op": "is-left-ideal", "points": [{"kind": "realized", "value": [0, 0]}]},
    ],
    ids=lambda task: task["op"],
)
@pytest.mark.parametrize("right", [{"kind": "integers"}, {"kind": "cyclic", "order": 3}], ids=["c2xZ", "c2xc3"])
def test_type_space_tasks_fail_over_a_product(task, right):
    group = {"kind": "product", "left": {"kind": "cyclic", "order": 2}, "right": right}
    report, code = run_scenario({"group": group, "level": 3, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"] == "BackendMismatch: type spaces are provided for integer and finite backends"


@pytest.mark.parametrize("rectangles", [[[[0]]], 5, [[[0], [1], [0]]], [{"left": [0], "right": [1]}]])
def test_malformed_rectangles_are_a_task_error(rectangles):
    group = {"kind": "product", "left": {"kind": "cyclic", "order": 2}, "right": {"kind": "cyclic", "order": 2}}
    tasks = [{"op": "is-generic", "set": {"rectangles": rectangles}}, {"op": "is-generic", "set": {"rectangles": [[[0], [1]]]}}]
    report, code = run_scenario({"group": group, "tasks": tasks})
    assert code == 3
    assert report["results"][0]["error"] == (
        f"ValueError: rectangles must be a list of [left, right] pairs, got {rectangles!r}"
    )
    assert report["results"][1]["ok"]


def test_render_text_shape():
    scenario = {
        "group": {"kind": "integers"},
        "level": 2,
        "tasks": [{"op": "idempotents"}],
    }
    report, _ = run_scenario(scenario)
    text = render_text(report)
    assert text.startswith("typeflow")
    assert "- idempotents: ok" in text


def cataloged_task_params():
    """Valid parameters for every cataloged task over the integers at level 4."""
    point_p = {"kind": "limit", "sign": "+", "res": 0, "mod": 4}
    point_q = {"kind": "limit", "sign": "-", "res": 1, "mod": 4}
    flow = {"carrier": 4, "pi": [1, 2, 3, 0], "base": 0}
    ideal_points = [{"kind": "limit", "sign": "+", "res": r, "mod": 4} for r in range(4)]
    return {
        "star": {"p": point_p, "q": point_q},
        "star-via-schema": {"p": point_p, "q": point_q},
        "is-left-ideal": {"points": ideal_points},
        "check-flow": {"flow": flow},
        "universal-ambit-morphism": {"flow": flow},
        "extend-map": {"map": {"period": 2, "up": [0, 1], "down": [0, 1], "window": {"0": 9}}},
        "kernel-of-action": {},
        "fixed-points": {},
        "invariant-measure": {},
        "pestov-check": {"max_modulus": 3},
        "kernel-intersection": {"max_modulus": 3},
        "singleton-minimal": {"max_modulus": 3},
        "measure-definability": {"max_modulus": 2},
        "difference-set": {"set": "evens"},
        "is-generic": {"set": "evens"},
        "boolean": {"kind": "union", "a": "evens", "b": "odds"},
        "translate": {"g": 3, "set": "evens"},
        "acting-set": {"p": point_p, "set": "evens"},
        "contains": {"p": point_p, "set": "evens"},
        "logic-quotient": {"modulus": 4},
        "g00": {},
        "universal-compactification": {"targets": [2, 4]},
        "check-homomorphism": {"values": [0, 1], "target": {"kind": "cyclic", "order": 2}},
        "idempotents": {},
        "minimal-subflows": {},
        "universal-minimal-flow": {},
    }


def optional_parameter_variants():
    """Valid tasks over the integers at level 4 that give the optional
    parameters `cataloged_task_params` leaves out, as (op, params) pairs."""
    flow = {"carrier": 4, "pi": [1, 0, 2, 3]}
    return [
        ("kernel-of-action", {"flow": flow}),
        ("fixed-points", {"flow": flow}),
        ("invariant-measure", {"flow": flow}),
        ("g00", {"level": 2}),
        ("check-homomorphism", {**cataloged_task_params()["check-homomorphism"], "level": 4}),
    ]


def test_every_optional_parameter_variant_runs():
    variants = optional_parameter_variants()
    scenario = {"group": {"kind": "integers"}, "level": 4, "tasks": [{"op": op, **params} for op, params in variants]}
    report, code = run_scenario(scenario)
    assert code == 0 and all(r["ok"] for r in report["results"])
    given = {(op, name) for op, params in [*cataloged_task_params().items(), *variants] for name in params}
    cataloged = {(op, name) for op, (_, params, _) in cli.TASKS.items() for name in params}
    # partition blocks are read over finite backends only; these tasks run over the integers
    assert cataloged - given == {("logic-quotient", "blocks")}


def test_every_cataloged_task_runs():
    per_task_params = cataloged_task_params()
    catalog = [t["op"] for t in list_capabilities()["tasks"]]
    assert set(per_task_params) == set(catalog)
    scenario = {
        "group": {"kind": "integers"},
        "level": 4,
        "tasks": [{"op": op, **per_task_params[op]} for op in catalog],
    }
    report, code = run_scenario(scenario, with_oracle=True)
    assert code == 0, [r for r in report["results"] if not r["ok"]]
    assert all(r["ok"] for r in report["results"])
    assert report["results"][0]["op"] == catalog[0]


def test_a_missing_parameter_is_a_schema_error_only_when_always_read():
    dropped = {}
    errors = {}
    for op, params in cataloged_task_params().items():
        for name in params:
            task = {"op": op, **{k: v for k, v in params.items() if k != name}}
            scenario = {"group": {"kind": "integers"}, "level": 4, "tasks": [task]}
            try:
                report, code = run_scenario(scenario)
            except SchemaError as exc:
                assert str(exc) == f"task {op!r} lacks required parameter {name!r}"
                dropped[op, name] = "schema"
            else:
                dropped[op, name] = code
                errors[op, name] = report["results"][0].get("error")
    schema = sorted(key for key, outcome in dropped.items() if outcome == "schema")
    assert schema == sorted((op, name) for op, (_, _, required) in cli.TASKS.items() for name in required)
    # parameters that only some cases read stay task errors
    assert dropped["boolean", "b"] == 3 and dropped["logic-quotient", "modulus"] == 3
    assert errors["boolean", "b"] == "ValueError: union needs a second set b"
    assert errors["logic-quotient", "modulus"] == (
        "ValueError: logic-quotient needs a modulus (integers) or blocks (finite)"
    )
    assert dropped["pestov-check", "max_modulus"] == 0


def test_star_without_q_exits_2_with_one_line(tmp_path, capsys):
    path = tmp_path / "no-q.json"
    point = {"kind": "limit", "sign": "+", "res": 0, "mod": 4}
    path.write_text(json.dumps({"group": {"kind": "integers"}, "level": 4, "tasks": [{"op": "star", "p": point}]}))
    assert main(["--scenario", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: task 'star' lacks required parameter 'q'\n"


def parameter_paths(value, prefix=()):
    """The key or index path of every value nested inside a task's parameters."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, inner in items:
        yield prefix + (key,)
        yield from parameter_paths(inner, prefix + (key,))


def with_swapped(params, path, replacement):
    out = copy.deepcopy(params)
    holder = out
    for key in path[:-1]:
        holder = holder[key]
    holder[path[-1]] = replacement
    return out


def test_a_type_swapped_parameter_never_escapes_run_scenario():
    # every task parameter, at any depth, replaced by a value of the wrong
    # type or sign gives a report (exit 0 or 3), never an uncaught exception
    escapes = []
    for op, params in [*cataloged_task_params().items(), *optional_parameter_variants()]:
        for path in parameter_paths(params):
            for replacement in (None, True, 1.5, "x", [], {}, [None], 0, -1):
                task = {"op": op, **with_swapped(params, path, replacement)}
                scenario = {"group": {"kind": "integers"}, "level": 4, "tasks": [task]}
                try:
                    run_scenario(scenario, with_oracle=True)
                except SchemaError:
                    pass
                except Exception as exc:  # listed, so that one run names every escape
                    escapes.append((op, path, replacement, f"{type(exc).__name__}: {exc}"))
    assert escapes == []


@pytest.mark.parametrize(
    "group, flow, error",
    [
        ({"kind": "integers"}, {"carrier": 2, "pi": [0, 0]}, "generator is not a bijection of the carrier"),
        ({"kind": "cyclic", "order": 2}, {"carrier": 2, "action": [[1, 0], [1, 0]]}, "identity element does not act trivially"),
        ({"kind": "cyclic", "order": 2}, {"carrier": 2, "action": [[0, 0], [0, 0]]}, "element 0 does not act by a bijection"),
        ({"kind": "cyclic", "order": 2}, {"carrier": 3, "action": [[0, 1, 2], [1, 2, 0]]}, "action is not a homomorphism at (1,1)"),
    ],
    ids=["pi-not-bijective", "identity-moves", "rows-not-bijective", "not-a-homomorphism"],
)
@pytest.mark.parametrize("op", ["fixed-points", "invariant-measure", "kernel-of-action"])
def test_a_task_given_a_non_flow_fails_as_check_flow_does(group, flow, error, op):
    tasks = [{"op": "check-flow", "flow": flow}, {"op": op, "flow": flow}]
    report, code = run_scenario({"group": group, "tasks": tasks})
    assert code == 3
    check, task = report["results"]
    assert not check["ok"] and not task["ok"]
    assert task["error"] == check["error"] == f"ValueError: {error}"


@pytest.mark.parametrize(
    "spec, error",
    [
        ({"period": True, "up": [0], "down": [0]}, "map period must be an integer"),
        ({"period": 1.0, "up": [0], "down": [0]}, "map period must be an integer"),
        ({"period": 1, "up": [0], "down": [0], "window": [1]}, "map window must be an object"),
        ({"period": 1, "up": "0", "down": [0]}, "map up values must be a list"),
        ([1, [0], [0]], "map must be an object"),
    ],
)
def test_malformed_extend_map_fails_the_task(spec, error):
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": [{"op": "extend-map", "map": spec}]})
    assert code == 3
    assert report["results"][0]["error"].startswith(f"ValueError: {error}")


@pytest.mark.parametrize("group", [{"kind": "cyclic"}, {"kind": "finite", "table": 5}])
def test_malformed_group_is_a_one_line_schema_error(group, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"group": group, "tasks": []}))
    assert main(["--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad group spec") and captured.err.count("\n") == 1


def test_type_error_in_a_task_gives_partial_report(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "group": {"kind": "integers"},
                "tasks": [{"op": "translate", "g": [1], "set": "evens"}, {"op": "idempotents"}],
            }
        )
    )
    assert main(["--scenario", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["partial"]
    assert report["results"][0]["error"].startswith("TypeError")
    assert report["results"][1]["ok"]


def test_oracle_windows_fit_the_set():
    # a radius-200 window is below the sufficiency bound of these sets
    sparse = {"mod": 60, "up": [0], "down": [30], "window": {"lo": -3, "hi": 5, "bits": [1, 0, 0, 1, 0, 0, 0, 1, 1]}}
    one_sided = {"mod": 25, "up": [0, 7], "down": [], "window": {"lo": 0, "hi": 9, "bits": [1] * 10}}
    # 0 lies 56 from the nearest element, beyond a shift bound of 40
    wide_gap = {"mod": 7, "up": [0], "down": [0], "window": {"lo": -50, "hi": 50, "bits": [0] * 101}}
    # its difference set is all of Z, of period 1
    dense = {"mod": 60, "up": list(range(59)), "down": list(range(59)), "window": {"lo": -5, "hi": 5, "bits": [1, 0] * 5 + [1]}}
    scenario = {
        "group": {"kind": "integers"},
        "tasks": [
            {"op": "is-generic", "set": sparse},
            {"op": "is-generic", "set": one_sided},
            {"op": "is-generic", "set": wide_gap},
            {"op": "difference-set", "set": dense},
        ],
    }
    report, code = run_scenario(scenario, with_oracle=True)
    assert code == 0
    assert [r["result"].get("generic") for r in report["results"]] == [True, False, True, None]
    assert report["results"][3]["result"]["difference_set"] == {
        "mod": 1, "up": [0], "down": [0], "window": {"lo": 0, "hi": -1, "bits": []}
    }
    assert all(r["result"]["oracle_agrees"] for r in report["results"])

    # the oracle agrees on any set, whatever its period and window
    rng = random.Random(3)
    tasks = []
    for _ in range(40):
        period, lo = rng.randint(1, 12), rng.randint(-30, 0)
        hi = lo + rng.randint(-1, 40)
        Y = {
            "mod": period,
            "up": [r for r in range(period) if rng.random() < 0.3],
            "down": [r for r in range(period) if rng.random() < 0.3],
            "window": {"lo": lo, "hi": hi, "bits": [int(rng.random() < 0.2) for _ in range(hi - lo + 1)]},
        }
        tasks += [{"op": "is-generic", "set": Y}, {"op": "difference-set", "set": Y}]
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": tasks}, with_oracle=True)
    assert code == 0
    assert all(r["result"]["oracle_agrees"] for r in report["results"])


def test_oracle_windows_past_the_bit_bound_fail_before_reading(monkeypatch):
    def never(Y, lo, hi):
        raise AssertionError(f"membership read on [{lo}, {hi}]")

    monkeypatch.setattr(oracle, "_membership_mask", never)
    # the difference set's window of [-10, 10] gives a radius of 1.68e8
    huge = {"mod": 10**6, "up": [0], "down": [0], "window": {"lo": -5, "hi": 5, "bits": [1] + [0] * 9 + [1]}}
    tasks = [{"op": "is-generic", "set": huge}, {"op": "difference-set", "set": huge}]
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": tasks}, with_oracle=True)
    assert code == 3 and report["partial"]
    for kernel, r in zip(("genericity", "difference-set"), report["results"]):
        assert not r["ok"]
        assert re.fullmatch(
            rf"ValueError: {kernel} oracle needs \d+ bits, over the bound of {oracle.WINDOW_BIT_BOUND} bits",
            r["error"],
        )


def test_oracle_windows_of_large_periods_stay_under_the_bit_bound():
    # the bound counts the bits the kernels hold, which grow linearly with
    # the window radius; the CLI's difference-set radius grows with the
    # period times the difference set's window
    thirds = {"mod": 300, "up": [0], "down": [0], "window": {"lo": -30, "hi": 30, "bits": [1, 0, 0] * 20 + [1]}}
    plain = {"mod": 3000, "up": [0], "down": [0]}
    tasks = [
        {"op": "difference-set", "set": thirds},
        {"op": "is-generic", "set": thirds},
        {"op": "difference-set", "set": plain},
    ]
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": tasks}, with_oracle=True)
    assert code == 0
    assert all(r["result"]["oracle_agrees"] for r in report["results"])


def test_a_finite_table_is_verified_once_per_scenario(tmp_path, capsys, monkeypatch):
    built = []
    original = FiniteGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroup, "__init__", counting_init)
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "group": {"kind": "finite", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
                "tasks": [
                    {"op": "kernel-intersection", "max_modulus": 3},
                    {"op": "boolean", "kind": "complement", "a": {"elements": [1]}},
                ],
            }
        )
    )
    assert main(["--scenario", str(path)]) == 0
    assert all(entry["ok"] for entry in json.loads(capsys.readouterr().out)["results"])
    assert len(built) == 1


def test_assertion_error_in_a_task_gives_partial_report(tmp_path, capsys, monkeypatch):
    def failing_schema(*args, **kwargs):
        raise AssertionError("schema probes selected 2 residues")

    monkeypatch.setattr(cli, "star_via_schema", failing_schema)
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "group": {"kind": "integers"},
                "level": 4,
                "tasks": [
                    {
                        "op": "star-via-schema",
                        "p": {"kind": "limit", "sign": "+", "res": 1, "mod": 4},
                        "q": {"kind": "limit", "sign": "-", "res": 2, "mod": 4},
                    },
                    {"op": "idempotents"},
                ],
            }
        )
    )
    assert main(["--scenario", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["partial"]
    assert report["results"][0]["error"] == "AssertionError: schema probes selected 2 residues"
    assert report["results"][1]["ok"]


@pytest.mark.parametrize(
    "bad_set",
    [
        {"mod": 2, "up": [0], "window": [1]},
        {"mod": 1, "window": {"lo": 0, "hi": 0, "bits": ["0"]}},
        {"mod": 1, "window": {"lo": 0, "hi": 0, "bits": "0"}},
        {"mod": 1, "window": {"lo": 0, "hi": 0, "bits": [2]}},
        {"mod": 2.5, "up": [0]},
        {"mod": True, "up": [0]},
        {"mod": 2, "up": [0.5]},
        {"mod": 2, "down": 1},
        {"mod": 1, "window": {"lo": "0", "hi": 0, "bits": [1]}},
        [1, 2.5],
    ],
)
def test_malformed_integer_set_is_a_task_error(bad_set, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "group": {"kind": "integers"},
                "tasks": [{"op": "is-generic", "set": bad_set}, {"op": "idempotents"}],
            }
        )
    )
    assert main(["--scenario", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["partial"]
    assert report["results"][0]["error"].startswith("ValueError")
    assert report["results"][1]["ok"]


@pytest.mark.parametrize(
    "task",
    [
        {"op": "is-generic", "set": {"mod": 10**30, "up": [0]}},
        {"op": "boolean", "kind": "complement", "a": {"mod": 10**30, "up": [0]}},
    ],
)
def test_modulus_too_large_to_index_is_a_task_error(task, tmp_path, capsys):
    # 10**30 cannot size a residue table at all, so nothing is allocated
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"group": {"kind": "integers"}, "tasks": [task, {"op": "idempotents"}]}))
    assert main(["--scenario", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["partial"]
    assert report["results"][0]["error"].startswith("OverflowError: ")
    assert report["results"][1]["ok"]


def test_boolean_level_is_a_schema_error(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"group": {"kind": "integers"}, "level": True, "tasks": []}))
    assert main(["--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: level must be a positive integer\n"


def test_booleans_are_accepted_as_window_bits():
    Y = {"mod": 2, "up": [0], "down": [1], "window": {"lo": -1, "hi": 1, "bits": [True, 0, False]}}
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": [{"op": "boolean", "kind": "complement", "a": Y}]})
    assert code == 0
    assert report["results"][0]["result"]["result"] == {
        "mod": 2, "up": [1], "down": [0], "window": {"lo": 1, "hi": 0, "bits": []}
    }


# ---------------------------------------------------------------------------
# the scenario file and its parameters


def _write_bytes(tmp_path, data: bytes) -> str:
    path = tmp_path / "scenario.json"
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize(
    "data",
    [
        b'{"group": {"kind": "integers"}, "tasks": [], "x": ' + b"7" * 5000 + b"}",
        b'{"group": {"kind": "integers"}, "tasks": [], "x": ' + b"[" * 2000 + b"]" * 2000 + b"}",
        b'{"group": {"kind": "integers"}, "tasks": [], "x": "\xff"}',
    ],
    ids=["digit-limit", "nested-2000", "not-utf8"],
)
def test_unreadable_scenario_is_a_one_line_error(data, tmp_path, capsys):
    assert main(["--scenario", _write_bytes(tmp_path, data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: cannot read scenario: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("op", ["pestov-check", "kernel-intersection", "singleton-minimal", "measure-definability"])
@pytest.mark.parametrize("bound", [0, -2, True, 2.5])
def test_max_modulus_must_be_a_positive_integer(op, bound):
    scenario = {"group": {"kind": "integers"}, "level": 2, "tasks": [{"op": op, "max_modulus": bound}, {"op": "idempotents"}]}
    report, code = run_scenario(scenario)
    assert code == 3
    assert report["results"][0]["error"] == f"ValueError: max_modulus must be a positive integer, not {bound!r}"
    assert report["results"][1]["ok"]


def test_homomorphism_value_outside_the_target_is_a_task_error():
    for values in ([9], [0, 9]):
        scenario = {"group": {"kind": "integers"}, "tasks": [{"op": "check-homomorphism", "values": values, "target": "s3"}]}
        report, code = run_scenario(scenario)
        assert code == 3
        assert report["results"][0]["error"].startswith("BackendMismatch: 9 is not an element")


# ---------------------------------------------------------------------------
# the report renderer against the stdlib encoder


def reference_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


_tricky_text = st.text(st.sampled_from('ab"\\/\x00\x1f\x7f\n\té€\u2028\U0001d11e'), max_size=8)
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0]),
    st.text(max_size=8),
    _tricky_text,
)
_int_lists = st.lists(st.one_of(st.integers(), st.booleans()), max_size=8)
_json_values = st.recursive(
    st.one_of(_scalars, _int_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.text(max_size=6), _tricky_text), children, max_size=4),
    ),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_json_values)
def test_render_json_matches_the_stdlib_encoder(value):
    assert render_json(value) == reference_json(value)


def test_render_json_on_container_subclasses():
    point = collections.namedtuple("Point", "x y")
    value = collections.OrderedDict([("b", point(1, [True])), ("a", ())])
    assert render_json(value) == reference_json(value)


@pytest.mark.parametrize("name", ["integers-level4.json", "symmetric3.json"])
def test_bundled_reports_render_as_the_stdlib_encoder(name, capsys):
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios", name)
    with open(path, encoding="utf-8") as fh:
        report, code = run_scenario(json.load(fh))
    assert render_json(report) == reference_json(report)
    assert main(["--scenario", path]) == code
    out = capsys.readouterr().out
    report = json.loads(out)
    assert out == reference_json(report) + "\n"


def test_capabilities_render_as_the_stdlib_encoder(capsys):
    assert main(["--capabilities"]) == 0
    assert capsys.readouterr().out == reference_json(list_capabilities()) + "\n"


def test_deeply_nested_scenario_renders(tmp_path, capsys):
    nested = []
    for _ in range(900):
        nested = [nested]
    scenario = {"group": {"kind": "integers"}, "tasks": [], "nested": nested}
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["--scenario", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["scenario"] == scenario


def test_parser_is_built_once_per_process(tmp_path, capsys, monkeypatch):
    built = []
    original = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    cli._parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"group": {"kind": "integers"}, "tasks": []}))
    assert main(["--scenario", str(path)]) == 0
    assert main(["--capabilities"]) == 0
    capsys.readouterr()
    assert built == ["typeflow"]


# ---------------------------------------------------------------------------
# type points and task levels are checked as strictly as sets


@pytest.mark.parametrize(
    "field, value",
    [("res", 2.5), ("res", "3"), ("res", True), ("mod", "4"), ("mod", 4.0)],
)
def test_limit_point_fields_must_be_json_integers(field, value):
    p = {"kind": "limit", "sign": "+", "res": 1, "mod": 4}
    p[field] = value
    scenario = {"group": {"kind": "integers"}, "level": 4, "tasks": [{"op": "star", "p": p, "q": p}, {"op": "idempotents"}]}
    report, code = run_scenario(scenario)
    assert code == 3
    assert report["results"][0]["error"] == f"ValueError: type point {field} must be an integer, got {value!r}"
    assert report["results"][1]["ok"]


@pytest.mark.parametrize("value", [2.5, True])
def test_realized_value_must_be_an_element(value):
    task = {"op": "contains", "p": {"kind": "realized", "value": value}, "set": "evens"}
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"].startswith(f"BackendMismatch: {value!r} is not an element")


@pytest.mark.parametrize("level", [0, -4, True, 2.5])
def test_task_level_must_be_a_positive_integer(level):
    tasks = [
        {"op": "check-homomorphism", "values": [0, 1], "target": "c2", "level": level},
        {"op": "g00", "level": level},
        {"op": "g00"},
    ]
    report, code = run_scenario({"group": {"kind": "integers"}, "level": 2, "tasks": tasks})
    assert code == 3
    for entry in report["results"][:2]:
        assert entry["error"] == f"ValueError: level must be a positive integer, not {level!r}"
    assert report["results"][2]["result"] == {"subgroup": {"kind": "congruence", "modulus": 2}}


# ---------------------------------------------------------------------------
# integer task parameters and flow specs are JSON integers


@pytest.mark.parametrize("g", [True, 2.5, "3"])
def test_translate_by_a_non_integer_is_a_task_error(g):
    tasks = [{"op": "translate", "g": g, "set": "evens"}, {"op": "translate", "g": 3, "set": "evens"}]
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": tasks})
    assert code == 3
    assert report["results"][0]["error"].startswith(f"TypeError: {g!r} is not an integer")
    assert report["results"][1]["result"]["result"]["up"] == [1]


@pytest.mark.parametrize("modulus", [True, 0, 2.5, "2"])
def test_logic_quotient_modulus_must_be_a_positive_integer(modulus):
    task = {"op": "logic-quotient", "modulus": modulus}
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"] == f"ValueError: modulus must be a positive integer, not {modulus!r}"


@pytest.mark.parametrize("targets", [[True], [2.0], [2, "4"], [0], 4])
def test_compactification_targets_must_be_positive_integers(targets):
    task = {"op": "universal-compactification", "targets": targets}
    report, code = run_scenario({"group": {"kind": "integers"}, "level": 4, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"] == f"ValueError: targets must be a list of positive integers, not {targets!r}"


@pytest.mark.parametrize(
    "flow, message",
    [
        ({"carrier": 2.5, "pi": [1, 0]}, "flow carrier must be an integer, got 2.5"),
        ({"carrier": "2", "pi": [1, 0]}, "flow carrier must be an integer, got '2'"),
        ({"carrier": 2, "pi": [1, 0], "base": True}, "flow base must be an integer, got True"),
        ({"carrier": 2, "pi": [1.9, 0]}, "flow pi must be integers, got 1.9"),
        ({"carrier": 2, "pi": ["1", "0"]}, "flow pi must be integers, got '1'"),
        ({"carrier": 2, "pi": "10"}, "flow pi must be a list of integers, got '10'"),
    ],
)
def test_flow_spec_values_must_be_json_integers(flow, message):
    tasks = [{"op": "universal-ambit-morphism", "flow": flow}, {"op": "check-flow", "flow": flow}]
    report, code = run_scenario({"group": {"kind": "integers"}, "level": 2, "tasks": tasks})
    assert code == 3
    assert [entry["error"] for entry in report["results"]] == [f"ValueError: {message}"] * 2


def test_finite_flow_action_must_be_json_integers():
    flow = {"carrier": 2, "action": [[0, 1], [1.0, 0]]}
    report, code = run_scenario({"group": {"kind": "cyclic", "order": 2}, "tasks": [{"op": "check-flow", "flow": flow}]})
    assert code == 3
    assert report["results"][0]["error"] == "ValueError: flow action row must be integers, got 1.0"


# ---------------------------------------------------------------------------
# group specs and finite element parameters are JSON integers


@pytest.mark.parametrize(
    "group, message",
    [
        ({"kind": "cyclic", "order": 2.5}, "cyclic group order must be an integer, got 2.5"),
        ({"kind": "cyclic", "order": True}, "cyclic group order must be an integer, got True"),
        ({"kind": "cyclic", "order": "3"}, "cyclic group order must be an integer, got '3'"),
        ({"kind": "finite", "table": [[0, 1.7], [1, 0]]}, "table entries must be integers, got 1.7"),
        ({"kind": "finite", "table": [[False, True], [True, False]]}, "table entries must be integers, got False"),
        ({"kind": "finite", "table": [["0", "1"], ["1", "0"]]}, "table entries must be integers, got '0'"),
        ({"kind": "finite", "table": [[0, 1], "10"]}, "table entries must be integers, got '1'"),
        (
            {"kind": "product", "left": {"kind": "integers"}, "right": {"kind": "cyclic", "order": 2.0}},
            "cyclic group order must be an integer, got 2.0",
        ),
    ],
)
def test_group_spec_numbers_must_be_json_integers(group, message, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"group": group, "tasks": [{"op": "idempotents"}]}))
    assert main(["--scenario", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: bad group spec: {message}\n"


def test_homomorphism_target_spec_must_use_json_integers():
    task = {"op": "check-homomorphism", "values": [0, 1], "target": {"kind": "cyclic", "order": 2.0}}
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"] == "ValueError: cyclic group order must be an integer, got 2.0"


def test_homomorphism_target_that_is_not_finite_is_a_task_error():
    c2 = {"kind": "bundled", "name": "c2"}
    task = {"op": "check-homomorphism", "values": [0, 1], "target": {"kind": "product", "left": c2, "right": c2}}
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"] == "ValueError: homomorphism target must be a finite group"


@pytest.mark.parametrize(
    "order, task, bad",
    [
        (2, {"op": "universal-compactification", "targets": [[0, 7]]}, 7),
        (4, {"op": "universal-compactification", "targets": [[False, 2]]}, False),
        (4, {"op": "universal-compactification", "targets": [[0, 2.0]]}, 2.0),
        (2, {"op": "logic-quotient", "blocks": [[0], [True]]}, True),
        (4, {"op": "logic-quotient", "blocks": [[0, 2], [1, 3.0]]}, 3.0),
        (4, {"op": "logic-quotient", "blocks": [[0, 2], [1, -1, 3]]}, -1),
    ],
)
def test_finite_element_lists_are_checked(order, task, bad, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"group": {"kind": "cyclic", "order": order}, "tasks": [task, {"op": "idempotents"}]}))
    assert main(["--scenario", str(path)]) == 3
    report = json.loads(capsys.readouterr().out)
    assert report["partial"]
    assert report["results"][0]["error"] == f"BackendMismatch: {bad!r} is not an element of FiniteGroup(c{order}, order={order})"
    assert report["results"][1]["ok"]


# each finite-backend task parameter that holds group or carrier elements:
# a valid task over c4, the path to one element in it, and the bound that
# an in-range element stays below
_ELEMENT_SITES = [
    ({"op": "universal-compactification", "targets": [[0, 2]]}, ("targets", 0, 1), 4),
    ({"op": "logic-quotient", "blocks": [[0, 2], [1, 3]]}, ("blocks", 1, 0), 4),
    ({"op": "is-generic", "set": [0, 1]}, ("set", 1), 4),
    ({"op": "difference-set", "set": {"elements": [0, 2]}}, ("set", "elements", 0), 4),
    ({"op": "boolean", "kind": "union", "a": [0], "b": [1, 2]}, ("b", 1), 4),
    ({"op": "translate", "g": 1, "set": [0, 1]}, ("g",), 4),
    ({"op": "translate", "g": 1, "set": [0, 1]}, ("set", 0), 4),
    ({"op": "check-homomorphism", "values": [0, 1, 0, 1], "target": "c2"}, ("values", 3), 2),
    ({"op": "check-flow", "flow": {"carrier": 2, "action": [[0, 1], [1, 0], [0, 1], [1, 0]]}}, ("flow", "action", 1, 0), 2),
]


@st.composite
def _bad_element_scenarios(draw):
    task, path, bound = draw(st.sampled_from(_ELEMENT_SITES))
    bad = draw(
        st.one_of(
            st.booleans(),
            st.floats(),
            st.text(max_size=4),
            st.integers(max_value=-1),
            st.integers(min_value=bound),
        )
    )
    task = json.loads(json.dumps(task))
    slot = task
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = bad
    return {"group": {"kind": "cyclic", "order": 4}, "tasks": [task]}


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_bad_element_scenarios())
def test_bad_finite_elements_never_escape_main(scenario):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scenario.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--scenario", path])
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1
    else:
        assert code == 3 and err.getvalue() == ""
        report = json.loads(out.getvalue())
        assert report["partial"] and not report["results"][0]["ok"]


# ---------------------------------------------------------------------------
# extend-map window keys are canonical decimals


@pytest.mark.parametrize("key", ["03", " 3", "+3", "3_0", "-0", "3 ", "x"])
def test_extend_map_window_key_must_be_canonical(key):
    spec = {"period": 1, "up": [0], "down": [0], "window": {key: 1}}
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": [{"op": "extend-map", "map": spec}]})
    assert code == 3
    assert report["results"][0]["error"] == f"ValueError: map window key {key!r} is not a canonical integer"


def test_extend_map_keys_naming_one_point_twice_fail_the_task():
    spec = {"period": 1, "up": [0], "down": [0], "window": {"3": 1, "03": 1, " 3": 2, "+3": 3, "3_0": 7}}
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": [{"op": "extend-map", "map": spec}]})
    assert code == 3
    assert report["results"][0]["error"] == "ValueError: map window key '03' is not a canonical integer"


def test_extend_map_takes_negative_and_zero_keys():
    spec = {"period": 1, "up": [0], "down": [0], "window": {"-3": 1, "0": 1, "12": 1}}
    report, code = run_scenario({"group": {"kind": "integers"}, "level": 2, "tasks": [{"op": "extend-map", "map": spec}]})
    assert code == 0
    assert report["results"][0]["ok"]


# ---------------------------------------------------------------------------
# every table read from input is verified as a group


MALFORMED_TABLES = [
    ([[0, 1], [1, 0], [0, 1]], "table is not a square array of element indices"),
    ([[0, 1], [1, 2]], "table is not a square array of element indices"),
    ([[1, 0], [0, 0]], "table has no identity element"),
    ([[0, 1], [1, 1]], "element 1 has no inverse"),
    (
        [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]],
        "table is not associative at (1,1,2)",
    ),
]


@pytest.mark.parametrize("table, message", MALFORMED_TABLES)
def test_malformed_finite_table_is_a_schema_error(table, message, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"group": {"kind": "finite", "table": table}, "tasks": [{"op": "idempotents"}]}))
    assert main(["--scenario", str(path)]) == 2
    assert capsys.readouterr().err == f"error: bad group spec: {message}\n"


@pytest.mark.parametrize("table, message", MALFORMED_TABLES)
def test_malformed_homomorphism_target_table_fails_the_task(table, message):
    task = {"op": "check-homomorphism", "values": [0], "target": {"kind": "finite", "table": table}}
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"] == f"ValueError: {message}"
