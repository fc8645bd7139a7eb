"""The exactness contract: reports are byte-identical once `timings` is dropped.

Each case pins the SHA-256 of `render_json(report)` with `timings` removed.
A refactor or a speed-up keeps every pin; a broken pin means the code
changed a report, so fix the code, not the pin.
"""

import hashlib
import json
from pathlib import Path

import pytest

from typeflow.cli import render_json, run_scenario
from typeflow.groups import group_from_json, symmetric_group_3

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def every_task_over_the_integers():
    """Every cataloged task over the integers at level 4, plus left-ideal
    checks that fail on a partial circle and on a realized member."""
    p = {"kind": "limit", "sign": "+", "res": 0, "mod": 4}
    q = {"kind": "limit", "sign": "-", "res": 1, "mod": 4}
    flow = {"carrier": 4, "pi": [1, 2, 3, 0], "base": 0}
    plus = [{"kind": "limit", "sign": "+", "res": r, "mod": 4} for r in range(4)]
    tasks = [
        {"op": "star", "p": p, "q": q},
        {"op": "star-via-schema", "p": p, "q": q},
        {"op": "idempotents"},
        {"op": "minimal-subflows"},
        {"op": "universal-minimal-flow"},
        {"op": "is-left-ideal", "points": plus},
        {"op": "is-left-ideal", "points": plus[:3]},
        {"op": "is-left-ideal", "points": plus + [{"kind": "realized", "value": 2}]},
        {"op": "check-flow", "flow": flow},
        {"op": "universal-ambit-morphism", "flow": flow},
        {"op": "universal-ambit-morphism", "flow": {"carrier": 2, "pi": [1, 0], "base": 1}},
        {"op": "extend-map", "map": {"period": 2, "up": [0, 1], "down": [0, 1], "window": {"0": 9}}},
        {"op": "kernel-of-action"},
        {"op": "fixed-points"},
        {"op": "invariant-measure"},
        {"op": "pestov-check", "max_modulus": 3},
        {"op": "kernel-intersection", "max_modulus": 3},
        {"op": "singleton-minimal", "max_modulus": 3},
        {"op": "measure-definability", "max_modulus": 2},
        {"op": "difference-set", "set": "evens"},
        {"op": "is-generic", "set": "evens"},
        {"op": "boolean", "kind": "union", "a": "evens", "b": "odds"},
        {"op": "translate", "g": 3, "set": "evens"},
        {"op": "acting-set", "p": p, "set": "evens"},
        {"op": "contains", "p": p, "set": "evens"},
        {"op": "logic-quotient", "modulus": 4},
        {"op": "g00"},
        {"op": "universal-compactification", "targets": [2, 4]},
        {"op": "check-homomorphism", "values": [0, 1], "target": {"kind": "cyclic", "order": 2}},
    ]
    return {"group": {"kind": "integers"}, "level": 4, "tasks": tasks}


def relabelled_s3_table():
    """The s3 table under a relabelling that puts the identity at index 3."""
    table = symmetric_group_3().table
    label = [3, 0, 5, 1, 4, 2]  # old index -> new index
    new = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            new[label[a]][label[b]] = label[table[a][b]]
    return new


def finite_table_dynamics():
    table = relabelled_s3_table()
    elements = [{"kind": "realized", "value": g} for g in range(6)]
    regular = {"carrier": 6, "action": table, "base": 3}
    return {
        "group": {"kind": "finite", "name": "s3-relabelled", "table": table},
        "tasks": [
            {"op": "universal-minimal-flow"},
            {"op": "is-left-ideal", "points": elements},
            {"op": "is-left-ideal", "points": elements[:3]},
            {"op": "is-left-ideal", "points": elements + [{"kind": "limit", "sign": "+", "res": 0, "mod": 1}]},
            {"op": "invariant-measure"},
            {"op": "invariant-measure", "flow": regular},
            {"op": "fixed-points"},
            {"op": "fixed-points", "flow": regular},
            {"op": "universal-ambit-morphism", "flow": regular},
        ],
    }


def load(name):
    return json.loads((SCENARIOS / name).read_text(encoding="utf-8"))


CASES = {
    "integers-level4": (
        lambda: load("integers-level4.json"),
        False,
        "9758c2d3eb09850c623020efb08f2308997dcea75e14ce9361d6bf1652de5530",
    ),
    "integers-level4-oracle": (
        lambda: load("integers-level4.json"),
        True,
        "da2987d9c13aec00a9f5bcf86faf2eca9f7cf1e50b66c0d08169bc18d92bf949",
    ),
    "symmetric3": (
        lambda: load("symmetric3.json"),
        False,
        "806d349369a617c310db1d766aad0ba96169b40ade9dd0796b30484e005413c1",
    ),
    "every-task-integers-oracle": (
        every_task_over_the_integers,
        True,
        "5a0db54842ce8289af5ebdf0747538615ef729c5cc82ecf3ffec654821adf9b6",
    ),
    "finite-table-dynamics": (
        finite_table_dynamics,
        False,
        "1f5cd5afc851b087de8d0f434c2eaabe18ed5988940bae37524d0a853797ef1b",
    ),
}


def digest(scenario, with_oracle):
    report, _ = run_scenario(scenario, with_oracle=with_oracle)
    del report["timings"]
    return hashlib.sha256(render_json(report).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(CASES))
def test_report_digest_is_pinned(name):
    build, with_oracle, pinned = CASES[name]
    assert digest(build(), with_oracle) == pinned


@pytest.mark.parametrize(
    "group",
    [{"kind": "bundled", "name": "s3"}, {"kind": "finite", "table": relabelled_s3_table()}],
    ids=["s3", "s3-identity-at-3"],
)
def test_universal_minimal_flow_over_a_table_reports_identity_maps(group):
    ctx = group_from_json(group)
    report, code = run_scenario({"group": group, "tasks": [{"op": "universal-minimal-flow"}]})
    elements = [{"kind": "realized", "value": g} for g in ctx.elements()]
    assert code == 0
    assert report["results"][0]["result"] == {
        "subflow": elements,
        "idempotent": {"kind": "realized", "value": ctx.identity},
        "isomorphisms": [
            {
                "target": elements,
                "map": [[p, p] for p in elements],
                "checks": {"bijective": True, "mutually_inverse": True, "equivariant": True},
            }
        ],
    }
