"""The exactness contract: reports are byte-identical once `timings` is dropped.

Each case pins the SHA-256 of `render_json(report)` with `timings` removed,
so the pinned bytes are the report's canonical form,
`json.dumps(report, sort_keys=True)`. A refactor or a speed-up keeps every
pin; a broken pin means the code changed a report, so fix the code, not
the pin.
"""

import hashlib
import json
from pathlib import Path

import pytest
import reference_check  # noqa: F401  (puts the checkout root, and so perfbench, on sys.path)

from perfbench import worker
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


def realized_points_over_the_integers():
    """Realized points in every product position, both product routes, and
    realized acting sets and membership, over the integers at level 4."""
    five = {"kind": "realized", "value": 5}
    minus_three = {"kind": "realized", "value": -3}
    limit = {"kind": "limit", "sign": "-", "res": 3, "mod": 4}
    pairs = [(five, limit), (limit, minus_three), (five, minus_three)]
    tasks = [{"op": op, "p": p, "q": q} for op in ("star", "star-via-schema") for p, q in pairs]
    for p in (five, minus_three):
        tasks.append({"op": "acting-set", "p": p, "set": "evens"})
        tasks.append({"op": "contains", "p": p, "set": "odds"})
        tasks.append({"op": "contains", "p": p, "set": "evens"})
    tasks.append({"op": "acting-set", "p": minus_three, "set": {"mod": 3, "up": [1], "down": [2]}})
    return {"group": {"kind": "integers"}, "level": 4, "tasks": tasks}


def realized_points_over_s3():
    """Products of non-commuting realized points over s3 in both orders, and
    a realized acting set: right translation, which differs from left here."""
    one, three = ({"kind": "realized", "value": g} for g in (1, 3))
    return {
        "group": {"kind": "bundled", "name": "s3"},
        "tasks": [
            {"op": "star", "p": one, "q": three},
            {"op": "star", "p": three, "q": one},
            {"op": "acting-set", "p": one, "set": [3]},
            {"op": "contains", "p": three, "set": [3, 4]},
        ],
    }


def realized_points_over_a_product():
    """Realized pairs over Z x c2: their product, acting set and membership."""
    p = {"kind": "realized", "value": [3, 1]}
    q = {"kind": "realized", "value": [-5, 1]}
    rectangles = {"rectangles": [["evens", [0]], [[1, 3, 7], [1]]]}
    return {
        "group": {"kind": "product", "left": {"kind": "integers"}, "right": {"kind": "cyclic", "order": 2}},
        "tasks": [
            {"op": "star", "p": p, "q": q},
            {"op": "acting-set", "p": p, "set": rectangles},
            {"op": "contains", "p": p, "set": rectangles},
            {"op": "contains", "p": q, "set": rectangles},
        ],
    }


def compactify_over_s3():
    """The three compactify tasks over a table: a coset partition and a
    lopsided one, two family members, and a valid and an invalid map."""
    sign = {"kind": "cyclic", "order": 2}
    return {
        "group": {"kind": "bundled", "name": "s3"},
        "tasks": [
            {"op": "logic-quotient", "blocks": [[3, 4, 5], [0, 1, 2]]},
            {"op": "logic-quotient", "blocks": [[0], [1, 2, 3, 4, 5]]},
            {"op": "universal-compactification", "targets": [[0, 1, 2], [0]]},
            {"op": "check-homomorphism", "values": [0, 0, 0, 1, 1, 1], "target": sign},
            {"op": "check-homomorphism", "values": [0, 1, 0, 1, 0, 1], "target": sign},
        ],
    }


def load(name):
    return json.loads((SCENARIOS / name).read_text(encoding="utf-8"))


CASES = {
    "integers-level4": (
        lambda: load("integers-level4.json"),
        False,
        "a1b6b88f1a04c3fa4e9886afb8f7f38652b0adcfcace439e3d27e3fec407e862",
    ),
    "integers-level4-oracle": (
        lambda: load("integers-level4.json"),
        True,
        "2e45d7486fdecf6e8a8e7827d51fc17ed158395b471cfd36990ccd594e9097f5",
    ),
    "integers-level48": (
        lambda: load("integers-level48.json"),
        False,
        "2e4b71a0d97e4408bfe8dfa15c438525e6176a55a7bd2af01f2490ffef405a76",
    ),
    "oracle-large-period": (
        lambda: load("oracle-large-period.json"),
        False,
        "98e85e39e4052b92fb17f26ba05ae2e90f3f04cf708c22f188807117116949cb",
    ),
    "oracle-large-period-oracle": (
        lambda: load("oracle-large-period.json"),
        True,
        "f5ce4188700f5132a07c17a92549aa4cc9aa54636ca7a2b86ffab74b88d841a6",
    ),
    "symmetric3": (
        lambda: load("symmetric3.json"),
        False,
        "07a2ae24c5eeef0ab5040f51bbb163b22eb7cced880212ea0604248ec78f1bd5",
    ),
    "every-task-integers-oracle": (
        every_task_over_the_integers,
        True,
        "bcb9938cf4ff4d8c7c3b85261bcf7cd292d4652556e27744ed8554f32dd9e22c",
    ),
    "finite-table-dynamics": (
        finite_table_dynamics,
        False,
        "401ccd780510374ed748c30b0b35de112d4f83e71db39b37b5ebce5309eca7e9",
    ),
    "realized-points-integers": (
        realized_points_over_the_integers,
        False,
        "57582c71ad23f799ea6216f60c215482621445ccbe57bc6115670141093b33b3",
    ),
    "realized-points-integers-oracle": (
        realized_points_over_the_integers,
        True,
        "cc9a2e41ed00b3c6b3f8eefa3957e990a4ad0187c5748d564c51b35b013ef690",
    ),
    "realized-points-s3": (
        realized_points_over_s3,
        False,
        "978aa7cfed2a61cf5eb456d2b48e38c336870c456a8102dcf0960af040f82251",
    ),
    "realized-points-product": (
        realized_points_over_a_product,
        False,
        "2c815f3dff1a3109fb314d101dc7c7ef97ea4d1fbcf2721c79c6fea7d3a3e80d",
    ),
    "realized-points-product-oracle": (
        realized_points_over_a_product,
        True,
        "464ba1ab5fd9bbc3671893f643149ecce9cf4e26c969b9d9a6b9d635b43f570f",
    ),
    "compactify-s3": (
        compactify_over_s3,
        False,
        "5848e4a1d3d56a8aa1753b74b8543af9a198821e0404ae2431c99d39a86d2aad",
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


def test_the_benchmark_digest_ignores_total_ms():
    # perfbench.worker blanks `"timings": {...}` by a regex that needs the
    # space the default separator puts after each colon
    report, _ = run_scenario(load("integers-level4.json"))
    renders = []
    for total_ms in (0, 12345):
        report["timings"] = {"total_ms": total_ms}
        renders.append(render_json(report))
    assert renders[0] != renders[1]
    assert worker.digest(renders[0]) == worker.digest(renders[1])


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
