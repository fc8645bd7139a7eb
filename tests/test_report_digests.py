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
        "c4ace6f687cca3cb5f9e22dd20bada2c0322d6d1fccee9d2b85343ff742ecb77",
    ),
    "integers-level4-oracle": (
        lambda: load("integers-level4.json"),
        True,
        "92314d8eb7f2e604d654d17dea8a2a3614016a7dd041bc38a46e0ed2e751d80d",
    ),
    "oracle-large-period": (
        lambda: load("oracle-large-period.json"),
        False,
        "92c6ac63e60b8ed4178c3ef1ae355149aab4201325ebb4378e8e2b56bf170104",
    ),
    "oracle-large-period-oracle": (
        lambda: load("oracle-large-period.json"),
        True,
        "5b3ebf82b43cf3813d2b239f61ffd44058b48f60580d0eb5bf03fe110e35b7b1",
    ),
    "symmetric3": (
        lambda: load("symmetric3.json"),
        False,
        "806d349369a617c310db1d766aad0ba96169b40ade9dd0796b30484e005413c1",
    ),
    "every-task-integers-oracle": (
        every_task_over_the_integers,
        True,
        "a31ceabeb6a635ab679afff29b82fc2e518006fdd444caa8ef229388d4e6b60e",
    ),
    "finite-table-dynamics": (
        finite_table_dynamics,
        False,
        "1f5cd5afc851b087de8d0f434c2eaabe18ed5988940bae37524d0a853797ef1b",
    ),
    "realized-points-integers": (
        realized_points_over_the_integers,
        False,
        "46990acf285c34e78fffd9da40bd2831bd6e49c04ce42349c82ea20e8ce1c6d0",
    ),
    "realized-points-integers-oracle": (
        realized_points_over_the_integers,
        True,
        "184e31e2698f56fc8e68b4218c899f7738811e4132431a4861c27966285c1479",
    ),
    "realized-points-s3": (
        realized_points_over_s3,
        False,
        "8e8a47b27587b9c17cb23b3e932c8ef0c95f5581f786a9109a136a604e694eb8",
    ),
    "realized-points-product": (
        realized_points_over_a_product,
        False,
        "8794e9a40069d1e889d9199e86877783a1d236804aaaa183aefb8a6c30084521",
    ),
    "realized-points-product-oracle": (
        realized_points_over_a_product,
        True,
        "9a530480e522a53b366119dc340a42dd4f5128c6ccf90fb18fa54d1f0d8860e2",
    ),
    "compactify-s3": (
        compactify_over_s3,
        False,
        "9fa0db66c7d26755697a2753ab8948b70e7c1fcf10036b2412e937f4a8f39768",
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
