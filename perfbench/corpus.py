"""Seeded scenario corpora for the four workloads.

Each generator takes a ``random.Random`` built from the workload name and
the seed, so a seed always yields the same scenario files. The size of
each scenario (level, group order, list length, period pair) follows a
fixed schedule across the workload's range, so the cost mix of a corpus is
nearly the same for every seed; the seed draws the contents (points, sets,
residues, flows, subgroups) and the order of the scenarios. Each corpus has
over a hundred scenarios, each capped so that no single one dominates a
pass over the corpus.

Only scenario files reach the program; the generator never calls typeflow.
"""

from __future__ import annotations

import json
import os
import random

from .algebra import (
    BUNDLED_NAMES,
    Table,
    bundled_table,
    cyclic_table,
    dihedral_table,
    direct_product_table,
    relabel_table,
)

WORKLOADS = ("level-sweep", "set-algebra", "finite-backends", "oracle-crosscheck")

# the bundled example scenarios each workload also runs, relative to the root
BUNDLED_SCENARIOS = {
    "level-sweep": "scenarios/integers-level4.json",
    "finite-backends": "scenarios/symmetric3.json",
}


def _schedule(count: int, lo: float, hi: float, log: bool = False) -> list[int]:
    """count sizes at the midpoints of count equal slices of [lo, hi]."""
    out = []
    for i in range(count):
        u = (i + 0.5) / count
        out.append(round(lo * (hi / lo) ** u if log else lo + (hi - lo) * u))
    return out


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


# ---------------------------------------------------------------------------
# points and integer sets


def _limit(rng, level: int) -> dict:
    return {"kind": "limit", "sign": rng.choice("+-"), "res": rng.randrange(level), "mod": level}


def _realized(rng) -> dict:
    return {"kind": "realized", "value": rng.randint(-500, 500)}


def _residues(rng, period: int, count: int) -> list[int]:
    return sorted(rng.sample(range(period), min(count, period)))


def _integer_set(rng, period: int, tails: int, window: int, lo_range=(-60, 20), up=True, down=True) -> dict:
    """General-form integer set: `tails` random eventual residues per side
    and a window of `window` random bits at a random place."""
    lo = rng.randint(*lo_range)
    return {
        "mod": period,
        "up": _residues(rng, period, tails) if up else [],
        "down": _residues(rng, period, tails) if down else [],
        "window": {"lo": lo, "hi": lo + window - 1, "bits": [rng.randint(0, 1) for _ in range(window)]},
    }


def _congruence_json(rng, level: int) -> dict:
    d = rng.choice(_divisors(level))
    return {"mod": d, "up": _residues(rng, d, rng.randint(0, d)), "down": _residues(rng, d, rng.randint(0, d))}


# ---------------------------------------------------------------------------
# level-sweep: the integer type space at levels 12..120


def _ideal_scenario(rng, n: int) -> dict:
    """Left ideals and the universal minimal flow at one level."""
    sign = rng.choice("+-")
    circle = [{"kind": "limit", "sign": sign, "res": r, "mod": n} for r in range(n)]
    rng.shuffle(circle)
    tasks = [
        {"op": "is-left-ideal", "points": circle},
        {"op": "is-left-ideal", "points": circle[: rng.randrange(1, n)]},
        {"op": "universal-minimal-flow"},
    ]
    return {"group": {"kind": "integers"}, "level": n, "tasks": tasks}


def _semigroup_scenario(rng, n: int) -> dict:
    """The semigroup product at one level: both routes, idempotents, subflows."""
    tasks = [
        {"op": "idempotents"},
        {"op": "minimal-subflows"},
        {"op": "star", "p": _limit(rng, n), "q": _limit(rng, n)},
        {"op": "star", "p": _realized(rng), "q": _limit(rng, n)},
        {"op": "star", "p": _limit(rng, n), "q": _realized(rng)},
        {"op": "star-via-schema", "p": _limit(rng, n), "q": _limit(rng, n)},
    ]
    return {"group": {"kind": "integers"}, "level": n, "tasks": tasks}


def _maps_scenario(rng, n: int) -> dict:
    """Maps out of the level space: ambits, measures, factors, acting sets."""
    k = rng.choice([d for d in _divisors(n) if d <= 12])
    cycle = list(range(k))
    rng.shuffle(cycle)
    pi = [0] * k
    for i in range(k):
        pi[cycle[i]] = cycle[(i + 1) % k]
    tasks = [
        {"op": "universal-ambit-morphism", "flow": {"carrier": k, "pi": pi, "base": rng.randrange(k)}},
        {"op": "invariant-measure"},
        {"op": "fixed-points"},
        {"op": "universal-compactification", "targets": [rng.choice(_divisors(n))]},
        {"op": "acting-set", "p": _limit(rng, n), "set": _congruence_json(rng, n)},
        {"op": "acting-set", "p": _realized(rng), "set": _congruence_json(rng, n)},
        {"op": "contains", "p": _limit(rng, n), "set": _congruence_json(rng, n)},
        {"op": "contains", "p": _realized(rng), "set": _congruence_json(rng, n)},
    ]
    return {"group": {"kind": "integers"}, "level": n, "tasks": tasks}


def level_sweep(rng) -> list[tuple[str, dict, list]]:
    out = []
    for n in _schedule(37, 12, 120, log=True):
        out.append((f"ideals{n}", _ideal_scenario(rng, n), []))
        out.append((f"products{n}", _semigroup_scenario(rng, n), []))
        out.append((f"maps{n}", _maps_scenario(rng, n), []))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# set-algebra: Boolean algebra, quotients and family searches over Z


_PERIOD_PAIRS = [(2, 3), (4, 9), (5, 7), (8, 15), (11, 13), (12, 35), (16, 21), (25, 27), (29, 31), (36, 49), (41, 43), (60, 77), (89, 97)]
_FAMILY_OPS = ("pestov-check", "kernel-intersection", "singleton-minimal")


# periods of the sets combined with the coprime pairs, and of the sets
# bounded on one side, cycled through by scenario index
_SMALL_PERIODS = (6, 10, 12, 15, 18, 20, 24)
_BOUNDED_PERIODS = (5, 8, 12, 16, 21, 25, 30)


def _boolean_scenario(rng, pair, c_period: int) -> dict:
    """Boolean combination and translation of sets with coprime periods."""
    pa, pb = pair if rng.random() < 0.5 else pair[::-1]
    A = _integer_set(rng, pa, 2, 100)
    B = _integer_set(rng, pb, 2, 100)
    C = _integer_set(rng, c_period, 3, 60)
    tasks = [
        {"op": "boolean", "kind": "union", "a": A, "b": B},
        {"op": "boolean", "kind": "intersection", "a": A, "b": C},
        {"op": "boolean", "kind": "complement", "a": B},
        {"op": "translate", "g": rng.randint(-300, 300), "set": A},
        {"op": "is-generic", "set": A},
    ]
    return {"group": {"kind": "integers"}, "level": rng.randint(2, 6), "tasks": tasks}


def _list_scenario(rng, list_size: int, c_period: int, b_period: int) -> dict:
    """An explicit integer list, difference sets and genericity."""
    C = _integer_set(rng, c_period, 3, 60)
    bounded = _integer_set(rng, b_period, 2, 40, up=False)
    start = rng.randint(-2000, 0)
    listed = sorted(rng.sample(range(start, start + 3 * list_size), list_size))
    tasks = [
        {"op": "boolean", "kind": "union", "a": listed, "b": C},
        {"op": "translate", "g": rng.randint(-300, 300), "set": bounded},
        {"op": "difference-set", "set": C},
        {"op": "difference-set", "set": bounded},
        {"op": "is-generic", "set": bounded},
        {"op": "is-generic", "set": C},
    ]
    return {"group": {"kind": "integers"}, "level": rng.randint(2, 6), "tasks": tasks}


def set_algebra(rng) -> list[tuple[str, dict, list]]:
    count = 39
    sizes = _schedule(count, 200, 1000)
    rng.shuffle(sizes)
    out = []
    for i in range(count):
        pair = _PERIOD_PAIRS[i % len(_PERIOD_PAIRS)]
        op, modulus = _FAMILY_OPS[i % 3], 4 + (i // 3) % 3
        family = {"group": {"kind": "integers"}, "level": rng.randint(2, 6), "tasks": [{"op": op, "max_modulus": modulus}]}
        c_period = _SMALL_PERIODS[i % len(_SMALL_PERIODS)]
        b_period = _BOUNDED_PERIODS[i % len(_BOUNDED_PERIODS)]
        out.append((f"periods{pair[0]}x{pair[1]}", _boolean_scenario(rng, pair, c_period), []))
        out.append((f"list{sizes[i]}", _list_scenario(rng, sizes[i], c_period, b_period), []))
        out.append((f"{op}{modulus}", family, []))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# finite-backends: tables, bitmask sets, rectangle sets, finite flows


def _subset(rng, n: int) -> list[int]:
    return sorted(rng.sample(range(n), max(1, n // 3)))


def _normal_subgroup(rng, grp: Table) -> frozenset:
    """A random normal subgroup of index 2..12 when one turns up in a few
    tries, else of index at most 12, else the whole group."""
    found = []
    for _ in range(24):
        N = grp.normal_closure([rng.randrange(grp.order)])
        if 2 <= grp.order // len(N) <= 12:
            return N
        found.append(N)
    small = [N for N in found if grp.order // len(N) <= 12]
    return small[0] if small else frozenset(range(grp.order))


def _coset_action(grp: Table, normal) -> tuple[int, list[list[int]]]:
    proj = grp.coset_projection(normal)
    k = max(proj) + 1
    action = [[0] * k for _ in range(grp.order)]
    for g in range(grp.order):
        for h in range(grp.order):
            action[g][proj[h]] = proj[grp.table[g][h]]
    return k, action


def _finite_scenario(rng, spec: dict, table) -> dict:
    grp = Table(table)
    n = grp.order
    # the second target contains the first, so the universal quotient is
    # by the first (index <= 12) and its table check stays small
    first = _normal_subgroup(rng, grp)
    normals = [first, grp.normal_closure(list(first) + [rng.randrange(n)])]
    quotient, proj = grp.quotient_table(first)
    carrier, action = _coset_action(grp, _normal_subgroup(rng, grp))
    fixed = 1 + rng.randrange(2)
    action = [row + list(range(carrier, carrier + fixed)) for row in action]
    blocks_from_cosets = rng.random() < 0.5
    if blocks_from_cosets:
        blocks = [[g for g in range(n) if proj[g] == i] for i in range(len(quotient))]
    else:
        elems = list(range(n))
        rng.shuffle(elems)
        cuts = sorted(rng.sample(range(1, n), min(n - 1, rng.randint(1, 4)))) if n > 1 else []
        blocks = [sorted(elems[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
    tasks = [
        {"op": "is-generic", "set": _subset(rng, n)},
        {"op": "is-generic", "set": []},
        {"op": "boolean", "kind": "union", "a": _subset(rng, n), "b": _subset(rng, n)},
        {"op": "boolean", "kind": "intersection", "a": _subset(rng, n), "b": _subset(rng, n)},
        {"op": "boolean", "kind": "complement", "a": _subset(rng, n)},
        {"op": "translate", "g": rng.randrange(n), "set": _subset(rng, n)},
        {"op": "difference-set", "set": _subset(rng, n)},
        {"op": "check-flow", "flow": {"carrier": carrier + fixed, "action": action, "base": 0}},
        {"op": "fixed-points", "flow": {"carrier": carrier + fixed, "action": action}},
        {"op": "fixed-points"},
        {"op": "logic-quotient", "blocks": blocks},
        {"op": "universal-compactification", "targets": [sorted(x) for x in normals]},
        {"op": "check-homomorphism", "values": proj, "target": {"kind": "finite", "table": quotient}},
    ]
    if n <= 10:
        tasks.append({"op": "kernel-intersection", "max_modulus": 4})
    return {"group": spec, "tasks": tasks}


def _rect_set(rng, left_n, right_n, int_left: bool, count: int = 2) -> dict:
    rects = []
    for k in range(count):
        if int_left:
            left = _integer_set(rng, 2 + k, 1, 6, lo_range=(-8, 4))
        else:
            left = _subset(rng, left_n)
        rects.append([left, _subset(rng, right_n)])
    return {"rectangles": rects}


def _product_scenario(rng, left_name, right_name) -> dict:
    """Rectangle sets over a product; left_name None puts Z on the left."""
    int_left = left_name is None
    right_n = len(bundled_table(right_name))
    if int_left:
        left_spec, left_n = {"kind": "integers"}, None
    else:
        left_spec, left_n = {"kind": "bundled", "name": left_name}, len(bundled_table(left_name))
    spec = {"kind": "product", "left": left_spec, "right": {"kind": "bundled", "name": right_name}}

    def element():
        left = rng.randint(-40, 40) if int_left else rng.randrange(left_n)
        return [left, rng.randrange(right_n)]

    def rect(count=2):
        return _rect_set(rng, left_n, right_n, int_left, count)

    tasks = [
        {"op": "is-generic", "set": rect()},
        {"op": "is-generic", "set": rect()},
        {"op": "boolean", "kind": "union", "a": rect(), "b": rect()},
        {"op": "boolean", "kind": "intersection", "a": rect(), "b": rect()},
        {"op": "boolean", "kind": "complement", "a": rect()},
        {"op": "translate", "g": element(), "set": rect()},
        {"op": "difference-set", "set": rect(1)},
    ]
    return {"group": spec, "tasks": tasks}


_DIRECT_PRODUCTS = [("c2", "c2"), ("c2", "s3"), ("c3", "c3"), ("v4", "c3"), ("c4", "c2"), ("s3", "c3"), ("c3", "c5"), ("c4", "s3")]
_PRODUCT_FACTORS = [("c2", "c3"), ("c3", "v4"), ("v4", "s3"), ("s3", "c2"), ("c4", "c5"), ("c5", "c4"), ("s3", "s3"), ("c2", "c6"), ("c3", "c3"), ("v4", "c2"), ("c4", "s3")]


def finite_backends(rng) -> list[tuple[str, dict, list]]:
    out = []
    for order in _schedule(40, 4, 100, log=True):
        out.append((f"cyclic{order}", _finite_scenario(rng, {"kind": "cyclic", "order": order}, cyclic_table(order)), []))
    for m in _schedule(16, 3, 12):
        table = dihedral_table(m)
        perm = list(range(len(table)))
        rng.shuffle(perm)
        table = relabel_table(table, perm)
        out.append((f"dihedral{2 * m}", _finite_scenario(rng, {"kind": "finite", "table": table}, table), []))
    for left, right in _DIRECT_PRODUCTS * 2:
        table = direct_product_table(bundled_table(left), bundled_table(right))
        out.append((f"{left}x{right}", _finite_scenario(rng, {"kind": "finite", "table": table}, table), []))
    for name in (BUNDLED_NAMES + BUNDLED_NAMES)[:16]:
        out.append((f"bundled-{name}", _finite_scenario(rng, {"kind": "bundled", "name": name}, bundled_table(name)), []))
    for left, right in _PRODUCT_FACTORS:
        out.append((f"Zx{right}", _product_scenario(rng, None, right), []))
        out.append((f"{left}x{right}", _product_scenario(rng, left, right), []))
    rng.shuffle(out)
    return out


# ---------------------------------------------------------------------------
# oracle-crosscheck: small integer levels with the brute-force oracles on


def _small_set(rng, period: int, up: int, down: int) -> dict:
    """A set small enough for the oracle's 401-point window, with `up` and
    `down` eventual residues."""
    reach = min(8, 50 // period)
    lo = -reach + rng.randrange(3)
    hi = reach - rng.randrange(3)
    return {
        "mod": period,
        "up": _residues(rng, period, up),
        "down": _residues(rng, period, down),
        "window": {"lo": lo, "hi": hi, "bits": [rng.randint(0, 1) for _ in range(hi - lo + 1)]},
    }


def oracle_crosscheck(rng) -> list[tuple[str, dict, list]]:
    # Three set scenarios (the genericity oracle) for each point scenario
    # (the exhaustive oracles). Two thirds of the genericity inputs are
    # cofinite, which the oracle covers with two translates, and one third
    # are bounded below, which it searches out; so the median lies inside
    # the quick searches and p90 inside the exhaustive ones.
    levels = [2, 3, 4, 4, 5, 5, 6, 6, 7, 8] * 3
    rng.shuffle(levels)
    out = []
    for i in range(90):
        p, q = 1 + i % 5, 1 + (i // 5) % 5
        half = max(1, p // 2)
        generic = _small_set(rng, p, p, p) if i % 3 else _small_set(rng, p, half, 0)
        tasks = [
            {"op": "is-generic", "set": generic},
            {"op": "difference-set", "set": _small_set(rng, q, max(1, q // 2), max(1, q // 2) if i % 4 < 2 else 0)},
        ]
        n = levels[i % len(levels)]
        out.append((f"oracle-sets{n}", {"group": {"kind": "integers"}, "level": n, "tasks": tasks}, ["--with-oracle"]))
    for n in levels:
        tasks = [
            {"op": "star", "p": _limit(rng, n), "q": _limit(rng, n)},
            {"op": "star", "p": _realized(rng), "q": _limit(rng, n)},
            {"op": "idempotents"},
            {"op": "minimal-subflows"},
        ]
        out.append((f"oracle-points{n}", {"group": {"kind": "integers"}, "level": n, "tasks": tasks}, ["--with-oracle"]))
    rng.shuffle(out)
    return out


GENERATORS = {
    "level-sweep": level_sweep,
    "set-algebra": set_algebra,
    "finite-backends": finite_backends,
    "oracle-crosscheck": oracle_crosscheck,
}


def generate(workload: str, seed: int, root: str) -> list[tuple[str, dict, list]]:
    """The workload's corpus for a seed: (name, scenario, extra CLI flags).

    ``root`` is the checkout root, where the bundled example scenarios live.
    """
    rng = random.Random(f"{workload}:{seed}")
    corpus = GENERATORS[workload](rng)
    bundled = BUNDLED_SCENARIOS.get(workload)
    if bundled:
        with open(os.path.join(root, bundled), encoding="utf-8") as fh:
            corpus.append((os.path.splitext(os.path.basename(bundled))[0], json.load(fh), []))
    return corpus


def write_corpus(corpus, directory: str) -> list[dict]:
    """Write one JSON file per scenario; returns the manifest entries."""
    os.makedirs(directory, exist_ok=True)
    manifest = []
    for i, (name, scenario, flags) in enumerate(corpus):
        path = os.path.join(directory, f"{i:03d}-{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)
        manifest.append({"path": path, "flags": flags, "tasks": len(scenario.get("tasks", []))})
    return manifest
