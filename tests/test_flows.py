import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typeflow import flows, typespace
from typeflow.amenability import fixed_points, fixed_points_of_flow, invariant_measure, invariant_measure_of_flow
from typeflow.cli import run_scenario
from typeflow.compactify import g00_at_level
from typeflow.defsets import FiniteSubset, congruence_set
from typeflow.ellis import find_idempotents, star
from typeflow.flows import (
    AmbitMorphism,
    EventuallyPeriodicMap,
    ExtendedMap,
    FiniteFlowPresentation,
    SubflowIsomorphism,
    check_definable_flow,
    extend_definable_map,
    flow_from_json,
    flow_to_json,
    is_left_ideal,
    kernel_of_flow,
    minimal_subflows,
    universal_ambit_morphism,
    universal_minimal_flow,
)
from typeflow.groups import (
    INTEGERS,
    BackendMismatch,
    FiniteGroup,
    bundled_small_groups,
    cyclic_group,
    symmetric_group_3,
)
from typeflow.oracle import oracle_equivariant_maps, oracle_minimal_subflows
from typeflow.typespace import LevelError, Limit, apply_group, is_closed_invariant, limit_points, restrict


def rotation(n, base=0):
    return FiniteFlowPresentation(INTEGERS, n, pi=[(i + 1) % n for i in range(n)], base=base)


def test_check_definable_flow_examples():
    verdict = check_definable_flow(rotation(6))
    assert verdict.valid and verdict.ambit and set(verdict.orbit_periods) == {6}

    two_cycle = FiniteFlowPresentation(INTEGERS, 3, pi=[1, 0, 2], base=2)
    verdict = check_definable_flow(two_cycle)
    assert verdict.valid and verdict.ambit is False

    c3 = cyclic_group(3)
    with pytest.raises(ValueError):
        check_definable_flow(FiniteFlowPresentation(c3, 3, action=[[0, 1, 2], [1, 2, 0], [1, 2, 0]]))
    with pytest.raises(ValueError):
        check_definable_flow(FiniteFlowPresentation(INTEGERS, 3, pi=[0, 0, 1]))


def test_finite_backend_flow():
    c3 = cyclic_group(3)
    regular = FiniteFlowPresentation(
        c3, 3, action=[[0, 1, 2], [1, 2, 0], [2, 0, 1]], base=0
    )
    verdict = check_definable_flow(regular)
    assert verdict.valid and verdict.ambit
    h = universal_ambit_morphism(1, regular)
    # a table has no limit points, so equivariance is the one check
    assert h.certify() == {"equivariant": True}


def test_universal_ambit_morphism_examples():
    h = universal_ambit_morphism(6, rotation(6))
    # limit value arrived at through the witness sequence 4, 10, 16, ...
    assert h.apply(Limit(1, 4, 6)) == 4
    assert h.apply(13) == 1
    checks = h.certify()
    assert all(checks.values())

    with pytest.raises(LevelError):
        universal_ambit_morphism(4, rotation(6))

    trivial = rotation(1)
    h1 = universal_ambit_morphism(3, trivial)
    assert set(h1.limit_images.values()) == {0}


def test_ambit_morphism_with_a_moved_limit_value_is_not_stable():
    F = FiniteFlowPresentation(INTEGERS, 3, pi=[1, 2, 0], base=0)
    h = universal_ambit_morphism(6, F)
    assert all(h.certify().values())
    p = Limit(1, 0, 6)
    moved = dict(h.limit_images)
    moved[p] = (moved[p] + 1) % 3
    checks = AmbitMorphism(F, 3, h.realized_images, moved).certify()
    assert not checks["limits_stable_on_witnesses"]
    # moving every limit value along pi keeps equivariance, not continuity
    shifted = {q: F.pi[v] for q, v in h.limit_images.items()}
    checks = AmbitMorphism(F, 3, h.realized_images, shifted).certify()
    assert checks["equivariant"]
    assert not checks["limits_stable_on_witnesses"]


def test_ambit_requires_dense_orbit():
    loose = FiniteFlowPresentation(INTEGERS, 3, pi=[1, 0, 2], base=0)
    with pytest.raises(ValueError):
        universal_ambit_morphism(2, loose)
    with pytest.raises(ValueError):
        universal_ambit_morphism(2, FiniteFlowPresentation(INTEGERS, 2, pi=[1, 0]))


def finite_tables():
    """Every bundled group, and s3 relabelled so that its identity is 3."""
    t = symmetric_group_3().table
    s3 = [[(t[(a - 3) % 6][(b - 3) % 6] + 3) % 6 for b in range(6)] for a in range(6)]
    return bundled_small_groups() + [cyclic_group(1), FiniteGroup(s3, name="s3-relabelled")]


def test_minimal_subflows_level_and_oracle():
    flows = minimal_subflows(INTEGERS, 4)
    assert len(flows) == 2
    assert flows[0] == frozenset(Limit(1, r, 4) for r in range(4))
    assert flows[1] == frozenset(Limit(-1, r, 4) for r in range(4))
    assert set(oracle_minimal_subflows(INTEGERS, 4)) == set(flows)

    ones = minimal_subflows(INTEGERS, 1)
    assert [len(f) for f in ones] == [1, 1]
    for n in range(1, 131):
        # the sign circles: the first and second halves of the limit part
        pts = limit_points(INTEGERS, n)
        assert minimal_subflows(INTEGERS, n) == [frozenset(pts[:n]), frozenset(pts[n:])]
    # a finite backend is one orbit: the group acting on itself
    for G in finite_tables():
        assert minimal_subflows(G, 1) == [frozenset(G.elements())], G.name


@pytest.mark.parametrize(
    "call",
    [
        lambda c3: minimal_subflows(c3, 2),
        lambda c3: universal_minimal_flow(c3, 5),
        lambda c3: invariant_measure(c3, 7),
        lambda c3: fixed_points(c3, 2),
        lambda c3: find_idempotents(c3, 2),
        lambda c3: universal_ambit_morphism(5, regular_flow(c3)),
        # the level is checked before the closure test, which {e} passes
        lambda c3: is_left_ideal(c3, 2, {0}),
        lambda c3: g00_at_level(c3, 2),
    ],
    ids=[
        "minimal_subflows",
        "universal_minimal_flow",
        "invariant_measure",
        "fixed_points",
        "find_idempotents",
        "universal_ambit_morphism",
        "is_left_ideal",
        "g00_at_level",
    ],
)
def test_finite_backend_level_space_needs_level_one(call):
    with pytest.raises(LevelError, match="finite backends have only the trivial level 1"):
        call(cyclic_group(3))


def test_minimal_subflows_of_flows():
    assert list(rotation(6).orbits) == [frozenset(range(6))]
    two_orbits = FiniteFlowPresentation(INTEGERS, 5, pi=[1, 2, 0, 4, 3])
    assert list(two_orbits.orbits) == [frozenset({0, 1, 2}), frozenset({3, 4})]


def test_restriction_coherence_of_subflows():
    for n, m in [(12, 6), (12, 4), (8, 2), (6, 1)]:
        fine = minimal_subflows(INTEGERS, n)
        coarse = minimal_subflows(INTEGERS, m)
        restricted = [frozenset(restrict(p, m) for p in f) for f in fine]
        assert restricted == coarse


def test_is_left_ideal_examples():
    plus = frozenset(Limit(1, r, 4) for r in range(4))
    minus = frozenset(Limit(-1, r, 4) for r in range(4))
    assert is_left_ideal(INTEGERS, 4, plus)
    assert not is_left_ideal(INTEGERS, 4, {Limit(1, 0, 4)})
    assert is_left_ideal(INTEGERS, 4, plus | minus)
    assert not is_left_ideal(INTEGERS, 4, frozenset())
    assert not is_left_ideal(INTEGERS, 4, {0})
    c3 = cyclic_group(3)
    assert is_left_ideal(c3, 1, set(range(3)))
    assert not is_left_ideal(c3, 1, {0})


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_left_ideals_are_closed_invariant_sets_exhaustive(n):
    pts = limit_points(INTEGERS, n)
    for mask in range(1, 1 << len(pts)):
        S = frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
        assert is_left_ideal(INTEGERS, n, S) == is_closed_invariant(S)


@pytest.mark.parametrize("n", range(1, 7))
def test_left_ideal_matches_the_literal_definition(n):
    pts = limit_points(INTEGERS, n)
    left_factors = pts + list(range(n))
    for mask in range(1, 1 << len(pts)):
        S = frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
        literal = all(star(INTEGERS, s, l) in S for l in S for s in left_factors)
        assert is_left_ideal(INTEGERS, n, S) == literal


@pytest.mark.parametrize("n", range(1, 7))
def test_left_ideal_with_a_realized_member_matches_the_literal_definition(n):
    pts = limit_points(INTEGERS, n)
    # a realized member a is sent out of a finite set by a + 1 or a - 1
    left_factors = pts + list(range(-n, n + 1))
    for mask in range(1 << len(pts)):
        S = frozenset(p for i, p in enumerate(pts) if mask >> i & 1) | {n}
        literal = all(star(INTEGERS, s, l) in S for l in S for s in left_factors)
        assert is_left_ideal(INTEGERS, n, S) == literal


@pytest.mark.parametrize("G", [cyclic_group(4), symmetric_group_3()], ids=lambda G: G.name)
def test_finite_left_ideal_matches_the_literal_definition(G):
    space = list(G.elements())
    seen = set()
    for mask in range(1, 1 << G.order):
        S = frozenset(p for p in space if mask >> p & 1)
        literal = all(star(G, s, l) in S for l in S for s in space)
        assert is_left_ideal(G, 1, S) == literal
        seen.add(literal)
    assert seen == {True, False}


@pytest.mark.parametrize("G", [cyclic_group(1), cyclic_group(3)], ids=lambda G: G.name)
def test_a_limit_member_over_a_table_is_a_backend_mismatch(G):
    # whichever member fails closure first, and over the trivial group too
    whole = set(G.elements())
    for S in (whole | {Limit(1, 0, 1)}, {0, Limit(-1, 0, 1)}):
        with pytest.raises(BackendMismatch, match="^limit points live over the integers$"):
            is_left_ideal(G, 1, S)


def test_left_ideal_star_calls(monkeypatch):
    calls = []

    def counting_star(*args):
        calls.append(args)
        return star(*args)

    monkeypatch.setattr(flows, "star", counting_star)
    plus = frozenset(Limit(1, r, 4) for r in range(4))
    assert is_left_ideal(INTEGERS, 4, plus)
    assert len(calls) == 4 * 8
    calls.clear()
    # no sign circle is full, so the verdict needs no product at all
    assert not is_left_ideal(INTEGERS, 4, {Limit(1, 0, 4), Limit(1, 1, 4), Limit(1, 2, 4), Limit(-1, 0, 4)})
    assert calls == []


def test_left_ideal_counts_circles_before_building_left_factors(monkeypatch):
    def no_left_factors(ctx, level):
        raise AssertionError("left factors built for a set with a partial circle")

    monkeypatch.setattr(flows, "limit_points", no_left_factors)
    n = 1000
    plus = frozenset(Limit(1, r, n) for r in range(n))
    assert not is_left_ideal(INTEGERS, n, {Limit(1, 0, n)})
    assert not is_left_ideal(INTEGERS, n, {Limit(-1, 3, n), Limit(-1, 7, n)})
    # a full + circle does not excuse a partial - circle
    assert not is_left_ideal(INTEGERS, n, plus | {Limit(-1, 0, n)})
    with pytest.raises(AssertionError, match="left factors built"):
        is_left_ideal(INTEGERS, n, plus)


def test_a_left_ideal_check_over_its_budget_fails_before_building_left_factors(monkeypatch):
    def no_left_factors(ctx, level):
        raise AssertionError("left factors built")

    monkeypatch.setattr(flows, "limit_points", no_left_factors)
    bound = flows.LEFT_IDEAL_PRODUCT_BOUND
    assert bound == 1 << 22
    # a full circle at level 1,448 is 1,448 * 2 * 1,448 products, under the bound
    with pytest.raises(AssertionError, match="left factors built"):
        is_left_ideal(INTEGERS, 1448, frozenset(Limit(1, r, 1448) for r in range(1448)))
    plus = frozenset(Limit(1, r, 1449) for r in range(1449))
    # the closure test answers before the budget
    assert not is_left_ideal(INTEGERS, 1449, plus - {Limit(1, 0, 1449)})
    message = f"{1449 * 2 * 1449} products are over the bound of {bound}"
    with pytest.raises(ValueError) as excinfo:
        is_left_ideal(INTEGERS, 1449, plus)
    assert type(excinfo.value) is ValueError and str(excinfo.value) == message
    # the level checks come first, with their own messages
    with pytest.raises(LevelError, match="^point at level 5 in a level-1449 check$"):
        is_left_ideal(INTEGERS, 1449, plus | {Limit(1, 0, 5)})
    with pytest.raises(ValueError, match="^level modulus must be at least 1$"):
        is_left_ideal(INTEGERS, 0, plus)
    circle = [{"kind": "limit", "sign": "+", "res": r, "mod": 1449} for r in range(1449)]
    report, code = run_scenario({"group": {"kind": "integers"}, "level": 1449, "tasks": [{"op": "is-left-ideal", "points": circle}]})
    assert code == 3 and report["results"][0]["error"] == f"ValueError: {message}"


def test_left_ideal_checks_every_level_before_a_realized_verdict():
    # a realized member alone gives False, but a limit member at another
    # level is an error whichever member the set yields first
    for a in range(40):
        for r in range(5):
            with pytest.raises(LevelError):
                is_left_ideal(INTEGERS, 4, {a, Limit(1, r, 5)})
    # the error names the least wrong level
    for points in ({Limit(1, 0, 6), Limit(1, 0, 5)}, {Limit(-1, 5, 7), 0, Limit(1, 3, 5)}):
        with pytest.raises(LevelError, match="^point at level 5 in a level-4 check$"):
            is_left_ideal(INTEGERS, 4, points)


def test_left_ideal_randomized_larger_levels():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.choice([6, 8, 12])
        pts = limit_points(INTEGERS, n)
        S = frozenset(p for p in pts if rng.random() < 0.5)
        if not S:
            continue
        assert is_left_ideal(INTEGERS, n, S) == is_closed_invariant(S)


def test_universal_minimal_flow_isomorphism():
    umf = universal_minimal_flow(INTEGERS, 4)
    plus, minus = minimal_subflows(INTEGERS, 4)
    assert umf.subflows == [plus, minus]
    assert umf.subflow == plus
    iso = umf.isomorphism_to(minus)
    checks = iso.certify(INTEGERS)
    assert all(checks.values())
    # translation form: (+, a) -> (-, a + c) for one constant c
    shifts = {(iso.forward[Limit(1, a, 4)].residue - a) % 4 for a in range(4)}
    assert len(shifts) == 1

    n1 = universal_minimal_flow(INTEGERS, 1)
    iso1 = n1.isomorphism_to(minimal_subflows(INTEGERS, 1)[1])
    assert all(iso1.certify(INTEGERS).values())


def test_tampered_finite_subflow_isomorphism_is_not_equivariant():
    s3 = symmetric_group_3()
    umf = universal_minimal_flow(s3, 1)
    for x in s3.elements():
        # p -> p.x commutes with the action; p -> x.p only for central x
        for forward, equivariant in (
            ({p: s3.compose(p, x) for p in umf.subflow}, True),
            ({p: s3.compose(x, p) for p in umf.subflow}, x == s3.identity),
        ):
            backward = {q: p for p, q in forward.items()}
            iso = SubflowIsomorphism(umf.subflow, umf.subflow, forward, backward)
            checks = iso.certify(s3)
            assert checks["bijective"] and checks["mutually_inverse"]
            assert checks["equivariant"] is equivariant


def test_isomorphism_to_a_set_without_idempotent_raises():
    umf = universal_minimal_flow(INTEGERS, 4)
    with pytest.raises(ValueError, match="^the set holds no idempotent$"):
        umf.isomorphism_to({Limit(-1, 1, 4), Limit(-1, 3, 4)})
    s3 = symmetric_group_3()
    with pytest.raises(ValueError, match="^the set holds no idempotent$"):
        universal_minimal_flow(s3, 1).isomorphism_to({1, 2})


def test_every_equivariant_self_map_is_a_right_translation():
    for n in (1, 2, 3, 4, 6, 8):
        plus = frozenset(Limit(1, r, n) for r in range(n))
        maps = oracle_equivariant_maps(INTEGERS, n, plus, plus)
        assert len(maps) == n
        for f in maps:
            assert len(set(f.values())) == len(plus)  # bijection
            t = f[Limit(1, 0, n)]
            assert all(f[p] == star(INTEGERS, p, t) for p in plus)


def test_equivariant_isos_between_the_two_subflows_at_4():
    plus, minus = minimal_subflows(INTEGERS, 4)
    maps = oracle_equivariant_maps(INTEGERS, 4, plus, minus)
    assert len(maps) == 4
    for f in maps:
        assert len(set(f.values())) == 4


def test_subflows_contain_exactly_their_idempotent():
    for n in (1, 2, 3, 4, 6, 12):
        idems = find_idempotents(INTEGERS, n)
        for flow in minimal_subflows(INTEGERS, n):
            inside = [p for p in idems if p in flow]
            assert len(inside) == 1
            p0 = inside[0]
            assert all(star(INTEGERS, q, p0) == q for q in flow)


def test_extend_definable_map_examples():
    parity = EventuallyPeriodicMap(2, [0, 1], [0, 1])
    ext = extend_definable_map(parity, 2)
    assert ext.apply(Limit(1, 1, 2)) == 1
    assert ext.apply(6) == 0
    assert ext.certify()["singleton_limits"]

    constant = EventuallyPeriodicMap(1, ["a"], ["a"])
    ext = extend_definable_map(constant, 4)
    assert {ext.apply(p) for p in limit_points(INTEGERS, 4)} == {"a"}

    spiked = EventuallyPeriodicMap(1, [5], [5], {0: 9})
    ext = extend_definable_map(spiked, 1)
    assert ext.apply(0) == 9
    assert ext.apply(Limit(1, 0, 1)) == 5
    assert ext.certify()["singleton_limits"]

    with pytest.raises(LevelError):
        extend_definable_map(parity, 3)


class Built(Exception):
    """Raised by a patched `Limit`: a point was about to be built."""


def test_an_extension_over_the_level_bound_fails_before_it_is_built(monkeypatch):
    # extend-map reads its points from limit_points, so LEVEL_BOUND is its bound
    def limit(*args):
        raise Built

    monkeypatch.setattr(typespace, "Limit", limit)
    bound = typespace.LEVEL_BOUND
    parity = EventuallyPeriodicMap(2, [0, 1], [0, 1])

    def run(level):
        task = {"op": "extend-map", "map": {"period": 2, "up": [0, 1], "down": [0, 1]}}
        return run_scenario({"group": {"kind": "integers"}, "level": level, "tasks": [task]})

    # at the bound the points are built; past it, none is
    with pytest.raises(Built):
        run(bound)
    with pytest.raises(Built):
        extend_definable_map(parity, bound).certify()
    for level in (bound + 2, 10**6, 10**100):
        message = f"level {level} is over the bound of {bound}"
        report, code = run(level)
        assert code == 3 and report["results"][0]["error"] == f"ValueError: {message}"
        with pytest.raises(ValueError) as excinfo:
            extend_definable_map(parity, level).certify()
        assert str(excinfo.value) == message


def test_extended_map_at_a_level_the_period_does_not_divide_is_not_a_singleton_limit():
    swap = EventuallyPeriodicMap(2, [0, 1], [1, 0])
    assert not ExtendedMap(swap, 3).certify()["singleton_limits"]
    assert ExtendedMap(swap, 4).certify()["singleton_limits"]


def test_kernels():
    assert g00_at_level(INTEGERS, 6) == congruence_set(6, [0])
    assert kernel_of_flow(rotation(6)) == congruence_set(6, [0])
    assert kernel_of_flow(rotation(1)) == congruence_set(1, [0])
    c3 = cyclic_group(3)
    regular = FiniteFlowPresentation(c3, 3, action=[[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    assert kernel_of_flow(regular) == FiniteSubset(c3, [0])
    assert g00_at_level(c3, 1) == FiniteSubset(c3, [0])


def test_flow_json_round_trip():
    F = rotation(5, base=2)
    assert flow_to_json(F) == {"carrier": 5, "pi": [1, 2, 3, 4, 0], "base": 2}
    G = flow_from_json(INTEGERS, flow_to_json(F))
    assert G.pi == F.pi and G.base == F.base
    c3 = cyclic_group(3)
    regular = FiniteFlowPresentation(c3, 3, action=[[0, 1, 2], [1, 2, 0], [2, 0, 1]], base=1)
    H = flow_from_json(c3, flow_to_json(regular))
    assert H.action == regular.action and H.base == 1


def regular_flow(G):
    return FiniteFlowPresentation(G, G.order, action=G.table, base=G.identity)


def test_tampered_ambit_morphism_is_not_equivariant():
    s3 = symmetric_group_3()
    F = regular_flow(s3)
    h = universal_ambit_morphism(1, F)
    assert all(h.certify().values())
    images = list(h.realized_images)
    images[1], images[2] = images[2], images[1]
    checks = AmbitMorphism(F, s3.order, tuple(images), {}).certify()
    assert checks == {"equivariant": False}


def test_ambit_equivariance_on_generators_agrees_with_all_pairs():
    seen = set()
    for G in bundled_small_groups() + [cyclic_group(1)]:
        F = regular_flow(G)
        elements = list(G.elements())
        # h -> hx is equivariant for every x, h -> xh only for central x
        candidates = [[G.table[h][x] for h in elements] for x in elements]
        candidates += [[G.table[x][h] for h in elements] for x in elements]
        for i in elements:
            for j in elements[:i]:
                swapped = list(elements)
                swapped[i], swapped[j] = j, i
                candidates.append(swapped)
        for images in candidates:
            literal = all(images[G.table[g][h]] == F.action[g][images[h]] for g in elements for h in elements)
            verdict = AmbitMorphism(F, G.order, tuple(images), {}).certify()["equivariant"]
            assert verdict == literal, (G.name, images)
            seen.add(literal)
    assert seen == {True, False}


@st.composite
def valid_flows(draw):
    """An integer flow given by a random permutation pi, or a bundled group
    acting on the cosets of a cyclic subgroup, with fixed points added and
    the carrier relabelled."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 9))
        return FiniteFlowPresentation(INTEGERS, n, pi=draw(st.permutations(range(n))))
    G = draw(st.sampled_from(bundled_small_groups()))
    h = draw(st.sampled_from(G.elements()))
    H = {G.identity}
    x = h
    while x != G.identity:
        H.add(x)
        x = G.compose(x, h)
    cosets = sorted({frozenset(G.compose(g, k) for k in H) for g in G.elements()}, key=min)
    index = {c: i for i, c in enumerate(cosets)}
    size = len(cosets) + draw(st.integers(0, 3))
    label = draw(st.permutations(range(size)))
    action = []
    for g in G.elements():
        moved = [index[frozenset(G.compose(g, y) for y in c)] for c in cosets] + list(range(len(cosets), size))
        row = [0] * size
        for x, y in enumerate(moved):
            row[label[x]] = label[y]
        action.append(row)
    return FiniteFlowPresentation(G, size, action=action)


def literal_action(F):
    """Every permutation by which some group element acts."""
    if F.pi is None:
        return list(F.action)
    identity = tuple(range(F.size))
    powers, p = [identity], F.pi
    while p != identity:
        powers.append(p)
        p = tuple(F.pi[x] for x in p)
    return powers


@settings(derandomize=True, deadline=None, max_examples=300)
@given(valid_flows())
def test_orbit_answers_agree_with_their_definitions(F):
    perms = literal_action(F)
    orbits = [frozenset(p[x] for p in perms) for x in range(F.size)]
    # an orbit first shows up at its least point
    assert F.orbits == tuple(dict.fromkeys(orbits))
    periods = tuple(map(len, orbits))
    assert check_definable_flow(F).orbit_periods == periods
    assert fixed_points_of_flow(F) == [x for x in range(F.size) if all(p[x] == x for p in perms)]
    if F.pi is not None:
        # the powers pi^0, ..., pi^(k-1) are distinct and pi^k = id
        assert kernel_of_flow(F) == congruence_set(len(perms), [0])
    mu = invariant_measure_of_flow(F)
    assert all(mu.weight(p[x]) == mu.weight(x) for p in perms for x in range(F.size))
