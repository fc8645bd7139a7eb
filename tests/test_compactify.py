import tracemalloc
from functools import reduce

import pytest

from typeflow import compactify
from typeflow.cli import run_scenario
from typeflow.compactify import (
    definable_homomorphism_check,
    finite_quotient,
    g00_at_level,
    logic_quotient,
    universal_compactification,
)
from typeflow.defsets import FiniteSubset, complement, congruence_set, union
from typeflow.groups import INTEGERS, BackendMismatch, cyclic_group, quaternion_group_8, symmetric_group_3
from typeflow.typespace import LevelError


def assert_surjective_homomorphism(images, source_law, source_order, target_law, target_order):
    """images[i] is a surjective homomorphism from the group on
    range(source_order) onto the group on range(target_order), checked on
    every pair."""
    for a in range(source_order):
        for b in range(source_order):
            assert images[source_law(a, b)] == target_law(images[a], images[b]), (a, b)
    assert set(images) == set(range(target_order))


def cyclic_law(n):
    return lambda a, b: (a + b) % n


def test_logic_quotient_integers():
    q = logic_quotient(INTEGERS, modulus=6)
    assert q.size == 6
    # each fiber is the complement of the union of the others, so every
    # fiber is clopen: the finite-index logic topology is discrete
    for i, fiber in enumerate(q.fibers):
        assert complement(fiber) == reduce(union, q.fibers[:i] + q.fibers[i + 1 :])
    assert q.is_group
    assert q.fibers[1] == congruence_set(6, [1])
    assert [i for i, fiber in enumerate(q.fibers) if fiber.member(13)] == [1]
    assert [i for i, fiber in enumerate(q.fibers) if fiber.member(-1)] == [5]
    # each class representative i lies in exactly one fiber, fiber i
    for i in range(q.size):
        assert [j for j, fiber in enumerate(q.fibers) if fiber.member(i)] == [i]

    assert logic_quotient(INTEGERS, modulus=1).size == 1


def test_logic_quotient_finite():
    c3 = cyclic_group(3)
    equality = tuple(frozenset([i]) for i in range(3))
    q = logic_quotient(c3, blocks=equality)
    assert q.size == 3 and q.is_group
    assert [f.elements() for f in q.fibers] == [[0], [1], [2]]

    s3 = symmetric_group_3()
    # partition by the rotation subgroup {e, r, r2}: normal, so a group quotient
    rot = frozenset([0, 1, 2])
    cosets = (rot, frozenset([3, 4, 5]))
    q = logic_quotient(s3, blocks=cosets)
    assert q.size == 2 and q.is_group

    lopsided = (frozenset([0]), frozenset([1, 2, 3, 4, 5]))
    q = logic_quotient(s3, blocks=lopsided)
    assert q.size == 2 and not q.is_group

    with pytest.raises(ValueError):
        logic_quotient(s3, blocks=(frozenset([0, 1]), frozenset([1, 2])))


def test_g00_levels():
    assert g00_at_level(INTEGERS, 12) == congruence_set(12, [0])
    c5 = cyclic_group(5)
    assert g00_at_level(c5, 1) == FiniteSubset(c5, [0])


def test_g00_coherent_along_divisors():
    # coarser levels give larger subgroups: nZ contains mZ whenever n | m
    from typeflow.defsets import intersect

    for coarse, fine in [(6, 12), (3, 6), (4, 8), (1, 5)]:
        small = g00_at_level(INTEGERS, fine)
        assert intersect(g00_at_level(INTEGERS, coarse), small) == small


def test_universal_compactification_integers():
    result = universal_compactification(INTEGERS, 6, [2, 3])
    assert result.quotient_size == 6
    assert [f.target_size for f in result.factors] == [2, 3]
    for f in result.factors:
        assert_surjective_homomorphism(f.images, cyclic_law(6), 6, cyclic_law(f.target_size), f.target_size)
    # commuting triangle recomputed elementwise; it forces the map, so the
    # factor is unique
    for f in result.factors:
        m = f.target_size
        for g in range(-12, 13):
            assert f.images[g % 6] == g % m

    with pytest.raises(LevelError):
        universal_compactification(INTEGERS, 6, [4])


def test_universal_compactification_finite():
    s3 = symmetric_group_3()
    result = universal_compactification(s3, 1, [[0]])
    assert result.quotient_size == 6
    assert result.factors[0].images == tuple(range(6))

    q8 = quaternion_group_8()
    center = [0, 1]  # +1 and -1
    result = universal_compactification(q8, 1, [center, [0]])
    assert result.quotient_size == 8  # intersection of the family is trivial
    assert [f.target_size for f in result.factors] == [4, 8]
    for N, f in zip([center, [0]], result.factors):
        target, _ = finite_quotient(q8, N)
        assert_surjective_homomorphism(
            f.images, lambda a, b: q8.table[a][b], 8, lambda x, y: target.table[x][y], f.target_size
        )


@pytest.mark.parametrize(
    "group, targets",
    [(symmetric_group_3, [[0, 1, 2]]), (quaternion_group_8, [[0, 1], [0]]), (quaternion_group_8, [[0, 1, 2, 3], [0, 1]])],
)
def test_universal_compactification_finite_commutes(group, targets):
    """For every g, the factor image at g's core coset is g's coset of N, and
    two elements share an image exactly when they share a coset of N."""
    ctx = group()
    result = universal_compactification(ctx, 1, targets)
    core = frozenset(ctx.elements()).intersection(*map(frozenset, targets))
    quotient, core_proj = finite_quotient(ctx, core)
    assert result.quotient_size == quotient.order
    for N, f in zip(targets, result.factors):
        target, proj = finite_quotient(ctx, N)
        assert_surjective_homomorphism(
            f.images, lambda a, b: quotient.table[a][b], quotient.order, lambda x, y: target.table[x][y], target.order
        )
        assert all(f.images[core_proj[g]] == proj[g] for g in ctx.elements())
        for g in ctx.elements():
            for h in ctx.elements():
                same_coset = ctx.table[ctx.inverse[g]][h] in N
                assert (f.images[core_proj[g]] == f.images[core_proj[h]]) == same_coset


def test_inverse_system_coherence():
    # reduction maps commute along divisor chains: Z/24 -> Z/12 -> Z/6
    big = universal_compactification(INTEGERS, 24, [12, 6])
    to12 = dict(enumerate(big.factors[0].images))
    to6 = dict(enumerate(big.factors[1].images))
    mid = universal_compactification(INTEGERS, 12, [6])
    mid_to6 = dict(enumerate(mid.factors[0].images))
    for i in range(24):
        assert mid_to6[to12[i]] == to6[i]


def test_homomorphism_check_integers():
    c4 = cyclic_group(4)
    verdict = definable_homomorphism_check(INTEGERS, [0, 1, 2, 3], c4, level=12)
    assert verdict.valid
    assert verdict.fiber_modulus == 4
    assert verdict.fibers[1] == congruence_set(4, [1])
    assert len(verdict.factor_images) == 12
    # closure identity on congruence classes: the class of a + b lies in the
    # fiber of f(a) . f(b)
    for a in range(4):
        for b in range(4):
            assert verdict.fibers[c4.compose(verdict.factor_images[a], verdict.factor_images[b])].member(a + b)

    c2 = cyclic_group(2)
    verdict = definable_homomorphism_check(INTEGERS, [0], c2)
    assert not verdict.valid and verdict.reason == "dense-image failure"

    verdict = definable_homomorphism_check(INTEGERS, [0, 1, 1, 0], c2)
    assert not verdict.valid and "not a homomorphism" in verdict.reason

    with pytest.raises(LevelError):
        definable_homomorphism_check(INTEGERS, [0, 1, 2, 3], c4, level=6)


def test_homomorphism_check_finite():
    c6, c3 = cyclic_group(6), cyclic_group(3)
    verdict = definable_homomorphism_check(c6, [0, 1, 2, 0, 1, 2], c3)
    assert verdict.valid
    verdict = definable_homomorphism_check(c6, [0, 0, 0, 0, 0, 0], cyclic_group(2))
    assert not verdict.valid and verdict.reason == "dense-image failure"


def test_a_homomorphism_check_over_a_table_rejects_a_level_other_than_1():
    c4, c2 = cyclic_group(4), cyclic_group(2)
    assert definable_homomorphism_check(c4, [0, 1, 0, 1], c2, level=1).valid
    for level in (2, 7):
        with pytest.raises(LevelError) as excinfo:
            definable_homomorphism_check(c4, [0, 1, 0, 1], c2, level=level)
        assert str(excinfo.value) == "finite backends have only the trivial level 1"
    task = {"op": "check-homomorphism", "values": [0, 1, 0, 1], "target": "c2", "level": 7}
    report, code = run_scenario({"group": {"kind": "cyclic", "order": 4}, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"] == "LevelError: finite backends have only the trivial level 1"


def test_only_an_integer_homomorphism_check_reports_a_fiber_modulus():
    # a table's fibers are element sets, and no modulus describes them
    for group, values, keys in (
        ({"kind": "integers"}, [0, 1], ["valid", "fiber_modulus", "fibers", "factor_images"]),
        ({"kind": "cyclic", "order": 4}, [0, 1, 0, 1], ["valid", "fibers", "factor_images"]),
    ):
        task = {"op": "check-homomorphism", "values": values, "target": "c2"}
        report, code = run_scenario({"group": group, "tasks": [task]})
        assert code == 0 and list(report["results"][0]["result"]) == keys
    assert report["results"][0]["result"]["fibers"] == [{"elements": [0, 2]}, {"elements": [1, 3]}]


C2, C3 = {"kind": "cyclic", "order": 2}, {"kind": "cyclic", "order": 3}


@pytest.mark.parametrize("left, right", [({"kind": "integers"}, C2), (C2, C3)], ids=["integers-c2", "c2-c3"])
@pytest.mark.parametrize(
    "task",
    [
        {"op": "universal-compactification", "targets": [[[0, 0]]]},
        {"op": "check-homomorphism", "values": [0, 1], "target": "c2"},
    ],
    ids=lambda task: task["op"],
)
def test_compactify_tasks_over_a_product_are_unsupported(left, right, task):
    group = {"kind": "product", "left": left, "right": right}
    report, code = run_scenario({"group": group, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"] == "ValueError: unsupported backend"


@pytest.mark.parametrize("values", [[9], [0, 9]])
def test_homomorphism_values_outside_the_target_integers(values):
    with pytest.raises(BackendMismatch):
        definable_homomorphism_check(INTEGERS, values, symmetric_group_3())


@pytest.mark.parametrize("values", [[9, 0], [0, 9]])
def test_homomorphism_values_outside_the_target_finite(values):
    with pytest.raises(BackendMismatch):
        definable_homomorphism_check(cyclic_group(2), values, symmetric_group_3())


def test_finite_quotient_machinery():
    s3 = symmetric_group_3()
    quotient, projection = finite_quotient(s3, [0, 1, 2])
    assert quotient.order == 2 and projection[0] == 0
    with pytest.raises(ValueError):
        finite_quotient(s3, [0, 1])  # not closed under the product
    with pytest.raises(ValueError):
        finite_quotient(s3, [0, 3])  # order-2 subgroup, not normal in s3


@pytest.mark.parametrize("source", [cyclic_group(4), INTEGERS], ids=["c4", "integers"])
def test_homomorphism_check_reports_a_broken_law_and_a_missed_element(source):
    # over the integers the four values are one period, a map of Z/4
    c2 = cyclic_group(2)
    assert definable_homomorphism_check(source, (0, 1, 0, 1), c2).valid
    broken = definable_homomorphism_check(source, (0, 1, 1, 1), c2)
    assert not broken.valid and broken.reason == "not a homomorphism at (1,1)"
    broken = definable_homomorphism_check(source, (0, 1, 0, 0), c2)
    assert not broken.valid and broken.reason == "not a homomorphism at (1,2)"
    missed = definable_homomorphism_check(source, (0, 0, 0, 0), c2)
    assert not missed.valid and missed.reason == "dense-image failure"


def test_logic_quotient_needs_the_blocks_to_be_cosets():
    c4 = cyclic_group(4)
    # {0, 2} is a normal subgroup, but {1} and {3} are not its cosets
    q = logic_quotient(c4, blocks=({0, 2}, {1}, {3}))
    assert not q.is_group
    assert [f.elements() for f in q.fibers] == [[0, 2], [1], [3]]
    # the cosets of {0, 2}, listed in either order, give the quotient in its own order
    q = logic_quotient(c4, blocks=({1, 3}, {0, 2}))
    assert q.is_group and q.size == 2
    assert [f.elements() for f in q.fibers] == [[0, 2], [1, 3]]


@pytest.mark.parametrize(
    "task, checked",
    [
        (lambda: logic_quotient(symmetric_group_3(), blocks=([0, 1, 2], [3, 4, 5])), 1),
        (lambda: logic_quotient(quaternion_group_8(), blocks=([0, 1], [2, 3], [4, 5], [6, 7])), 1),
        (lambda: universal_compactification(quaternion_group_8(), 1, [[0, 1], [0]]), 2),
        (lambda: universal_compactification(quaternion_group_8(), 1, [[0, 1, 2, 3], [0, 1], [0, 1]]), 3),
    ],
    ids=["logic-quotient-s3", "logic-quotient-q8", "universal-two", "universal-three"],
)
def test_each_normal_subgroup_is_checked_once(task, checked, monkeypatch):
    # the core of a universal compactification is normal by construction
    calls = []
    for name in ("_is_subgroup", "_is_normal"):
        check = getattr(compactify, name)
        monkeypatch.setattr(compactify, name, lambda ctx, N, check=check, name=name: calls.append(name) or check(ctx, N))
    task()
    assert sorted(calls) == ["_is_normal"] * checked + ["_is_subgroup"] * checked


@pytest.mark.parametrize(
    "task",
    [
        lambda: logic_quotient(INTEGERS, modulus=2000),
        lambda: universal_compactification(INTEGERS, 2000, [2, 1000]),
        lambda: definable_homomorphism_check(INTEGERS, [i % 2 for i in range(2000)], cyclic_group(2)),
    ],
    ids=["logic-quotient", "universal-compactification", "check-homomorphism"],
)
def test_integer_tasks_build_no_table_of_the_modulus(task):
    # Z/2000 as a table takes about 31 MiB; the tasks compute mod n instead
    tracemalloc.start()
    try:
        task()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


class Built(Exception):
    """Raised by a `congruence_set` patched in to show a fibre was built."""


def test_a_logic_quotient_over_the_modulus_bound_fails_before_any_fiber_is_built(monkeypatch):
    def congruence(*args, **kwargs):
        raise Built

    monkeypatch.setattr(compactify, "congruence_set", congruence)
    bound = compactify.QUOTIENT_MODULUS_BOUND
    assert bound == 1 << 15
    # at the bound the first fibre is built; past it, none is
    with pytest.raises(Built):
        logic_quotient(INTEGERS, modulus=bound)
    for modulus in (bound + 1, 10**6, 10**100):
        with pytest.raises(ValueError) as excinfo:
            logic_quotient(INTEGERS, modulus=modulus)
        assert str(excinfo.value) == f"modulus {modulus} is over the bound of {bound}"
    task = {"op": "logic-quotient", "modulus": 10**6}
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"] == f"ValueError: modulus 1000000 is over the bound of {bound}"


class Checked(Exception):
    """Raised by a `first_failing_pair` patched in to show the check began."""


def test_a_homomorphism_check_over_the_level_bound_fails_before_any_image_is_built(monkeypatch):
    def first_failing_pair(*args, **kwargs):
        raise Checked

    monkeypatch.setattr(compactify, "first_failing_pair", first_failing_pair)
    bound = compactify.FACTOR_LEVEL_BOUND
    assert bound == 1 << 20
    c2 = cyclic_group(2)
    # at the bound the check runs on to the homomorphism law; past it, nothing runs
    with pytest.raises(Checked):
        definable_homomorphism_check(INTEGERS, [0, 1], c2, level=bound)
    for level in (bound + 2, 10**6 * 2, 10**100):
        with pytest.raises(ValueError) as excinfo:
            definable_homomorphism_check(INTEGERS, [0, 1], c2, level=level)
        assert str(excinfo.value) == f"level {level} is over the bound of {bound}"
    task = {"op": "check-homomorphism", "values": [0, 1], "target": "c2", "level": 10**7}
    report, code = run_scenario({"group": {"kind": "integers"}, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"] == f"ValueError: level 10000000 is over the bound of {bound}"
