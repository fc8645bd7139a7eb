import copy
import pickle
import random
import sys
import threading
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typeflow import typespace
from typeflow.cli import run_scenario
from typeflow.defsets import FiniteSubset, IntegerSet, complement, congruence_set, integer_ray, member, union
from typeflow.ellis import star
from typeflow.groups import INTEGERS, BackendMismatch, IntegerGroup, ProductGroup, cyclic_group
from typeflow.typespace import (
    LevelError,
    Limit,
    acting_set,
    apply_group,
    contains,
    is_closed_invariant,
    limit_points,
    point_from_json,
    point_to_json,
    restrict,
    witness,
)

EVENS = congruence_set(2, [0])


def standard_family(level: int) -> list[IntegerSet]:
    """A probe family of definable sets whose periods divide the level."""
    family = [congruence_set(d, [r]) for d in range(1, level + 1) if level % d == 0 for r in range(d)]
    family.append(IntegerSet(1, up=[0], down=(), lo=0, hi=-1, bits=()))
    family.append(IntegerSet(1, up=(), down=[0], lo=1, hi=0, bits=()))
    return family


def test_contains_examples():
    assert contains(Limit(1, 1, 2), EVENS) is False
    assert contains(Limit(-1, 0, 2), integer_ray(1, 0)) is False
    assert contains(6, EVENS) is True


def test_contains_level_mismatch():
    with pytest.raises(LevelError):
        contains(Limit(1, 0, 2), congruence_set(3, [0]))


def test_restrict_examples():
    assert restrict(Limit(1, 5, 6), 3) == Limit(1, 2, 3)
    assert restrict(Limit(-1, 5, 6), 6) == Limit(-1, 5, 6)
    assert restrict(7, 4) == 7
    with pytest.raises(LevelError):
        restrict(Limit(1, 0, 6), 4)


def test_apply_group_examples():
    assert apply_group(INTEGERS, 1, Limit(1, 0, 2)) == Limit(1, 1, 2)
    p = Limit(-1, 3, 5)
    assert apply_group(INTEGERS, 0, p) == p
    assert apply_group(INTEGERS, 3, Limit(-1, 1, 4)) == Limit(-1, 0, 4)
    c3 = cyclic_group(3)
    assert apply_group(c3, 1, 2) == 0


def test_apply_group_is_level_bijection_commuting_with_restrict():
    pts = limit_points(INTEGERS, 12)
    for g in (-5, 1, 7):
        images = [apply_group(INTEGERS, g, p) for p in pts]
        assert sorted(images, key=str) == sorted(pts, key=str)
        for p in pts:
            assert restrict(apply_group(INTEGERS, g, p), 4) == apply_group(
                INTEGERS, g, restrict(p, 4)
            )


def test_acting_set_examples():
    m3 = congruence_set(3, [1])
    p = Limit(1, 0, 3)
    result = acting_set(INTEGERS, p, m3)
    # oracle: sample the defining condition pointwise
    for g in range(-30, 31):
        assert member(result, g) == contains(apply_group(INTEGERS, g, p), m3)
    assert result == congruence_set(3, [1])

    Y = IntegerSet(4, up=[1, 2], down=[0], lo=-2, hi=2, bits=[1, 0, 0, 1, 0])
    assert acting_set(INTEGERS, 0, Y) == Y
    assert acting_set(INTEGERS, Limit(-1, 0, 2), integer_ray(1, 0)) == IntegerSet(1)


def test_acting_set_sampled_against_definition():
    rng = random.Random(5)
    for _ in range(60):
        n = rng.choice([2, 3, 4, 6])
        p = Limit(rng.choice([1, -1]), rng.randrange(n), n)
        pat = [r for r in range(n) if rng.random() < 0.5]
        Y = congruence_set(n, pat)
        result = acting_set(INTEGERS, p, Y)
        for g in range(-20, 21):
            assert member(result, g) == contains(apply_group(INTEGERS, g, p), Y)


def test_acting_set_finite_backend():
    c3 = cyclic_group(3)
    Y = FiniteSubset(c3, [0, 1])
    result = acting_set(c3, 1, Y)
    # oracle the defining condition pointwise
    expected = [g for g in range(3) if member(Y, c3.compose(g, 1))]
    assert result == FiniteSubset(c3, expected)
    assert expected == [0, 2]


def test_acting_set_rejects_a_foreign_set_and_a_coarse_level():
    # a limit point tests only integer sets whose period divides its level
    with pytest.raises(BackendMismatch) as excinfo:
        acting_set(INTEGERS, Limit(1, 0, 4), FiniteSubset(cyclic_group(2), [0]))
    assert str(excinfo.value) == "expected an integer set"
    task = {"op": "acting-set", "p": {"kind": "limit", "sign": "+", "res": 0, "mod": 4}, "set": {"mod": 3, "up": [0], "down": [0]}}
    report, code = run_scenario({"group": {"kind": "integers"}, "level": 4, "tasks": [task]})
    assert code == 3
    assert report["results"][0]["error"] == "LevelError: set period 3 does not divide level 4"


def test_witness_examples():
    assert witness(Limit(1, 1, 4), count=3) == [1, 5, 9]
    assert witness(Limit(-1, 3, 4), count=3) == [3, -1, -5]
    assert witness(Limit(1, 2, 5), count=2, start=3) == [17, 22]
    assert witness(Limit(-1, 2, 5), count=2, start=3) == [-13, -18]
    assert witness(Limit(-1, 0, 1)) == [0, -1, -2, -3, -4, -5, -6, -7]
    coarse = Limit(1, 5, 6)
    assert restrict(coarse, 2) == Limit(1, 1, 2)
    # the witness of a point also converges to its restriction
    assert all(a % 2 == 1 for a in witness(coarse, count=4))


def test_witness_sequences_converge():
    family = standard_family(6)
    for p in limit_points(INTEGERS, 6):
        for Y in family:
            tail = witness(p, count=4, start=3)
            assert all(contains(a, Y) == contains(p, Y) for a in tail)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 12])
def test_ultrafilter_laws_exhaustive(n):
    family = standard_family(n)
    for p in limit_points(INTEGERS, n):
        for A in family:
            assert contains(p, complement(A)) == (not contains(p, A))
            for B in family:
                assert contains(p, union(A, B)) == (contains(p, A) or contains(p, B))


def test_level_space_shape():
    assert len(limit_points(INTEGERS, 4)) == 8
    assert is_closed_invariant({Limit(1, r, 4) for r in range(4)})
    assert not is_closed_invariant({Limit(1, 0, 4)})
    assert not is_closed_invariant({0})
    c3 = cyclic_group(3)
    assert limit_points(c3, 1) == []
    with pytest.raises(LevelError):
        limit_points(c3, 2)


@pytest.mark.parametrize("n", range(1, 7))
def test_limit_points_are_the_plus_circle_then_the_minus_circle(n):
    assert limit_points(INTEGERS, n) == [Limit(1, r, n) for r in range(n)] + [Limit(-1, r, n) for r in range(n)]


@pytest.mark.parametrize(
    "ctx, level, error, message",
    [
        # the level is checked first, over every backend
        (INTEGERS, 0, ValueError, "level modulus must be at least 1"),
        (cyclic_group(3), 0, ValueError, "level modulus must be at least 1"),
        (ProductGroup(cyclic_group(2), INTEGERS), 0, ValueError, "level modulus must be at least 1"),
        # then a finite backend's trivial level
        (cyclic_group(3), 2, LevelError, "finite backends have only the trivial level 1"),
        # then every other backend
        (ProductGroup(cyclic_group(2), INTEGERS), 1, BackendMismatch, "type spaces are provided for integer and finite backends"),
        (ProductGroup(cyclic_group(2), cyclic_group(3)), 3, BackendMismatch, "type spaces are provided for integer and finite backends"),
        # before the level bound, which limit_points checks next
        (cyclic_group(3), 10**100, LevelError, "finite backends have only the trivial level 1"),
        (ProductGroup(cyclic_group(2), INTEGERS), 10**100, BackendMismatch, "type spaces are provided for integer and finite backends"),
    ],
)
def test_limit_points_rejects_in_a_fixed_order(ctx, level, error, message):
    with pytest.raises(error) as excinfo:
        limit_points(ctx, level)
    assert type(excinfo.value) is error and str(excinfo.value) == message


class Built(Exception):
    """Raised by a patched `Limit`: a point was about to be built."""


def test_limit_points_over_the_level_bound_fail_before_any_point_is_built(monkeypatch):
    def limit(*args):
        raise Built

    bound = typespace.LEVEL_BOUND
    assert bound == 1 << 17
    monkeypatch.setattr(typespace, "Limit", limit)
    # at the bound the points are built; past it, none is
    with pytest.raises(Built):
        limit_points(INTEGERS, bound)
    for level in (bound + 1, 10**100):
        with pytest.raises(ValueError) as excinfo:
            limit_points(INTEGERS, level)
        assert type(excinfo.value) is ValueError and str(excinfo.value) == f"level {level} is over the bound of {bound}"
    # g00 needs no points, so it still prints at a level far over the bound
    tasks = [{"op": "minimal-subflows"}, {"op": "g00", "level": 10**12}]
    report, code = run_scenario({"group": {"kind": "integers"}, "level": 10**6, "tasks": tasks})
    assert code == 3
    assert report["results"][0]["error"] == f"ValueError: level 1000000 is over the bound of {bound}"
    assert report["results"][1]["result"] == {"subgroup": {"kind": "congruence", "modulus": 10**12}}


def test_point_json_round_trip():
    pts = [7, (2, 1), Limit(1, 1, 4), Limit(-1, 3, 12)]
    for p in pts:
        assert point_from_json(point_to_json(p)) == p
    assert point_to_json(Limit(1, 1, 4)) == {"kind": "limit", "sign": "+", "res": 1, "mod": 4}
    assert point_to_json(7) == {"kind": "realized", "value": 7}


# ---------------------------------------------------------------------------
# type points are values


@pytest.mark.parametrize(
    "sign, residue, modulus, message",
    [
        (0, 0, 6, "sign must be +1 or -1"),
        (2, 0, 6, "sign must be +1 or -1"),
        (1, 0, 0, "modulus must be at least 1"),
        (1, -1, 6, "residue out of range for modulus"),
        (1, 6, 6, "residue out of range for modulus"),
    ],
)
def test_limit_rejects_bad_fields(sign, residue, modulus, message):
    with pytest.raises(ValueError) as excinfo:
        Limit(sign, residue, modulus)
    assert str(excinfo.value) == message


def test_points_equal_only_points_of_their_class():
    assert Limit(1, 0, 6) == Limit(1, 0, 6)
    assert Limit(1, 0, 6) != (1, 0, 6)
    assert (1, 0, 6) != Limit(1, 0, 6)
    assert Limit(1, 0, 6) not in {(1, 0, 6)}
    for p in limit_points(INTEGERS, 1):
        assert 0 != p and p != 0


@pytest.mark.parametrize("sign, residue, modulus", [(1, 0, 6), (-1, 5, 6), (1, 0, 1), (-1, 7, 120)])
def test_equal_fields_give_the_same_point(sign, residue, modulus):
    p = Limit(sign, residue, modulus)
    assert p is Limit(sign, residue, modulus)
    # one object per value, so equality and hashing are object's, by identity
    assert "__eq__" not in vars(Limit) and "__hash__" not in vars(Limit)
    assert hash(p) == object.__hash__(p) and p in {Limit(sign, residue, modulus)}


@pytest.mark.parametrize("value", [7, -3, (2, 1)])
def test_a_realized_point_is_its_element(value):
    obj = {"kind": "realized", "value": list(value) if isinstance(value, tuple) else value}
    p = point_from_json(obj)
    assert p == value and hash(p) == hash(value)
    assert p in {value} and value in {p}
    assert point_to_json(p) == obj


def test_point_repr():
    assert repr(Limit(1, 0, 6)) == "Limit(sign=1, residue=0, modulus=6)"
    assert repr(Limit(-1, 3, 4)) == "Limit(sign=-1, residue=3, modulus=4)"


# ---------------------------------------------------------------------------
# limit points are interned


@st.composite
def limit_fields(draw):
    modulus = draw(st.integers(min_value=1, max_value=10**12))
    return draw(st.sampled_from([1, -1])), draw(st.integers(min_value=0, max_value=modulus - 1)), modulus


@given(limit_fields())
def test_equal_int_fields_give_one_shared_point(fields):
    sign, residue, modulus = fields
    p = Limit(sign, residue, modulus)
    # equal but distinct int objects for the large fields
    q = Limit(int(str(sign)), int(str(residue)), int(str(modulus)))
    assert p is q
    assert typespace._LIMITS[(sign, residue, modulus)] is p
    assert (p.sign, p.residue, p.modulus) == (sign, residue, modulus)


# each case has its own modulus, so that no other test builds its int point
FRESH = 10**15


@pytest.mark.parametrize(
    "fields",
    [(True, 0, FRESH + 1), (1, False, FRESH + 2), (1, True, FRESH + 3), (1.0, 0, FRESH + 4), (1, 0.0, FRESH + 5), (1, 0, float(FRESH + 6))],
)
def test_bool_and_float_fields_never_alias_an_int_point(fields):
    # each field hashes and compares equal to an int: a miss and a hit on the int key both raise
    assert tuple(map(int, fields)) not in typespace._LIMITS
    for _ in range(2):
        with pytest.raises(TypeError, match="^limit point fields must be ints, got "):
            Limit(*fields)
        Limit(*map(int, fields))


@pytest.mark.parametrize("fields", [(1, 5, 120), (-1, 0, 1), (1, 0, 6), (-1, 3, 10**12)])
def test_copies_and_pickles_rebuild_through_the_constructor(fields):
    p = Limit(*fields)
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone is p


@pytest.mark.parametrize("level", [1, 7, 1024])
def test_limit_points_build_each_circle_once(level):
    first = limit_points(INTEGERS, level)
    circles = [p._circle for p in first]
    assert circles == [tuple(first[:level])] * level + [tuple(first[level:])] * level
    # a later call reads each circle back; it does not build or stamp a new one
    again = limit_points(INTEGERS, level)
    assert all(a is b and a._circle is c for a, b, c in zip(first, again, circles))


def test_threads_building_one_level_get_its_points_and_a_right_circle():
    # each round is a level that no other test builds, which the threads
    # start together, so they race to build and stamp its circles
    levels = range(3001, 3017)
    start = threading.Barrier(8, timeout=60)
    built = {}

    def build(seed):
        built[seed] = lists = []
        for level in levels:
            start.wait()
            lists.append(limit_points(INTEGERS, level))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(built) == list(range(8))
    for i, level in enumerate(levels):
        want = reference_limit_points(level)
        for lists in built.values():
            assert len(lists[i]) == 2 * level and all(a is b for a, b in zip(lists[i], want))
        # whichever thread's tuple a point holds, it is the point's own circle
        assert all(p._circle == tuple(want[:level] if p.sign > 0 else want[level:]) for p in want)


def test_points_past_the_old_table_cap_stay_the_same_objects():
    # 2 * 40,000 points are more than the 2**16 that a bounded table held,
    # which cleared itself, so that a second call rebuilt every point
    first = limit_points(INTEGERS, 40_000)
    again = limit_points(INTEGERS, 40_000)
    assert len(first) == 80_000 and all(a is b for a, b in zip(first, again))


def test_threads_building_the_same_points_get_the_same_objects():
    # each round is a modulus that no test has built, and the threads start
    # it together and walk it in one order, so they race to publish each point
    rounds = [[(sign, residue, FRESH + 100 + k) for sign in (1, -1) for residue in range(128)] for k in range(32)]
    start = threading.Barrier(8, timeout=60)
    built = {}

    def build(seed):
        built[seed] = points = {}
        for keys in rounds:
            start.wait()
            points.update((key, Limit(*key)) for key in keys)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(seed,)) for seed in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(built) == list(range(8))
    for key in (key for keys in rounds for key in keys):
        point = typespace._LIMITS[key]
        assert (point.sign, point.residue, point.modulus) == key
        assert all(points[key] is point for points in built.values())


# ---------------------------------------------------------------------------
# the level-point kernels against a literal reference
#
# star and apply_group read their result from a point's circle when it has
# one and call Limit(...) otherwise, and limit_points reads back the circles
# it built before. The references below build every point with Limit(...) and
# take every level with math.gcd, so the fast paths must agree with them on
# value, and every result must be the interned point.


class SubIntegers(IntegerGroup):
    """A subclass of the integer backend, which the kernels still accept."""


KERNEL_PROPERTIES = settings(derandomize=True, deadline=None, max_examples=200)
CONTEXTS = (INTEGERS, SubIntegers(), cyclic_group(3), ProductGroup(cyclic_group(2), INTEGERS))


def reference_star(ctx, p, q):
    if not isinstance(ctx, IntegerGroup):
        raise BackendMismatch("the semigroup product on limit points is provided for the integer backend")
    level = gcd(p.modulus, q.modulus)
    return Limit(q.sign, (p.residue + q.residue) % level, level)


def reference_apply_group(ctx, g, p):
    ctx.check_element(g)
    if not isinstance(ctx, IntegerGroup):
        raise BackendMismatch("limit points live over the integers")
    return Limit(p.sign, (p.residue + g) % p.modulus, p.modulus)


def reference_limit_points(level):
    return [Limit(1, r, level) for r in range(level)] + [Limit(-1, r, level) for r in range(level)]


def outcome(kernel, *args):
    try:
        return kernel(*args)
    except Exception as exc:  # the kernel's error is compared with the reference's
        return exc


def fields_of(p):
    return (p.sign, p.residue, p.modulus)


def assert_same_point(got, want):
    assert got.__class__ is Limit and got == want and hash(got) == hash(want)
    assert got is Limit(*fields_of(want))


def assert_same_outcome(got, want):
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want)
        for g, w in zip(got, want):
            assert_same_point(g, w)
    else:
        assert_same_point(got, want)


@st.composite
def point_at(draw, level: int):
    return Limit(draw(st.sampled_from((1, -1))), draw(st.integers(min_value=0, max_value=level - 1)), level)


@st.composite
def level_pairs(draw):
    """Equal, unequal, coprime and modulus-1 levels all come up."""
    m = draw(st.integers(min_value=1, max_value=12))
    return m, draw(st.one_of(st.just(m), st.just(1), st.integers(min_value=1, max_value=12)))


@KERNEL_PROPERTIES
@given(st.data(), level_pairs())
def test_star_of_limit_points_matches_the_reference(data, levels):
    m, n = levels
    # the table holds every point at both levels, as it does for the hot callers
    limit_points(INTEGERS, m), limit_points(INTEGERS, n)
    p, q = data.draw(point_at(m)), data.draw(point_at(n))
    for ctx in CONTEXTS:
        assert_same_outcome(outcome(star, ctx, p, q), outcome(reference_star, ctx, p, q))


@KERNEL_PROPERTIES
@given(st.data(), st.integers(min_value=1, max_value=12), st.integers(min_value=-30, max_value=30))
def test_apply_group_on_limit_points_matches_the_reference(data, level, g):
    limit_points(INTEGERS, level)
    p = data.draw(point_at(level))
    for ctx in CONTEXTS:
        for h in (g, True, g + 0.5, float(g), (g, 0)):
            assert_same_outcome(outcome(apply_group, ctx, h, p), outcome(reference_apply_group, ctx, h, p))


@KERNEL_PROPERTIES
@given(st.integers(min_value=1, max_value=12))
def test_limit_points_match_the_reference(level):
    assert_same_outcome(outcome(limit_points, INTEGERS, level), outcome(reference_limit_points, level))


@pytest.mark.parametrize("level", [True, 1.0, 6.0])
def test_a_bool_or_float_level_raises_whatever_the_table_holds(level):
    limit_points(INTEGERS, int(level))
    with pytest.raises(TypeError, match=f"^level must be an int, got {level!r}$"):
        limit_points(INTEGERS, level)


@pytest.mark.parametrize("m, n", [(1009, 1009), (2026, 1013), (1019, 1021)])
def test_points_built_before_their_circle_are_the_points_in_it(m, n):
    # levels that no other test builds a circle at
    p, q = Limit(1, 1000, m), Limit(-1, 7, n)
    assert p._circle is None and q._circle is None

    def results():
        return [star(INTEGERS, p, q), star(INTEGERS, q, p), apply_group(INTEGERS, 25, p), apply_group(INTEGERS, -3, q)]

    before = results()
    plus, minus = limit_points(INTEGERS, m)[:m], limit_points(INTEGERS, n)[n:]
    assert plus[1000] is p and minus[7] is q and p._circle == tuple(plus) and q._circle == tuple(minus)
    # the circles now answer, with the very objects the table gave
    after = results()
    assert all(a is b for a, b in zip(after, before))
    want = [reference_star(INTEGERS, p, q), reference_star(INTEGERS, q, p)]
    want += [reference_apply_group(INTEGERS, 25, p), reference_apply_group(INTEGERS, -3, q)]
    assert all(a is w for a, w in zip(after, want))


@KERNEL_PROPERTIES
@given(st.data(), level_pairs(), st.integers(min_value=-30, max_value=30), st.booleans())
def test_the_kernels_match_the_reference_with_and_without_a_circle(data, levels, g, circles):
    m, n = levels
    if circles:
        limit_points(INTEGERS, m), limit_points(INTEGERS, n)
    else:
        # limit_points builds no level over its bound, so no point there has a circle
        m, n = m * FRESH, n * FRESH
    p, q = data.draw(point_at(m)), data.draw(point_at(n))
    assert (p._circle is not None, q._circle is not None) == (circles, circles)
    for ctx in CONTEXTS:
        assert_same_outcome(outcome(star, ctx, p, q), outcome(reference_star, ctx, p, q))
        assert_same_outcome(outcome(apply_group, ctx, g, p), outcome(reference_apply_group, ctx, g, p))


@pytest.mark.parametrize(
    "kernel, args, error, message",
    [
        (star, (cyclic_group(3), Limit(1, 0, 1), Limit(1, 0, 1)), BackendMismatch,
         "the semigroup product on limit points is provided for the integer backend"),
        (star, (ProductGroup(cyclic_group(2), INTEGERS), Limit(1, 0, 2), Limit(-1, 1, 2)), BackendMismatch,
         "the semigroup product on limit points is provided for the integer backend"),
        (apply_group, (INTEGERS, True, Limit(1, 0, 6)), BackendMismatch, "True is not an element of IntegerGroup()"),
        (limit_points, (INTEGERS, 0), ValueError, "level modulus must be at least 1"),
    ],
)
def test_the_kernels_keep_their_errors(kernel, args, error, message):
    with pytest.raises(error) as excinfo:
        kernel(*args)
    assert type(excinfo.value) is error and str(excinfo.value) == message
