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
from typeflow.defsets import IntegerSet, complement, congruence_set, integer_ray, member, union
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
    from typeflow.defsets import FiniteSubset

    c3 = cyclic_group(3)
    Y = FiniteSubset(c3, [0, 1])
    result = acting_set(c3, 1, Y)
    # oracle the defining condition pointwise
    expected = [g for g in range(3) if member(Y, c3.compose(g, 1))]
    assert result == FiniteSubset(c3, expected)
    assert expected == [0, 2]


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
    ],
)
def test_limit_points_rejects_in_a_fixed_order(ctx, level, error, message):
    with pytest.raises(error) as excinfo:
        limit_points(ctx, level)
    assert type(excinfo.value) is error and str(excinfo.value) == message


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
def test_point_hash_is_the_field_tuple_hash(sign, residue, modulus):
    assert hash(Limit(sign, residue, modulus)) == hash((sign, residue, modulus))


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
    assert hash(p) == hash((sign, residue, modulus))
    assert (p.sign, p.residue, p.modulus) == (sign, residue, modulus)


@pytest.mark.parametrize("fields", [(True, 0, 6), (1, False, 6), (1, True, 6), (1.0, 0, 6), (1, 0.0, 6), (1, 0, 6.0)])
def test_bool_and_float_fields_never_alias_an_int_point(fields):
    # each field hashes and compares equal to an int: a miss and a hit on the int key both raise
    typespace._LIMITS.clear()
    for _ in range(2):
        with pytest.raises(TypeError, match="^limit point fields must be ints, got "):
            Limit(*fields)
        Limit(*map(int, fields))


@pytest.mark.parametrize("fields", [(1, 5, 120), (-1, 0, 1), (1, 0, 6), (-1, 3, 10**12)])
def test_copies_and_pickles_rebuild_through_the_constructor(fields):
    p = Limit(*fields)
    for clone in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert clone is p


def test_the_intern_table_stays_bounded():
    cap = typespace._LIMITS_CAP
    modulus = cap + 7
    built = [Limit(1, r, modulus) for r in range(cap + 7)]
    assert len(typespace._LIMITS) <= cap
    assert all(p == Limit(p.sign, p.residue, p.modulus) for p in built)
    # a point built before the table was cleared still matches by value
    assert Limit(1, 0, modulus) in frozenset(built) and built[0] in {Limit(1, 0, modulus)}


def test_threads_building_points_keep_the_table_bounded(monkeypatch):
    # a small cap makes every thread clear the table again and again
    monkeypatch.setattr(typespace, "_LIMITS_CAP", 16)
    wrong = []

    def build(seed):
        rng = random.Random(seed)
        for _ in range(4000):
            sign, residue = rng.choice((1, -1)), rng.randrange(97)
            p = Limit(sign, residue, 97)
            if (p.sign, p.residue, p.modulus) != (sign, residue, 97) or hash(p) != hash((sign, residue, 97)):
                wrong.append(p)

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
    assert wrong == []
    assert len(typespace._LIMITS) <= 16


# ---------------------------------------------------------------------------
# the level-point kernels against a literal reference
#
# star, apply_group and limit_points read their result from the intern table
# and skip the constructor. The references below build every point with
# Limit(...) and take every level with math.gcd, so the fast paths must agree
# with them on value, and every result must be the interned point.


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


@settings(KERNEL_PROPERTIES, max_examples=60)
@given(st.data(), level_pairs(), st.integers(min_value=-30, max_value=30))
def test_a_point_built_after_the_table_was_cleared_equals_its_later_twin(data, levels, g):
    m, n = levels
    fields = [
        (data.draw(st.sampled_from((1, -1))), data.draw(st.integers(0, m - 1)), m),
        (data.draw(st.sampled_from((1, -1))), data.draw(st.integers(0, n - 1)), n),
    ]
    kernels = [
        lambda p, q: [star(INTEGERS, p, q)],
        lambda p, q: [apply_group(INTEGERS, g, p)],
        lambda p, q: limit_points(INTEGERS, m),
    ]
    for kernel in kernels:
        limit_points(INTEGERS, m), limit_points(INTEGERS, n)
        p, q = (Limit(*f) for f in fields)
        before = kernel(p, q)
        typespace._LIMITS.clear()
        # arguments built before the clear still carry their old circle
        again = kernel(p, q)
        assert again == before and list(map(hash, again)) == list(map(hash, before))
        # arguments built after it carry none: results are built afresh on a
        # miss, then interned and shared from then on
        p, q = (Limit(*f) for f in fields)
        after = kernel(p, q)
        assert after == before and list(map(hash, after)) == list(map(hash, before))
        assert all(a is not b for a, b in zip(after, before))
        assert all(a is b for a, b in zip(after, kernel(p, q)))


@KERNEL_PROPERTIES
@given(st.data(), level_pairs(), st.integers(min_value=-30, max_value=30), st.booleans())
def test_the_kernels_match_the_reference_with_and_without_a_circle(data, levels, g, circles):
    m, n = levels
    typespace._LIMITS.clear()
    if circles:
        limit_points(INTEGERS, m), limit_points(INTEGERS, n)
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
