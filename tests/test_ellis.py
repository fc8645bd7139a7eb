import random
from functools import partial
from math import ceil, gcd, log2

import pytest

from typeflow import ellis
from typeflow.defsets import congruence_set
from typeflow.ellis import _bit_class, find_idempotents, star, star_via_schema
from typeflow.groups import INTEGERS, BackendMismatch, FiniteGroup, bundled_small_groups, cyclic_group, symmetric_group_3
from typeflow.oracle import oracle_star
from typeflow.typespace import Limit, _stable_on_witnesses, apply_group, limit_points, restrict, witness


def mixed_points(level, rng, count):
    pts = []
    for _ in range(count):
        if rng.random() < 0.4:
            pts.append(rng.randint(-10**6, 10**6))
        else:
            pts.append(Limit(rng.choice([1, -1]), rng.randrange(level), level))
    return pts


def test_star_examples_against_numeric_oracle():
    cases = [
        (5, Limit(1, 1, 4), Limit(1, 2, 4)),
        (Limit(-1, 1, 4), Limit(1, 2, 4), Limit(1, 3, 4)),
        (3, 4, 7),
    ]
    for p, q, expected in cases:
        assert oracle_star(INTEGERS, p, q, 4) == expected
        assert star(INTEGERS, p, q) == expected


def test_star_on_finite_backend_is_group_law():
    c3 = cyclic_group(3)
    assert star(c3, 1, 2) == 0


SCHEMA_LEVELS = range(1, 18)


def test_star_via_schema_equals_star_exhaustive():
    # every pair at each level 1..17, and realized x limit in both orders
    for n in SCHEMA_LEVELS:
        pts = limit_points(INTEGERS, n) + [-7, -1, 0, 2, 9]
        for p in pts:
            for q in pts:
                assert star_via_schema(INTEGERS, p, q) == star(INTEGERS, p, q), (p, q)


def test_star_via_schema_equals_star_across_levels():
    # limit points at levels m and n are answered at gcd(m, n)
    for m in SCHEMA_LEVELS:
        for n in SCHEMA_LEVELS:
            for p in (Limit(1, m // 2, m), Limit(-1, m - 1, m)):
                for q in (Limit(1, n - 1, n), Limit(-1, n // 3, n)):
                    product = star_via_schema(INTEGERS, p, q)
                    assert product == star(INTEGERS, p, q), (p, q)
                    assert product.modulus == gcd(m, n)


def test_bit_classes_are_the_sets_they_name():
    for n in SCHEMA_LEVELS:
        for j in range((n - 1).bit_length()):
            Y = _bit_class(n, j)
            assert [Y.member(x) for x in range(-2 * n, 2 * n)] == [
                bool((x % n) >> j & 1) for x in range(-2 * n, 2 * n)
            ]


@pytest.mark.parametrize("answer", [True, False])
@pytest.mark.parametrize("n", [1, 5, 7, 8, 12, 16, 17])
def test_schema_probes_that_describe_no_point_fail(monkeypatch, n, answer):
    # a membership test that answers every probe alike selects no single
    # residue: all False rejects the class of residue 0, all True accepts
    # its complement too (or selects a residue past the level)
    monkeypatch.setattr(ellis, "contains", lambda p, Y: answer)
    for p, q in ((Limit(1, 0, n), Limit(-1, n - 1, n)), (3, Limit(1, 0, n)), (Limit(-1, 0, n), -2)):
        with pytest.raises(AssertionError, match="schema probes"):
            star_via_schema(INTEGERS, p, q)


def test_bit_probes_past_the_level_fail(monkeypatch):
    # every bit probe holds, so the bits read 7 at level 5; the class of
    # 7 mod 5 = 2 holds and its complement does not, as they do for +2 mod 5
    monkeypatch.setattr(ellis, "acting_set", lambda ctx, q, Y: Y)
    monkeypatch.setattr(ellis, "_bit_class", lambda level, j: congruence_set(1, [0]))
    with pytest.raises(AssertionError, match="schema probes select residue 7"):
        star_via_schema(INTEGERS, Limit(1, 2, 5), Limit(1, 0, 5))


def test_schema_probes_at_level_720_are_logarithmic(monkeypatch):
    probes = []
    original = ellis.acting_set

    def counting(ctx, q, Y):
        probes.append(Y)
        return original(ctx, q, Y)

    monkeypatch.setattr(ellis, "acting_set", counting)
    bound = ceil(log2(720)) + 3
    for p, q in ((Limit(1, 719, 720), Limit(-1, 5, 720)), (Limit(-1, 3, 720), 11), (-4, Limit(1, 700, 720))):
        probes.clear()
        assert star_via_schema(INTEGERS, p, q) == star(INTEGERS, p, q)
        assert len(probes) <= bound == 13


def test_schema_examples():
    p = Limit(1, 0, 2)
    assert star_via_schema(INTEGERS, p, p) == p
    assert star_via_schema(INTEGERS, Limit(1, 1, 3), 0) == Limit(1, 1, 3)


def test_associativity_small_levels_and_random():
    for n in (1, 2, 3, 4):
        pts = limit_points(INTEGERS, n)
        for p in pts:
            for q in pts:
                for r in pts:
                    assert star(INTEGERS, star(INTEGERS, p, q), r) == star(
                        INTEGERS, p, star(INTEGERS, q, r)
                    )
    rng = random.Random(21)
    for _ in range(300):
        n = rng.choice([2, 3, 4, 6, 12])
        p, q, r = mixed_points(n, rng, 3)
        assert star(INTEGERS, star(INTEGERS, p, q), r) == star(INTEGERS, p, star(INTEGERS, q, r))


def test_star_extends_group_action():
    for g in range(-8, 9):
        for q in limit_points(INTEGERS, 6):
            assert star(INTEGERS, g, q) == apply_group(INTEGERS, g, q)


def test_left_continuity_at_level():
    # restriction commutes with the product along every divisor
    n = 12
    pts = limit_points(INTEGERS, n)
    for m in (1, 2, 3, 4, 6, 12):
        for p in pts:
            for q in pts:
                assert restrict(star(INTEGERS, p, q), m) == star(
                    INTEGERS, restrict(p, m), restrict(q, m)
                )
    # witness sequences converge to the product from the left
    for p in pts:
        for q in pts:
            target = star(INTEGERS, p, q)
            for a in witness(p, count=3, start=5):
                assert star(INTEGERS, a, q) == target


def test_right_continuity_fails_where_it_should():
    # approximating the right factor cannot switch its direction
    p = Limit(1, 0, 2)
    q = Limit(-1, 0, 2)
    target = star(INTEGERS, p, q)
    assert target.sign == -1
    approximations = [star(INTEGERS, p, b) for b in witness(q, count=3, start=5)]
    assert all(a.sign == 1 for a in approximations)


def test_mixed_level_products_at_gcd():
    # two limit points: a + b is known only modulo gcd(levels)
    assert star(INTEGERS, Limit(1, 1, 2), Limit(1, 2, 3)) == Limit(1, 0, 1)
    assert star(INTEGERS, Limit(1, 1, 2), Limit(1, 0, 4)) == Limit(1, 1, 2)
    assert star(INTEGERS, Limit(1, 1, 3), Limit(-1, 1, 2)) == Limit(-1, 0, 1)
    assert star(INTEGERS, Limit(1, 0, 1000), Limit(1, 0, 1001)) == Limit(1, 0, 1)
    # +3 mod 4 restricts to +1 mod 2, and its product restricts to the same answer
    assert star(INTEGERS, Limit(1, 3, 4), Limit(1, 0, 4)) == Limit(1, 3, 4)
    assert restrict(Limit(1, 3, 4), 2) == Limit(1, 1, 2)
    assert restrict(Limit(1, 3, 4), 2) == star(INTEGERS, Limit(1, 1, 2), Limit(1, 0, 4))
    # a realized factor keeps the limit factor's level
    assert star(INTEGERS, 5, Limit(-1, 1, 4)) == Limit(-1, 2, 4)
    assert star(INTEGERS, Limit(1, 1, 3), 7) == Limit(1, 2, 3)


def all_points(levels):
    return [p for n in levels for p in limit_points(INTEGERS, n)]


def test_mixed_level_products_agree_three_ways():
    pts = all_points(range(1, 7))
    pts += [-7, 0, 5]
    for p in pts:
        for q in pts:
            direct = star(INTEGERS, p, q)
            assert star_via_schema(INTEGERS, p, q) == direct
            # the oracle classifies at a level fixed here, not by star
            moduli = [x.modulus for x in (p, q) if isinstance(x, Limit)]
            assert oracle_star(INTEGERS, p, q, gcd(*moduli) if moduli else 1) == direct


def test_finer_left_factor_restricts_to_the_product():
    for q in all_points(range(1, 7)):
        for p in all_points(range(1, 7)):
            coarse = star(INTEGERS, p, q)
            for k in (2, 3):
                for finer in limit_points(INTEGERS, k * p.modulus):
                    if restrict(finer, p.modulus) == p:
                        assert restrict(star(INTEGERS, finer, q), coarse.modulus) == coarse


def test_star_is_the_right_translation():
    # p -> p * q is the continuous map of the level space extending the
    # group action on q, at every level-1..6 q
    identity = INTEGERS.identity
    for q in all_points(range(1, 7)):
        assert star(INTEGERS, identity, q) == q
        for g in range(-6, 7):
            assert star(INTEGERS, g, q) == apply_group(INTEGERS, g, q)
        right = partial(star, INTEGERS, q=q)
        assert _stable_on_witnesses(right, limit_points(INTEGERS, q.modulus), 4, 3)
    for p in all_points(range(1, 7)) + list(range(-6, 7)):
        assert star(INTEGERS, p, identity) == p
    q = Limit(1, 0, 2)
    assert {star(INTEGERS, p, q) for p in limit_points(INTEGERS, 2)} == {Limit(1, 0, 2), Limit(1, 1, 2)}


def test_star_restricted_on_product_backends():
    from typeflow.groups import BackendMismatch, ProductGroup

    prod = ProductGroup(INTEGERS, cyclic_group(2))
    # realized points still multiply by the group law
    assert star(prod, (1, 1), (2, 1)) == (3, 0)
    with pytest.raises(BackendMismatch):
        star(prod, Limit(1, 0, 2), (0, 0))
    with pytest.raises(BackendMismatch):
        star(prod, Limit(1, 0, 2), Limit(-1, 1, 2))
    with pytest.raises(BackendMismatch):
        star(cyclic_group(3), Limit(1, 0, 1), Limit(1, 0, 1))


@pytest.mark.parametrize("value", [1.5, True, (1, 2)])
def test_a_realized_factor_must_be_an_integer(value):
    # every product and the action reject a non-element with one message,
    # whichever factor it is realized in; True is not the integer 1
    message = f"{value!r} is not an element of IntegerGroup()"
    p = Limit(1, 0, 4)
    calls = [
        (product, (INTEGERS, a, b))
        for product in (star, star_via_schema)
        for a, b in ((value, p), (p, value), (value, 2))
    ]
    calls.append((apply_group, (INTEGERS, value, p)))
    for kernel, args in calls:
        with pytest.raises(BackendMismatch) as excinfo:
            kernel(*args)
        assert str(excinfo.value) == message


def finite_tables():
    """Every bundled group, and s3 relabelled so that its identity is 3."""
    t = symmetric_group_3().table
    s3 = [[(t[(a - 3) % 6][(b - 3) % 6] + 3) % 6 for b in range(6)] for a in range(6)]
    return bundled_small_groups() + [cyclic_group(1), FiniteGroup(s3, name="s3-relabelled")]


def test_find_idempotents():
    assert find_idempotents(INTEGERS, 4) == [Limit(1, 0, 4), Limit(-1, 0, 4)]
    assert find_idempotents(INTEGERS, 1) == [Limit(1, 0, 1), Limit(-1, 0, 1)]
    for G in finite_tables():
        assert find_idempotents(G, 1) == [G.identity], G.name


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8, 12])
def test_idempotents_absorb_their_subflow(n):
    for p0 in find_idempotents(INTEGERS, n):
        circle = [Limit(p0.sign, r, n) for r in range(n)]
        assert all(star(INTEGERS, q, p0) == q for q in circle)


def test_three_way_agreement_with_oracle():
    rng = random.Random(22)
    for _ in range(200):
        n = rng.choice([1, 2, 3, 4, 6, 12])
        p, q = mixed_points(n, rng, 2)
        direct = star(INTEGERS, p, q)
        assert star_via_schema(INTEGERS, p, q) == direct
        assert oracle_star(INTEGERS, p, q, n) == direct
