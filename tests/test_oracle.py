import hashlib
import random
from itertools import combinations

import pytest

from typeflow import oracle
from typeflow.defsets import (
    FiniteSubset,
    IntegerSet,
    congruence_set,
    difference_set,
    integer_ray,
    intersect,
    is_left_generic,
    member,
)
from typeflow.ellis import find_idempotents, star
from typeflow.flows import minimal_subflows
from typeflow.groups import INTEGERS, cyclic_group
from typeflow.oracle import (
    WindowUniverse,
    _bits,
    _membership_mask,
    oracle_difference_set,
    oracle_equivariant_maps,
    oracle_equivariant_maps_brute,
    oracle_generic,
    oracle_idempotents,
    oracle_minimal_subflows,
    oracle_star,
    sufficient_radius,
    window_members,
)
from typeflow.typespace import Limit, apply_group, limit_points

EVENS = congruence_set(2, [0])
# needs five translates within +-24 on the radius-160 window
FIVE_TRANSLATES = IntegerSet(4, up=[3], down=[0, 2, 3], lo=2, hi=3, bits=[0, 0])


def random_small_set(rng):
    period = rng.randint(1, 3)
    up = [r for r in range(period) if rng.random() < 0.5]
    down = [r for r in range(period) if rng.random() < 0.5]
    lo = rng.randint(-3, 0)
    hi = lo + rng.randint(-1, 3)
    bits = [rng.random() < 0.5 for _ in range(hi - lo + 1)]
    return IntegerSet(period, up=up, down=down, lo=lo, hi=hi, bits=bits)


def random_universe(rng, Y):
    """A window at or a little above the least radius the oracles accept."""
    return WindowUniverse(sufficient_radius(Y) + rng.randint(0, 6))


def brute_force_cover_exists(Y, max_translates, shift_bound, universe):
    """Every combination of at most max_translates shifts, point by point."""
    points = list(universe.points())
    full = (1 << len(points)) - 1
    shifts = range(-shift_bound, shift_bound + 1)
    covers = {
        g: sum(1 << i for i, x in enumerate(points) if member(Y, x - g)) for g in shifts
    }
    for k in range(1, max_translates + 1):
        for combo in combinations(shifts, k):
            u = 0
            for g in combo:
                u |= covers[g]
            if u == full:
                return True
    return False


def test_window_sufficiency_guard():
    with pytest.raises(ValueError):
        oracle_difference_set(congruence_set(12, [0]), WindowUniverse(20))


def test_oracle_difference_set():
    universe = WindowUniverse(200)
    listed = oracle_difference_set(EVENS, universe)
    assert listed == list(range(-100, 101, 2))

    nonneg_evens = intersect(EVENS, integer_ray(1, 0))
    listed = oracle_difference_set(nonneg_evens, universe)
    diff = difference_set(nonneg_evens)
    assert listed == [t for t in range(-100, 101) if member(diff, t)]


def test_oracle_generic_finds_and_misses():
    found = oracle_generic(EVENS, max_translates=2, shift_bound=3, universe=WindowUniverse(60))
    assert found is not None and len(found) == 2

    ray = integer_ray(1, 0)
    assert oracle_generic(ray, max_translates=4, shift_bound=50, universe=WindowUniverse(200)) is None

    # agreement contract on a small mixed batch
    batch = [
        EVENS,
        congruence_set(3, [1]),
        congruence_set(4, [0, 3]),
        integer_ray(-1, 5),
        IntegerSet(1),
        IntegerSet(3, up=[0], down=[2], lo=0, hi=2, bits=[1, 1, 0]),
    ]
    for Y in batch:
        structural = is_left_generic(INTEGERS, Y).generic
        found = oracle_generic(Y, max_translates=10, shift_bound=25, universe=WindowUniverse(120))
        if found is not None:
            assert structural
        else:
            assert not structural


def test_oracle_star_matches_examples():
    from typeflow.typespace import Realized

    assert oracle_star(INTEGERS, Limit(-1, 1, 4), Limit(1, 2, 4), 4) == Limit(1, 3, 4)
    assert oracle_star(INTEGERS, Limit(1, 1, 4), Limit(-1, 2, 4), 4) == Limit(-1, 3, 4)
    # a realized right factor never outweighs a limit left factor
    huge = Realized(-(10**6) + 1)
    assert oracle_star(INTEGERS, Limit(1, 0, 2), huge, 2) == Limit(1, 1, 2)
    c3 = cyclic_group(3)
    assert oracle_star(c3, Realized(1), Realized(2), 1) == Realized(0)


def test_oracle_enumerations_at_4():
    assert len(oracle_minimal_subflows(INTEGERS, 4)) == 2
    assert set(oracle_minimal_subflows(INTEGERS, 4)) == set(minimal_subflows(INTEGERS, 4))
    assert oracle_idempotents(INTEGERS, 4) == find_idempotents(INTEGERS, 4)
    plus, minus = minimal_subflows(INTEGERS, 4)
    assert len(oracle_equivariant_maps(INTEGERS, 4, plus, minus)) == 4


def test_oracle_exhaustion_bound():
    with pytest.raises(ValueError):
        oracle_minimal_subflows(INTEGERS, 9)
    with pytest.raises(ValueError):
        oracle_equivariant_maps_brute(INTEGERS, 6, set(), set())


def test_brute_maps_certify_propagation():
    for n in (1, 2, 3, 4, 5):
        plus = frozenset(p for p in limit_points(INTEGERS, n) if p.sign > 0)
        fast = oracle_equivariant_maps(INTEGERS, n, plus, plus)
        brute = oracle_equivariant_maps_brute(INTEGERS, n, plus, plus)
        as_sets = lambda maps: {tuple(sorted(((k.residue, v.residue) for k, v in f.items()))) for f in maps}
        assert as_sets(fast) == as_sets(brute)


def test_oracle_agreement_with_structured_star():
    for n in (1, 2, 3, 4, 6, 8):
        pts = limit_points(INTEGERS, n)
        for p in pts:
            for q in pts:
                assert oracle_star(INTEGERS, p, q, n) == star(INTEGERS, p, q)


def test_oracle_generic_matches_brute_force():
    rng = random.Random(7)
    outcomes = set()
    for _ in range(400):
        Y = random_small_set(rng)
        universe = random_universe(rng, Y)
        max_translates, shift_bound = rng.randint(1, 4), rng.randint(0, 5)
        found = oracle_generic(Y, max_translates, shift_bound, universe)
        assert (found is not None) == brute_force_cover_exists(Y, max_translates, shift_bound, universe)
        if found is not None:
            assert len(found) <= max_translates and all(abs(g) <= shift_bound for g in found)
            assert all(any(member(Y, x - g) for g in found) for x in universe.points())
        if Y.up and Y.down:
            outcomes.add(found is not None)
    # two-sided sets get both verdicts, so refutations are not all at the root
    assert outcomes == {True, False}


def test_oracle_generic_tracks_one_period_past_the_near_range(monkeypatch):
    spans = []
    reader = oracle._membership_mask

    def recorded(Y, lo, hi):
        spans.append(hi - lo + 1)
        return reader(Y, lo, hi)

    monkeypatch.setattr(oracle, "_membership_mask", recorded)
    rng = random.Random(31)
    outcomes = set()
    for _ in range(150):
        period, lo = rng.randint(1, 7), rng.randint(-4, 0)
        hi = lo + rng.randint(-1, 5)
        Y = IntegerSet(
            period,
            up=[r for r in range(period) if rng.random() < 0.7],
            down=[r for r in range(period) if rng.random() < 0.7],
            lo=lo,
            hi=hi,
            bits=[rng.random() < 0.5 for _ in range(hi - lo + 1)],
        )
        max_translates, shift_bound = rng.randint(1, 4), rng.randint(0, 20)
        near = hi - lo + 1 + 2 * shift_bound
        universe = WindowUniverse(max(sufficient_radius(Y), 2 * near) + rng.randint(0, period))
        assert 2 * universe.radius + 1 >= 4 * near
        found = oracle_generic(Y, max_translates, shift_bound, universe, exhaustive_limit=200)
        # the near range, one period above it and a period-aligned block below
        assert spans.pop() - 2 * shift_bound <= near + 3 * period - 1
        assert (found is not None) == brute_force_cover_exists(Y, max_translates, shift_bound, universe)
        if found is not None:
            assert all(any(member(Y, x - g) for g in found) for x in universe.points())
        outcomes.add(found is not None)
    assert outcomes == {True, False}


def test_oracle_generic_answers_as_the_search_over_every_window_point():
    rng = random.Random(37)
    results = []
    for _ in range(400):
        period, lo = rng.randint(1, 7), rng.randint(-8, 4)
        hi = lo + rng.randint(-1, 10)
        Y = IntegerSet(
            period,
            up=[r for r in range(period) if rng.random() < 0.6],
            down=[r for r in range(period) if rng.random() < 0.6],
            lo=lo,
            hi=hi,
            bits=[rng.random() < 0.5 for _ in range(hi - lo + 1)],
        )
        universe = WindowUniverse(sufficient_radius(Y) + rng.randint(0, 40))
        max_translates, shift_bound = rng.randint(1, 2 * period + 4), rng.randint(0, 60)
        try:
            results.append(oracle_generic(Y, max_translates, shift_bound, universe, rng.choice([3000, 50, 10])))
        except ValueError as error:
            results.append(str(error))
    assert {type(x) for x in results} == {tuple, type(None), str}
    # the covers, None verdicts and budget errors of a search that tracks
    # every point of [-r, r], as computed by such a search
    pinned = "1cb4bf45d62ac3e82300b58b97a47ef78f48717053f5eec52ff3e6ed06f8b4b1"
    assert hashlib.sha256(repr(results).encode()).hexdigest() == pinned


def test_oracle_generic_five_translates():
    universe = WindowUniverse(160)
    assert oracle_generic(FIVE_TRANSLATES, max_translates=4, shift_bound=24, universe=universe) is None
    found = oracle_generic(FIVE_TRANSLATES, max_translates=5, shift_bound=24, universe=universe)
    assert found is not None and len(found) == 5
    assert all(any(member(FIVE_TRANSLATES, x - g) for g in found) for x in universe.points())
    assert is_left_generic(INTEGERS, FIVE_TRANSLATES).generic


def test_oracle_generic_budget_fails_fast():
    with pytest.raises(ValueError, match="budget of 50 search nodes"):
        oracle_generic(
            FIVE_TRANSLATES,
            max_translates=4,
            shift_bound=24,
            universe=WindowUniverse(160),
            exhaustive_limit=50,
        )
    # a one-sided set leaves far points with no covering shift: refuted at the root
    ray = integer_ray(1, 0)
    assert oracle_generic(ray, max_translates=4, shift_bound=50, exhaustive_limit=1) is None


def test_oracle_difference_set_matches_pairwise_definition():
    rng = random.Random(8)
    for _ in range(100):
        Y = random_small_set(rng)
        universe = random_universe(rng, Y)
        elems = [x for x in universe.points() if member(Y, x)]
        half = universe.radius // 2
        pairwise = sorted({a - b for a in elems for b in elems if abs(a - b) <= half})
        assert oracle_difference_set(Y, universe) == pairwise


def test_oracle_minimal_subflows_levels_1_to_8():
    for n in range(1, 9):
        assert set(oracle_minimal_subflows(INTEGERS, n)) == set(minimal_subflows(INTEGERS, n))
    # the definition over sets of points, through one and two image tables
    for n in range(1, 7):
        pts = limit_points(INTEGERS, n)
        subsets = [frozenset(c) for k in range(1, len(pts) + 1) for c in combinations(pts, k)]
        invariant = [S for S in subsets if {apply_group(INTEGERS, 1, p) for p in S} == S]
        minimal = {S for S in invariant if not any(T < S for T in invariant)}
        assert set(oracle_minimal_subflows(INTEGERS, n)) == minimal


def test_oracle_minimal_subflows_needs_a_permutation(monkeypatch):
    # an action that forgets the sign maps both circles onto the + circle
    def forget_sign(ctx, g, p):
        return Limit(1, (p.residue + g) % p.modulus, p.modulus)

    monkeypatch.setattr(oracle, "apply_group", forget_sign)
    for n in (3, 8):
        with pytest.raises(AssertionError, match="does not permute the limit points"):
            oracle_minimal_subflows(INTEGERS, n)


def test_bits_lists_the_set_bits():
    rng = random.Random(23)
    masks = [0, 1, 1 << 500] + [rng.getrandbits(rng.randint(1, 700)) for _ in range(300)]
    for m in masks:
        w = m.bit_length() + 2
        assert _bits(m) == [i for i in range(w) if m >> i & 1]
    assert _bits(0) == [] and _bits(1 << 500) == [500]


def random_periodic_set(rng):
    """A set of period at most 12 whose window may be empty."""
    period = rng.randint(1, 12)
    lo = rng.randint(-20, 5)
    hi = lo + rng.randint(-1, 15)
    return IntegerSet(
        period,
        up=[r for r in range(period) if rng.random() < 0.4],
        down=[r for r in range(period) if rng.random() < 0.4],
        lo=lo,
        hi=hi,
        bits=[rng.random() < 0.4 for _ in range(hi - lo + 1)],
    )


def test_membership_mask_matches_a_per_point_loop():
    rng = random.Random(29)
    empty, full = IntegerSet(1), IntegerSet(1, up=[0], down=[0])
    sets = [empty, full, congruence_set(12, [0, 5]), IntegerSet(11, up=[3], down=[4, 9])]
    sets += [random_periodic_set(rng) for _ in range(250)]
    kinds = dict.fromkeys(("below", "above", "inside", "short", "across"), 0)
    for Y in sets:
        p = Y.period
        ranges = []
        end = Y.lo - rng.randint(1, 30)
        ranges.append(("below", end - rng.randint(0, 3 * p), end))
        start = Y.hi + rng.randint(1, 30)
        ranges.append(("above", start, start + rng.randint(0, 3 * p)))
        if Y.lo <= Y.hi:
            a = rng.randint(Y.lo, Y.hi)
            ranges.append(("inside", a, rng.randint(a, Y.hi)))
        a = rng.randint(Y.lo - 2 * p, Y.hi + 2 * p)
        ranges.append(("short", a, a + rng.randint(0, p - 1)))
        ranges.append(("across", Y.lo - rng.randint(0, 40), Y.hi + rng.randint(0, 40)))
        for kind, lo, hi in ranges:
            kinds[kind] += 1
            expected = sum(1 << j for j, x in enumerate(range(lo, hi + 1)) if member(Y, x))
            assert _membership_mask(Y, lo, hi) == expected, (Y, kind, lo, hi)
            assert window_members(Y, lo, hi) == [x for x in range(lo, hi + 1) if member(Y, x)]
    assert empty.is_empty and _membership_mask(empty, -500, 500) == 0
    assert _membership_mask(full, -500, 500) == (1 << 1001) - 1
    assert max(Y.period for Y in sets) == 12
    assert sum(Y.hi < Y.lo for Y in sets) > 10
    assert min(kinds.values()) > 100


# the two large-window sets of the genericity oracle's slowest inputs
LARGE_WINDOW_SETS = [
    IntegerSet(150, up=[0], down=[0], lo=-20, hi=20, bits=[1] + [0] * 39 + [1]),
    IntegerSet(60, up=[0], down=[0], lo=-30, hi=30, bits=[1, 0, 0] * 20 + [1]),
]


def test_membership_mask_reads_the_window_and_one_period_per_side(monkeypatch):
    calls = []
    per_point = IntegerSet.member

    def counted(self, x):
        calls.append(x)
        return per_point(self, x)

    monkeypatch.setattr(IntegerSet, "member", counted)
    reads = []
    reader = oracle._membership_mask

    def counted_reader(Y, lo, hi):
        before = len(calls)
        mask = reader(Y, lo, hi)
        reads.append((Y, len(calls) - before))
        return mask

    monkeypatch.setattr(oracle, "_membership_mask", counted_reader)
    for Y in LARGE_WINDOW_SETS:
        universe = WindowUniverse(sufficient_radius(Y))
        assert universe.radius in (12_000, 7_200)
        oracle_difference_set(Y, universe)
        oracle_generic(Y, max_translates=2 * Y.period + 4, shift_bound=Y.period + 50, universe=universe)
        for radius in (0, Y.period, 10**6):
            counted_reader(Y, -radius - 5, radius)
    assert len(reads) == 10
    for Y, made in reads:
        assert made <= (Y.hi - Y.lo + 1) + 2 * Y.period
