import operator
import random
import re
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typeflow import defsets
from typeflow.defsets import (
    FiniteSubset,
    IntegerSet,
    RectangleSet,
    _canonical_form,
    _residues,
    boolean_op,
    complement,
    congruence_set,
    difference_set,
    empty_set,
    full_set,
    integer_ray,
    integers_from,
    intersect,
    is_left_generic,
    member,
    quotient_set,
    right_translate,
    set_from_json,
    set_to_json,
    translate,
    translates_cover,
    union,
)
from typeflow.groups import BackendMismatch, INTEGERS, Group, ProductGroup, cyclic_group, symmetric_group_3

EVENS = congruence_set(2, [0])
ODDS = congruence_set(2, [1])


def random_integer_set(rng, max_period=6, span=8):
    period = rng.randint(1, max_period)
    up = [r for r in range(period) if rng.random() < 0.4]
    down = [r for r in range(period) if rng.random() < 0.4]
    lo = rng.randint(-span, 0)
    hi = lo + rng.randint(-1, span)
    bits = [rng.random() < 0.5 for _ in range(hi - lo + 1)]
    return IntegerSet(period, up=up, down=down, lo=lo, hi=hi, bits=bits)


def test_boolean_examples():
    assert union(EVENS, ODDS) == full_set(INTEGERS)
    nonneg_evens = intersect(EVENS, integer_ray(1, 0))
    assert nonneg_evens.up == frozenset([0]) and not nonneg_evens.down
    Y = random_integer_set(random.Random(1))
    assert complement(complement(Y)) == Y
    assert boolean_op("union", EVENS, ODDS) == full_set(INTEGERS)
    with pytest.raises(ValueError):
        boolean_op("complement", EVENS, ODDS)
    for kind in ("union", "intersection"):
        with pytest.raises(ValueError, match=f"^{kind} needs a second set b$"):
            boolean_op(kind, EVENS)


def test_translate_examples():
    assert translate(1, EVENS) == ODDS
    Y = random_integer_set(random.Random(2))
    assert translate(0, Y) == Y
    c3 = cyclic_group(3)
    assert translate(1, FiniteSubset(c3, [0])) == FiniteSubset(c3, [1])


def test_translate_composes():
    Y = random_integer_set(random.Random(3))
    assert translate(2, translate(5, Y)) == translate(7, Y)


def test_difference_set_examples():
    assert difference_set(EVENS) == EVENS
    # nonnegative evens: oracle by window enumeration, then the exact result
    Y = intersect(EVENS, integer_ray(1, 0))
    elems = [x for x in range(-200, 201) if member(Y, x)]
    oracle = {a - b for a in elems for b in elems}
    diff = difference_set(Y)
    assert all(diff.member(t) == (t in oracle) for t in range(-100, 101))
    assert diff == EVENS
    c3 = cyclic_group(3)
    assert difference_set(FiniteSubset(c3, [1])) == FiniteSubset(c3, [0])


def test_difference_set_of_empty_is_empty():
    assert difference_set(IntegerSet(1)) == IntegerSet(1)
    c3 = cyclic_group(3)
    assert difference_set(FiniteSubset(c3)).is_empty


def test_quotient_set_randomized_against_enumeration():
    rng = random.Random(11)
    for _ in range(300):
        A = random_integer_set(rng)
        B = random_integer_set(rng)
        Q = quotient_set(A, B)
        window = 260
        ae = [x for x in range(-window, window + 1) if A.member(x)]
        be = [x for x in range(-window, window + 1) if B.member(x)]
        brute = {a - b for a in ae for b in be}
        for t in range(-80, 81):
            assert Q.member(t) == (t in brute), (A, B, t)


def test_generic_difference_contains_full_congruence_class():
    rng = random.Random(12)
    found = 0
    while found < 60:
        Y = random_integer_set(rng)
        if not is_left_generic(INTEGERS, Y).generic:
            continue
        found += 1
        diff = difference_set(Y)
        cls = congruence_set(Y.period, [0])
        assert intersect(diff, cls) == cls


def test_is_left_generic_examples():
    verdict = is_left_generic(INTEGERS, EVENS)
    assert verdict.generic and verdict.translates == (0, 1)
    assert translates_cover(INTEGERS, verdict.translates, EVENS)

    ray = integer_ray(1, 0)
    verdict = is_left_generic(INTEGERS, ray)
    assert not verdict.generic
    assert "-infinity" in verdict.obstruction

    c3 = cyclic_group(3)
    for mask in range(1, 8):
        sub = FiniteSubset(c3, mask=mask)
        verdict = is_left_generic(c3, sub)
        assert verdict.generic and len(verdict.translates) <= 3
        assert translates_cover(c3, verdict.translates, sub)


def test_translates_cover_rejects_translates_that_leave_a_gap():
    assert translates_cover(INTEGERS, [0], EVENS) is False
    assert translates_cover(INTEGERS, [0, 1], EVENS) is True
    c3 = cyclic_group(3)
    zero = FiniteSubset(c3, [0])
    assert translates_cover(c3, [0], zero) is False
    assert translates_cover(c3, [0, 1, 2], zero) is True
    c2 = cyclic_group(2)
    ctx = ProductGroup(INTEGERS, c2)
    Y = RectangleSet(ctx, [(EVENS, FiniteSubset(c2, [0]))])
    assert translates_cover(ctx, [(0, 0), (1, 0)], Y) is False
    assert translates_cover(ctx, [(0, 0), (1, 0), (0, 1), (1, 1)], Y) is True


def test_empty_set_never_generic():
    assert not is_left_generic(INTEGERS, IntegerSet(1)).generic
    c1 = cyclic_group(1)
    assert not is_left_generic(c1, FiniteSubset(c1)).generic
    assert is_left_generic(c1, FiniteSubset(c1, [0])).generic


def test_generic_certificates_verify_randomized():
    rng = random.Random(13)
    checked = 0
    while checked < 40:
        Y = random_integer_set(rng, max_period=4, span=5)
        verdict = is_left_generic(INTEGERS, Y)
        if not verdict.generic:
            continue
        checked += 1
        assert translates_cover(INTEGERS, verdict.translates, Y)


def test_boolean_laws_randomized():
    rng = random.Random(14)
    for _ in range(300):
        A = random_integer_set(rng)
        B = random_integer_set(rng)
        C = random_integer_set(rng)
        assert union(A, B) == union(B, A)
        assert complement(union(A, B)) == intersect(complement(A), complement(B))
        assert intersect(A, union(B, C)) == union(intersect(A, B), intersect(A, C))
        for x in (rng.randint(-1000, 1000) for _ in range(8)):
            assert member(union(A, B), x) == (member(A, x) or member(B, x))
            assert member(intersect(A, B), x) == (member(A, x) and member(B, x))
            assert member(complement(A), x) == (not member(A, x))


def test_canonical_form_decides_equality():
    rng = random.Random(15)
    for _ in range(300):
        A = random_integer_set(rng)
        B = random_integer_set(rng)
        pointwise = all(A.member(x) == B.member(x) for x in range(-150, 151))
        assert pointwise == (A == B)


@pytest.mark.parametrize("modulus, residues", [(0, [1]), (0, []), (-3, [1]), (-3, [])])
def test_congruence_modulus_must_be_positive(modulus, residues):
    with pytest.raises(ValueError, match="period must be at least 1"):
        congruence_set(modulus, residues)


@pytest.mark.parametrize(
    "build, bad",
    [
        (lambda: congruence_set(2, [1.7]), "1.7"),
        (lambda: congruence_set(2, [True]), "True"),
        (lambda: integers_from([1.5, True]), "1.5"),
        (lambda: integers_from(["3"]), "'3'"),
        (lambda: congruence_set(2.0, [1]), "2.0"),
    ],
    ids=["float-residue", "bool-residue", "float-and-bool-elements", "string-element", "float-modulus"],
)
def test_congruence_sets_and_finite_sets_take_exact_ints(build, bad):
    # int() would truncate 1.7 and read True and "3" as integers
    with pytest.raises(TypeError, match=f"must be (an )?ints?, got {re.escape(bad)}$"):
        build()


def test_the_read_bound_admits_its_own_value(monkeypatch):
    monkeypatch.setattr(defsets, "READ_BOUND", 6)
    assert set_from_json(INTEGERS, {"mod": 6, "up": [1, 8], "down": [-5, 2]}) == congruence_set(6, [1, 2])
    assert set_from_json(INTEGERS, [5, 0]) == integers_from([0, 5])
    with pytest.raises(OverflowError, match="^integer set mod 7 is over the bound of 6$"):
        set_from_json(INTEGERS, {"mod": 7})
    for read in (lambda elems: set_from_json(INTEGERS, elems), integers_from):
        with pytest.raises(OverflowError, match="^integer set list spans 7 points, over the bound of 6$"):
            read([-1, 5])


def test_backend_mismatch_raises():
    c2, c3, c4 = cyclic_group(2), cyclic_group(3), cyclic_group(4)
    over_c2 = RectangleSet(ProductGroup(INTEGERS, c2), [(EVENS, FiniteSubset(c2, [0]))])
    over_c3 = RectangleSet(ProductGroup(INTEGERS, c3), [(EVENS, FiniteSubset(c3, [0]))])
    pairs = [
        (EVENS, FiniteSubset(c3, [0])),
        (FiniteSubset(c3, [0]), FiniteSubset(c4, [0])),
        (over_c2, over_c3),
        (FiniteSubset(c2, [0]), over_c2),
        (EVENS, None),
        (FiniteSubset(c3, [0]), 3),
        (None, over_c2),
    ]
    for op in (union, intersect, quotient_set):
        for A, B in pairs:
            with pytest.raises(BackendMismatch):
                op(A, B)
            with pytest.raises(BackendMismatch):
                op(B, A)

    sets = {INTEGERS: EVENS, c3: FiniteSubset(c3, [0]), over_c2.group: over_c2}
    for ctx in sets:
        for Y in [*(Y for other, Y in sets.items() if other != ctx), FiniteSubset(c4, [0]), over_c3, None, 0]:
            with pytest.raises(BackendMismatch):
                is_left_generic(ctx, Y)

    for not_a_set in (None, 0, (0, 1), frozenset([0])):
        with pytest.raises(BackendMismatch):
            complement(not_a_set)
        with pytest.raises(BackendMismatch):
            translate(0, not_a_set)
        with pytest.raises(BackendMismatch):
            right_translate(0, not_a_set)


def test_product_rectangle_algebra():
    ctx = ProductGroup(INTEGERS, cyclic_group(2))
    c2 = cyclic_group(2)
    Y = RectangleSet(ctx, [(EVENS, FiniteSubset(c2, [0])), (ODDS, FiniteSubset(c2, [1]))])
    assert Y.member((4, 0)) and Y.member((3, 1)) and not Y.member((4, 1))
    assert union(Y, complement(Y)) == full_set(ctx)
    assert complement(complement(Y)) == Y
    assert translate((1, 1), Y) == Y
    assert quotient_set(Y, Y) == Y  # closed under componentwise differences here


def test_right_translate_over_a_product_is_the_literal_right_translate():
    rng = random.Random(13)
    s3, c2 = symmetric_group_3(), cyclic_group(2)
    # on s3 x c2 right and left translates differ, so the order of y . g is checked
    ctx = ProductGroup(s3, c2)
    differs = False
    for _ in range(20):
        Y = RectangleSet(ctx, [(random_finite_subset(rng, s3), random_finite_subset(rng, c2)) for _ in range(2)])
        members = [y for y in ctx.elements() if member(Y, y)]
        for g in ctx.elements():
            right = right_translate(g, Y)
            literal = {ctx.compose(y, g) for y in members}
            assert {x for x in ctx.elements() if member(right, x)} == literal
            differs = differs or right != translate(g, Y)
    assert differs
    # on Z x c2, over a window wide enough for every shift used
    ctx = ProductGroup(INTEGERS, c2)
    window = [(x, b) for x in range(-30, 31) for b in c2.elements()]
    near = [(x, b) for x, b in window if abs(x) <= 20]
    for _ in range(20):
        Y = RectangleSet(ctx, [(random_integer_set(rng), random_finite_subset(rng, c2)) for _ in range(2)])
        members = [y for y in window if member(Y, y)]
        for g in [(rng.randint(-5, 5), b) for b in c2.elements()]:
            right = right_translate(g, Y)
            literal = {ctx.compose(y, g) for y in members}
            assert {x for x in near if member(right, x)} == literal.intersection(near)


def test_rectangle_columns_keep_their_order():
    # columns sort by residue tuples: (0, 2) < (1,), although the masks 5 > 2
    ctx = ProductGroup(INTEGERS, cyclic_group(2))
    c2 = cyclic_group(2)
    Y = RectangleSet(
        ctx,
        [(congruence_set(3, [1]), FiniteSubset(c2, [1])), (congruence_set(3, [0, 2]), FiniteSubset(c2, [0]))],
    )
    empty = {"lo": 0, "hi": -1, "bits": []}
    assert set_to_json(Y) == {
        "rectangles": [
            [{"mod": 3, "up": [0, 2], "down": [0, 2], "window": empty}, {"elements": [0]}],
            [{"mod": 3, "up": [1], "down": [1], "window": empty}, {"elements": [1]}],
        ]
    }


def test_finite_columns_keep_their_order():
    # columns sort by mask: {1} (2) < {2} (4) < {0, 3} (9), although [0, 3] < [1]
    c3, c4 = cyclic_group(3), cyclic_group(4)
    Y = RectangleSet(
        ProductGroup(c4, c3),
        [(FiniteSubset(c4, [0, 3]), FiniteSubset(c3, [0])), (FiniteSubset(c4, [1]), FiniteSubset(c3, [1, 2])),
         (FiniteSubset(c4, [2]), FiniteSubset(c3, [2]))],
    )
    assert set_to_json(Y) == {
        "rectangles": [
            [{"elements": [1]}, {"elements": [1, 2]}],
            [{"elements": [2]}, {"elements": [2]}],
            [{"elements": [0, 3]}, {"elements": [0]}],
        ]
    }


def test_rectangle_order_does_not_matter():
    c2 = cyclic_group(2)
    rects = [
        (congruence_set(3, [1]), FiniteSubset(c2, [1])),
        (integer_ray(1, 2), FiniteSubset(c2, [0])),
        (integers_from([-4, 0, 7]), full_set(c2)),
    ]
    ctx = ProductGroup(INTEGERS, c2)
    for order in ([2, 0, 1], [1, 2, 0], [2, 1, 0]):
        Y = RectangleSet(ctx, [rects[i] for i in order])
        assert Y == RectangleSet(ctx, rects) and hash(Y) == hash(RectangleSet(ctx, rects))


def random_finite_subset(rng, G):
    return FiniteSubset(G, [g for g in G.elements() if rng.random() < 0.5])


def test_rectangle_columns_match_their_input_rectangles():
    rng = random.Random(11)
    c3, c4 = cyclic_group(3), cyclic_group(4)
    backends = [
        (ProductGroup(INTEGERS, c3), lambda: random_integer_set(rng), range(-20, 21)),
        (ProductGroup(c4, c3), lambda: random_finite_subset(rng, c4), c4.elements()),
    ]
    for ctx, random_left, lefts in backends:
        for _ in range(60):
            rects = [(random_left(), random_finite_subset(rng, c3)) for _ in range(rng.randint(1, 4))]
            Y = RectangleSet(ctx, rects)
            for x in lefts:
                for y in c3.elements():
                    expected = any(member(a, x) and member(b, y) for a, b in rects)
                    assert member(Y, (x, y)) == expected, (rects, x, y)
            cols = [c for c, _ in Y.columns]
            fibers = [f for _, f in Y.columns]
            assert all(intersect(c, d).is_empty for i, c in enumerate(cols) for d in cols[i + 1 :])
            assert all(not f.is_empty for f in fibers) and len(set(fibers)) == len(fibers)


def reference_columns(group, rectangles):
    """The column decomposition by the generic refinement: every split,
    fiber and merge is a canonical set operation."""
    rects = [(a, b) for a, b in rectangles if not a.is_empty and not b.is_empty]
    atoms = [(full_set(group.left), 0)]
    for i, (a, _) in enumerate(rects):
        refined = []
        for atom, signature in atoms:
            inside = intersect(atom, a)
            if inside.is_empty:
                refined.append((atom, signature))
            elif inside == atom:
                refined.append((atom, signature | 1 << i))
            else:
                refined.append((inside, signature | 1 << i))
                refined.append((intersect(atom, complement(a)), signature))
        atoms = refined
    by_fiber = {}
    for atom, signature in atoms:
        fiber = empty_set(group.right)
        for i, (_, b) in enumerate(rects):
            if signature >> i & 1:
                fiber = union(fiber, b)
        if not fiber.is_empty:
            col = by_fiber.get(fiber)
            by_fiber[fiber] = atom if col is None else union(col, atom)
    return tuple(sorted(((col, fib) for fib, col in by_fiber.items()), key=lambda cf: cf[0]._key()))


# integer sides on which the bit frame's period, window and tails each matter
INTEGER_EDGE_CASES = {
    "coprime periods": [
        congruence_set(2, [1]),
        IntegerSet(3, up=[0, 2], down=[1], lo=-2, hi=1, bits=[1, 0, 0, 1]),
        IntegerSet(5, up=[4], down=[0, 3]),
    ],
    "empty windows": [integer_ray(1, 3), integer_ray(-1, -2), IntegerSet(2, up=[1], down=[0], lo=7, hi=6)],
    "a window above another": [
        integers_from([-6, -4, -3]),
        IntegerSet(2, up=[0], down=[1], lo=10, hi=13, bits=[1, 1, 0, 1]),
    ],
    "one-sided": [integer_ray(1, 0), integers_from([0, 2])],
}


def edge_case_rectangles(ctx, random_left, random_right):
    cases = [[], [(random_left(), empty_set(ctx.right))], [(empty_set(ctx.left), random_right())]]
    for sets in INTEGER_EDGE_CASES.values():
        if INTEGERS == ctx.left:
            cases.append([(s, random_right()) for s in sets])
        if INTEGERS == ctx.right:
            cases.append([(random_left(), s) for s in sets])
    return cases


def test_rectangle_columns_equal_the_generic_refinement():
    rng = random.Random(23)
    c3, c4, s3 = cyclic_group(3), cyclic_group(4), symmetric_group_3()
    integers = (INTEGERS, lambda: random_integer_set(rng))
    sides = {
        "Zxc3": (integers, (c3, lambda: random_finite_subset(rng, c3))),
        "s3xZ": ((s3, lambda: random_finite_subset(rng, s3)), integers),
        "ZxZ": (integers, integers),
        "c4xc3": ((c4, lambda: random_finite_subset(rng, c4)), (c3, lambda: random_finite_subset(rng, c3))),
    }
    for name, (left, right) in sides.items():
        ctx = ProductGroup(left[0], right[0])
        cases = edge_case_rectangles(ctx, left[1], right[1])
        cases += [[(left[1](), right[1]()) for _ in range(rng.randint(1, 5))] for _ in range(40)]
        for rects in cases:
            expected = reference_columns(ctx, rects)
            Y = RectangleSet(ctx, rects)
            assert Y.columns == expected, (name, rects)
            assert set_to_json(Y) == {"rectangles": [[set_to_json(c), set_to_json(f)] for c, f in expected]}
    assert RectangleSet(ProductGroup(INTEGERS, c3), []).columns == ()


def test_empty_rectangles_are_checked_against_the_backend():
    c3, c4, c5 = cyclic_group(3), cyclic_group(4), cyclic_group(5)
    ctx = ProductGroup(INTEGERS, c3)
    for left, right in [
        (FiniteSubset(c4, mask=0), FiniteSubset(c3, [1])),
        (FiniteSubset(c4, [0]), FiniteSubset(c3, [1])),
        (EVENS, FiniteSubset(c5, mask=0)),
        (EVENS, FiniteSubset(c5, [0])),
    ]:
        with pytest.raises(BackendMismatch):
            RectangleSet(ctx, [(left, right)])


def test_product_genericity_and_certificates():
    ctx = ProductGroup(INTEGERS, cyclic_group(2))
    c2 = cyclic_group(2)
    Y = RectangleSet(ctx, [(EVENS, FiniteSubset(c2, [0]))])
    verdict = is_left_generic(ctx, Y)
    assert verdict.generic and verdict.note == "relative to the rectangle algebra"
    assert translates_cover(ctx, verdict.translates, Y)

    ray_rect = RectangleSet(ctx, [(integer_ray(1, 0), full_set(c2))])
    assert not is_left_generic(ctx, ray_rect).generic

    zz = ProductGroup(INTEGERS, INTEGERS)
    mixed = RectangleSet(zz, [(integer_ray(1, 0), EVENS), (integer_ray(-1, -1), ODDS)])
    verdict = is_left_generic(zz, mixed)
    assert verdict.generic
    assert translates_cover(zz, verdict.translates, mixed)
    corner_gap = RectangleSet(zz, [(EVENS, integer_ray(1, 0))])
    verdict = is_left_generic(zz, corner_gap)
    assert not verdict.generic and "corner" in verdict.obstruction


PRODUCTS = {
    "Zxc3": ProductGroup(INTEGERS, cyclic_group(3)),
    "s3xZ": ProductGroup(symmetric_group_3(), INTEGERS),
    "ZxZ": ProductGroup(INTEGERS, INTEGERS),
}


@st.composite
def axis_sets(draw, axis):
    """A set of one axis: on the integers a period up to 4, tails that are
    often missing on a side, and a short window."""
    if axis.is_finite:
        return FiniteSubset(axis, draw(st.sets(st.sampled_from(axis.elements()))))
    period = draw(st.integers(1, 4))
    tail = st.sets(st.integers(0, period - 1))
    lo = draw(st.integers(-6, 6))
    bits = draw(st.lists(st.booleans(), max_size=6))
    return IntegerSet(period, up=draw(tail), down=draw(tail), lo=lo, hi=lo + len(bits) - 1, bits=bits)


def far_block(axis, sets, side):
    """2P points of one axis past every window of the sets on one side, P
    the lcm of their periods, or every element of a finite axis."""
    if axis.is_finite:
        return axis.elements()
    period = lcm(*(S.period for S in sets))
    if side == "+":
        top = max(S.hi for S in sets)
        return range(top + 1, top + 2 * period + 1)
    bottom = min(S.lo for S in sets)
    return range(bottom - 2 * period, bottom)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.data())
def test_product_genericity_is_decided_by_its_corners(data):
    # past every window a set repeats with period P on each integer axis, so
    # Y is empty far out in a corner exactly when it misses the corner's
    # 2P-block; the verdict must cover G, or name the first such corner in
    # the order x side then y side, "+" before "-"
    ctx = PRODUCTS[data.draw(st.sampled_from(sorted(PRODUCTS)))]
    rects = data.draw(st.lists(st.tuples(axis_sets(ctx.left), axis_sets(ctx.right)), min_size=1, max_size=4))
    Y = RectangleSet(ctx, rects)
    verdict = is_left_generic(ctx, Y)
    sides = lambda axis: "." if axis.is_finite else "+-"
    empty_corners = [
        (sx, sy)
        for sx in sides(ctx.left)
        for sy in sides(ctx.right)
        if not any(
            member(Y, (x, y))
            for x in far_block(ctx.left, [a for a, _ in rects], sx)
            for y in far_block(ctx.right, [b for _, b in rects], sy)
        )
    ]
    if verdict.generic:
        assert not empty_corners and translates_cover(ctx, verdict.translates, Y), (rects, verdict)
    elif Y.is_empty:
        assert verdict.obstruction == "empty set"
    else:
        assert empty_corners, (rects, verdict)
        assert verdict.obstruction == "no eventual pattern in corner ({},{})".format(*empty_corners[0]), rects


def test_finite_product_materializes():
    ctx = ProductGroup(cyclic_group(2), cyclic_group(3))
    c2, c3 = cyclic_group(2), cyclic_group(3)
    Y = RectangleSet(ctx, [(FiniteSubset(c2, [1]), FiniteSubset(c3, [2]))])
    verdict = is_left_generic(ctx, Y)
    assert verdict.generic
    assert translates_cover(ctx, verdict.translates, Y)


def random_rectangle_set(rng, ctx, right_elems=2):
    c2 = cyclic_group(right_elems)
    rects = []
    for _ in range(rng.randint(1, 3)):
        left = random_integer_set(rng, max_period=3, span=3)
        right = FiniteSubset(c2, [e for e in range(right_elems) if rng.random() < 0.6])
        rects.append((left, right))
    return RectangleSet(ctx, rects)


def test_product_boolean_laws_randomized():
    rng = random.Random(17)
    c2, c3 = cyclic_group(2), cyclic_group(3)
    # random integer sides have windows inside [-4, 3] and periods up to 3
    integers = (lambda: random_integer_set(rng, max_period=3, span=3), range(-12, 13))
    backends = [
        (ProductGroup(INTEGERS, c2), integers, (lambda: random_finite_subset(rng, c2), c2.elements())),
        (ProductGroup(c3, INTEGERS), (lambda: random_finite_subset(rng, c3), c3.elements()), integers),
        (ProductGroup(INTEGERS, INTEGERS), integers, integers),
    ]
    for ctx, (random_left, xs), (random_right, ys) in backends:
        samples = [(x, y) for x in xs for y in ys]
        for _ in range(40):
            A, B = (
                RectangleSet(ctx, [(random_left(), random_right()) for _ in range(rng.randint(1, 3))])
                for _ in range(2)
            )
            assert complement(union(A, B)) == intersect(complement(A), complement(B))
            assert complement(complement(A)) == A
            U, I, C = union(A, B), intersect(A, B), complement(A)
            for pt in samples:
                assert member(U, pt) == (member(A, pt) or member(B, pt))
                assert member(I, pt) == (member(A, pt) and member(B, pt))
                assert member(C, pt) != member(A, pt)


@pytest.mark.parametrize("G", [symmetric_group_3(), cyclic_group(1)], ids=["s3", "c1"])
def test_finite_boolean_operations_match_python_sets(G):
    subsets = [FiniteSubset(G, mask=m) for m in range(1 << G.order)]
    everything = set(G.elements())
    for A in subsets:
        assert set(complement(A).elements()) == everything - set(A.elements())
        for B in subsets:
            assert set(union(A, B).elements()) == set(A.elements()) | set(B.elements())
            assert set(intersect(A, B).elements()) == set(A.elements()) & set(B.elements())


@pytest.mark.parametrize(
    "ctx",
    [INTEGERS, cyclic_group(1), symmetric_group_3(), ProductGroup(INTEGERS, cyclic_group(2)), ProductGroup(INTEGERS, INTEGERS)],
    ids=["Z", "c1", "s3", "Zxc2", "ZxZ"],
)
def test_empty_and_full_sets_are_each_others_complement(ctx):
    empty, full = empty_set(ctx), full_set(ctx)
    assert empty.is_empty and not full.is_empty
    assert complement(empty) == full and complement(full) == empty
    if ctx == INTEGERS:
        assert empty == set_from_json(ctx, "empty") and full == set_from_json(ctx, "all")


def test_empty_and_full_sets_need_a_known_backend():
    for make in (empty_set, full_set):
        with pytest.raises(BackendMismatch, match="^unknown context "):
            make(Group())


@pytest.mark.parametrize(
    "args, kwargs",
    [
        ((2.5,), {"up": [1], "down": [1]}),
        ((True,), {"up": [0]}),
        (("4",), {"up": [1]}),
        ((1,), {"lo": 0.9, "hi": 1.7, "bits": [1, 1]}),
        ((1,), {"lo": False, "hi": 0, "bits": [1]}),
        ((2,), {"up": [1.0]}),
        ((2,), {"down": [True]}),
        ((2,), {"up": ["1"]}),
    ],
    ids=["float period", "bool period", "str period", "float window", "bool lo", "float up", "bool down", "str up"],
)
def test_integer_set_fields_must_be_exact_ints(args, kwargs):
    with pytest.raises(TypeError, match="must be ints, got "):
        IntegerSet(*args, **kwargs)


def test_product_quotient_against_enumeration():
    rng = random.Random(18)
    ctx = ProductGroup(INTEGERS, cyclic_group(2))
    c2 = cyclic_group(2)
    for _ in range(40):
        A = random_rectangle_set(rng, ctx)
        B = random_rectangle_set(rng, ctx)
        Q = quotient_set(A, B)
        ae = [(x, y) for x in range(-80, 81) for y in (0, 1) if member(A, (x, y))]
        be = [(x, y) for x in range(-80, 81) for y in (0, 1) if member(B, (x, y))]
        brute = {(a[0] - b[0], c2.compose(a[1], c2.invert(b[1]))) for a in ae for b in be}
        for x in range(-25, 26):
            for y in (0, 1):
                assert member(Q, (x, y)) == ((x, y) in brute)


def test_product_structural_equality_decides_sets():
    rng = random.Random(19)
    ctx = ProductGroup(INTEGERS, cyclic_group(2))
    for _ in range(80):
        A = random_rectangle_set(rng, ctx)
        B = random_rectangle_set(rng, ctx)
        pointwise = all(
            member(A, (x, y)) == member(B, (x, y))
            for x in range(-60, 61)
            for y in (0, 1)
        )
        assert pointwise == (A == B)


def test_set_json_round_trip():
    rng = random.Random(16)
    for _ in range(40):
        Y = random_integer_set(rng)
        assert set_from_json(INTEGERS, set_to_json(Y)) == Y
    assert set_from_json(INTEGERS, "evens") == EVENS
    assert set_from_json(INTEGERS, [3, 1, 2]) == integers_from([1, 2, 3])
    c3 = cyclic_group(3)
    sub = FiniteSubset(c3, [0, 2])
    assert set_from_json(c3, set_to_json(sub)) == sub
    ctx = ProductGroup(INTEGERS, c3)
    Y = RectangleSet(ctx, [(EVENS, sub)])
    assert set_from_json(ctx, set_to_json(Y)) == Y


def test_empty_window_boundary_is_canonical():
    # the same set entered with different redundant windows collapses to one form
    a = IntegerSet(2, up=[0], down=[], lo=-3, hi=4, bits=[0, 0, 0, 1, 0, 1, 0, 1])
    b = IntegerSet(2, up=[0], down=[], lo=0, hi=1, bits=[1, 0])
    assert a == b
    assert a.member(0) and not a.member(-2)


def test_integers_from_matches_plain_membership():
    rng = random.Random(11)
    lists = [
        [3, -2, 3, 0, -2, 7, -9, 7],
        [-5, -5, -5],
        [rng.randrange(-1500, 1500) for _ in range(1000)],
    ]
    for elems in lists:
        Y = integers_from(elems)
        for x in range(min(elems) - 3, max(elems) + 4):
            assert member(Y, x) == (x in elems)
    assert integers_from([]) == integers_from(())
    assert not any(member(integers_from([]), x) for x in range(-5, 6))


# ---------------------------------------------------------------------------
# properties of the normal form on random raw inputs

PROPERTIES = settings(derandomize=True, deadline=None, max_examples=60)


def raw_member(raw, x):
    period, up, down, lo, hi, bits = raw
    if x > hi:
        return x % period in up
    if x < lo:
        return x % period in down
    return bits[x - lo]


@st.composite
def raw_integer_sets(draw, periods=st.integers(1, 97), max_width=120, offset=150):
    """Arguments for IntegerSet: patterns that often repeat at a proper
    divisor of the period, windows that often agree with a pattern at one
    end or are sparse, so that both the period and the window get reduced."""
    period = draw(periods)
    step = draw(st.sampled_from([d for d in range(1, period + 1) if period % d == 0]))

    def pattern():
        base = draw(st.sets(st.integers(0, step - 1)))
        return {r + k * step for r in base for k in range(period // step)}

    up = pattern()
    down = up if draw(st.booleans()) else pattern()
    lo = draw(st.integers(-offset, offset))
    width = draw(st.integers(0, max_width))
    if draw(st.booleans()):
        bits = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    else:
        side = draw(st.sampled_from([up, down, set()]))
        bits = [(lo + i) % period in side for i in range(width)]
        if width:
            for i in draw(st.lists(st.integers(0, width - 1), max_size=3)):
                bits[i] = not bits[i]
    return period, sorted(up), sorted(down), lo, lo + width - 1, bits


@PROPERTIES
@given(raw_integer_sets())
def test_normal_form_is_minimal_and_keeps_membership(raw):
    Y = IntegerSet(*raw)
    p = Y.period
    for d in range(1, p):
        if p % d == 0:
            assert any(
                ((r + d) % p in pat) != (r in pat) for pat in (Y.up, Y.down) for r in range(p)
            ), (raw, Y, d)
    if Y.bits:
        assert Y.bits[-1] != (Y.hi % p in Y.up)
        assert Y.bits[0] != (Y.lo % p in Y.down)
    elif Y.up == Y.down:
        assert (Y.lo, Y.hi) == (0, -1)
    else:
        # one point lower would change the membership of Y.hi
        assert (Y.hi % p in Y.up) != (Y.hi % p in Y.down)
    period, lo, hi = raw[0], raw[3], raw[4]
    for x in range(lo - 2 * period, hi + 2 * period + 1):
        assert Y.member(x) == raw_member(raw, x), (raw, x)


@PROPERTIES
@given(raw_integer_sets())
def test_stored_masks_agree_with_the_fields(raw):
    Y = IntegerSet(*raw)
    assert Y.up_mask == sum(1 << r for r in Y.up)
    assert Y.down_mask == sum(1 << r for r in Y.down)
    assert Y.window_mask == sum(1 << i for i, b in enumerate(Y.bits) if b)
    assert len(Y.bits) == Y.hi - Y.lo + 1
    assert all(0 <= r < Y.period for r in Y.up | Y.down)
    assert Y.is_empty == (not Y.up and not Y.down and not any(Y.bits))


@st.composite
def period_masks(draw):
    """A period and a mask of that many bits: a random one, which is dense;
    one with at most 40 set bits, which is sparse from period 1,281 on; or
    the complement of such a one."""
    p = draw(st.integers(1, 3000))
    kind = draw(st.sampled_from(["random", "few", "all but few"]))
    if kind == "random":
        return p, draw(st.integers(0, (1 << p) - 1))
    few = sum(1 << r for r in draw(st.sets(st.integers(0, p - 1), max_size=40)))
    return p, few if kind == "few" else ((1 << p) - 1) ^ few


@PROPERTIES
@given(period_masks())
def test_residues_lists_the_set_bits(case):
    p, mask = case
    assert _residues(mask, p) == tuple(i for i in range(p) if mask >> i & 1)


@st.composite
def json_integer_sets(draw):
    """A general-form JSON integer set, with residues that may be negative,
    repeated or past the period, window bits mixing 0, 1, true and false,
    and keys left out where they have defaults; with the same values as
    public-constructor arguments."""
    period = draw(st.integers(1, 40))
    residues = st.lists(st.integers(-3 * period, 3 * period), max_size=12)
    up, down = draw(residues), draw(residues)
    lo = draw(st.integers(-60, 60))
    bits = draw(st.lists(st.sampled_from([0, 1, True, False]), max_size=30))
    obj = {"mod": period, "up": up, "down": down, "window": {"lo": lo, "hi": lo + len(bits) - 1, "bits": bits}}
    if not bits and draw(st.booleans()):
        del obj["window"]
        lo = 0
    for key, default in (("mod", 1), ("up", []), ("down", [])):
        if obj[key] == default and draw(st.booleans()):
            del obj[key]
    return obj, (period, up, down, lo, lo + len(bits) - 1, bits)


@PROPERTIES
@given(json_integer_sets())
def test_reading_a_set_equals_the_public_constructor(case):
    obj, args = case
    assert set_from_json(INTEGERS, obj) == IntegerSet(*args)


@PROPERTIES
@given(st.lists(st.integers(-300, 300), max_size=60))
def test_reading_a_list_equals_the_public_constructor(elems):
    # repeated elements collapse; the empty list is the empty set
    if elems:
        lo, hi = min(elems), max(elems)
        expected = IntegerSet(1, lo=lo, hi=hi, bits=[x in elems for x in range(lo, hi + 1)])
    else:
        expected = IntegerSet(1)
    assert set_from_json(INTEGERS, elems) == expected == integers_from(elems)


@PROPERTIES
@given(raw_integer_sets(), raw_integer_sets())
def test_boolean_operations_pointwise(raw_a, raw_b):
    A, B = IntegerSet(*raw_a), IntegerSet(*raw_b)
    reach = 2 * A.period * B.period // gcd(A.period, B.period)
    xs = range(min(A.lo, B.lo) - reach, max(A.hi, B.hi) + reach + 1)
    in_a = list(map(A.member, xs))
    in_b = list(map(B.member, xs))
    assert list(map(union(A, B).member, xs)) == list(map(operator.or_, in_a, in_b))
    assert list(map(intersect(A, B).member, xs)) == list(map(operator.and_, in_a, in_b))
    assert list(map(complement(A).member, xs)) == [not m for m in in_a]


@PROPERTIES
@given(raw_integer_sets())
def test_a_set_with_a_tail_has_every_multiple_of_its_period_as_a_difference(raw):
    # the lemma behind the pruning in amenability.kernel_intersection: with
    # y far out in a tail class, y + kp lies in Y for every k >= 0
    Y = IntegerSet(*raw)
    if not (Y.up_mask or Y.down_mask):
        return
    diff = difference_set(Y)
    reach = (Y.hi - Y.lo + 1) // Y.period + 3
    assert all(diff.member(k * Y.period) for k in range(-reach, reach + 1))


COPRIME_PAIRS = [(a, b) for a in range(1, 12) for b in range(1, 14) if gcd(a, b) == 1]


@st.composite
def tails_and_points(draw, period, up_tail, down_tail):
    """A set with one to three tail residues on each chosen side and at most
    four points in its window."""
    residues = st.lists(st.integers(0, period - 1), min_size=1, max_size=3)
    up = draw(residues) if up_tail else []
    down = draw(residues) if down_tail else []
    lo = draw(st.integers(-150, 150))
    width = draw(st.integers(0, 120))
    points = draw(st.lists(st.integers(0, width - 1), max_size=4)) if width else []
    return period, up, down, lo, lo + width - 1, [i in points for i in range(width)]


def _bitset(Y, radius):
    """Bit x + radius is the membership of x, for |x| <= radius."""
    return sum(1 << (x + radius) for x in range(-radius, radius + 1) if Y.member(x))


@PROPERTIES
@given(st.sampled_from(COPRIME_PAIRS), st.data())
def test_quotient_set_matches_enumeration_for_coprime_periods(pair, data):
    if data.draw(st.booleans()):
        A = IntegerSet(*data.draw(raw_integer_sets(st.just(pair[0]))))
        B = IntegerSet(*data.draw(raw_integer_sets(st.just(pair[1]))))
    else:
        # opposite tails and a few window points: no full congruence class
        # and few rays cover the gaps below the Frobenius bound
        up = data.draw(st.booleans())
        A = IntegerSet(*data.draw(tails_and_points(pair[0], up, not up)))
        B = IntegerSet(*data.draw(tails_and_points(pair[1], not up, up)))
    Q = quotient_set(A, B)
    # every t with |t| <= 800 in A - B has a witness pair inside [-1500, 1500]:
    # windows lie in [-150, 270], the periods are at most 13 and the
    # Frobenius bound at most 120
    radius = 1500
    in_a, in_b = _bitset(A, radius), _bitset(B, radius)
    for t in range(-800, 801):
        shifted = in_a >> t if t >= 0 else in_a << -t
        assert Q.member(t) == bool(shifted & in_b), (A, B, t)


def test_opposite_tails_give_a_numerical_semigroup():
    # {3i : i >= 0} - {-5j : j >= 0} = {3i + 5j}, whose gaps 1, 2, 4 and 7
    # lie in the top lcm-block that the difference set's window must reach past
    A = IntegerSet(3, up=[0], lo=0, hi=-1)
    B = IntegerSet(5, down=[0], lo=1, hi=0)
    semigroup = [1, 0, 0, 1, 0, 1, 1, 0]
    assert quotient_set(A, B) == IntegerSet(1, up=[0], lo=0, hi=7, bits=semigroup)
    assert quotient_set(B, A) == IntegerSet(1, down=[0], lo=-7, hi=0, bits=semigroup[::-1])


def test_a_point_minus_a_far_tail_is_a_ray_of_its_class():
    # B is {-1001 - 7k : k >= 0}: A - B = {2001 + 7k}, and each of its
    # elements pairs the point with a tail element far from B's window
    A = integers_from([1000])
    B = IntegerSet(7, down=[0], lo=-1000, hi=-1001)
    assert quotient_set(A, B) == IntegerSet(7, up=[2001 % 7], lo=2001, hi=2000)
    assert quotient_set(B, A) == IntegerSet(7, down=[-2001 % 7], lo=-2000, hi=-2001)


# period pairs whose lcm runs up to 150, coprime or not
WIDE_LCM_PAIRS = [(10, 15), (12, 18), (7, 11), (9, 16), (11, 13), (5, 29), (6, 25), (14, 21), (1, 149)]
TAIL_SIDES = [(False, False), (True, False), (False, True), (True, True)]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.sampled_from(WIDE_LCM_PAIRS), st.sampled_from(TAIL_SIDES), st.sampled_from(TAIL_SIDES), st.data())
def test_quotient_of_different_sets_matches_enumeration_past_its_window(pair, sides_a, sides_b, data):
    pa, pb = pair if data.draw(st.booleans()) else pair[::-1]
    shift = data.draw(st.sampled_from([-400, 0, 400]))
    A = translate(shift, IntegerSet(*data.draw(tails_and_points(pa, *sides_a))))
    B = translate(-shift, IntegerSet(*data.draw(tails_and_points(pb, *sides_b))))
    P = pa * pb // gcd(pa, pb)
    Q = quotient_set(A, B)
    # check 2P past the window [A.lo - B.hi - 2P, A.hi - B.lo + 2P] on each
    # side, so that wrong eventual patterns show. A witness pair of such a t
    # moves by multiples of P toward the windows until a or b lies within 3P
    # of its window, so every t checked has a witness inside the radius.
    radius = 3000
    in_a, in_b = _bitset(A, radius), _bitset(B, radius)
    for t in range(A.lo - B.hi - 4 * P, A.hi - B.lo + 4 * P + 1):
        shifted = in_a >> t if t >= 0 else in_a << -t
        assert Q.member(t) == bool(shifted & in_b), (A, B, t)


# ---------------------------------------------------------------------------
# the least period by prime descent


def ascending_divisor_period(period, up, down):
    """The least divisor d of the period at which both period-bit masks
    repeat, found by trying every divisor in ascending order."""
    texts = [format(mask, f"0{period}b") for mask in (up, down)]
    for d in range(1, period):
        if period % d == 0 and all(t == t[d:] + t[:d] for t in texts):
            return d
    return period


DESCENT_PERIODS = [1, 2, 6, 12, 64, 81, 128, 120, 360, 840, 2310, 97, 8633]


@st.composite
def planted_patterns(draw, period):
    """A period-bit mask repeating a random pattern of a drawn sub-period,
    with one bit flipped or none."""
    sub = draw(st.sampled_from([d for d in range(1, period + 1) if period % d == 0]))
    tile = draw(st.integers(0, (1 << sub) - 1))
    mask = int(format(tile, f"0{sub}b") * (period // sub), 2)
    if draw(st.booleans()):
        mask ^= 1 << draw(st.integers(0, period - 1))
    return mask


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.sampled_from(DESCENT_PERIODS), st.data())
def test_prime_descent_finds_the_least_period(period, data):
    up = data.draw(planted_patterns(period))
    down = data.draw(planted_patterns(period))
    width = data.draw(st.integers(0, 12))
    lo = data.draw(st.integers(-30, 30))
    window = data.draw(st.integers(0, (1 << width) - 1))
    d = ascending_divisor_period(period, up, down)
    low_bits = (1 << d) - 1
    got = _canonical_form(period, up, down, lo, lo + width - 1, window)
    assert got[0] == d
    # at its least period the form has no period left to reduce
    assert got == _canonical_form(d, up & low_bits, down & low_bits, lo, lo + width - 1, window)
