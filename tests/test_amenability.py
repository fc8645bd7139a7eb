import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typeflow import amenability
from typeflow.amenability import (
    InvariantMeasure,
    PestovCertificate,
    PestovExhausted,
    fixed_points,
    fixed_points_of_flow,
    generated_family,
    invariant_measure,
    invariant_measure_of_flow,
    kernel_intersection,
    measure_definability_check,
    pestov_check,
    pestov_fixed_point_consistency,
    pushforward_measure,
    singleton_minimal_criterion,
    verify_invariance,
)
from typeflow.defsets import (
    FiniteSubset,
    congruence_set,
    difference_set,
    full_set,
    intersect,
    is_left_generic,
    translates_cover,
)
from typeflow.flows import FiniteFlowPresentation, kernel_of_action
from typeflow.groups import INTEGERS, FiniteGroup, Subgroup, bundled_small_groups, cyclic_group, symmetric_group_3
from typeflow.typespace import Limit, Realized, apply_group, limit_points


def test_canonical_level_measure():
    mu = invariant_measure(INTEGERS, 4)
    assert len(mu.weights) == 8
    assert all(w == Fraction(1, 8) for w in mu.weights.values())
    assert verify_invariance(INTEGERS, 4, mu)


def test_flow_measures():
    rot = FiniteFlowPresentation(INTEGERS, 6, pi=[1, 2, 3, 4, 5, 0])
    mu = invariant_measure_of_flow(rot)
    assert all(w == Fraction(1, 6) for w in mu.weights.values())

    c1 = cyclic_group(1)
    two_points = FiniteFlowPresentation(c1, 2, action=[[0, 1]])
    mu = invariant_measure_of_flow(two_points)
    assert mu.weights == {0: Fraction(1, 2), 1: Fraction(1, 2)}


def test_measure_invariance_exhaustive_subsets():
    for n in (1, 2, 4, 8):
        mu = invariant_measure(INTEGERS, n)
        pts = limit_points(INTEGERS, n)
        for mask in range(1 << len(pts)):
            subset = [p for i, p in enumerate(pts) if mask >> i & 1]
            moved = [apply_group(INTEGERS, 1, p) for p in subset]
            assert mu.mass_of(subset) == mu.mass_of(moved)


def test_level_coherent_pushforward():
    for n in (2, 4, 6, 12):
        mu = invariant_measure(INTEGERS, n)
        for m in range(1, n + 1):
            if n % m:
                continue
            assert pushforward_measure(INTEGERS, mu, m) == invariant_measure(INTEGERS, m)


def test_fixed_points():
    assert fixed_points(INTEGERS, 1) == [Limit(1, 0, 1), Limit(-1, 0, 1)]
    for n in range(2, 13):
        assert fixed_points(INTEGERS, n) == []
    c3 = cyclic_group(3)
    assert fixed_points(c3, 1) == []
    assert fixed_points(cyclic_group(1), 1) == [Realized(0)]
    rot = FiniteFlowPresentation(INTEGERS, 3, pi=[0, 2, 1])
    assert fixed_points_of_flow(rot) == [0]


def test_pestov_integers():
    cert = pestov_check(INTEGERS, 4)
    assert isinstance(cert, PestovCertificate)
    assert cert.witness_set == congruence_set(2, [0])
    assert cert.genericity.translates == (0, 1)
    assert translates_cover(INTEGERS, cert.genericity.translates, cert.witness_set)
    assert cert.difference == congruence_set(2, [0])
    assert cert.missed_element == 1


def test_pestov_finite_groups():
    for g in bundled_small_groups():
        cert = pestov_check(g)
        assert isinstance(cert, PestovCertificate)
        assert cert.witness_set.elements() == [g.identity]
        assert cert.missed_element is not None


def test_pestov_trivial_group():
    c1 = cyclic_group(1)
    outcome = pestov_check(c1)
    assert isinstance(outcome, PestovExhausted)
    assert "not a proof" in outcome.note
    assert fixed_points(c1, 1) == [Realized(0)]


def test_generated_family_deterministic_and_deduplicated():
    fam = generated_family(INTEGERS, 4)
    assert fam[0] == full_set(INTEGERS)
    assert fam == generated_family(INTEGERS, 4)
    assert len(set(fam)) == len(fam)
    assert congruence_set(2, [0]) in fam


def literal_integer_family(max_modulus):
    """One congruence_set per residue mask, in (modulus, mask) order, first occurrence kept."""
    out = []
    for n in range(1, max_modulus + 1):
        for mask in range(1, 1 << n):
            Y = congruence_set(n, [r for r in range(n) if mask >> r & 1])
            if Y not in out:
                out.append(Y)
    return out


def test_generated_family_over_the_integers_is_the_literal_family():
    for m in range(1, 10):
        assert generated_family(INTEGERS, m) == literal_integer_family(m)


def test_integer_searches_agree_with_the_literal_family(monkeypatch):
    found = {
        m: (pestov_check(INTEGERS, m), singleton_minimal_criterion(INTEGERS, 4, m))
        for m in range(1, 9)
    }
    monkeypatch.setattr(amenability, "generated_family", lambda ctx, m: literal_integer_family(m))
    for m, answers in found.items():
        assert answers == (pestov_check(INTEGERS, m), singleton_minimal_criterion(INTEGERS, 4, m))


def test_kernel_intersection_integers():
    sub, exact = kernel_intersection(INTEGERS, 6)
    assert sub == Subgroup.congruence(60)
    assert exact == congruence_set(60, [0])
    assert kernel_of_action(INTEGERS, 60) == sub


def test_kernel_intersection_finite():
    c3 = cyclic_group(3)
    sub, exact = kernel_intersection(c3, 4)
    assert sorted(sub.elements) == [0]
    # exhaustive recomputation over all 7 nonempty subsets
    masks = [m for m in range(1, 8)]
    acc = set(range(3))
    for mask in masks:
        Y = [e for e in range(3) if mask >> e & 1]
        diffs = {c3.compose(a, c3.invert(b)) for a in Y for b in Y}
        acc &= diffs
    assert acc == {0}

    c1 = cyclic_group(1)
    sub1, _ = kernel_intersection(c1, 2)
    assert sorted(sub1.elements) == [0]


def relabelled_dihedral(m, perm):
    """The dihedral group of order 2m, r^a s^b at index perm[a + m b]."""

    def mul(x, y):
        a, b = x % m, x // m
        c, d = y % m, y // m
        return (a + (c if b == 0 else -c)) % m + m * ((b + d) % 2)

    table = [[0] * (2 * m) for _ in range(2 * m)]
    for x in range(2 * m):
        for y in range(2 * m):
            table[perm[x]][perm[y]] = perm[mul(x, y)]
    return FiniteGroup(table, name=f"d{m}")


def test_kernel_intersection_matches_the_whole_family():
    rng = random.Random(11)
    groups = list(bundled_small_groups()) + [cyclic_group(1)]
    for m in range(2, 6):
        perm = list(range(2 * m))
        rng.shuffle(perm)
        groups.append(relabelled_dihedral(m, perm))
    for G in groups:
        literal = set(G.elements())
        for Y in generated_family(G):
            if is_left_generic(G, Y).generic:
                members = Y.elements()
                literal &= {G.table[a][G.inverse[b]] for a in members for b in members}
        sub, exact = kernel_intersection(G)
        assert exact == FiniteSubset(G, sorted(literal))
        assert sub == Subgroup.of_elements(literal)


def test_integer_kernel_intersection_matches_the_whole_family():
    for m in range(1, 9):
        literal = full_set(INTEGERS)
        for Y in literal_integer_family(m):
            if is_left_generic(INTEGERS, Y).generic:
                literal = intersect(literal, difference_set(Y))
        sub, exact = kernel_intersection(INTEGERS, m)
        assert exact == literal
        assert sub == Subgroup.congruence(literal.period)


def test_integer_kernel_intersection_skips_periods_it_already_divides(monkeypatch):
    # a pin that follows the algorithm: one difference set per period that
    # still shrinks the intersection, ending at 60Z; period 6 divides 60
    periods = []

    def counting(Y):
        periods.append(Y.period)
        return difference_set(Y)

    monkeypatch.setattr(amenability, "difference_set", counting)
    sub, exact = kernel_intersection(INTEGERS, 6)
    assert exact == congruence_set(60, [0])
    assert periods == [2, 3, 4, 5]


def test_kernel_intersection_stops_at_the_identity(monkeypatch):
    # a pin that follows the algorithm: the first family member {0} is
    # generic with difference set {e}, so nothing after it is examined
    G = relabelled_dihedral(4, [3, 0, 1, 2, 4, 5, 6, 7])
    assert G.identity == 3
    calls = []

    def counting(Y):
        calls.append(Y)
        return difference_set(Y)

    monkeypatch.setattr(amenability, "difference_set", counting)
    sub, exact = kernel_intersection(G)
    assert exact.elements() == [3] and sub == Subgroup.of_elements({3})
    assert calls == [FiniteSubset(G, [0])]


def test_singleton_minimal_criterion():
    r = singleton_minimal_criterion(INTEGERS, 4, 4)
    assert not r.all_minimal_singletons and not r.meeting_sets_have_full_difference
    assert r.agree and r.witness is not None
    assert is_left_generic(INTEGERS, r.witness).generic or r.witness.up or r.witness.down

    r1 = singleton_minimal_criterion(cyclic_group(1), 1, 4)
    assert r1.all_minimal_singletons and r1.meeting_sets_have_full_difference and r1.agree

    r2 = singleton_minimal_criterion(cyclic_group(2), 1, 4)
    assert not r2.all_minimal_singletons and not r2.meeting_sets_have_full_difference
    assert r2.agree


def test_measure_definability_diagnostic():
    mu = invariant_measure(INTEGERS, 4)
    report = measure_definability_check(INTEGERS, 4, mu, 4)
    assert report.definable
    evens_entry = next(
        e for e in report.entries if e["set"] == congruence_set(2, [0])
    )
    assert evens_entry["cylinder_values"] == ["1/2"]  # constant in the translate

    c3 = cyclic_group(3)
    finite_report = measure_definability_check(c3, 1, None, 4)
    assert finite_report.definable

    # point mass on a level-1 fixed point is invariant and trivially definable
    from typeflow.amenability import InvariantMeasure

    point_mass = InvariantMeasure({Limit(1, 0, 1): Fraction(1)})
    assert verify_invariance(INTEGERS, 1, point_mass)
    report = measure_definability_check(INTEGERS, 1, point_mass, 2)
    assert report.definable


def test_consistency_of_diagnostics():
    chain = range(1, 13)
    report = pestov_fixed_point_consistency(INTEGERS, chain, 4)
    assert report.consistent and report.certificate_found and not report.fixed_points_at_all_levels

    trivial = pestov_fixed_point_consistency(cyclic_group(1), [1], 4)
    assert trivial.consistent and not trivial.certificate_found
    assert trivial.fixed_points_at_all_levels

    for g in bundled_small_groups():
        rep = pestov_fixed_point_consistency(g, [1], 3)
        assert rep.consistent and rep.certificate_found


def test_difference_ne_group_matches_no_fixed_points_at_even_levels():
    # the concrete witness pair: evens on one side, empty fixed sets on the other
    cert = pestov_check(INTEGERS, 2)
    assert isinstance(cert, PestovCertificate)
    assert difference_set(cert.witness_set) != full_set(INTEGERS)
    assert all(fixed_points(INTEGERS, n) == [] for n in (2, 4, 6, 8, 10, 12))


def test_non_invariant_measure_fails_on_s3():
    s3 = symmetric_group_3()
    assert verify_invariance(s3, 1, invariant_measure(s3, 1))
    assert not verify_invariance(s3, 1, InvariantMeasure({Realized(0): 1}))
    # uniform on the rotations {e, r, r2}: kept by the rotations, moved by a reflection
    rotations = InvariantMeasure({Realized(g): Fraction(1, 3) for g in (0, 1, 2)})
    assert not verify_invariance(s3, 1, rotations)


def test_invariance_on_generators_agrees_with_every_element():
    # uniform measures on every nonempty subset: a subset kept by the
    # generators of a subgroup but not by the group shows up among them
    seen = set()
    for G in bundled_small_groups() + [cyclic_group(1)]:
        for mask in range(1, 1 << G.order):
            support = [g for g in G.elements() if mask >> g & 1]
            mu = InvariantMeasure({Realized(g): Fraction(1, len(support)) for g in support})
            literal = all(
                mu.weight(apply_group(G, g, p)) == w for g in G.elements() for p, w in mu.weights.items()
            )
            assert verify_invariance(G, 1, mu) == literal, (G.name, support)
            seen.add(literal)
    assert seen == {True, False}


# ---------------------------------------------------------------------------
# weight validation


def literal_measure_outcome(weights):
    """What the definition says of a weight dict: accept, or which rule fails."""
    values = [Fraction(v) for v in weights.values()]
    if any(w < 0 for w in values):
        return "nonnegative"
    if sum(values) != 1:
        return "sum to one"
    return "accept"


@st.composite
def weight_dicts(draw):
    """Weights as ints, strings and Fractions; half of them rescaled so that
    they sum to one, some negative, some zero."""
    pairs = st.tuples(st.integers(-1, 6), st.integers(1, 6))
    raw = [Fraction(*pair) for pair in draw(st.lists(pairs, min_size=1, max_size=12))]
    total = sum(raw)
    if total and draw(st.booleans()):
        raw = [w / total for w in raw]
    weights = {}
    for key, w in enumerate(raw):
        form = draw(st.sampled_from(["fraction", "string", "int"]))
        if form == "string":
            weights[key] = str(w)
        elif form == "int" and w.denominator == 1:
            weights[key] = int(w)
        else:
            weights[key] = w
    return weights


@settings(derandomize=True, deadline=None, max_examples=300)
@given(weight_dicts())
def test_measure_weights_are_validated_as_defined(weights):
    expected = literal_measure_outcome(weights)
    if expected == "accept":
        mu = InvariantMeasure(weights)
        assert mu.weights == {k: Fraction(v) for k, v in weights.items()}
        assert all(type(w) is Fraction for w in mu.weights.values())
        keys = list(weights)
        for part in (keys, keys[::2], keys[1:], [], [len(keys)] + keys[:3]):
            literal = sum((Fraction(weights[k]) for k in part if k in weights), Fraction(0))
            assert mu.mass_of(part) == literal
            assert mu.mass_of(iter(part)) == literal
    else:
        with pytest.raises(ValueError, match=expected):
            InvariantMeasure(weights)


@pytest.mark.parametrize(
    "weights, outcome",
    [
        ({0: "1/2", 1: Fraction(1, 2)}, "accept"),
        ({0: 1, 1: 0}, "accept"),
        ({0: "3/2", 1: Fraction(-1, 2)}, "nonnegative"),
        ({0: "1/3", 1: "1/3"}, "sum to one"),
        ({0: 2}, "sum to one"),
    ],
)
def test_measure_weight_examples(weights, outcome):
    assert literal_measure_outcome(weights) == outcome
    if outcome == "accept":
        InvariantMeasure(weights)
    else:
        with pytest.raises(ValueError, match=outcome):
            InvariantMeasure(weights)
