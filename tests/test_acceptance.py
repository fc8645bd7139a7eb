"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every check is exact (integer, frozenset, or Fraction equality); there are
no numeric tolerances to tune. Run with `pytest -s tests/test_acceptance.py`
to see the per-criterion lines.
"""

import random

import pytest

from typeflow.amenability import (
    PestovCertificate,
    PestovExhausted,
    fixed_points,
    invariant_measure,
    kernel_intersection,
    measure_definability_check,
    pestov_check,
    pushforward_measure,
    singleton_minimal_criterion,
    verify_invariance,
)
from typeflow.compactify import g00_at_level, universal_compactification
from typeflow.defsets import (
    IntegerSet,
    complement,
    congruence_set,
    difference_set,
    full_set,
    intersect,
    is_left_generic,
    member,
    translates_cover,
    union,
)
from typeflow.ellis import find_idempotents, star, star_via_schema
from typeflow.flows import (
    FiniteFlowPresentation,
    is_left_ideal,
    minimal_subflows,
    universal_ambit_morphism,
    universal_minimal_flow,
)
from typeflow.groups import INTEGERS, bundled_small_groups, cyclic_group
from typeflow.oracle import (
    oracle_equivariant_maps,
    oracle_generic,
    oracle_minimal_subflows,
    oracle_star,
)
from typeflow.typespace import LevelError, Limit, is_closed_invariant, limit_points, restrict

LEVELS = range(1, 13)


def report(number, description, ok):
    print(f"{'PASS' if ok else 'FAIL'} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def random_point(rng, level):
    if rng.random() < 0.4:
        return rng.randint(-10**6, 10**6)
    return Limit(rng.choice([1, -1]), rng.randrange(level), level)


def random_integer_set(rng, max_period=6, span=6):
    period = rng.randint(1, max_period)
    up = [r for r in range(period) if rng.random() < 0.4]
    down = [r for r in range(period) if rng.random() < 0.4]
    lo = rng.randint(-span, 0)
    hi = lo + rng.randint(-1, span)
    bits = [rng.random() < 0.5 for _ in range(hi - lo + 1)]
    return IntegerSet(period, up=up, down=down, lo=lo, hi=hi, bits=bits)


def test_criterion_01_semigroup_associativity():
    failures = 0
    for n in LEVELS:
        pts = limit_points(INTEGERS, n)
        for p in pts:
            for q in pts:
                for r in pts:
                    lhs = star(INTEGERS, star(INTEGERS, p, q), r)
                    rhs = star(INTEGERS, p, star(INTEGERS, q, r))
                    failures += lhs != rhs
    rng = random.Random(101)
    for _ in range(1000):
        n = rng.choice(LEVELS)
        p, q, r = (random_point(rng, n) for _ in range(3))
        lhs = star(INTEGERS, star(INTEGERS, p, q), r)
        rhs = star(INTEGERS, p, star(INTEGERS, q, r))
        failures += lhs != rhs
    report(1, "star associativity, exhaustive levels 1..12 plus 1000 random triples", failures == 0)


def test_criterion_02_heir_coheir_duality():
    disagreements = 0
    for n in LEVELS:
        pts = limit_points(INTEGERS, n)
        for p in pts:
            for q in pts:
                direct = star(INTEGERS, p, q)
                if star_via_schema(INTEGERS, p, q) != direct:
                    disagreements += 1
                if oracle_star(INTEGERS, p, q, n) != direct:
                    disagreements += 1
    rng = random.Random(102)
    for _ in range(1000):
        n = rng.choice(LEVELS)
        p, q = random_point(rng, n), random_point(rng, n)
        direct = star(INTEGERS, p, q)
        level = direct.modulus if isinstance(direct, Limit) else n
        if star_via_schema(INTEGERS, p, q) != direct:
            disagreements += 1
        if oracle_star(INTEGERS, p, q, level) != direct:
            disagreements += 1
    report(2, "star equals schema route equals numeric oracle on the same ranges", disagreements == 0)


def test_criterion_03_ideal_and_idempotent_claims():
    ok = True
    # left ideals coincide with closed invariant subsets: exhaustive at n <= 4
    for n in (1, 2, 3, 4):
        pts = limit_points(INTEGERS, n)
        for mask in range(1, 1 << len(pts)):
            S = frozenset(p for i, p in enumerate(pts) if mask >> i & 1)
            if is_left_ideal(INTEGERS, n, S) != is_closed_invariant(S):
                ok = False
    # each minimal subflow holds exactly one idempotent, absorbing on the right
    for n in (1, 2, 3, 4, 6, 8):
        idems = find_idempotents(INTEGERS, n)
        for flow in minimal_subflows(INTEGERS, n):
            inside = [p for p in idems if p in flow]
            if len(inside) != 1:
                ok = False
                continue
            p0 = inside[0]
            if any(star(INTEGERS, q, p0) != q for q in flow):
                ok = False
    # every equivariant self-map is a bijection of the form p -> p * t
    for n in (1, 2, 3, 4, 5, 6, 7, 8):
        for flow in minimal_subflows(INTEGERS, n):
            for f in oracle_equivariant_maps(INTEGERS, n, flow, flow):
                if len(set(f.values())) != len(flow):
                    ok = False
                if not any(
                    all(f[p] == star(INTEGERS, p, t) for p in flow) for t in flow
                ):
                    ok = False
    report(3, "ideals = closed subflows; unique absorbing idempotent; self-maps are right translations", ok)


def test_criterion_04_universal_minimal_flow_uniqueness():
    ok = True
    for n in range(2, 13):
        umf = universal_minimal_flow(INTEGERS, n)
        for other in minimal_subflows(INTEGERS, n):
            iso = umf.isomorphism_to(other)
            if not all(iso.certify(INTEGERS).values()):
                ok = False
    for n in range(1, 9):
        if set(oracle_minimal_subflows(INTEGERS, n)) != set(minimal_subflows(INTEGERS, n)):
            ok = False
    report(4, "constructed subflow isomorphisms verified; no minimal subflow missed at n <= 8", ok)


def test_criterion_05_universal_ambit_morphisms():
    ok = True
    for d in range(1, 13):
        flow = FiniteFlowPresentation(INTEGERS, d, pi=[(i + 1) % d for i in range(d)], base=0)
        for n in LEVELS:
            if n % d == 0:
                h = universal_ambit_morphism(n, flow)
                checks = h.certify()
                if checks != {"equivariant": True, "limits_stable_on_witnesses": True}:
                    ok = False
                for m in LEVELS:
                    if n % m or m % d:
                        continue
                    hm = universal_ambit_morphism(m, flow)
                    for p in limit_points(INTEGERS, n):
                        if hm.apply(restrict(p, m)) != h.apply(p):
                            ok = False
            else:
                try:
                    universal_ambit_morphism(n, flow)
                    ok = False
                except LevelError as exc:
                    if "level too coarse" not in str(exc):
                        ok = False
    report(5, "pointed cyclic flows: equivariant morphisms with stable limits, coherent restrictions, coarse levels rejected", ok)


def test_criterion_06_universal_compactification_at_24():
    divisors = [m for m in range(1, 25) if 24 % m == 0]
    result = universal_compactification(INTEGERS, 24, divisors)
    ok = result.quotient_size == 24 and len(result.factors) == 8
    for factor in result.factors:
        # a surjective homomorphism Z/24 -> Z/m, checked on every pair
        m, images = factor.target_size, factor.images
        ok = ok and set(images) == set(range(m))
        ok = ok and all(images[(a + b) % 24] == (images[a] + images[b]) % m for a in range(24) for b in range(24))
        # the triangle commutes on every g, which also forces the map
        m = factor.target_size
        for g in range(-48, 49):
            if factor.images[g % 24] != g % m:
                ok = False
    report(6, "level-24 quotient with all 8 commuting reductions onto divisors of 24", ok)


def test_criterion_07_pestov_criterion():
    ok = True
    cert = pestov_check(INTEGERS, 4)
    ok = ok and isinstance(cert, PestovCertificate)
    ok = ok and cert.witness_set == congruence_set(2, [0])
    ok = ok and cert.genericity.translates == (0, 1)
    ok = ok and translates_cover(INTEGERS, cert.genericity.translates, cert.witness_set)
    ok = ok and cert.difference == congruence_set(2, [0])
    ok = ok and cert.difference != full_set(INTEGERS)
    ok = ok and all(fixed_points(INTEGERS, n) == [] for n in range(2, 13))
    # at level 1 each sign circle is one point, so the equivalence starts at level 2
    ok = ok and all(singleton_minimal_criterion(INTEGERS, n, 4).agree for n in range(2, 13))

    for group in bundled_small_groups():
        cert = pestov_check(group)
        ok = ok and isinstance(cert, PestovCertificate)
        ok = ok and cert.witness_set.elements() == [group.identity]
        ok = ok and singleton_minimal_criterion(group, 1, 3).agree

    trivial = cyclic_group(1)
    outcome = pestov_check(trivial)
    ok = ok and isinstance(outcome, PestovExhausted)
    ok = ok and fixed_points(trivial, 1) == [0]
    ok = ok and singleton_minimal_criterion(trivial, 1, 4).agree
    report(7, "certificates for the integers and all bundled groups; trivial group exhausted with a fixed point", ok)


def test_criterion_08_kernel_formula():
    kernel = kernel_intersection(INTEGERS, 6)
    ok = kernel == congruence_set(60, [0])
    ok = ok and g00_at_level(INTEGERS, 60) == kernel
    report(8, "difference-set intersection over moduli <= 6 equals 60Z equals the level-60 action kernel", ok)


def test_criterion_09_invariant_measures():
    ok = True
    for n in LEVELS:
        mu = invariant_measure(INTEGERS, n)
        ok = ok and verify_invariance(INTEGERS, mu)
        for m in LEVELS:
            if n % m:
                continue
            ok = ok and pushforward_measure(mu, m) == invariant_measure(INTEGERS, m)
    level = 60  # lcm of the family moduli
    mu = invariant_measure(INTEGERS, level)
    report_def = measure_definability_check(INTEGERS, level, mu, max_modulus=6)
    ok = ok and report_def.definable
    report(9, "canonical measures invariant and pushforward-coherent; definability diagnostic at moduli <= 6", ok)


def test_criterion_10_set_algebra():
    rng = random.Random(110)
    failures = 0
    checks = 0
    while checks < 10_000:
        A = random_integer_set(rng)
        B = random_integer_set(rng)
        C = random_integer_set(rng)
        samples = [rng.randint(-1000, 1000) for _ in range(6)]
        laws = [
            (union(A, B), lambda x: member(A, x) or member(B, x)),
            (intersect(A, B), lambda x: member(A, x) and member(B, x)),
            (complement(A), lambda x: not member(A, x)),
            (complement(union(A, B)), lambda x: not (member(A, x) or member(B, x))),
            (union(intersect(A, B), intersect(A, C)), lambda x: member(A, x) and (member(B, x) or member(C, x))),
        ]
        for built, pointwise in laws:
            checks += 1
            if any(member(built, x) != pointwise(x) for x in samples):
                failures += 1
        checks += 1
        if (complement(union(A, B)) == intersect(complement(A), complement(B))) is False:
            failures += 1
        checks += 1
        if (complement(complement(A)) == A) is False:
            failures += 1

    corpus = []
    corpus_rng = random.Random(111)
    while len(corpus) < 200:
        corpus.append(random_integer_set(corpus_rng, max_period=4, span=5))
    agree = 0
    for Y in corpus:
        structural = is_left_generic(INTEGERS, Y)
        found = oracle_generic(Y, max_translates=12, shift_bound=24, radius=160)
        if structural.generic:
            if found is not None and translates_cover(INTEGERS, structural.translates, Y):
                agree += 1
        else:
            if found is None:
                agree += 1
    report(
        10,
        "10^4 randomized algebra checks clean; genericity agrees with the oracle on a 200-set corpus",
        failures == 0 and agree == 200,
    )
