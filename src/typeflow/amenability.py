"""Amenability and extreme amenability over the computable backends.

Invariant measures are exact rational weights. Extreme-amenability
verdicts are certificate based: a left generic set whose difference set
misses part of the group witnesses failure, and an exhausted search is
reported as exactly that, never as a proof. One search, `pestov_check`,
walks the generated family for such a set; the bounded side of the
singleton-minimal equivalence is its answer. Every family member is
generic by construction, so only the witness a search returns is tested
for genericity. Every finite-level flow here is a permutation action, so
an invariant measure always exists and the checks verify invariance
rather than existence.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm

from .defsets import (
    FiniteSubset,
    IntegerSet,
    _Mask,
    _prime_divisors,
    _rotate,
    complement,
    congruence_set,
    difference_set,
    full_set,
    intersect,
    is_left_generic,
    translate,
)
from .flows import FiniteFlowPresentation, _equivariant, minimal_subflows
from .groups import FiniteGroup, Group, IntegerGroup
from .typespace import Limit, contains, limit_points, restrict


_ZERO = Fraction(0)


class InvariantMeasure:
    """Exact rational probability weights on a level space or finite flow.

    Keys are type points (level spaces) or carrier indices (flows); the
    realized part of an integer level space carries weight zero and is not
    stored.
    """

    def __init__(self, weights):
        weights = {k: v if type(v) is Fraction else Fraction(v) for k, v in weights.items()}
        # a measure repeats few distinct weights: check and add each once
        counts = Counter((w.numerator, w.denominator) for w in weights.values())
        if any(num < 0 for num, _ in counts):
            raise ValueError("weights must be nonnegative")
        if sum((Fraction(num * c, den) for (num, den), c in counts.items()), _ZERO) != 1:
            raise ValueError("weights must sum to one")
        self.weights = weights

    def weight(self, key) -> Fraction:
        return self.weights.get(key, _ZERO)

    @cached_property
    def _over_common_denominator(self) -> tuple[dict, int]:
        """Every weight's numerator over the weights' common denominator,
        and that denominator, so that a mass is an integer sum and one
        division."""
        d = lcm(*{w.denominator for w in self.weights.values()})
        return {k: w.numerator * (d // w.denominator) for k, w in self.weights.items()}, d

    def mass_of(self, keys) -> Fraction:
        numerators, d = self._over_common_denominator
        return Fraction(sum(map(numerators.get, keys, repeat(0))), d)

    def __eq__(self, other):
        return isinstance(other, InvariantMeasure) and self.weights == other.weights

    def __repr__(self):
        return f"InvariantMeasure({len(self.weights)} atoms)"


def _uniform(orbits) -> InvariantMeasure:
    """Equal weight on each minimal subflow, uniform inside each."""
    share = Fraction(1, len(orbits))
    weights = {}
    for orbit in orbits:
        weights.update(dict.fromkeys(orbit, share / len(orbit)))
    return InvariantMeasure(weights)


def _one_point(orbits) -> list:
    """The fixed points: the members of the one-point minimal subflows."""
    return [p for orbit in orbits if len(orbit) == 1 for p in orbit]


def invariant_measure(ctx: Group, level: int) -> InvariantMeasure:
    """Canonical invariant measure on the level space."""
    return _uniform(minimal_subflows(ctx, level))


def invariant_measure_of_flow(F: FiniteFlowPresentation) -> InvariantMeasure:
    return _uniform(F.orbits)


def verify_invariance(ctx: Group, mu: InvariantMeasure) -> bool:
    """Exact check that every group generator preserves every atom weight.

    Weights are nonnegative, so a permutation that keeps each atom's weight
    keeps every point's; such permutations are closed under products. This
    is equivariance of the weight map into the trivial action on weights."""
    return _equivariant(ctx, mu.weights, mu.weight, lambda g, w: w)


def pushforward_measure(mu: InvariantMeasure, target_level: int) -> InvariantMeasure:
    """Image of a level measure under restriction to a divisor level."""
    out: dict = {}
    for p, w in mu.weights.items():
        if not isinstance(p, Limit):
            raise ValueError("pushforward is for level measures")
        q = restrict(p, target_level)
        out[q] = out.get(q, _ZERO) + w
    return InvariantMeasure(out)


def fixed_points(ctx: Group, level: int) -> list:
    """Points of the level space fixed by the whole group."""
    return _one_point(minimal_subflows(ctx, level))


def fixed_points_of_flow(F: FiniteFlowPresentation) -> list[int]:
    return _one_point(F.orbits)


# ---------------------------------------------------------------------------
# the generated set family used by certificate searches


# The most residue masks (over the integers) or subsets (over a table) that
# `generated_family` walks: max_modulus 15 or a table of order 16 at most.
# Every family of the benchmark corpora and the tests is far below it.
FAMILY_MASK_BOUND = 1 << 16


def _require_family(bits: int, short: int):
    """Refuse a family of 2^bits - short masks over FAMILY_MASK_BOUND before
    any member is built. A width past the bound's own is over it already,
    so 2^bits is never computed for a huge `bits`."""
    if bits > FAMILY_MASK_BOUND.bit_length() or (1 << bits) - short > FAMILY_MASK_BOUND:
        raise ValueError(
            f"certificate family has 2^{bits} - {short} masks, over the bound of {FAMILY_MASK_BOUND}"
        )


def generated_family(ctx: Group, max_modulus: int = 4):
    """Deterministic enumeration of probe sets.

    Integers: pure congruence-class sets of modulus up to the bound, in
    (modulus, residue-mask) order, each set once, at its first occurrence.
    A modulus-n mask that a rotation by a proper divisor d of n leaves
    unchanged is a modulus-d set, which the list already holds, so it is
    not built; every other mask is a set of canonical period n, built from
    the mask itself. The rotations fixing a mask form a subgroup of Z/n, so
    some proper divisor fixes it exactly when n/q does for some prime q of
    n. Finite backends: every nonempty subset in mask order.

    Every member is left generic: a modulus-n member holds a class m + nZ,
    and n translates of that class cover Z; a nonempty subset of a finite
    group covers it with |G| translates.
    """
    if isinstance(ctx, IntegerGroup):
        _require_family(max_modulus + 1, max_modulus + 2)
        out = []
        for n in range(1, max_modulus + 1):
            shifts = [n // q for q in _prime_divisors(n)]
            for mask in range(1, 1 << n):
                if any(_rotate(mask, d, n) == mask for d in shifts):
                    continue
                residues = _Mask(mask, n)
                out.append(IntegerSet(n, residues, residues))
        return out
    if isinstance(ctx, FiniteGroup):
        _require_family(ctx.order, 1)
        return [
            FiniteSubset(ctx, mask=mask) for mask in range(1, 1 << ctx.order)
        ]
    raise ValueError("certificate families are provided for integer and finite backends")


def _some_missing_element(diff):
    """A concrete element outside a difference set that is not the whole
    group, smallest first. A nonempty integer set has a member within a
    period past its window, so the radius loop always finds one."""
    comp = complement(diff)
    if isinstance(comp, FiniteSubset):
        return comp.elements()[0]
    for radius in range(0, 10 * comp.period + abs(comp.lo) + abs(comp.hi) + 1):
        for x in (radius, -radius) if radius else (0,):
            if comp.member(x):
                return x


@dataclass
class PestovCertificate:
    """A left generic set whose difference set misses part of the group."""

    witness_set: object
    genericity: object
    difference: object
    missed_element: object

    note = "certificate: the group is not extremely amenable in the definable sense"


@dataclass
class PestovExhausted:
    family_size: int
    note: str = (
        "no counterexample within the searched family; "
        "this is not a proof of extreme amenability"
    )


def pestov_check(ctx: Group, max_modulus: int = 4):
    """Search the generated family for a generic Y with Y Y^{-1} != G.

    Returns the lexicographically first certificate in enumeration order,
    or an exhausted verdict with an explicit soundness note. Members are
    generic by construction, so only the witness is tested, once, for the
    translate cover its certificate prints; a witness that is not generic
    raises `AssertionError` rather than print a false certificate.
    """
    full = full_set(ctx)
    family = generated_family(ctx, max_modulus)
    for Y in family:
        diff = difference_set(Y)
        if diff == full:
            continue
        verdict = is_left_generic(ctx, Y)
        if not verdict.generic:
            raise AssertionError(f"family member {Y!r} is not left generic")
        return PestovCertificate(
            witness_set=Y,
            genericity=verdict,
            difference=diff,
            missed_element=_some_missing_element(diff),
        )
    return PestovExhausted(family_size=len(family))


def kernel_intersection(ctx: Group, max_modulus: int = 4):
    """Intersection of the difference sets of all family members, each of
    them generic by construction (see `generated_family`).

    Over the integers it is lcm(1, ..., max_modulus)Z: for each n up to
    the bound, {0 mod n} is a generic member with difference set nZ, and
    every generic member's difference set holds the multiples of its
    period (see below). Over a table it is {e}: the member {e} is generic,
    as every nonempty subset of a finite group is.

    Over the integers a member Y of canonical period p is skipped when the
    running intersection already lies in pZ.
    This is exact: a generic Y has a nonempty eventual pattern of period p,
    and for y far out in one of its tail classes, y + kp lies in Y for
    every k >= 0, so every multiple of p lies in Y Y^{-1}; the intersection
    with Y Y^{-1} is then the running intersection itself. The containment
    is tested once per period, and the answers are forgotten whenever the
    intersection is recomputed.

    The search stops once the intersection is {e}: a generic set is
    nonempty, so its difference set contains e and cannot shrink {e}.
    Over the integers every difference set here is periodic, so {e} is
    never reached there.
    """
    acc = full_set(ctx)
    trivial = FiniteSubset(ctx, [ctx.identity]) if isinstance(ctx, FiniteGroup) else None
    in_multiples = {}  # period p -> whether acc lies in pZ
    for Y in generated_family(ctx, max_modulus):
        if isinstance(Y, IntegerSet):
            p = Y.period
            if p not in in_multiples:
                in_multiples[p] = intersect(acc, congruence_set(p, [0])) == acc
            if in_multiples[p]:
                continue
        acc = intersect(acc, difference_set(Y))
        in_multiples.clear()
        if acc == trivial:
            break
    return acc


@dataclass
class SingletonReport:
    all_minimal_singletons: bool
    meeting_sets_have_full_difference: bool
    agree: bool
    witness: object


def singleton_minimal_criterion(ctx: Group, level: int, max_modulus: int = 4) -> SingletonReport:
    """Evaluate both sides of the singleton-minimal-subflow equivalence.

    Side one: every minimal subflow of the level space is a singleton.
    Side two: every family set that meets some minimal subflow (as a
    clopen set of the space) has difference set equal to the whole group.
    Every member meets one: over the integers its nonempty residue pattern
    lies in some limit point of each sign circle, and over a table the one
    minimal subflow is G. So side two holds exactly when `pestov_check`
    finds no certificate, and the witness is the certificate's set.
    """
    side_a = all(len(flow) == 1 for flow in minimal_subflows(ctx, level))
    cert = pestov_check(ctx, max_modulus)
    side_b = isinstance(cert, PestovExhausted)
    witness = None if side_b else cert.witness_set
    return SingletonReport(side_a, side_b, side_a == side_b, witness)


# ---------------------------------------------------------------------------
# the measure-definability diagnostic


@dataclass
class MeasureDefinabilityReport:
    definable: bool
    entries: list
    note: str = (
        "diagnostic for the canonical measures on these backends; "
        "not a general theorem check"
    )


def measure_definability_check(
    ctx: Group, level: int, mu: InvariantMeasure, max_modulus: int = 4
) -> MeasureDefinabilityReport:
    """Check that measure-threshold sets of translates are separated by
    definable sets.

    For each family set Y the cylinder measure g -> mu(gY) is periodic in
    g, so each threshold pair yields low and high g-sets that are unions
    of congruence classes; the low set itself is the definable separator.
    """
    if not isinstance(ctx, IntegerGroup):
        # over a finite backend every subset is definable, so separation is free
        return MeasureDefinabilityReport(True, [{"backend": "finite", "separable": True}])
    points = limit_points(ctx, level)
    entries = []
    ok = True
    for Y in generated_family(ctx, max_modulus):
        if level % Y.period != 0:
            continue
        values = {}
        for g in range(level):
            gy = translate(g, Y)
            values[g] = mu.mass_of(p for p in points if contains(p, gy))
        distinct = sorted(set(values.values()))
        separable = True
        for i, low in enumerate(distinct):
            for high in distinct[i + 1 :]:
                low_set = congruence_set(level, [g for g, v in values.items() if v <= low])
                high_set = congruence_set(level, [g for g, v in values.items() if v >= high])
                if not intersect(low_set, high_set).is_empty:
                    separable = False
        entries.append(
            {
                "set": Y,
                "cylinder_values": [str(v) for v in distinct],
                "separable": separable,
            }
        )
        ok = ok and separable
    return MeasureDefinabilityReport(ok, entries)
