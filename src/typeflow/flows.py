"""Definable flows at desk scale.

Finite flow presentations (a carrier acted on by bijections, optionally
with a distinguished dense-orbit point), the morphism from the level type
space onto any such pointed flow, minimal subflows, left ideals for the
semigroup product, and the constructive uniqueness of the universal
minimal flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import lcm

from .defsets import FiniteSubset, congruence_set, json_int, json_ints
from .ellis import star
from .groups import INTEGERS, BackendMismatch, FiniteGroup, Group, IntegerGroup, _closure, first_failing_pair
from .typespace import (
    LevelError,
    Limit,
    _stable_on_witnesses,
    apply_group,
    check_level,
    limit_points,
    minimal_part,
    point_key,
)


def _orbits(points, moves) -> tuple[frozenset, ...]:
    """The orbits of the points under the maps, in order of each orbit's first point."""
    seen, out = set(), []
    for x in points:
        if x not in seen:
            orbit = frozenset(_closure([x], moves))
            seen |= orbit
            out.append(orbit)
    return tuple(out)


class FiniteFlowPresentation:
    """A finite flow: a carrier with a group action and an optional base point.

    Over the integers the action is generated by a single map ``pi`` (the
    action of 1); over a finite backend a permutation is supplied for every
    group element. Entries are integers (`flow_from_json` checks that for
    JSON input). A presentation is a flow by construction: the constructor
    checks the shape, the base point, that every map is a bijection, that
    the identity acts trivially and, on the generators (`first_failing_pair`),
    that the action is a homomorphism, and raises ValueError on the first
    failure. So every task that reads a flow rejects a non-flow with the
    message `check-flow` gives. The orbits, which are the minimal subflows,
    are read off the generators' maps once and stored as `orbits`, in order
    of each orbit's least point.
    """

    def __init__(self, ctx: Group, size: int, pi=None, action=None, base=None):
        if size < 1:
            raise ValueError("carrier must be nonempty")
        self.ctx = ctx
        self.size = size
        if isinstance(ctx, IntegerGroup):
            if pi is None or action is not None:
                raise ValueError("integer flows are given by a single map pi")
            pi = tuple(pi)
            if len(pi) != size or any(not 0 <= x < size for x in pi):
                raise ValueError("pi is not a map of the carrier")
        elif isinstance(ctx, FiniteGroup):
            if action is None or pi is not None:
                raise ValueError("finite-backend flows are given by one permutation per element")
            action = tuple(map(tuple, action))
            if len(action) != ctx.order or any(
                len(row) != size or any(not 0 <= x < size for x in row) for row in action
            ):
                raise ValueError("action table has the wrong shape")
        else:
            raise BackendMismatch("flows are provided for integer and finite backends")
        if base is not None and not 0 <= base < size:
            raise ValueError("base point outside the carrier")
        self.pi = pi
        self.action = action
        self.base = base
        # every entry lies in the carrier, so a map is a bijection iff its entries are distinct
        if pi is not None:
            if len(set(pi)) != size:
                raise ValueError("generator is not a bijection of the carrier")
            moves = (pi,)
        else:
            for g, row in enumerate(action):
                if len(set(row)) != size:
                    raise ValueError(f"element {g} does not act by a bijection")
            if action[ctx.identity] != tuple(range(size)):
                raise ValueError("identity element does not act trivially")
            failure = first_failing_pair(
                ctx.elements(),
                ctx.generators,
                lambda g, h: action[ctx.table[g][h]] == tuple(map(action[g].__getitem__, action[h])),
            )
            if failure is not None:
                raise ValueError("action is not a homomorphism at ({},{})".format(*failure))
            # the action is a homomorphism, so the generators' orbits are the group's
            moves = [action[g] for g in ctx.generators]
        self.orbits = _orbits(range(size), [move.__getitem__ for move in moves])

    def __repr__(self):
        kind = "integer" if self.pi is not None else "finite"
        return f"FiniteFlowPresentation({kind}, size={self.size}, base={self.base})"


@dataclass(frozen=True)
class FlowVerdict:
    valid: bool
    ambit: bool | None
    orbit_periods: tuple


def check_definable_flow(F: FiniteFlowPresentation) -> FlowVerdict:
    """Report the orbit periods and, for a pointed flow, the ambit condition.

    The flow axioms were checked when F was built, so the verdict is always
    valid. A present base point with a non-dense orbit is a valid flow that
    fails the ambit condition, reported in the verdict.
    """
    periods = [0] * F.size
    for orbit in F.orbits:
        for x in orbit:
            periods[x] = len(orbit)
    ambit = None if F.base is None else len(F.orbits) == 1
    return FlowVerdict(valid=True, ambit=ambit, orbit_periods=tuple(periods))


def minimal_subflows(ctx: Group, level: int) -> list[frozenset]:
    """Minimal subflows of the level space: the orbits of `minimal_part`
    under the backend's generators, in order of their least points.

    Over the integers these are the two sign circles of the limit part (any
    closed invariant set touching the realized part is everything); over a
    finite backend, the one orbit of the group acting on itself.
    """
    points = minimal_part(ctx, level)
    return list(_orbits(points, [partial(apply_group, ctx, g) for g in ctx.generators]))


def _equivariant(ctx: Group, points, f, act) -> bool:
    """Does f(g.p) == act(g, f(p)) hold for every point p and generator g?

    When `act` is an action and the group maps the points into themselves,
    that is equivariance under the whole group: the g that pass are closed
    under products, as f(gh.p) = act(g, f(h.p)) = act(g, act(h, f(p))).
    Over the integers they are closed under inverses too, since 1 permutes
    a finite set that it maps into itself.
    """
    return all(f(apply_group(ctx, g, p)) == act(g, f(p)) for g in ctx.generators for p in points)


def _idempotent(ctx: Group, points):
    """The least point p of the set, in point order, with p * p = p."""
    for p in sorted(points, key=point_key):
        if star(ctx, p, p) == p:
            return p
    raise ValueError("the set holds no idempotent")


# The most `star` products `is_left_ideal` makes: one per member and limit
# left factor, len(S) * 2 * level. A full circle at level 1,448 comes to
# 1 << 22 products, about 0.9 s; at LEVEL_BOUND it would be 2**35.
LEFT_IDEAL_PRODUCT_BOUND = 1 << 22


def is_left_ideal(ctx: Group, level: int, points) -> bool:
    """Is the set closed under left star multiplication by the whole space?

    The level is checked first, by `check_level`. Realized left factors act
    through the group action, so the set must be closed under the
    generators; only then are the 2 * level limit left factors built and
    checked exhaustively (a table has none), unless that is more than
    LEFT_IDEAL_PRODUCT_BOUND products, which raises `ValueError` first. A
    finite set holding a realized integer is never closed under 1. Every
    member is moved, by the identity for the trivial group, and every limit
    member's level is checked before any verdict, so a limit member over a
    table is a backend mismatch (as in `contains`) and neither the answer
    nor the error hangs on iteration order.
    """
    check_level(ctx, level)
    S = frozenset(points)
    if not S:
        return False
    images = [set(map(partial(apply_group, ctx, g), S)) for g in ctx.generators or (ctx.identity,)]
    wrong = {p.modulus for p in S if isinstance(p, Limit)} - {level}
    if wrong:
        raise LevelError(f"point at level {min(wrong)} in a level-{level} check")
    if not all(image <= S for image in images):
        return False
    products = len(S) * 2 * level
    if products > LEFT_IDEAL_PRODUCT_BOUND:
        raise ValueError(f"{products} products are over the bound of {LEFT_IDEAL_PRODUCT_BOUND}")
    left_factors = limit_points(ctx, level)
    for l in S:
        for s in left_factors:
            if star(ctx, s, l) not in S:
                return False
    return True


# ---------------------------------------------------------------------------
# the morphism from the level space onto a pointed flow


@dataclass
class AmbitMorphism:
    """The unique equivariant map from the level space onto a pointed flow.

    Realized points go to their orbit position; limit points go to the
    stable value of the orbit map along any witness sequence.
    """

    flow: FiniteFlowPresentation
    orbit_period: int
    realized_images: tuple
    limit_images: dict

    def apply(self, p):
        if isinstance(p, Limit):
            return self.limit_images[p]
        return self.realized_images[p % self.orbit_period]

    def certify(self) -> dict:
        """Equivariance and, over the integers, limit stability.

        Equivariance is checked on the generators (`_equivariant`), which
        act on the flow by ``pi`` over the integers and by their rows of the
        action table over a finite group. The points are the limit points
        and one realized point per orbit position, which cover every realized
        point: `apply` reads a realized value modulo the orbit period, which
        over a finite group is its order. Realized values are forced by
        equivariance from the base point and limit values by continuity, so
        the two checks together are uniqueness. Surjectivity is not checked:
        `universal_ambit_morphism` admits only a dense base orbit, whose
        realized images alone cover the carrier.
        """
        F = self.flow
        moves = {1: F.pi} if F.pi is not None else F.action
        points = list(self.limit_images) + list(range(self.orbit_period))
        checks = {"equivariant": _equivariant(F.ctx, points, self.apply, lambda g, x: moves[g][x])}
        if isinstance(F.ctx, IntegerGroup):
            checks["limits_stable_on_witnesses"] = _stable_on_witnesses(self.apply, self.limit_images, 3, 4)
        return checks


def universal_ambit_morphism(level: int, F: FiniteFlowPresentation) -> AmbitMorphism:
    """Build the unique base-point-preserving map of the level space onto F.

    Requires F to be pointed, with a dense base orbit. A realized point goes
    to its image of the base (by ``pi``'s cycle or the action rows), and a
    limit point to that of its residue, so over the integers the orbit
    period of the base must divide the level, otherwise the limit values do
    not stabilize and a "level too coarse" error is raised.
    """
    if F.base is None:
        raise ValueError("a pointed flow is required")
    if len(F.orbits) != 1:
        raise ValueError("base point orbit is not dense in the carrier")
    if F.pi is not None:
        realized = tuple(_closure([F.base], [F.pi.__getitem__]))
        if level % len(realized) != 0:
            raise LevelError(f"level too coarse: orbit period {len(realized)} does not divide level {level}")
    else:
        realized = tuple(row[F.base] for row in F.action)
    d = len(realized)
    limits = {p: realized[p.residue % d] for p in limit_points(F.ctx, level)}
    return AmbitMorphism(F, d, realized, limits)


# ---------------------------------------------------------------------------
# universal minimal flow and its uniqueness isomorphisms


@dataclass
class SubflowIsomorphism:
    source: frozenset
    target: frozenset
    forward: dict
    backward: dict

    def certify(self, ctx: Group) -> dict:
        fwd_bijective = set(self.forward.values()) == set(self.target) and len(
            set(self.forward.values())
        ) == len(self.forward)
        round_trip = all(self.backward[self.forward[p]] == p for p in self.source)
        round_trip_back = all(self.forward[self.backward[q]] == q for q in self.target)
        return {
            "bijective": fwd_bijective,
            "mutually_inverse": round_trip and round_trip_back,
            "equivariant": _equivariant(ctx, self.source, self.forward.__getitem__, partial(apply_group, ctx)),
        }


@dataclass
class UniversalMinimalFlow:
    """The minimal subflows of the level space, in `minimal_subflows`
    order, with an isomorphism builder from the first one.

    Any other minimal subflow is isomorphic to it through a right
    translation: take t to be the other subflow's idempotent, find s here
    with t * s equal to this subflow's idempotent, and the two right
    translations invert each other. Over a finite backend the one subflow
    is the group and both maps are the identity.
    """

    ctx: Group
    subflows: list
    idempotent: object

    @property
    def subflow(self) -> frozenset:
        """The first of the minimal subflows, which this flow is built on."""
        return self.subflows[0]

    def isomorphism_to(self, other) -> SubflowIsomorphism:
        other = frozenset(other)
        t = _idempotent(self.ctx, other)
        s = None
        for cand in sorted(self.subflow, key=point_key):
            if star(self.ctx, t, cand) == self.idempotent:
                s = cand
                break
        if s is None:
            raise AssertionError("no right inverse found; subflow is not minimal")
        forward = {p: star(self.ctx, p, t) for p in self.subflow}
        backward = {q: star(self.ctx, q, s) for q in other}
        return SubflowIsomorphism(self.subflow, other, forward, backward)


def universal_minimal_flow(ctx: Group, level: int) -> UniversalMinimalFlow:
    subflows = minimal_subflows(ctx, level)
    return UniversalMinimalFlow(ctx, subflows, _idempotent(ctx, subflows[0]))


# ---------------------------------------------------------------------------
# extension of eventually periodic maps to the level space


class EventuallyPeriodicMap:
    """A map from the integers to a finite value set, periodic toward both
    infinities with finitely many exceptional values."""

    def __init__(self, period: int, up_values, down_values, window=None):
        if period < 1:
            raise ValueError("period must be at least 1")
        self.period = period
        self.up_values = tuple(up_values)
        self.down_values = tuple(down_values)
        if len(self.up_values) != period or len(self.down_values) != period:
            raise ValueError("value tuples must have length equal to the period")
        self.window = dict(window or {})

    def at(self, x: int):
        if x in self.window:
            return self.window[x]
        if x >= 0:
            return self.up_values[x % self.period]
        return self.down_values[x % self.period]


@dataclass
class ExtendedMap:
    """The unique extension of an eventually periodic map to type points."""

    base: EventuallyPeriodicMap
    level: int

    def apply(self, p):
        if not isinstance(p, Limit):
            return self.base.at(p)
        values = self.base.up_values if p.sign > 0 else self.base.down_values
        return values[p.residue % self.base.period]

    def certify(self) -> dict:
        """Limit values are singleton limits along witness sequences."""
        escape = max((abs(k) for k in self.base.window), default=0) // self.level + 2
        points = limit_points(INTEGERS, self.level)
        return {"singleton_limits": _stable_on_witnesses(self.apply, points, escape, 4)}


def extend_definable_map(f: EventuallyPeriodicMap, level: int) -> ExtendedMap:
    if level % f.period != 0:
        raise LevelError(f"map period {f.period} does not divide level {level}")
    return ExtendedMap(f, level)


# ---------------------------------------------------------------------------
# kernels


def kernel_of_flow(F: FiniteFlowPresentation):
    """The elements that act trivially on F, as a definable set: nZ with n
    the lcm of the orbit sizes over the integers, the elements whose
    permutation is the identity over a table. The kernel of the action on
    the level space's minimal subflows is `compactify.g00_at_level`."""
    if F.pi is not None:
        return congruence_set(lcm(*map(len, F.orbits)), [0])
    ident = tuple(range(F.size))
    return FiniteSubset(F.ctx, [g for g in F.ctx.elements() if F.action[g] == ident])


# ---------------------------------------------------------------------------
# scenario (de)serialization


def flow_from_json(ctx: Group, obj) -> FiniteFlowPresentation:
    if not isinstance(obj, dict) or "carrier" not in obj:
        raise ValueError("flow spec must be an object with a 'carrier' field")
    size = json_int(obj["carrier"], "flow carrier")
    base = obj.get("base")
    if base is not None:
        base = json_int(base, "flow base")
    if "pi" in obj:
        return FiniteFlowPresentation(ctx, size, pi=json_ints(obj["pi"], "flow pi"), base=base)
    if "action" in obj:
        if not isinstance(obj["action"], list):
            raise ValueError(f"flow action must be a list of rows, got {obj['action']!r}")
        action = [json_ints(row, "flow action row") for row in obj["action"]]
        return FiniteFlowPresentation(ctx, size, action=action, base=base)
    raise ValueError("flow spec needs 'pi' (integers) or 'action' (finite backend)")


def flow_to_json(F: FiniteFlowPresentation):
    obj = {"carrier": F.size}
    if F.pi is not None:
        obj["pi"] = list(F.pi)
    else:
        obj["action"] = [list(row) for row in F.action]
    if F.base is not None:
        obj["base"] = F.base
    return obj
