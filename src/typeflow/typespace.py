"""Complete types over a backend at a finite congruence level.

A type point is either a realized point, which is the group element
itself (an int, or a pair over a product), kept exact and never
quotiented into the level, or a `Limit`: a sign direction together with
a residue class at the level modulus; ``isinstance(p, Limit)`` tells
them apart. Limit points exist only over the integers; finite backends
admit realized points only. The level topology: realized points are
isolated, every subset of the limit part is closed, and a limit point is
the limit of any integer sequence escaping in its direction within its
residue class.
"""

from __future__ import annotations

from .defsets import IntegerSet, _Mask, _rotate, json_int, member, right_translate
from .groups import INTEGERS, BackendMismatch, FiniteGroup, Group, IntegerGroup

# the one message of every level-space task over a backend without type spaces
TYPE_SPACE_BACKENDS = "type spaces are provided for integer and finite backends"


class LevelError(ValueError):
    """Level and set period (or target level) are incompatible."""


# The interned limit points, keyed by their (sign, residue, modulus) tuple of
# exact ints: one object per value for the life of the process. Only
# `Limit.__new__` reads or writes it; it publishes a new point with
# `setdefault`, a single atomic step for a key of ints, so threads that build
# one value at once all get the object published first. Nothing removes an
# entry: a point costs about 210 bytes while the process lives, and
# `limit_points` bounds the level at which whole circles are built
# (LEVEL_BOUND). The level-point kernels index a point's circle when it has
# one and call `Limit(...)` otherwise (see `Limit`).
_LIMITS: dict = {}

# The finest level at which `limit_points` builds the limit part. Built
# points stay in `_LIMITS`, so the 2 * level points at the bound hold about
# 55 MB (tracemalloc) for the rest of the process.
LEVEL_BOUND = 1 << 17


class Limit:
    """A nonrealized complete type at a level: sign direction and residue.

    A value: its fields are never assigned after construction. The three
    fields must be exact ints: a bool, float or any other type raises
    ``TypeError`` before the intern table is read, since ``True`` and
    ``6.0`` hash and compare equal to the ints 1 and 6.

    Limit points are interned exactly: ``Limit(1, 5, 120)`` returns the same
    object to every caller for the life of the process, and no other
    object has those fields. So equality and hashing are by identity, the
    defaults that `object` gives in C, and a set of points finds a product
    without running Python code.

    A point may also know its circle: ``_circle`` is ``None`` from the
    constructor, and `limit_points` sets it, once per level, on every point
    of a sign circle to the tuple of that circle, residues ascending.
    `apply_group` and same-level `star` index it instead of calling the
    constructor. Two threads that build a level's circle at once write
    tuples of the same points, so either write may win.
    """

    __slots__ = ("sign", "residue", "modulus", "_circle")

    def __new__(cls, sign: int, residue: int, modulus: int):
        if not (type(sign) is int and type(residue) is int and type(modulus) is int):
            raise TypeError(f"limit point fields must be ints, got {sign!r}, {residue!r} and {modulus!r}")
        key = (sign, residue, modulus)
        point = _LIMITS.get(key)
        if point is not None:
            return point
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if modulus < 1:
            raise ValueError("modulus must be at least 1")
        if not 0 <= residue < modulus:
            raise ValueError("residue out of range for modulus")
        point = object.__new__(cls)
        point.sign = sign
        point.residue = residue
        point.modulus = modulus
        point._circle = None
        return _LIMITS.setdefault(key, point)

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor
        return (Limit, (self.sign, self.residue, self.modulus))

    def __repr__(self):
        return f"Limit(sign={self.sign!r}, residue={self.residue!r}, modulus={self.modulus!r})"


def point_key(p):
    """Deterministic ordering: + circle first, then residues ascending."""
    if isinstance(p, Limit):
        return (1, 0 if p.sign > 0 else 1, p.residue)
    return (0, p)


def contains(p, Y) -> bool:
    """Does the definable set Y belong to the type p?

    A realized point tests actual membership. A limit point tests the
    eventual residue pattern of Y in its direction, which requires Y's
    period to divide the point's level.
    """
    if not isinstance(p, Limit):
        return member(Y, p)
    if not isinstance(Y, IntegerSet):
        raise BackendMismatch("limit points live over the integers")
    if p.modulus % Y.period != 0:
        raise LevelError(
            f"set period {Y.period} does not divide level {p.modulus}"
        )
    return bool((Y.up_mask if p.sign > 0 else Y.down_mask) >> p.residue % Y.period & 1)


def restrict(p, m: int):
    """Project a type point to a coarser level; m must divide the level."""
    if not isinstance(p, Limit):
        return p
    if p.modulus % m != 0:
        raise LevelError(f"{m} does not divide level {p.modulus}")
    return Limit(p.sign, p.residue % m, m)


def apply_group(ctx: Group, g, p):
    """The group action on type points, a level-preserving bijection.

    An exact int g over the exact integer backend, the case of every hot
    caller, needs no element check. A limit point's image is read from its
    circle, or built by `Limit(...)` when it has none.
    """
    if g.__class__ is not int or ctx.__class__ is not IntegerGroup:
        ctx.check_element(g)
    if not isinstance(p, Limit):
        return ctx.compose(g, p)
    if not isinstance(ctx, IntegerGroup):
        raise BackendMismatch("limit points live over the integers")
    residue = (p.residue + g) % p.modulus
    circle = p._circle
    if circle is not None:
        return circle[residue]
    return Limit(p.sign, residue, p.modulus)


def acting_set(ctx: Group, p, Y):
    """The definable set {g : Y belongs to g.p}.

    This is the executable content of definability of the type p: the
    answer is always a canonical definable set for these backends.
    """
    if not isinstance(p, Limit):
        # g.p is the element g * p, so the condition is g * p in Y
        return right_translate(ctx.invert(p), Y)
    if not isinstance(ctx, IntegerGroup):
        raise BackendMismatch("limit points live over the integers")
    if not isinstance(Y, IntegerSet):
        raise BackendMismatch("expected an integer set")
    if p.modulus % Y.period != 0:
        raise LevelError(f"set period {Y.period} does not divide level {p.modulus}")
    # g is in the set when (p.residue + g) mod period is in the pattern
    mask = Y.up_mask if p.sign > 0 else Y.down_mask
    pattern = _Mask(_rotate(mask, p.residue % Y.period, Y.period), Y.period)
    return IntegerSet(Y.period, up=pattern, down=pattern)


def check_level(ctx: Group, level: int) -> None:
    """Raise unless the backend has a type space at the level: the level
    must be an exact int of at least 1, a finite backend has only the
    trivial level 1, and only integer and finite backends have type spaces."""
    if type(level) is not int:
        raise TypeError(f"level must be an int, got {level!r}")
    if level < 1:
        raise ValueError("level modulus must be at least 1")
    if isinstance(ctx, FiniteGroup):
        if level != 1:
            raise LevelError("finite backends have only the trivial level 1")
    elif not isinstance(ctx, IntegerGroup):
        raise BackendMismatch(TYPE_SPACE_BACKENDS)


def limit_points(ctx: Group, level: int) -> list[Limit]:
    """The limit part of the type space at a congruence level: the + circle,
    then the - circle, residues ascending.

    The limit part is {+,-} x Z/n over the integers and empty over finite
    backends (see `check_level`). A level over LEVEL_BOUND raises
    `ValueError` before any point is built. Each sign circle is built once
    per level: its tuple is stored on every point of it, and a later call
    reads it back from the residue-0 point.
    """
    check_level(ctx, level)
    if level > LEVEL_BOUND:
        raise ValueError(f"level {level} is over the bound of {LEVEL_BOUND}")
    if isinstance(ctx, FiniteGroup):
        return []
    points = []
    for sign in (1, -1):
        circle = Limit(sign, 0, level)._circle
        if circle is None:
            circle = tuple([Limit(sign, r, level) for r in range(level)])
            for p in circle:
                p._circle = circle
        points += circle
    return points


def minimal_part(ctx: Group, level: int) -> list:
    """The union of the minimal subflows at a level, checked as `limit_points`
    checks it: over the integers the limit part (a closed invariant set
    holding a realized point is the whole space). A finite table has no
    limit part; its space is the group acting on itself, one orbit."""
    return limit_points(ctx, level) or list(ctx.elements())


def witness(p: Limit, count: int = 8, start: int = 0) -> list[int]:
    """Terms of a sequence converging to the limit point p.

    The terms are residue + sign * k * modulus for k = start, start + 1, ...;
    they stay in the residue class and escape in the sign direction, hence
    converge in the level topology.
    """
    return [p.residue + p.sign * k * p.modulus for k in range(start, start + count)]


def _stable_on_witnesses(f, points, start: int, count: int) -> bool:
    """Does f take the value f(p) at `count` witness terms of every limit
    point p, from the `start`-th term on? That is continuity of f at p,
    checked on a tail of one sequence converging to p. Values are compared
    as list items are, by identity and then `==`, so they need not be
    hashable."""
    return all([f(a) for a in witness(p, count, start)] == [f(p)] * count for p in points)


def is_closed_invariant(points) -> bool:
    """Is a set of integer level points closed and invariant?

    Every subset of the limit part is closed, so this is invariance under
    the generator 1. A finite set holding a realized point is never
    invariant.
    """
    pts = frozenset(points)
    if not all(isinstance(p, Limit) for p in pts):
        return False
    return {apply_group(INTEGERS, 1, p) for p in pts} <= pts


def point_to_json(p):
    if not isinstance(p, Limit):
        return {"kind": "realized", "value": list(p) if isinstance(p, tuple) else p}
    return {
        "kind": "limit",
        "sign": "+" if p.sign > 0 else "-",
        "res": p.residue,
        "mod": p.modulus,
    }


def point_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("type point must be an object with a 'kind' field")
    if obj["kind"] == "realized":
        value = obj["value"]
        return tuple(value) if isinstance(value, list) else value
    if obj["kind"] == "limit":
        sign = {"+": 1, "-": -1}.get(obj["sign"])
        if sign is None:
            raise ValueError(f"bad sign {obj['sign']!r}")
        return Limit(sign, json_int(obj["res"], "type point res"), json_int(obj["mod"], "type point mod"))
    raise ValueError(f"unknown type point kind {obj['kind']!r}")
