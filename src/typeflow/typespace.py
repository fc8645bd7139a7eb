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
# exact ints. Written only by `Limit.__new__`. A write that takes it past
# _LIMITS_CAP points clears it, so between constructor calls it never holds
# more, even when threads build points at once. It is cleared in place and
# never rebound, so `_interned`, its bound `get`, always reads the live table.
# The readers are `Limit.__new__` and the level-point kernels `apply_group`,
# `limit_points` and `ellis.star`, which look up an exact-int result directly
# and call `Limit(...)` only on a miss or for other field types. `apply_group`
# and same-level `star` read the table only for a point without a circle
# (see `Limit`).
_LIMITS: dict = {}
_LIMITS_CAP = 1 << 16
_interned = _LIMITS.get


class Limit:
    """A nonrealized complete type at a level: sign direction and residue.

    A value: its fields are never assigned after construction, and the
    hash of ``(sign, residue, modulus)`` is computed in the constructor.

    The three fields must be exact ints: a bool, float or any other type
    raises ``TypeError`` before the intern table is read, since ``True``
    and ``6.0`` hash and compare equal to the ints 1 and 6. Limit points
    are interned: each is built once and then shared, so
    ``Limit(1, 5, 120)`` returns the same object to every caller and a set
    of points matches a product by identity before it calls `__eq__`.
    Interning is only a fast path: equality and hashing stay by value, so
    a point built while the bounded table was full or just cleared still
    equals its interned twin.

    A point may also know its circle: ``_circle`` is ``None`` from the
    constructor, and `limit_points` sets it on every point it returns to
    the tuple of that point's sign circle, residues ascending. It takes no
    part in equality or hashing. `apply_group` and same-level `star` index
    it instead of the intern table. A circle that outlives a clear of the
    table still holds points equal to the interned ones, so the kernels
    answer the same values. Two threads that set a circle at once write
    equal tuples, so either write may win.
    """

    __slots__ = ("sign", "residue", "modulus", "_hash", "_circle")

    def __new__(cls, sign: int, residue: int, modulus: int):
        if not (type(sign) is int and type(residue) is int and type(modulus) is int):
            raise TypeError(f"limit point fields must be ints, got {sign!r}, {residue!r} and {modulus!r}")
        key = (sign, residue, modulus)
        point = _interned(key)
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
        point._hash = hash(key)
        point._circle = None
        _LIMITS[key] = point
        if len(_LIMITS) > _LIMITS_CAP:
            _LIMITS.clear()
        return point

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the constructor
        return (Limit, (self.sign, self.residue, self.modulus))

    def __eq__(self, other):
        if other.__class__ is not Limit:
            return NotImplemented
        return (
            self.residue == other.residue
            and self.sign == other.sign
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

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

    An exact `Limit` moved by an int over the exact integer backend, the
    case of every hot caller, is answered first: the result is read from
    the point's circle, or from the intern table when it has none. Every
    other input takes the checked path below.
    """
    if p.__class__ is Limit and ctx.__class__ is IntegerGroup and g.__class__ is int:
        circle = p._circle
        if circle is not None:
            return circle[(p.residue + g) % p.modulus]
        key = (p.sign, (p.residue + g) % p.modulus, p.modulus)
        return _interned(key) or Limit(*key)
    ctx.check_element(g)
    if not isinstance(p, Limit):
        return ctx.compose(g, p)
    if not isinstance(ctx, IntegerGroup):
        raise BackendMismatch("limit points live over the integers")
    return Limit(p.sign, (p.residue + g) % p.modulus, p.modulus)


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
    backends (see `check_level`). The points are read from the intern
    table, and built only when missing. Each point's circle is set to the
    tuple of its sign circle.
    """
    check_level(ctx, level)
    if isinstance(ctx, FiniteGroup):
        return []
    points = []
    for sign in (1, -1):
        circle = tuple([_interned((sign, r, level)) or Limit(sign, r, level) for r in range(level)])
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
