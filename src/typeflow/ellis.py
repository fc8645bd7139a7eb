"""The semigroup product on level type spaces.

The product p * q is the type of a product a . b where b realizes q far
beyond everything relevant to a realizing p. Two independent computations
are provided: the closed-form right-dominant rule (`star`) and the
defining-schema route (`star_via_schema`), which answers membership
questions through acting sets. They must agree everywhere; the equality is
the executable form of the duality between the two canonical type
extensions.
"""

from __future__ import annotations

from math import gcd

from .defsets import IntegerSet, _Mask, congruence_set, integer_ray
from .groups import BackendMismatch, Group, IntegerGroup
from .typespace import Limit, _interned, acting_set, contains, minimal_part


_LIMIT_PRODUCT_BACKENDS = "the semigroup product on limit points is provided for the integer backend"


def _product_level(ctx: Group, p, q) -> int:
    """The level at which p * q is determined when p or q is a limit point.

    A realized factor is exact, so the product keeps the limit factor's
    level; it must be an element of ctx, as the group law requires
    of two realized factors. Limit points at levels m and n fix a + b only
    modulo gcd(m, n), so no result is finer than an input.
    """
    if not isinstance(ctx, IntegerGroup):
        raise BackendMismatch(_LIMIT_PRODUCT_BACKENDS)
    if not isinstance(p, Limit):
        ctx.check_element(p)
        return q.modulus
    if not isinstance(q, Limit):
        ctx.check_element(q)
        return p.modulus
    return gcd(p.modulus, q.modulus)


def star(ctx: Group, p, q):
    """The semigroup product p * q, closed form.

    Realized points multiply by the group law, a realized left factor acts
    on the right factor, and between limit points the right factor's
    direction wins while residues add. The rule extends the group action
    and is continuous in the left argument. The result lies at
    `_product_level`: the limit factor's own level, or gcd(levels).

    Two limit points, the case of every hot caller, are tested first. At
    equal levels no gcd is taken, and the result is read from the right
    factor's circle, or from the intern table when it has none, as
    `Limit(...)` would return it.
    """
    if p.__class__ is Limit is q.__class__:
        if not isinstance(ctx, IntegerGroup):
            raise BackendMismatch(_LIMIT_PRODUCT_BACKENDS)
        level = p.modulus
        if q.modulus != level:
            level = gcd(level, q.modulus)
        elif q._circle is not None:
            return q._circle[(p.residue + q.residue) % level]
        key = (q.sign, (p.residue + q.residue) % level, level)
        return _interned(key) or Limit(*key)
    if not isinstance(p, Limit) and not isinstance(q, Limit):
        return ctx.compose(p, q)
    level = _product_level(ctx, p, q)
    if not isinstance(p, Limit):
        return Limit(q.sign, (p + q.residue) % level, level)
    return Limit(p.sign, (p.residue + q) % level, level)


def _bit_class(level: int, j: int) -> IntegerSet:
    """{x : bit j of (x mod level) is 1}, built from its residue mask.

    Over residues the bit is 1 on the upper half of each block of 2^(j+1),
    so the mask is that block repeated and cut to `level` bits.
    """
    half = 1 << j
    width = half << 1
    blocks = -(-level // width)
    repeat = ((1 << width * blocks) - 1) // ((1 << width) - 1)
    pattern = _Mask((((1 << half) - 1) << half) * repeat & ((1 << level) - 1), level)
    return IntegerSet(level, up=pattern, down=pattern)


def star_via_schema(ctx: Group, p, q):
    """The semigroup product computed through defining schemas.

    Membership of Y in p * q is decided as: the acting set of q for Y
    belongs to p. The result point at `_product_level` is read off
    ceil(log2 level) + 3 probe sets, so this path exercises acting sets and
    membership instead of the closed form: a half line gives the sign, and
    the classes {x : bit j of (x mod level) is 1} give the residue r in
    binary. Two more probes confirm it: the class of r belongs to p * q
    and its complement does not; if either fails, the probes do not
    describe a point and `AssertionError` is raised.
    """
    if not isinstance(p, Limit) and not isinstance(q, Limit):
        # both factors realized: the product is realized by the group law
        return ctx.compose(p, q)
    level = _product_level(ctx, p, q)

    def holds(Y) -> bool:
        return contains(p, acting_set(ctx, q, Y))

    sign = 1 if holds(integer_ray(1, 0)) else -1
    r = 0
    for j in range((level - 1).bit_length()):
        if holds(_bit_class(level, j)):
            r |= 1 << j
    if r >= level or not holds(congruence_set(level, [r])):
        raise AssertionError(f"schema probes select residue {r}, whose class is not in the product")
    rest = _Mask(((1 << level) - 1) ^ (1 << r), level)
    if holds(IntegerSet(level, up=rest, down=rest)):
        raise AssertionError(f"schema probes put residue {r} and its complement in the product")
    return Limit(sign, r, level)


def find_idempotents(ctx: Group, level: int) -> list:
    """All points p of the minimal part with p * p = p, by brute force.

    Over the integers the minimal part is the limit part; over a finite
    backend it is the group itself, whose only idempotent is the identity.
    """
    return [p for p in minimal_part(ctx, level) if star(ctx, p, p) == p]
