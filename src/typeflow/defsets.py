"""Canonical algebra of definable subsets of a group backend.

Integer sets are kept in an eventually periodic normal form: a period, the
residue pattern the set eventually matches toward +infinity (``up``) and
toward -infinity (``down``), and an explicit finite window of bits in
between. Each of the three is stored as a Python int used as a bit
vector (bit r is residue r, bit i is the point lo + i), and the integer
kernels (canonicalisation, translation and quotient sets) work on these
ints: a period lift or a window extension is a rotation followed by
doubling shifts, a minimal period is a rotation test, and window trimming
reads ``bit_length``. Finite group subsets are bitmasks. The Boolean
algebra has one lift, ``_frame``: sets of one backend lift to plain ints
in a common frame, where union, intersection and complement are single
bit operations. Product sets are stored as a column decomposition into
disjoint left-hand classes with distinct fibers. Every constructor
canonicalizes, so structural equality decides set equality, and all
operations are pure.

Product backends carry only the rectangle algebra (finite unions of
rectangles), a proper subalgebra of all definable subsets of the product
structure; verdicts over products are relative to it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, product
from math import lcm

from .groups import (
    BackendMismatch,
    INTEGERS,
    FiniteGroup,
    Group,
    IntegerGroup,
    ProductGroup,
)


@lru_cache(maxsize=256)
def _prime_divisors(n: int) -> tuple[int, ...]:
    """The distinct primes dividing n in increasing order, by trial division."""
    primes = []
    q = 2
    while q * q <= n:
        if n % q == 0:
            primes.append(q)
            while n % q == 0:
                n //= q
        q += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


# ---------------------------------------------------------------------------
# bit-vector kernels: a mask is a Python int, bit i standing for residue i
# of a pattern or for the point lo + i of a window

_TO_ASCII = bytes.maketrans(b"\x00\x01", b"01")
_TO_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def _mask_of_flags(flags) -> int:
    """The mask whose bit i is flags[i], for a bytes-like of 0s and 1s."""
    return int(flags[::-1].translate(_TO_ASCII), 2) if flags else 0


def _flags_of_mask(mask: int, width: int) -> bytes:
    """Inverse of ``_mask_of_flags``: byte i is bit i of a width-bit mask."""
    if width <= 0:
        return b""
    return format(mask, f"0{width}b").encode()[::-1].translate(_TO_FLAGS)


def _reversed_mask(mask: int, width: int) -> int:
    """Bit i of the result is bit width - 1 - i of the mask."""
    return int(format(mask, f"0{width}b")[::-1], 2) if width > 0 else 0


def _rotate(mask: int, shift: int, period: int) -> int:
    """Bit i of the result is bit (i + shift) mod period of a period-bit mask."""
    return (mask >> shift | mask << (period - shift)) & ((1 << period) - 1)


def _extend(mask: int, period: int, start: int, width: int) -> int:
    """Read a period-bit pattern over [start, start + width).

    Bit i of the result is bit (start + i) mod period of the mask: the
    mask is rotated once, then doubled with ``x |= x << w``, so the cost is
    linear in the width.
    """
    if width <= 0:
        return 0
    x = _rotate(mask, start % period, period)
    filled = period
    while filled < width:
        x |= x << filled
        filled <<= 1
    return x & ((1 << width) - 1)


def _lowest_bit(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


class _Mask:
    """A pattern or a window already packed into a mask.

    The kernels pass their results to ``IntegerSet`` in this form, so that
    they are canonicalised without being unpacked first. ``len`` is the
    width, as it is for a tuple of bits.
    """

    __slots__ = ("value", "width")

    def __init__(self, value: int, width: int):
        self.value = value
        self.width = width

    def __len__(self) -> int:
        return self.width


def _pattern(residues, period: int) -> _Mask:
    """Residues that are exact ints, packed into a period-bit pattern."""
    flags = bytearray(period)
    for r in residues:
        flags[r % period] = 1
    return _Mask(_mask_of_flags(flags), period)


def _residue_mask(residues, period: int) -> int:
    if isinstance(residues, _Mask):
        return residues.value
    residues = tuple(residues)
    for r in residues:
        if type(r) is not int:
            raise TypeError(f"residues must be ints, got {r!r}")
    return _pattern(residues, period).value


def _canonical_form(period, up, down, lo, hi, window):
    """Reduce to the unique normal form: minimal period, minimal window.

    ``up`` and ``down`` are period-bit masks and ``window`` is the mask of
    the bits over [lo, hi]. The minimal period is the least divisor d0 of
    the period such that rotating both patterns by d0 leaves them
    unchanged. It is found by prime descent: start at d = period and, for
    each prime q dividing the period in turn, replace d by d/q as long as q
    divides d and rotating both masks by d/q leaves them unchanged.

    This is exact. The rotations that fix both masks form a subgroup of
    Z/period, generated by d0, so rotating by a divisor e of the period
    fixes both masks exactly when d0 divides e. Every step keeps d0 | d.
    Once the test for q fails at some d, it fails at every later d' = d/m
    with q not dividing m: d0 | d'/q would give d0 | d/q. So if the final
    d were not d0, some prime q of d/d0 would divide the period, and
    d0 | d/q would have passed q's test, a contradiction.

    The window is the least interval outside of which membership agrees
    with the eventual patterns: its top is the highest point whose bit
    disagrees with ``up``, its bottom the lowest one that disagrees with
    ``down``. When that interval is empty the boundary still matters
    (above it ``up`` rules, below it ``down`` rules); the canonical
    boundary is the least valid one. A set that agrees with a single
    two-sided pattern everywhere gets the fixed empty window (0, -1).
    """
    d = period
    for q in _prime_divisors(period):
        while d % q == 0:
            e = d // q
            if _rotate(up, e, period) != up or _rotate(down, e, period) != down:
                break
            d = e
    if d < period:
        up &= (1 << d) - 1
        down &= (1 << d) - 1
        period = d

    width = hi - lo + 1
    up_disagree = window ^ _extend(up, period, lo, width)
    down_disagree = window ^ _extend(down, period, lo, width)
    if not up_disagree and up == down:
        return period, up, down, 0, -1, 0

    if up_disagree:
        new_hi = lo + up_disagree.bit_length() - 1
    else:
        new_hi = lo - period - 1 + _extend(up ^ down, period, lo - period, period).bit_length()
    if down_disagree:
        new_lo = lo + _lowest_bit(down_disagree)
    else:
        new_lo = hi + 1 + _lowest_bit(_extend(up ^ down, period, hi + 1, period))

    if new_lo > new_hi:
        return period, up, down, new_hi + 1, new_hi, 0
    return period, up, down, new_lo, new_hi, window >> (new_lo - lo) & ((1 << (new_hi - new_lo + 1)) - 1)


def _residues(mask: int, period: int) -> tuple:
    """The residues whose bits are set in a period-bit mask, ascending.

    A mask with fewer than one set bit in 32 is walked set bit by set bit,
    so that n classes of one residue each print in time linear in n; a
    denser one is read in one pass over its flags, which is faster there.
    """
    if mask.bit_count() * 32 < period:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return tuple(out)
    return tuple(compress(range(period), _flags_of_mask(mask, period)))


class IntegerSet:
    """Eventually periodic subset of the integers in canonical normal form.

    Semantics: for x above the window membership is ``x % period in up``,
    below the window it is ``x % period in down``, inside the window the
    stored bits decide. Two IntegerSets are equal as objects exactly when
    they are equal as sets.

    The set is stored as masks: bit r of ``up_mask`` and ``down_mask`` is
    residue r, bit i of ``window_mask`` is the point lo + i. ``up`` and
    ``down`` (frozensets of residues) and ``bits`` (a tuple of bools, one
    per point of [lo, hi]) are read-only views built from them on access.
    The period, lo, hi and every residue must be exact ints (a bool, float
    or string raises ``TypeError``); window bits are read as truth values.
    """

    __slots__ = ("period", "lo", "hi", "up_mask", "down_mask", "window_mask")
    group = INTEGERS

    def __init__(self, period, up=(), down=(), lo=0, hi=-1, bits=_Mask(0, 0)):
        if not (type(period) is int and type(lo) is int and type(hi) is int):
            raise TypeError(f"period, lo and hi must be ints, got {period!r}, {lo!r} and {hi!r}")
        if period < 1:
            raise ValueError("period must be at least 1")
        if not isinstance(bits, _Mask):
            flags = bytes(map(bool, bits))
            bits = _Mask(_mask_of_flags(flags), len(flags))
        if len(bits) != hi - lo + 1:
            raise ValueError("window bits do not match window bounds")
        period, up_mask, down_mask, lo, hi, window_mask = _canonical_form(
            period, _residue_mask(up, period), _residue_mask(down, period), lo, hi, bits.value
        )
        self.period = period
        self.lo = lo
        self.hi = hi
        self.up_mask = up_mask
        self.down_mask = down_mask
        self.window_mask = window_mask

    up = property(lambda self: frozenset(_residues(self.up_mask, self.period)))
    down = property(lambda self: frozenset(_residues(self.down_mask, self.period)))
    bits = property(lambda self: tuple(map(bool, self._flags())))

    def _flags(self) -> bytes:
        return _flags_of_mask(self.window_mask, self.hi - self.lo + 1)

    def member(self, x: int) -> bool:
        if x > self.hi:
            return bool(self.up_mask >> x % self.period & 1)
        if x < self.lo:
            return bool(self.down_mask >> x % self.period & 1)
        return bool(self.window_mask >> x - self.lo & 1)

    @property
    def is_empty(self) -> bool:
        return not (self.up_mask or self.down_mask or self.window_mask)

    def window_elements(self) -> list[int]:
        return list(compress(range(self.lo, self.hi + 1), self._flags()))

    def up_start(self, r: int) -> int:
        """Least element above the window congruent to r (r must be in up)."""
        x = self.hi + 1
        return x + (r - x) % self.period

    def down_start(self, r: int) -> int:
        """Greatest element below the window congruent to r (r must be in down)."""
        x = self.lo - 1
        return x - (x - r) % self.period

    def _key(self):
        # the window as bytes of 0s and 1s orders as the tuple of bools does
        p = self.period
        return (p, _residues(self.up_mask, p), _residues(self.down_mask, p), self.lo, self.hi, self._flags())

    def _masks(self):
        return (self.period, self.lo, self.hi, self.up_mask, self.down_mask, self.window_mask)

    def __eq__(self, other):
        return isinstance(other, IntegerSet) and self._masks() == other._masks()

    def __hash__(self):
        return hash(self._masks())

    def __repr__(self):
        return (
            f"IntegerSet(period={self.period}, up={sorted(self.up)}, down={sorted(self.down)}, "
            f"window=[{self.lo},{self.hi}]:{''.join('1' if b else '0' for b in self.bits)})"
        )


class FiniteSubset:
    """Subset of a finite group backend, stored as a bitmask."""

    __slots__ = ("group", "mask")

    def __init__(self, group: FiniteGroup, elements=(), mask: int | None = None):
        if not isinstance(group, FiniteGroup):
            raise BackendMismatch("FiniteSubset needs a finite group context")
        if mask is None:
            mask = 0
            for e in elements:
                group.check_element(e)
                mask |= 1 << e
        if mask < 0 or mask >> group.order:
            raise ValueError("mask has bits outside the group")
        self.group = group
        self.mask = mask

    def member(self, x) -> bool:
        self.group.check_element(x)
        return bool(self.mask >> x & 1)

    def elements(self) -> list[int]:
        return [e for e in range(self.group.order) if self.mask >> e & 1]

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def _key(self):
        return self.mask

    def __eq__(self, other):
        return isinstance(other, FiniteSubset) and self.group == other.group and self.mask == other.mask

    def __hash__(self):
        return hash((self.group, self.mask))

    def __repr__(self):
        return f"FiniteSubset({self.group.name}, {self.elements()})"


class RectangleSet:
    """Finite union of rectangles over a product backend.

    Canonical form is the column decomposition: the left axis is split into
    the level sets of the fiber map x -> {y : (x, y) in Y}, each paired with
    its (distinct, nonempty) fiber. Columns are disjoint and sorted, so
    structural equality again decides set equality within the rectangle
    algebra.

    The columns come from one pass over the nonempty rectangles (a, b) on
    plain ints, in one bit frame per axis (see ``_frame``). It keeps the
    columns so far keyed by fiber, and the union of their left sets. Each
    column splits into its part inside a, whose fiber becomes fiber | b,
    and its part outside a, which keeps its fiber; the part of a that no
    column covers yet joins fiber b. Equal fibers merge on the spot, so
    columns stay disjoint and fibers distinct. For k rectangles it costs k
    lifts per axis, about 3·k bit operations per column, and one canonical
    build per final column and fiber.
    """

    __slots__ = ("group", "columns")

    def __init__(self, group: ProductGroup, rectangles):
        if not isinstance(group, ProductGroup):
            raise BackendMismatch("RectangleSet needs a product context")
        rects = []
        for a, b in rectangles:
            _check_backend(group.left, a)
            _check_backend(group.right, b)
            if not (a.is_empty or b.is_empty):
                rects.append((a, b))
        lift, _, build_column = _frame(group.left, [a for a, _ in rects])
        lift_right, _, build_fiber = _frame(group.right, [b for _, b in rects])
        by_fiber, covered = {}, 0
        for a, b in rects:
            a, b = lift(a), lift_right(b)
            split = {}
            for fib, col in by_fiber.items():
                inside = col & a
                for part, f in ((inside, fib | b), (col ^ inside, fib)):
                    if part:
                        split[f] = split.get(f, 0) | part
            fresh = a & ~covered
            if fresh:
                split[b] = split.get(b, 0) | fresh
            by_fiber, covered = split, covered | a
        self.group = group
        self.columns = tuple(
            sorted(
                ((build_column(col), build_fiber(fib)) for fib, col in by_fiber.items()),
                key=lambda cf: cf[0]._key(),
            )
        )

    def member(self, x) -> bool:
        self.group.check_element(x)
        for col, fib in self.columns:
            if member(col, x[0]):
                return member(fib, x[1])
        return False

    @property
    def is_empty(self) -> bool:
        return not self.columns

    def __eq__(self, other):
        return (
            isinstance(other, RectangleSet)
            and self.group == other.group
            and self.columns == other.columns
        )

    def __hash__(self):
        return hash((self.group, self.columns))

    def __repr__(self):
        return f"RectangleSet({len(self.columns)} columns)"


# ---------------------------------------------------------------------------
# generic dispatch helpers


_SET_KINDS = (IntegerSet, FiniteSubset, RectangleSet)


def _check_backend(ctx: Group, Y):
    if not (isinstance(Y, _SET_KINDS) and Y.group == ctx):
        raise BackendMismatch(f"{Y!r} is not a set of {ctx!r}")


def _same_backend(A, B):
    if not (isinstance(A, _SET_KINDS) and isinstance(B, _SET_KINDS) and A.group == B.group):
        raise BackendMismatch("operands live over different backends")


def member(Y, x) -> bool:
    return Y.member(x)


def empty_set(ctx: Group):
    if isinstance(ctx, ProductGroup):
        return RectangleSet(ctx, [])
    _, _, build = _frame(ctx, ())
    return build(0)


def full_set(ctx: Group):
    if isinstance(ctx, ProductGroup):
        return RectangleSet(ctx, [(full_set(ctx.left), full_set(ctx.right))])
    _, full, build = _frame(ctx, ())
    return build(full)


def congruence_set(modulus: int, residues) -> IntegerSet:
    """The set of integers congruent to one of the residues.

    The modulus and every residue must be exact ints, as in `IntegerSet`."""
    if type(modulus) is not int:
        raise TypeError(f"modulus must be an int, got {modulus!r}")
    if modulus < 1:
        raise ValueError("period must be at least 1")
    mask = 0
    for r in residues:
        if type(r) is not int:
            raise TypeError(f"residues must be ints, got {r!r}")
        mask |= 1 << r % modulus
    pattern = _Mask(mask, modulus)
    return IntegerSet(modulus, up=pattern, down=pattern)


def integer_ray(sign: int, bound: int) -> IntegerSet:
    """{x : x >= bound} for sign +1, {x : x <= bound} for sign -1."""
    if sign > 0:
        return IntegerSet(1, up=[0], lo=bound, hi=bound - 1)
    return IntegerSet(1, down=[0], lo=bound + 1, hi=bound)


# Reading a set packs its residues into a flag table as long as its period,
# and a list into one as long as its span. A period or span over this bound
# is refused with OverflowError before any table is allocated.
READ_BOUND = 1 << 24


def integers_from(elems) -> IntegerSet:
    """Finite set of integers; every element must be an exact int.

    Its span, max - min + 1, is bounded as a read is (see `READ_BOUND`)."""
    elems = list(elems)
    if set(map(type, elems)) - {int}:
        bad = next(x for x in elems if type(x) is not int)
        raise TypeError(f"elements must be ints, got {bad!r}")
    if not elems:
        return IntegerSet(1)
    lo, hi = min(elems), max(elems)
    width = hi - lo + 1
    if width > READ_BOUND:
        raise OverflowError(f"integer set list spans {width} points, over the bound of {READ_BOUND}")
    flags = bytearray(width)
    for x in elems:
        flags[x - lo] = 1
    return IntegerSet(1, lo=lo, hi=hi, bits=_Mask(_mask_of_flags(flags), width))


_MASK = operator.attrgetter("mask")


def _read(a: IntegerSet, lo: int, width: int) -> int:
    """a's membership over [lo, lo + width) as a mask, bit i for the point lo + i.

    The range must hold a's window: below it a reads its down pattern, and
    above it its up pattern.
    """
    p, below, above = a.period, a.lo - lo, a.hi + 1 - lo
    window = _extend(a.down_mask, p, lo, below) | a.window_mask << below
    return window | _extend(a.up_mask, p, a.hi + 1, width - above) << above


def _frame(axis: Group, sets):
    """One bit frame for sets of one backend: (lift, full, build).

    The frame is the one lift of the Boolean algebra: union, intersection,
    complement and rectangle refinement are bit operations on lifts.
    ``lift`` maps each of the sets to a plain int, ``full`` is the lift of
    the whole backend and ``build`` turns a lift back into a canonical set.
    On a finite group the lift is the set's mask. On the integers the frame
    is the period L, the lcm of the sets' periods, and the window [lo, hi],
    from their least lo to their greatest hi. A set lifts to the triple
    (up, down, window): its up and down patterns read at period L and its
    membership over the window, packed as up | down << L | window << 2L.

    Within one frame the triple determines the set: a point x above hi
    reads up at x mod L, a point inside the window reads the window, and a
    point below lo reads down at x mod L, and every bit is read by some
    point. So bit operations on lifts are the Boolean operations on the
    sets, a lift is 0 exactly when its set is empty, and two lifts are
    equal exactly when their sets are.
    """
    if isinstance(axis, FiniteGroup):
        return _MASK, (1 << axis.order) - 1, lambda m: FiniteSubset(axis, mask=m)
    if not isinstance(axis, IntegerGroup):
        raise BackendMismatch(f"unknown context {axis!r}")
    # a plain loop: min, max and lcm over generators cost more than the bit work
    period, (lo, hi) = 1, (sets[0].lo, sets[0].hi) if sets else (0, -1)
    for a in sets:
        period = lcm(period, a.period)
        lo = a.lo if a.lo < lo else lo
        hi = a.hi if a.hi > hi else hi
    width = hi - lo + 1
    ones = (1 << period) - 1

    def lift(a):
        p = a.period
        return _extend(a.up_mask, p, 0, period) | _extend(a.down_mask, p, 0, period) << period | _read(a, lo, width) << 2 * period

    def build(m):
        window = _Mask(m >> 2 * period, width)
        return IntegerSet(period, _Mask(m & ones, period), _Mask(m >> period & ones, period), lo, hi, window)

    return lift, (1 << 2 * period + width) - 1, build


def union(A, B):
    _same_backend(A, B)
    if isinstance(A, RectangleSet):
        return RectangleSet(A.group, list(A.columns) + list(B.columns))
    lift, _, build = _frame(A.group, (A, B))
    return build(lift(A) | lift(B))


def intersect(A, B):
    _same_backend(A, B)
    if isinstance(A, RectangleSet):
        rects = [(intersect(ca, cb), intersect(fa, fb)) for ca, fa in A.columns for cb, fb in B.columns]
        return RectangleSet(A.group, rects)
    lift, _, build = _frame(A.group, (A, B))
    return build(lift(A) & lift(B))


def complement(A):
    if not isinstance(A, _SET_KINDS):
        raise BackendMismatch(f"not a definable set: {A!r}")
    if isinstance(A, RectangleSet):
        lift, uncovered, build = _frame(A.group.left, [col for col, _ in A.columns])
        for col, _ in A.columns:
            uncovered &= ~lift(col)
        rects = [(col, complement(fib)) for col, fib in A.columns]
        rects.append((build(uncovered), full_set(A.group.right)))
        return RectangleSet(A.group, rects)
    lift, full, build = _frame(A.group, (A,))
    return build(full ^ lift(A))


def boolean_op(kind: str, A, B=None):
    """Single entry point for the Boolean algebra: union, intersection, complement."""
    if kind in ("union", "intersection") and B is None:
        raise ValueError(f"{kind} needs a second set b")
    if kind == "union":
        return union(A, B)
    if kind == "intersection":
        return intersect(A, B)
    if kind == "complement":
        if B is not None:
            raise ValueError("complement is unary")
        return complement(A)
    raise ValueError(f"unknown boolean operation {kind!r}")


def translate(g, Y):
    """Left translate gY = {g . y : y in Y}."""
    if isinstance(Y, IntegerSet):
        if type(g) is not int:
            raise TypeError(f"{g!r} is not an integer, so it cannot translate an integer set")
        shift = -g % Y.period
        return IntegerSet(
            Y.period,
            _Mask(_rotate(Y.up_mask, shift, Y.period), Y.period),
            _Mask(_rotate(Y.down_mask, shift, Y.period), Y.period),
            Y.lo + g,
            Y.hi + g,
            _Mask(Y.window_mask, Y.hi - Y.lo + 1),
        )
    if isinstance(Y, FiniteSubset):
        grp = Y.group
        grp.check_element(g)
        return FiniteSubset(grp, elements=[grp.table[g][y] for y in Y.elements()])
    if isinstance(Y, RectangleSet):
        Y.group.check_element(g)
        return RectangleSet(
            Y.group,
            [(translate(g[0], col), translate(g[1], fib)) for col, fib in Y.columns],
        )
    raise BackendMismatch(f"not a definable set: {Y!r}")


def right_translate(g, Y):
    """Right translate Yg = {y . g : y in Y}; on the abelian integers it is gY."""
    if isinstance(Y, FiniteSubset):
        grp = Y.group
        grp.check_element(g)
        return FiniteSubset(grp, elements=[grp.table[y][g] for y in Y.elements()])
    if isinstance(Y, RectangleSet):
        Y.group.check_element(g)
        return RectangleSet(
            Y.group,
            [(right_translate(g[0], col), right_translate(g[1], fib)) for col, fib in Y.columns],
        )
    return translate(g, Y)


# ---------------------------------------------------------------------------
# quotient sets A . B^{-1}


def _integer_quotient(A: IntegerSet, B: IntegerSet) -> IntegerSet:
    """Exact {a - b : a in A, b in B} for eventually periodic sets.

    Let P be the lcm of the periods and D the difference set. Above
    A.hi - B.lo + P, D is P-periodic: if t = a - b lies there, a is above
    A's window or b is more than P below B's, and a + P or b - P gives
    t + P; if t + P = a - b does, a is more than P above A's window or b
    more than P below B's, and a - P or b + P gives t. Below
    A.lo - B.hi - P the same holds with the sides swapped.

    On [lo, hi] = [A.lo - B.hi - 2P, A.hi - B.lo + 2P] every t in D is some
    a - b with b within P of B's window or a within P of A's window: if
    both lie further out on the same side, shifting both by P toward their
    windows keeps t, and if they lie on opposite sides, t falls outside
    [lo, hi]. So D over [lo, hi] is the OR of A's membership shifted by
    each such b and of B's reversed membership shifted by each such a, and
    its outermost P bits on each side are its up and down patterns.
    """
    if A.is_empty or B.is_empty:
        return IntegerSet(1)
    period = lcm(A.period, B.period)
    lo, hi = A.lo - B.hi - 2 * period, A.hi - B.lo + 2 * period
    width = hi - lo + 1
    # b = b0 + k near B's window: bit i of a_read >> k is A at lo + i + b
    b0, b_width = B.lo - period, B.hi - B.lo + 1 + 2 * period
    a_read = _read(A, lo + b0, width + b_width - 1)
    bits = 0
    for k in compress(range(b_width), _flags_of_mask(_read(B, b0, b_width), b_width)):
        bits |= a_read >> k
    # a = a1 - k near A's window: bit i of b_reversed >> k is B at a - (lo + i)
    a1, a_width = A.hi + period, A.hi - A.lo + 1 + 2 * period
    b_span = width + a_width - 1
    b_reversed = _reversed_mask(_read(B, a1 - lo - b_span + 1, b_span), b_span)
    for k in compress(range(a_width), _flags_of_mask(_read(A, a1 - a_width + 1, a_width), a_width)[::-1]):
        bits |= b_reversed >> k
    bits &= (1 << width) - 1
    up = _rotate(bits >> (width - period), -(hi + 1) % period, period)
    down = _rotate(bits & ((1 << period) - 1), -lo % period, period)
    return IntegerSet(period, _Mask(up, period), _Mask(down, period), lo, hi, _Mask(bits, width))


def quotient_set(A, B):
    """The two-sided difference set {a . b^{-1} : a in A, b in B}."""
    _same_backend(A, B)
    if isinstance(A, IntegerSet):
        return _integer_quotient(A, B)
    if isinstance(A, FiniteSubset):
        grp = A.group
        out = set()
        for a in A.elements():
            for b in B.elements():
                out.add(grp.table[a][grp.inverse[b]])
        return FiniteSubset(grp, elements=out)
    rects = []
    for ca, fa in A.columns:
        for cb, fb in B.columns:
            rects.append((quotient_set(ca, cb), quotient_set(fa, fb)))
    return RectangleSet(A.group, rects)


def difference_set(Y):
    """Y . Y^{-1}; empty input yields the empty set."""
    return quotient_set(Y, Y)


# ---------------------------------------------------------------------------
# left genericity: does a finite set of left translates cover the group?


@dataclass(frozen=True)
class GenericityResult:
    generic: bool
    translates: tuple | None = None
    obstruction: str | None = None
    note: str | None = None


def _generic_integers(Y: IntegerSet) -> GenericityResult:
    if Y.is_empty:
        return GenericityResult(False, obstruction="empty set")
    if not Y.up_mask:
        return GenericityResult(False, obstruction="no eventual pattern toward +infinity")
    if not Y.down_mask:
        return GenericityResult(False, obstruction="no eventual pattern toward -infinity")
    p = Y.period
    r = _lowest_bit(Y.up_mask)
    s = _lowest_bit(Y.down_mask)
    y0_candidates = Y.window_elements() + [Y.up_start(r), Y.down_start(s)]
    y0 = min(y0_candidates, key=lambda v: (abs(v), v))
    cert = set()
    for c in range(p):
        t_up = (c - r) % p
        t_dn = (c - s) % p
        cert.add(t_up)
        cert.add(t_dn)
        # points of class c between the two covered tails need point translates
        first = Y.lo + t_dn
        first += (c - first) % p
        cert.update(range(first - y0, Y.hi + t_up + 1 - y0, p))
    return GenericityResult(True, translates=tuple(sorted(cert)))


def _greedy_cover(ctx: Group, elems) -> tuple:
    """Left translates covering a finite group: for each element x not yet
    covered, the translate that moves the least element of elems onto x."""
    if isinstance(ctx, FiniteGroup):
        # read the table: compose would check both elements on every call
        table = ctx.table
        compose = lambda g, h: table[g][h]
    else:
        compose = ctx.compose
    y0_inverse = ctx.invert(min(elems))
    covered = set()
    cert = []
    for x in ctx.elements():
        if x in covered:
            continue
        t = compose(x, y0_inverse)
        cert.append(t)
        covered.update(compose(t, y) for y in elems)
    return tuple(cert)


_PRODUCT_NOTE = "relative to the rectangle algebra"


def _shift_grid(S: IntegerSet, sign: int, bound: int):
    """The period many shifts that push S's tail toward sign (1 or -1) past
    bound, or None if S has no tail there."""
    if not (S.up_mask if sign > 0 else S.down_mask):
        return None
    start = -S.hi - bound - 2 * S.period + 1 if sign > 0 else bound - S.lo + S.period
    return range(start, start + S.period)


def _grid_table(axis: Group, sets) -> dict:
    """One axis's corner sides, each mapped to a function from a set to its
    shift grid on that side (see _shift_grid). On the integers the sides
    are "+" and "-", and the bound lies above every window and period of
    the sets. On a finite axis the side is "." and the grid is every
    element, since columns and fibers are never empty; sets go unused."""
    if axis.is_finite:
        elements = axis.elements()
        return {".": lambda S: elements}
    bound = max((max(abs(S.lo), abs(S.hi), S.period) for S in sets), default=1)
    return {"+": lambda S: _shift_grid(S, 1, bound), "-": lambda S: _shift_grid(S, -1, bound)}


def _generic_product(ctx: ProductGroup, Y: RectangleSet) -> GenericityResult:
    """Cover an infinite product corner by corner, a corner being one side
    per axis. A column with tails on both axes in a corner covers it with
    its shift grid. If no column has both, Y is empty far out in that
    corner and no finite set of translates covers it: the first such
    corner is the obstruction."""
    if Y.is_empty:
        return GenericityResult(False, obstruction="empty set", note=_PRODUCT_NOTE)
    if ctx.is_finite:
        # a product of finite groups is just a finite group; cover greedily
        elems = [(a, b) for col, fib in Y.columns for a in col.elements() for b in fib.elements()]
        return GenericityResult(True, translates=_greedy_cover(ctx, elems), note=_PRODUCT_NOTE)

    sides_x = _grid_table(ctx.left, [col for col, _ in Y.columns])
    sides_y = _grid_table(ctx.right, [fib for _, fib in Y.columns])
    cert = set()
    for sx, grid_x in sides_x.items():
        for sy, grid_y in sides_y.items():
            for col, fib in Y.columns:
                xs, ys = grid_x(col), grid_y(fib)
                if xs and ys:
                    break
            else:
                return GenericityResult(
                    False, obstruction=f"no eventual pattern in corner ({sx},{sy})", note=_PRODUCT_NOTE
                )
            cert.update(product(xs, ys))
    return GenericityResult(True, translates=tuple(sorted(cert)), note=_PRODUCT_NOTE)


def is_left_generic(ctx: Group, Y) -> GenericityResult:
    """Decide whether finitely many left translates of Y cover the group.

    A positive verdict carries an explicit translate list whose union is
    the whole group; a negative one carries the obstruction.
    """
    _check_backend(ctx, Y)
    if isinstance(Y, IntegerSet):
        return _generic_integers(Y)
    if isinstance(Y, RectangleSet):
        return _generic_product(ctx, Y)
    if Y.is_empty:
        return GenericityResult(False, obstruction="empty set")
    return GenericityResult(True, translates=_greedy_cover(ctx, Y.elements()))


def translates_cover(ctx: Group, translates, Y) -> bool:
    """Exact check that the union of the given left translates is the group."""
    total = empty_set(ctx)
    target = full_set(ctx)
    for g in translates:
        total = union(total, translate(g, Y))
        if total == target:
            return True
    return total == target


# ---------------------------------------------------------------------------
# (de)serialization


_NAMED_INTEGER_SETS = {
    "evens": lambda: congruence_set(2, [0]),
    "odds": lambda: congruence_set(2, [1]),
    "all": lambda: IntegerSet(1, up=[0], down=[0]),
    "empty": lambda: IntegerSet(1),
    "nonneg": lambda: integer_ray(1, 0),
    "nonpos": lambda: integer_ray(-1, 0),
}


def json_int(value, field: str) -> int:
    """The value, which must be a JSON integer: no booleans, no floats."""
    if type(value) is not int:
        raise ValueError(f"{field} must be an integer, got {value!r}")
    return value


def _window_flags(bits) -> bytes:
    """JSON window bits, which must be a list of 0, 1, true or false, as
    one byte of 0 or 1 each."""
    if isinstance(bits, list):
        try:
            flags = bytes(bits)
        except (TypeError, ValueError):
            pass
        else:
            if not flags.translate(None, b"\x00\x01"):
                return flags
    raise ValueError(f"integer set window bits must be a list of 0, 1, true or false, got {bits!r}")


def json_ints(values, field: str) -> list:
    """The value, which must be a JSON list of integers."""
    if not isinstance(values, list):
        raise ValueError(f"{field} must be a list of integers, got {values!r}")
    if set(map(type, values)) - {int}:
        bad = next(v for v in values if type(v) is not int)
        raise ValueError(f"{field} must be integers, got {bad!r}")
    return values


def set_from_json(ctx: Group, obj):
    """Parse the scenario syntax for definable sets."""
    if isinstance(ctx, IntegerGroup):
        if isinstance(obj, str):
            if obj in _NAMED_INTEGER_SETS:
                return _NAMED_INTEGER_SETS[obj]()
            raise ValueError(f"unknown named set {obj!r}")
        if isinstance(obj, list):
            try:
                return integers_from(obj)
            except TypeError:
                # only a non-int element raises it: check again for the reader's message
                json_ints(obj, "integer set list elements")
                raise
        if isinstance(obj, dict):
            # each value is checked once, and the order of the checks decides
            # which message a set with several faults gets; the checked
            # values reach the constructor packed into masks
            window = obj.get("window", {})
            if not isinstance(window, dict):
                raise ValueError(f"integer set window must be an object, got {window!r}")
            flags = _window_flags(window.get("bits", []))
            period = json_int(obj.get("mod", 1), "integer set mod")
            up = json_ints(obj.get("up", []), "integer set up residues")
            down = json_ints(obj.get("down", []), "integer set down residues")
            lo = json_int(window.get("lo", 0), "integer set window lo")
            hi = json_int(window.get("hi", -1), "integer set window hi")
            if period < 1:
                raise ValueError("period must be at least 1")
            if len(flags) != hi - lo + 1:
                raise ValueError("window bits do not match window bounds")
            if period > READ_BOUND:
                raise OverflowError(f"integer set mod {period} is over the bound of {READ_BOUND}")
            window_mask = _Mask(_mask_of_flags(flags), len(flags))
            return IntegerSet(period, _pattern(up, period), _pattern(down, period), lo, hi, window_mask)
        raise ValueError(f"cannot parse integer set from {obj!r}")
    if isinstance(ctx, FiniteGroup):
        if isinstance(obj, list):
            return FiniteSubset(ctx, elements=obj)
        if isinstance(obj, dict) and "elements" in obj:
            return FiniteSubset(ctx, elements=obj["elements"])
        raise ValueError(f"cannot parse finite subset from {obj!r}")
    if isinstance(ctx, ProductGroup):
        if isinstance(obj, dict) and "rectangles" in obj:
            pairs = obj["rectangles"]
            if not (isinstance(pairs, list) and all(isinstance(p, list) and len(p) == 2 for p in pairs)):
                raise ValueError(f"rectangles must be a list of [left, right] pairs, got {pairs!r}")
            rects = [
                (set_from_json(ctx.left, a), set_from_json(ctx.right, b))
                for a, b in pairs
            ]
            return RectangleSet(ctx, rects)
        raise ValueError(f"cannot parse product set from {obj!r}")
    raise BackendMismatch(f"unknown context {ctx!r}")


def set_to_json(Y):
    if isinstance(Y, IntegerSet):
        return {
            "mod": Y.period,
            "up": list(_residues(Y.up_mask, Y.period)),
            "down": list(_residues(Y.down_mask, Y.period)),
            "window": {"lo": Y.lo, "hi": Y.hi, "bits": list(Y._flags())},
        }
    if isinstance(Y, FiniteSubset):
        return {"elements": Y.elements()}
    if isinstance(Y, RectangleSet):
        return {
            "rectangles": [[set_to_json(c), set_to_json(f)] for c, f in Y.columns]
        }
    raise TypeError(f"not a definable set: {Y!r}")
