"""Canonical algebra of definable subsets of a group backend.

Integer sets are kept in an eventually periodic normal form: a period, the
residue pattern the set eventually matches toward +infinity (``up``) and
toward -infinity (``down``), and an explicit finite window of bits in
between. Finite group subsets are bitmasks. Product sets are stored as a
column decomposition into disjoint left-hand classes with distinct fibers.
Every constructor canonicalizes, so structural equality decides set
equality, and all operations are pure.

Product backends carry only the rectangle algebra (finite unions of
rectangles), a proper subalgebra of all definable subsets of the product
structure; verdicts over products are relative to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .groups import (
    BackendMismatch,
    FiniteGroup,
    Group,
    IntegerGroup,
    ProductGroup,
)


def _lcm(a: int, b: int) -> int:
    return a * b // gcd(a, b)


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def _canonical_form(period, up, down, lo, hi, bits):
    """Reduce to the unique normal form: minimal period, minimal window.

    The window is the least interval outside of which membership agrees
    with the eventual patterns. When that interval is empty the boundary
    still matters (above it ``up`` rules, below it ``down`` rules); the
    canonical boundary is the least valid one. A set that agrees with a
    single two-sided pattern everywhere gets the fixed empty window (0, -1).
    """
    for d in _divisors(period):
        if all(((r + d) % period in up) == (r in up) for r in range(period)) and all(
            ((r + d) % period in down) == (r in down) for r in range(period)
        ):
            up = frozenset(r % d for r in up)
            down = frozenset(r % d for r in down)
            period = d
            break

    def up_at(x):
        return x % period in up

    def down_at(x):
        return x % period in down

    def mem(x):
        if x > hi:
            return up_at(x)
        if x < lo:
            return down_at(x)
        return bits[x - lo]

    window_up_disagree = [x for x in range(lo, hi + 1) if bits[x - lo] != up_at(x)]
    window_down_disagree = [x for x in range(lo, hi + 1) if bits[x - lo] != down_at(x)]
    patterns_equal = up == down

    if window_up_disagree:
        new_hi = max(window_up_disagree)
    elif patterns_equal:
        new_hi = None
    else:
        new_hi = max(x for x in range(lo - period, lo) if up_at(x) != down_at(x))

    if window_down_disagree:
        new_lo = min(window_down_disagree)
    elif patterns_equal:
        new_lo = None
    else:
        new_lo = min(x for x in range(hi + 1, hi + 1 + period) if up_at(x) != down_at(x))

    if new_hi is None and new_lo is None:
        return period, up, down, 0, -1, ()
    if new_lo <= new_hi:
        final_lo, final_hi = new_lo, new_hi
    else:
        final_lo, final_hi = new_hi + 1, new_hi
    new_bits = tuple(mem(x) for x in range(final_lo, final_hi + 1))
    return period, up, down, final_lo, final_hi, new_bits


class IntegerSet:
    """Eventually periodic subset of the integers in canonical normal form.

    Semantics: for x above the window membership is ``x % period in up``,
    below the window it is ``x % period in down``, inside the window the
    stored bits decide. Two IntegerSets are equal as objects exactly when
    they are equal as sets.
    """

    __slots__ = ("period", "up", "down", "lo", "hi", "bits")

    def __init__(self, period, up=(), down=(), lo=0, hi=-1, bits=()):
        period = int(period)
        if period < 1:
            raise ValueError("period must be at least 1")
        up = frozenset(int(r) % period for r in up)
        down = frozenset(int(r) % period for r in down)
        bits = tuple(bool(b) for b in bits)
        lo, hi = int(lo), int(hi)
        if len(bits) != hi - lo + 1:
            raise ValueError("window bits do not match window bounds")
        period, up, down, lo, hi, bits = _canonical_form(period, up, down, lo, hi, bits)
        self.period = period
        self.up = up
        self.down = down
        self.lo = lo
        self.hi = hi
        self.bits = bits

    def member(self, x: int) -> bool:
        if x > self.hi:
            return x % self.period in self.up
        if x < self.lo:
            return x % self.period in self.down
        return self.bits[x - self.lo]

    def pattern(self, sign: int) -> frozenset:
        """Eventual residue pattern toward +infinity (sign > 0) or -infinity."""
        return self.up if sign > 0 else self.down

    @property
    def is_empty(self) -> bool:
        return not self.up and not self.down and not any(self.bits)

    def window_elements(self) -> list[int]:
        return [x for x in range(self.lo, self.hi + 1) if self.bits[x - self.lo]]

    def up_start(self, r: int) -> int:
        """Least element above the window congruent to r (r must be in up)."""
        x = self.hi + 1
        return x + (r - x) % self.period

    def down_start(self, r: int) -> int:
        """Greatest element below the window congruent to r (r must be in down)."""
        x = self.lo - 1
        return x - (x - r) % self.period

    def _key(self):
        return (self.period, tuple(sorted(self.up)), tuple(sorted(self.down)), self.lo, self.hi, self.bits)

    def __eq__(self, other):
        return isinstance(other, IntegerSet) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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
    """

    __slots__ = ("group", "columns")

    def __init__(self, group: ProductGroup, rectangles):
        if not isinstance(group, ProductGroup):
            raise BackendMismatch("RectangleSet needs a product context")
        rects = [
            (a, b)
            for a, b in rectangles
            if not is_empty(a) and not is_empty(b)
        ]
        for a, b in rects:
            _check_backend(group.left, a)
            _check_backend(group.right, b)
        atoms = [full_set(group.left)]
        for a, _ in rects:
            refined = []
            for atom in atoms:
                inside = intersect(atom, a)
                outside = intersect(atom, complement(a))
                if not is_empty(inside):
                    refined.append(inside)
                if not is_empty(outside):
                    refined.append(outside)
            atoms = refined
        by_fiber = {}
        for atom in atoms:
            fiber = empty_set(group.right)
            for a, b in rects:
                if not is_empty(intersect(atom, a)):
                    fiber = union(fiber, b)
            if is_empty(fiber):
                continue
            key = sort_key(fiber)
            if key in by_fiber:
                col, fib = by_fiber[key]
                by_fiber[key] = (union(col, atom), fib)
            else:
                by_fiber[key] = (atom, fiber)
        self.group = group
        self.columns = tuple(
            sorted(by_fiber.values(), key=lambda cf: sort_key(cf[0]))
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

    def _key(self):
        return tuple((sort_key(c), sort_key(f)) for c, f in self.columns)

    def __eq__(self, other):
        return (
            isinstance(other, RectangleSet)
            and self.group == other.group
            and self._key() == other._key()
        )

    def __hash__(self):
        return hash((self.group, self._key()))

    def __repr__(self):
        return f"RectangleSet({len(self.columns)} columns)"


# ---------------------------------------------------------------------------
# generic dispatch helpers


def _check_backend(ctx: Group, Y):
    if isinstance(ctx, IntegerGroup):
        if not isinstance(Y, IntegerSet):
            raise BackendMismatch(f"expected an IntegerSet, got {type(Y).__name__}")
    elif isinstance(ctx, FiniteGroup):
        if not (isinstance(Y, FiniteSubset) and Y.group == ctx):
            raise BackendMismatch("set does not belong to this finite group")
    elif isinstance(ctx, ProductGroup):
        if not (isinstance(Y, RectangleSet) and Y.group == ctx):
            raise BackendMismatch("set does not belong to this product group")
    else:
        raise BackendMismatch(f"unknown context {ctx!r}")
    return Y


def member(Y, x) -> bool:
    return Y.member(x)


def is_empty(Y) -> bool:
    return Y.is_empty


def empty_set(ctx: Group):
    if isinstance(ctx, IntegerGroup):
        return IntegerSet(1)
    if isinstance(ctx, FiniteGroup):
        return FiniteSubset(ctx, mask=0)
    if isinstance(ctx, ProductGroup):
        return RectangleSet(ctx, [])
    raise BackendMismatch(f"unknown context {ctx!r}")


def full_set(ctx: Group):
    if isinstance(ctx, IntegerGroup):
        return IntegerSet(1, up=[0], down=[0])
    if isinstance(ctx, FiniteGroup):
        return FiniteSubset(ctx, mask=(1 << ctx.order) - 1)
    if isinstance(ctx, ProductGroup):
        return RectangleSet(ctx, [(full_set(ctx.left), full_set(ctx.right))])
    raise BackendMismatch(f"unknown context {ctx!r}")


def congruence_set(modulus: int, residues) -> IntegerSet:
    """The set of integers congruent to one of the residues."""
    rs = set(int(r) % modulus for r in residues)
    return IntegerSet(modulus, up=rs, down=rs)


def integer_ray(sign: int, bound: int) -> IntegerSet:
    """{x : x >= bound} for sign +1, {x : x <= bound} for sign -1."""
    if sign > 0:
        return IntegerSet(1, up=[0], down=(), lo=bound, hi=bound - 1, bits=())
    return IntegerSet(1, up=(), down=[0], lo=bound + 1, hi=bound, bits=())


def integers_from(elems) -> IntegerSet:
    """Finite set of integers."""
    present = set(int(x) for x in elems)
    if not present:
        return IntegerSet(1)
    lo, hi = min(present), max(present)
    bits = [x in present for x in range(lo, hi + 1)]
    return IntegerSet(1, lo=lo, hi=hi, bits=bits)


def _combine_integer(A: IntegerSet, B: IntegerSet, op) -> IntegerSet:
    period = _lcm(A.period, B.period)
    up = [r for r in range(period) if op(r % A.period in A.up, r % B.period in B.up)]
    down = [r for r in range(period) if op(r % A.period in A.down, r % B.period in B.down)]
    lo = min(A.lo, B.lo)
    hi = max(A.hi, B.hi)
    bits = [op(A.member(x), B.member(x)) for x in range(lo, hi + 1)]
    return IntegerSet(period, up=up, down=down, lo=lo, hi=hi, bits=bits)


def union(A, B):
    if isinstance(A, IntegerSet) and isinstance(B, IntegerSet):
        return _combine_integer(A, B, lambda a, b: a or b)
    if isinstance(A, FiniteSubset) and isinstance(B, FiniteSubset) and A.group == B.group:
        return FiniteSubset(A.group, mask=A.mask | B.mask)
    if isinstance(A, RectangleSet) and isinstance(B, RectangleSet) and A.group == B.group:
        return RectangleSet(A.group, list(A.columns) + list(B.columns))
    raise BackendMismatch("operands live over different backends")


def intersect(A, B):
    if isinstance(A, IntegerSet) and isinstance(B, IntegerSet):
        return _combine_integer(A, B, lambda a, b: a and b)
    if isinstance(A, FiniteSubset) and isinstance(B, FiniteSubset) and A.group == B.group:
        return FiniteSubset(A.group, mask=A.mask & B.mask)
    if isinstance(A, RectangleSet) and isinstance(B, RectangleSet) and A.group == B.group:
        rects = []
        for ca, fa in A.columns:
            for cb, fb in B.columns:
                rects.append((intersect(ca, cb), intersect(fa, fb)))
        return RectangleSet(A.group, rects)
    raise BackendMismatch("operands live over different backends")


def complement(A):
    if isinstance(A, IntegerSet):
        return IntegerSet(
            A.period,
            up=[r for r in range(A.period) if r not in A.up],
            down=[r for r in range(A.period) if r not in A.down],
            lo=A.lo,
            hi=A.hi,
            bits=[not b for b in A.bits],
        )
    if isinstance(A, FiniteSubset):
        return FiniteSubset(A.group, mask=((1 << A.group.order) - 1) ^ A.mask)
    if isinstance(A, RectangleSet):
        rects = [(col, complement(fib)) for col, fib in A.columns]
        covered = empty_set(A.group.left)
        for col, _ in A.columns:
            covered = union(covered, col)
        rects.append((complement(covered), full_set(A.group.right)))
        return RectangleSet(A.group, rects)
    raise BackendMismatch(f"not a definable set: {A!r}")


def boolean_op(kind: str, A, B=None):
    """Single entry point for the Boolean algebra: union, intersection, complement."""
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
        g = int(g)
        return IntegerSet(
            Y.period,
            up=[(r + g) % Y.period for r in Y.up],
            down=[(r + g) % Y.period for r in Y.down],
            lo=Y.lo + g,
            hi=Y.hi + g,
            bits=Y.bits,
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
    """Right translate Yg = {y . g : y in Y}."""
    if isinstance(Y, IntegerSet):
        return translate(g, Y)
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
    raise BackendMismatch(f"not a definable set: {Y!r}")


# ---------------------------------------------------------------------------
# quotient sets A . B^{-1}


def _integer_quotient(A: IntegerSet, B: IntegerSet) -> IntegerSet:
    """Exact {a - b : a in A, b in B} for eventually periodic sets.

    A and B decompose exactly into window elements plus one congruence tail
    per eventual residue in each direction. Differences of two same-side
    tails hit every value of a full congruence class; a tail against a
    window element is an exact arithmetic progression ray; opposite tails
    give a class-within-ray whose small end has numerical-semigroup gaps,
    patched below by direct enumeration up to the Frobenius bound.
    """
    if A.is_empty or B.is_empty:
        return IntegerSet(1)
    pa, pb = A.period, B.period
    g = gcd(pa, pb)
    win_a = A.window_elements()
    win_b = B.window_elements()
    fulls = []       # (modulus, residue)
    plus_rays = []   # (modulus, residue, min_value): {t >= min, t = residue mod modulus}
    minus_rays = []  # (modulus, residue, max_value)
    finite = set()

    for r in A.up:
        for r2 in B.up:
            fulls.append((g, (r - r2) % g))
    for s in A.down:
        for s2 in B.down:
            fulls.append((g, (s - s2) % g))

    # opposite tails: gaps below the Frobenius bound are enumerated exactly
    frob = g * (pa // g - 1) * (pb // g - 1)
    for r in A.up:
        a0 = A.up_start(r)
        for s2 in B.down:
            b0 = B.down_start(s2)
            base = a0 - b0
            plus_rays.append((g, (r - s2) % g, base + frob))
            for i in range(frob // pa + 1):
                for j in range(frob // pb + 1):
                    if i * pa + j * pb < frob:
                        finite.add(base + i * pa + j * pb)
    for s in A.down:
        a0 = A.down_start(s)
        for r2 in B.up:
            b0 = B.up_start(r2)
            base = a0 - b0
            minus_rays.append((g, (s - r2) % g, base - frob))
            for i in range(frob // pa + 1):
                for j in range(frob // pb + 1):
                    if i * pa + j * pb < frob:
                        finite.add(base - i * pa - j * pb)

    for w in win_a:
        for r2 in B.up:
            minus_rays.append((pb, (w - r2) % pb, w - B.up_start(r2)))
        for s2 in B.down:
            plus_rays.append((pb, (w - s2) % pb, w - B.down_start(s2)))
        for w2 in win_b:
            finite.add(w - w2)
    for w2 in win_b:
        for r in A.up:
            plus_rays.append((pa, (r - w2) % pa, A.up_start(r) - w2))
        for s in A.down:
            minus_rays.append((pa, (s - w2) % pa, A.down_start(s) - w2))

    period = _lcm(pa, pb)
    marks = [0]
    marks += [v for _, _, v in plus_rays]
    marks += [v for _, _, v in minus_rays]
    marks += list(finite)
    lo = min(marks) - period
    hi = max(marks) + period

    def mem(t):
        for m, c in fulls:
            if t % m == c:
                return True
        for m, c, v in plus_rays:
            if t >= v and t % m == c:
                return True
        for m, c, v in minus_rays:
            if t <= v and t % m == c:
                return True
        return t in finite

    up = [rho for rho in range(period) if any(rho % m == c for m, c in fulls) or any(rho % m == c for m, c, _ in plus_rays)]
    down = [rho for rho in range(period) if any(rho % m == c for m, c in fulls) or any(rho % m == c for m, c, _ in minus_rays)]
    bits = [mem(t) for t in range(lo, hi + 1)]
    return IntegerSet(period, up=up, down=down, lo=lo, hi=hi, bits=bits)


def quotient_set(A, B):
    """The two-sided difference set {a . b^{-1} : a in A, b in B}."""
    if isinstance(A, IntegerSet) and isinstance(B, IntegerSet):
        return _integer_quotient(A, B)
    if isinstance(A, FiniteSubset) and isinstance(B, FiniteSubset) and A.group == B.group:
        grp = A.group
        out = set()
        for a in A.elements():
            for b in B.elements():
                out.add(grp.table[a][grp.inverse[b]])
        return FiniteSubset(grp, elements=out)
    if isinstance(A, RectangleSet) and isinstance(B, RectangleSet) and A.group == B.group:
        rects = []
        for ca, fa in A.columns:
            for cb, fb in B.columns:
                rects.append((quotient_set(ca, cb), quotient_set(fa, fb)))
        return RectangleSet(A.group, rects)
    raise BackendMismatch("operands live over different backends")


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
    if not Y.up:
        return GenericityResult(False, obstruction="no eventual pattern toward +infinity")
    if not Y.down:
        return GenericityResult(False, obstruction="no eventual pattern toward -infinity")
    p = Y.period
    r = min(Y.up)
    s = min(Y.down)
    y0_candidates = Y.window_elements() + [Y.up_start(r), Y.down_start(s)]
    y0 = min(y0_candidates, key=lambda v: (abs(v), v))
    cert = set()
    for c in range(p):
        t_up = (c - r) % p
        t_dn = (c - s) % p
        cert.add(t_up)
        cert.add(t_dn)
        # points of class c between the two covered tails need point translates
        for x in range(Y.lo + t_dn, Y.hi + t_up + 1):
            if x % p == c:
                cert.add(x - y0)
    return GenericityResult(True, translates=tuple(sorted(cert)))


def _generic_finite(ctx: FiniteGroup, Y: FiniteSubset) -> GenericityResult:
    if Y.is_empty:
        return GenericityResult(False, obstruction="empty set")
    elems = Y.elements()
    y0 = elems[0]
    covered = set()
    cert = []
    for x in range(ctx.order):
        if x in covered:
            continue
        t = ctx.table[x][ctx.inverse[y0]]
        cert.append(t)
        covered.update(ctx.table[t][y] for y in elems)
    return GenericityResult(True, translates=tuple(cert))


_PRODUCT_NOTE = "relative to the rectangle algebra"


def _corner_tail(Y: RectangleSet, sx: int, sy: int):
    """An exact rectangle tail of Y in the (sx, sy) corner, or None.

    Returns (px, a, kx, py, b, ky) describing
    {x : sx*x > sx*kx, x = a mod px} x {y : sy*y > sy*ky, y = b mod py}.
    """
    for col, fib in Y.columns:
        pat_x = col.pattern(sx) if isinstance(col, IntegerSet) else (col.elements() or None)
        pat_y = fib.pattern(sy) if isinstance(fib, IntegerSet) else (fib.elements() or None)
        if not pat_x or not pat_y:
            continue
        if isinstance(col, IntegerSet):
            a = min(pat_x)
            px = col.period
            kx = col.hi if sx > 0 else col.lo
        else:
            a, px, kx = min(pat_x), None, None
        if isinstance(fib, IntegerSet):
            b = min(pat_y)
            py = fib.period
            ky = fib.hi if sy > 0 else fib.lo
        else:
            b, py, ky = min(pat_y), None, None
        return (px, a, kx, py, b, ky)
    return None


def _axis_grid(comp: Group, sign: int, period, residue_start, threshold, bound):
    """Translate shifts along one axis that push a tail over one half line.

    For an integer axis: period many consecutive anchors past the bound.
    For a finite axis: one shift per group element.
    """
    if isinstance(comp, FiniteGroup):
        return [comp.compose(h, comp.invert(residue_start)) for h in comp.elements()]
    if sign > 0:
        anchor = -(threshold + bound + period)
        return [anchor - i for i in range(period)]
    anchor = bound - threshold + period
    return [anchor + i for i in range(period)]


def _generic_product(ctx: ProductGroup, Y: RectangleSet) -> GenericityResult:
    if Y.is_empty:
        return GenericityResult(False, obstruction="empty set", note=_PRODUCT_NOTE)
    if ctx.is_finite:
        # a product of finite groups is just a finite group; cover greedily
        elems = [(a, b) for col, fib in Y.columns for a in col.elements() for b in fib.elements()]
        y0 = min(elems)
        covered = set()
        cert = []
        for x in ctx.elements():
            if x in covered:
                continue
            t = ctx.compose(x, ctx.invert(y0))
            cert.append(t)
            covered.update(ctx.compose(t, y) for y in elems)
        return GenericityResult(True, translates=tuple(cert), note=_PRODUCT_NOTE)

    signs_x = [1, -1] if isinstance(ctx.left, IntegerGroup) else [0]
    signs_y = [1, -1] if isinstance(ctx.right, IntegerGroup) else [0]
    corners = {}
    for sx in signs_x:
        for sy in signs_y:
            tail = _corner_tail(Y, sx if sx else 1, sy if sy else 1)
            if tail is None:
                name_x = {1: "+", -1: "-", 0: "."}[sx]
                name_y = {1: "+", -1: "-", 0: "."}[sy]
                return GenericityResult(
                    False,
                    obstruction=f"no eventual pattern in corner ({name_x},{name_y})",
                    note=_PRODUCT_NOTE,
                )
            corners[(sx, sy)] = tail

    def axis_bound(side):
        bound = 1
        for col, fib in Y.columns:
            comp = col if side == 0 else fib
            if isinstance(comp, IntegerSet):
                bound = max(bound, abs(comp.lo), abs(comp.hi), comp.period)
        return bound

    bx = axis_bound(0)
    by = axis_bound(1)
    cert = set()
    for (sx, sy), (px, a, kx, py, b, ky) in corners.items():
        xs = _axis_grid(ctx.left, sx, px, a, kx, bx)
        ys = _axis_grid(ctx.right, sy, py, b, ky, by)
        for u in xs:
            for v in ys:
                cert.add((u, v))
    return GenericityResult(True, translates=tuple(sorted(cert)), note=_PRODUCT_NOTE)


def is_left_generic(ctx: Group, Y) -> GenericityResult:
    """Decide whether finitely many left translates of Y cover the group.

    A positive verdict carries an explicit translate list whose union is
    the whole group; a negative one carries the obstruction.
    """
    _check_backend(ctx, Y)
    if isinstance(ctx, IntegerGroup):
        return _generic_integers(Y)
    if isinstance(ctx, FiniteGroup):
        return _generic_finite(ctx, Y)
    return _generic_product(ctx, Y)


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
# ordering and (de)serialization


def sort_key(Y):
    if isinstance(Y, IntegerSet):
        return (0, Y._key())
    if isinstance(Y, FiniteSubset):
        return (1, Y.mask)
    if isinstance(Y, RectangleSet):
        return (2, Y._key())
    raise TypeError(f"not a definable set: {Y!r}")


_NAMED_INTEGER_SETS = {
    "evens": lambda: congruence_set(2, [0]),
    "odds": lambda: congruence_set(2, [1]),
    "all": lambda: IntegerSet(1, up=[0], down=[0]),
    "empty": lambda: IntegerSet(1),
    "nonneg": lambda: integer_ray(1, 0),
    "nonpos": lambda: integer_ray(-1, 0),
}


def set_from_json(ctx: Group, obj):
    """Parse the scenario syntax for definable sets."""
    if isinstance(ctx, IntegerGroup):
        if isinstance(obj, str):
            if obj in _NAMED_INTEGER_SETS:
                return _NAMED_INTEGER_SETS[obj]()
            raise ValueError(f"unknown named set {obj!r}")
        if isinstance(obj, list):
            return integers_from(obj)
        if isinstance(obj, dict):
            window = obj.get("window", {})
            lo = window.get("lo", 0)
            hi = window.get("hi", -1)
            bits = window.get("bits", [])
            return IntegerSet(
                obj.get("mod", 1),
                up=obj.get("up", []),
                down=obj.get("down", []),
                lo=lo,
                hi=hi,
                bits=bits,
            )
        raise ValueError(f"cannot parse integer set from {obj!r}")
    if isinstance(ctx, FiniteGroup):
        if isinstance(obj, list):
            return FiniteSubset(ctx, elements=obj)
        if isinstance(obj, dict) and "elements" in obj:
            return FiniteSubset(ctx, elements=obj["elements"])
        raise ValueError(f"cannot parse finite subset from {obj!r}")
    if isinstance(ctx, ProductGroup):
        if isinstance(obj, dict) and "rectangles" in obj:
            rects = [
                (set_from_json(ctx.left, a), set_from_json(ctx.right, b))
                for a, b in obj["rectangles"]
            ]
            return RectangleSet(ctx, rects)
        raise ValueError(f"cannot parse product set from {obj!r}")
    raise BackendMismatch(f"unknown context {ctx!r}")


def set_to_json(Y):
    if isinstance(Y, IntegerSet):
        return {
            "mod": Y.period,
            "up": sorted(Y.up),
            "down": sorted(Y.down),
            "window": {"lo": Y.lo, "hi": Y.hi, "bits": [1 if b else 0 for b in Y.bits]},
        }
    if isinstance(Y, FiniteSubset):
        return {"elements": Y.elements()}
    if isinstance(Y, RectangleSet):
        return {
            "rectangles": [[set_to_json(c), set_to_json(f)] for c, f in Y.columns]
        }
    raise TypeError(f"not a definable set: {Y!r}")
