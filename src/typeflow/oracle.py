"""Independent brute-force cross-checks for the structured algorithms.

Everything here is exact and bounded: enumerate, realize with concrete big
integers, or search all candidates. None of it shares algorithmic code with
the implementations it certifies; membership evaluation is the only common
ground truth. Sets over a window are Python ints used as bitsets, built
by `_membership_mask`, so every kernel reads its input only through
`member`. That reader calls `member` on the set's own window and on one
period of points on each side of it, and repeats those answers over the
rest of the requested window: beyond its window an integer set is periodic
with its `period`, which `sufficient_radius` relies on as well.
"""

from __future__ import annotations

from itertools import compress, count

from .groups import Group, IntegerGroup
from .typespace import Limit, apply_group, limit_points, point_key

EXHAUSTION_LEVEL_BOUND = 8
# The most bits a window kernel may hold at once, checked before any
# membership is read: the genericity search's table of covering shifts
# (one row of 2s + 1 bits per tracked point) and the difference set's
# accumulator of 4r + 1 bits. Every bundled, benchmark and test input
# stays below it.
WINDOW_BIT_BOUND = 1 << 28


def sufficient_radius(*sets) -> int:
    """The least window radius that dwarfs every modulus and window bound
    of the sets."""
    needed = 4
    for Y in sets:
        needed = max(needed, 4 * Y.period * max(1, abs(Y.lo), abs(Y.hi)))
    return needed


def _require_radius(radius: int, Y):
    """The window [-radius, radius] must dwarf every modulus and window
    bound of Y (`sufficient_radius`)."""
    needed = sufficient_radius(Y)
    if radius < needed:
        raise ValueError(f"window radius {radius} below sufficiency bound {needed}")


# membership answers (False/True as bytes) to binary digits, and back
_TO_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def _tiled(Y, start: int, stop: int) -> bytes:
    """Membership of range(start, stop), a range lying wholly above or
    wholly below Y's window, read at no more than one period of points;
    empty when stop <= start."""
    n = max(0, stop - start)
    first = bytes(map(Y.member, range(start, start + min(n, Y.period))))
    return (first * (n // Y.period + 1))[:n]


def _membership_mask(Y, lo: int, hi: int) -> int:
    """Bit j is set iff lo + j is in Y; the range [lo, hi] is not empty.

    `member` is called only on Y's window and on at most one period of
    points on each side of it. Beyond the window `member(x)` reads one
    pattern bit of `x % Y.period`, above and below alike, so on each side
    the answers repeat with period `Y.period` and the first period of a
    side's points gives all of them: the tiled bytes equal the per-point
    answers exactly, on every point. `sufficient_radius` rests on the same
    periodicity.
    """
    below = min(hi + 1, Y.lo)
    above = max(lo, Y.hi + 1)
    answers = (
        _tiled(Y, lo, below)
        + bytes(map(Y.member, range(max(lo, Y.lo), min(hi, Y.hi) + 1)))
        + _tiled(Y, above, hi + 1)
    )
    return int(answers[::-1].translate(_TO_DIGITS), 2)


def window_members(Y, lo: int, hi: int) -> list[int]:
    """The members of Y in [lo, hi], ascending, read as `_membership_mask`
    reads them; the range [lo, hi] is not empty."""
    return _bits(_membership_mask(Y, lo, hi), lo)


def _reversed(mask: int, width: int) -> int:
    """Bit j of the result is bit width - 1 - j of mask."""
    return int(format(mask, f"0{width}b")[::-1], 2)


def _bits(mask: int, start: int = 0) -> list[int]:
    """start + j for each set bit j of a nonnegative mask, ascending."""
    return list(compress(count(start), format(mask, "b").encode()[::-1].translate(_FROM_DIGITS)))


def _require_window(kernel: str, bits: int):
    """Refuse a window whose kernel would hold more than WINDOW_BIT_BOUND
    bits; called before any membership is read."""
    if bits > WINDOW_BIT_BOUND:
        raise ValueError(
            f"{kernel} oracle needs {bits} bits, over the bound of {WINDOW_BIT_BOUND} bits"
        )


def oracle_difference_set(Y, radius: int) -> list[int]:
    """{a - b} over the elements of the window [-r, r], r the radius,
    clipped to the trustworthy half window.

    With E the elements as a bitset (bit x + r for x in the window), the
    bit reversal of E is -E at the same offset, so shifting it by a + r
    places a - E at offset 2r; the union over a in E is the difference set.
    """
    _require_radius(radius, Y)
    r = radius
    width = 2 * r + 1
    # the accumulator: the reversed window shifted by up to 2r
    _require_window("difference-set", 2 * width - 1)
    elems = _membership_mask(Y, -r, r)
    negated = _reversed(elems, width)
    diffs = 0
    for shift in _bits(elems):
        diffs |= negated << shift
    half = r // 2
    return _bits(diffs >> (2 * r - half) & ((1 << (2 * half + 1)) - 1), -half)


def oracle_generic(
    Y,
    max_translates: int = 4,
    shift_bound: int = 50,
    radius: int = 200,
    exhaustive_limit: int = 300_000,
):
    """A sorted tuple of at most `max_translates` shifts in
    [-shift_bound, shift_bound] whose translates of Y cover the window
    [-radius, radius], or None when no such cover exists.

    The search is exact. It is a depth-first search for a set cover on the
    pattern of Knuth's Algorithm X: branch on the uncovered window point
    with the fewest allowed covering shifts, try each of them, and ban each
    tried shift in the later sibling branches. A point with no allowed
    shift fails its branch at once, so a one-sided set fails at the root.
    None is therefore a proof that no cover of at most `max_translates`
    shifts within +-`shift_bound` exists on the window. The search visits
    at most `exhaustive_limit` nodes; past that it raises ValueError rather
    than return an unproven verdict.

    The search tracks only the points of [a, b], a part of the window
    [-r, r], r the radius. The shifts g with |g| <= s covering a point x are those with
    x - g in Y, so beyond the near range [Y.lo - s, Y.hi + s] they depend
    on x mod p alone, p the period. [a, b] is the near range, the p points
    above it and a block of p points below it that starts at a = -r
    (mod p): it holds the first point, in window order, of every class of
    points with one set of covering shifts, and lists those first points
    in window order. Points of one class are covered together, and the
    branch point is the first uncovered point with fewest options, which is
    the first point of its class. So the search on [a, b] makes the same
    choices, visits the same nodes and returns the same cover as the search
    on the whole window.
    """
    _require_radius(radius, Y)
    r, s, p = radius, shift_bound, Y.period
    below = Y.lo - s - p
    a = -r if below <= -r else below - (below + r) % p
    b = min(r, Y.hi + s + p)
    n = b - a + 1
    # the table of covering shifts: one row of 2s + 1 bits per point
    _require_window("genericity", n * (2 * s + 1))
    # bit j is member(Y, j + a - s): every x - g with x in [a, b], |g| <= s
    mask = _membership_mask(Y, a - s, b + s)
    reflected = _reversed(mask, n + 2 * s)
    shift_range = (1 << (2 * s + 1)) - 1
    # shift g is index k = g + s and point x is index i = x - a;
    # g + Y covers x iff member(Y, x - g), so mask >> (2s - k) holds the
    # points g + Y covers, and covering[i] the shifts covering x
    covering = [reflected >> (n - 1 - i) & shift_range for i in range(n)]

    def fewest_options(uncovered: int, allowed: int) -> int:
        """The allowed shifts covering an uncovered point that has fewest;
        0 when some uncovered point has none."""
        best, fewest = 0, 2 * s + 2
        for i in _bits(uncovered):
            options = covering[i] & allowed
            count = options.bit_count()
            if count < fewest:
                if count == 0:
                    return 0
                best, fewest = options, count
                if count == 1:
                    break
        return best

    nodes = 0
    chosen: list[int] = []
    # one entry per chosen shift: the state it was chosen in, and the
    # sibling shifts still to try there
    stack: list[tuple[int, int, int]] = []
    uncovered, allowed = (1 << n) - 1, shift_range
    while uncovered:
        options = 0
        if len(chosen) < max_translates:
            nodes += 1
            if nodes > exhaustive_limit:
                raise ValueError(
                    f"genericity oracle exceeded its budget of {exhaustive_limit} search nodes"
                )
            options = fewest_options(uncovered, allowed)
        while not options:
            if not stack:
                return None
            uncovered, allowed, options = stack.pop()
            # later siblings need not consider the shift just tried
            allowed &= ~(1 << (chosen.pop() + s))
        low = options & -options
        stack.append((uncovered, allowed, options ^ low))
        k = low.bit_length() - 1
        chosen.append(k - s)
        uncovered &= ~(mask >> (2 * s - k))
    return tuple(sorted(chosen))


def oracle_star(ctx: Group, p, q, level: int):
    """The semigroup product by numeric realization.

    Realize the left factor at moderate magnitude and the right factor a
    thousandfold further out, multiply, and classify the type of the
    result at the level, which must divide every limit factor's modulus.
    A limit point is realized along its own modulus, inside its class.
    Only the integers have limit points, so over any other backend (a
    table or a product) both factors are realized and multiply by the
    group law.
    """
    if not isinstance(ctx, IntegerGroup):
        return ctx.compose(p, q)

    def realize(point, magnitude):
        if not isinstance(point, Limit):
            return point
        return point.sign * magnitude * point.modulus + point.residue

    base_magnitude = 1000
    # a limit left factor must outgrow any fixed realized right factor
    left_magnitude = base_magnitude
    if not isinstance(q, Limit):
        left_magnitude += abs(q)
    a = realize(p, left_magnitude)
    b = realize(q, 1000 * max(base_magnitude, abs(a)))
    s = a + b
    if not isinstance(p, Limit) and not isinstance(q, Limit):
        return s
    return Limit(1 if s > 0 else -1, s % level, level)


def _require_small(level: int):
    if level > EXHAUSTION_LEVEL_BOUND:
        raise ValueError(f"exhaustive oracles are bounded at level {EXHAUSTION_LEVEL_BOUND}")


def oracle_minimal_subflows(ctx: Group, level: int) -> list[frozenset]:
    """All minimal invariant subsets of the limit part; every subset is
    decided exactly.

    A subset is a bitmask over the limit points, invariant iff its image
    under the generator is itself. Split a mask as (high << 8) | v, with v
    its low byte. The generator permutes the points, so the images of the
    disjoint parts v and high << 8 are disjoint, and the image of the mask
    is image(v) ^ image(high << 8). The mask is (high << 8) ^ v as well, so
    it is invariant iff image(v) ^ v == (high << 8) ^ image(high << 8): a
    key of the low byte alone equals a key of the high part alone. Every
    low byte is indexed by its key once, and each high part then finds all
    invariant masks of its block of low bytes with one lookup. The image
    tables of the low bytes and of the high parts are built by doubling,
    one bit at a time. The premise that the action permutes the points is
    checked, not assumed.
    """
    _require_small(level)
    pts = limit_points(ctx, level)
    n = len(pts)
    index = {p: i for i, p in enumerate(pts)}
    perm = [index[apply_group(ctx, 1, p)] for p in pts]
    if sorted(perm) != list(range(n)):
        raise AssertionError("the group action does not permute the limit points")
    # low[v] is the image of the low byte v and high[h] that of h << 8,
    # both by list doubling: adding bit j to every mask of a table adds
    # bit perm[j] to its image
    low, high = [0], [0]
    for table, targets in ((low, perm[:8]), (high, perm[8:])):
        for target in targets:
            bit = 1 << target
            table += [image | bit for image in table]
    # the low bytes of each key, ascending, so masks come out ascending
    low_bytes: dict[int, list[int]] = {}
    for v, image in enumerate(low):
        low_bytes.setdefault(image ^ v, []).append(v)
    invariant = [
        h << 8 | v for h, image in enumerate(high) for v in low_bytes.get(h << 8 ^ image, ())
    ]
    del invariant[0]  # the empty set
    minimal_masks = [
        m
        for m in invariant
        if not any(o != m and o & m == o for o in invariant)
    ]
    subflows = [frozenset(map(pts.__getitem__, _bits(m))) for m in minimal_masks]
    return sorted(subflows, key=lambda s: sorted(point_key(p) for p in s))


def oracle_idempotents(ctx: Group, level: int) -> list:
    _require_small(level)
    pts = limit_points(ctx, level)
    return [p for p in pts if oracle_star(ctx, p, p, level) == p]


def oracle_equivariant_maps(ctx: Group, level: int, source, target) -> list[dict]:
    """All equivariant maps between single orbits of the limit part.

    Independent of the semigroup product: a candidate image of the least
    source point is propagated around the orbit by the group action and
    kept only if the propagation closes up consistently.
    """
    _require_small(level)
    src = sorted(source, key=point_key)
    tgt = set(target)
    base = src[0]
    out = []
    for image in sorted(tgt, key=point_key):
        f = {}
        p, y = base, image
        consistent = True
        for _ in range(len(src)):
            if p not in source or y not in tgt:
                consistent = False
                break
            f[p] = y
            p = apply_group(ctx, 1, p)
            y = apply_group(ctx, 1, y)
        if not consistent or p != base or y != image:
            continue
        if len(f) == len(src):
            out.append(f)
    return out


def oracle_equivariant_maps_brute(ctx: Group, level: int, source, target) -> list[dict]:
    """Every function source -> target, filtered by equivariance.

    Exponential; certifies the propagation enumeration on tiny levels.
    """
    if level > 5:
        raise ValueError("brute map enumeration is bounded at level 5")
    src = sorted(source, key=point_key)
    tgt = sorted(target, key=point_key)
    out = []

    def assign(i, f):
        if i == len(src):
            for p in src:
                if f[apply_group(ctx, 1, p)] != apply_group(ctx, 1, f[p]):
                    return
            out.append(dict(f))
            return
        for y in tgt:
            f[src[i]] = y
            assign(i + 1, f)
        del f[src[i]]

    assign(0, {})
    return out
