"""Bounded quotients with the logic topology and the universal
compactification as an inverse system of finite quotients.

At finite index the logic topology is discrete; the compactness content
lives in the divisor-ordered system of congruence quotients, the finite
stand-in for the full profinite limit. Bounded equivalences of genuinely
infinite index are out of reach at this scale and are not represented.
"""

from __future__ import annotations

from dataclasses import dataclass

from .defsets import FiniteSubset, congruence_set
from .groups import FiniteGroup, Group, IntegerGroup, _greedy_generators, first_failing_pair
from .typespace import LevelError, check_level


# The largest modulus `logic_quotient` splits the integers by. It builds one
# fiber per residue, each with a mask as long as the modulus, so memory grows
# as the square of the modulus: under 100 MB at the bound.
QUOTIENT_MODULUS_BOUND = 1 << 15

# The finest level `definable_homomorphism_check` lists factor images at. It
# builds one image per residue, so time and report size grow linearly: a
# `check-homomorphism` task at the bound takes about 0.15 s and reports about
# 3 MB.
FACTOR_LEVEL_BOUND = 1 << 20


@dataclass
class CompactQuotient:
    """A finite quotient with definable fibers, a group exactly when the
    blocks are the cosets of a normal subgroup (always, mod d, over the
    integers). At finite index the logic topology is discrete."""

    fibers: tuple
    is_group: bool

    @property
    def size(self) -> int:
        return len(self.fibers)


def _is_subgroup(ctx: FiniteGroup, elems: frozenset) -> bool:
    """Is N a subgroup? Read off the greedy walk of Light's test over N.

    `_greedy_generators` walks N in ascending order, so every member of N
    other than e ends up reached, and the reached set is the submagma the
    picks generate, which in a finite group is a subgroup. So N is a
    subgroup exactly when it holds e and everything reached.
    """
    if ctx.identity not in elems:
        return False
    return _greedy_generators(ctx.table, ctx.identity, sorted(elems))[1] <= elems


def _is_normal(ctx: FiniteGroup, elems: frozenset) -> bool:
    """Is g N g^-1 = N for every g? Checked on the generators only.

    Conjugation is injective and N is finite, so g N g^-1 ⊆ N already gives
    g N g^-1 = N, and the g with g N g^-1 = N are closed under products.
    They contain the generators exactly when they are the whole group.
    """
    table, inverse = ctx.table, ctx.inverse
    return all(
        table[table[g][n]][inverse[g]] in elems
        for g in ctx.generators
        for n in elems
    )


def finite_quotient(ctx: FiniteGroup, normal_elems) -> tuple[FiniteGroup, tuple]:
    """Quotient of a finite group by a normal subgroup.

    Returns the quotient group (identity coset at index 0) and the
    projection as a tuple indexed by source elements. The coset table is a
    group because N is normal, so it is not verified again; the inverse of
    a coset is the coset of its representative's inverse.
    """
    N = frozenset(normal_elems)
    if not _is_subgroup(ctx, N):
        raise ValueError("not a subgroup")
    if not _is_normal(ctx, N):
        raise ValueError("subgroup is not normal")
    reps, projection = _cosets(ctx, N)
    table = tuple(tuple(projection[ctx.table[a][b]] for b in reps) for a in reps)
    inverse = (projection[ctx.inverse[a]] for a in reps)
    return FiniteGroup._by_construction(table, inverse, f"{ctx.name}/N{len(N)}"), tuple(projection)


def _cosets(ctx: FiniteGroup, N: frozenset) -> tuple[list, list]:
    """The cosets gN of a subgroup N, which the caller has checked: a
    representative per coset, the identity first and then the least
    element of each coset not yet reached, and the projection sending each
    element to the index of its coset. It builds no quotient table."""
    projection = [None] * ctx.order
    reps = []
    for g in [ctx.identity] + [x for x in ctx.elements() if x != ctx.identity]:
        if projection[g] is not None:
            continue
        idx = len(reps)
        reps.append(g)
        for n in N:
            projection[ctx.table[g][n]] = idx
    return reps, projection


def _fibers(ctx: FiniteGroup, labels, count: int) -> tuple:
    """Fibre i is the set of g with labels[g] == i, built in one pass of bitmasks."""
    masks = [0] * count
    for g, i in enumerate(labels):
        masks[i] |= 1 << g
    return tuple(FiniteSubset(ctx, mask=m) for m in masks)


def logic_quotient(ctx: Group, *, modulus: int | None = None, blocks=None) -> CompactQuotient:
    """Quotient by a bounded equivalence, given by exactly one of: congruence
    mod `modulus` on the integers, or the partition of a finite group into
    `blocks`. Fibers are canonical definable sets and the finite-index
    logic topology is discrete. A partition is a group quotient, with
    fibers in quotient order, exactly when its blocks are the cosets of a
    normal subgroup."""
    if modulus is not None and blocks is not None:
        raise ValueError("give either a modulus or blocks, not both")
    if isinstance(ctx, IntegerGroup) and modulus is not None:
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if modulus > QUOTIENT_MODULUS_BOUND:
            raise ValueError(f"modulus {modulus} is over the bound of {QUOTIENT_MODULUS_BOUND}")
        fibers = tuple(congruence_set(modulus, [r]) for r in range(modulus))
        return CompactQuotient(fibers, True)
    if isinstance(ctx, FiniteGroup) and blocks is not None:
        blocks = [frozenset(map(ctx.check_element, b)) for b in blocks]
        seen: set[int] = set()
        for b in blocks:
            if not b or b & seen:
                raise ValueError("blocks must be nonempty and disjoint")
            seen |= b
        if seen != set(ctx.elements()):
            raise ValueError("blocks do not cover the group")
        fibers = tuple(FiniteSubset(ctx, elements=b) for b in blocks)
        N = next(b for b in blocks if ctx.identity in b)
        # cosets all have |N| elements; the test spares building a quotient
        if all(len(b) == len(N) for b in blocks) and _is_subgroup(ctx, N) and _is_normal(ctx, N):
            reps, projection = _cosets(ctx, N)
            cosets = _fibers(ctx, projection, len(reps))
            if {f.mask for f in cosets} == {f.mask for f in fibers}:
                return CompactQuotient(cosets, True)
        return CompactQuotient(fibers, False)
    raise ValueError("unsupported equivalence for this backend")


def g00_at_level(ctx: Group, level: int):
    """Level approximation of the smallest bounded-index definable
    subgroup, as a definable set: the congruence subgroup (level)Z over
    the integers, {e} for finite backends. Coarser levels give larger
    subgroups. It is also the kernel of the action on the level's minimal
    subflows: g shifts each limit point's residue by g mod the level, and
    a table acts on itself freely. The level is checked first, by
    `check_level`."""
    check_level(ctx, level)
    if isinstance(ctx, FiniteGroup):
        return FiniteSubset(ctx, [ctx.identity])
    return congruence_set(level, [0])


@dataclass
class FactorMap:
    """A map from the universal quotient onto a family member: images[i] is
    the member's class of any g in class i. So by construction it is a
    surjective homomorphism, commutes with the projections, and is unique."""

    target_size: int
    images: tuple


@dataclass
class UniversalCompactification:
    quotient_size: int
    factors: tuple


def universal_compactification(ctx: Group, level: int, targets) -> UniversalCompactification:
    """The level universal compactification with its universality witnesses.

    Over the integers: the quotient Z/level together with the reduction map
    i -> i mod m onto each family modulus m, which must divide the level.
    Over a finite group the quotient is by the intersection of the target
    normal subgroups, and each factor sends a core coset to the target
    coset that holds it.
    """
    if isinstance(ctx, IntegerGroup):
        check_level(ctx, level)
        for m in targets:
            if m < 1:
                raise ValueError("target modulus must be positive")
            if level % m != 0:
                raise LevelError(f"level too coarse: {m} does not divide {level}")
        return UniversalCompactification(level, tuple(FactorMap(m, tuple(i % m for i in range(level))) for m in targets))
    if isinstance(ctx, FiniteGroup):
        subgroups = [frozenset(map(ctx.check_element, t)) for t in targets]
        for N in subgroups:
            if not (_is_subgroup(ctx, N) and _is_normal(ctx, N)):
                raise ValueError("family members must be quotients by normal subgroups")
        # an intersection of normal subgroups is a normal subgroup
        core_reps, projection = _cosets(ctx, frozenset(ctx.elements()).intersection(*subgroups))
        factors = []
        for N in subgroups:
            target_reps, target_proj = _cosets(ctx, N)
            image_of = dict(zip(projection, target_proj))
            factors.append(FactorMap(len(target_reps), tuple(image_of[i] for i in range(len(core_reps)))))
        return UniversalCompactification(len(core_reps), tuple(factors))
    raise ValueError("unsupported backend")


@dataclass
class HomomorphismVerdict:
    valid: bool
    reason: str | None = None
    fibers: tuple | None = None
    fiber_modulus: int | None = None
    factor_images: tuple | None = None


def definable_homomorphism_check(
    ctx: Group, values, target: FiniteGroup, level: int | None = None
) -> HomomorphismVerdict:
    """Verify a candidate compactification map g -> C.

    Over the integers the map is given by one period of d values (so it is
    exactly periodic), over a finite group by one value per element. Both
    check the identity, the homomorphism law (`first_failing_pair`; on Z/d
    as (a + b) mod d, with no table) and dense (here surjective) image.
    Over the integers the fibers are canonical definable sets and the map
    factors through the universal quotient at the fiber modulus. The image
    of a congruence class is one value, its own closure, so the closure
    identity cl f(A . B) = cl f(A) . cl f(B) on classes is the law on Z/d.
    A value outside the target raises `BackendMismatch` before any check,
    and a level over FACTOR_LEVEL_BOUND a `ValueError` before anything. A
    finite backend has only the trivial level 1 (`check_level`).
    """
    if level is not None and level > FACTOR_LEVEL_BOUND:
        raise ValueError(f"level {level} is over the bound of {FACTOR_LEVEL_BOUND}")
    values = tuple(values)
    for v in values:
        target.check_element(v)
    if isinstance(ctx, IntegerGroup):
        if not values:
            raise ValueError("need at least one value")
        d = len(values)
        # Z/d is generated by 1, which is the identity 0 when d = 1
        elements, generators, identity, identity_name = range(d), (1 % d,), 0, "0"
        product = lambda a, b: (a + b) % d
    elif isinstance(ctx, FiniteGroup):
        if level is not None:
            check_level(ctx, level)
        if len(values) != ctx.order:
            raise ValueError("need one value per group element")
        elements, generators, identity, identity_name = ctx.elements(), ctx.generators, ctx.identity, "the identity"
        product = lambda a, b: ctx.table[a][b]
    else:
        raise ValueError("unsupported backend")
    if values[identity] != target.identity:
        return HomomorphismVerdict(False, reason=f"does not send {identity_name} to the identity")
    failure = first_failing_pair(
        elements, generators, lambda a, b: values[product(a, b)] == target.table[values[a]][values[b]]
    )
    if failure is not None:
        return HomomorphismVerdict(False, reason="not a homomorphism at ({},{})".format(*failure))
    if set(values) != set(target.elements()):
        return HomomorphismVerdict(False, reason="dense-image failure")
    if isinstance(ctx, FiniteGroup):
        return HomomorphismVerdict(True, fibers=_fibers(ctx, values, target.order), factor_images=values)
    residues = [[] for _ in target.elements()]
    for r, c in enumerate(values):
        residues[c].append(r)
    factor_level = d if level is None else level
    if factor_level % d != 0:
        raise LevelError(f"level too coarse: {d} does not divide {factor_level}")
    factor_images = tuple(values[i % d] for i in range(factor_level))
    fibers = tuple(congruence_set(d, rs) for rs in residues)
    return HomomorphismVerdict(True, fibers=fibers, fiber_modulus=d, factor_images=factor_images)
