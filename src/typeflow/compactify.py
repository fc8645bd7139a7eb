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
from .groups import FiniteGroup, Group, IntegerGroup, Subgroup, cyclic_group, first_failing_pair
from .typespace import LevelError


@dataclass(frozen=True)
class CongruenceEquivalence:
    """Congruence mod n on the integers; n classes, all definable."""

    modulus: int


@dataclass(frozen=True)
class PartitionEquivalence:
    """Explicit partition of a finite backend."""

    blocks: tuple


class CompactQuotient:
    """A finite quotient with definable fibers and the discrete logic
    topology, carrying a group structure when the equivalence is coset
    equivalence of a normal subgroup."""

    def __init__(self, source: Group, fibers, group: FiniteGroup | None):
        self.source = source
        self.fibers = tuple(fibers)
        self.group = group
        self.discrete = True

    @property
    def size(self) -> int:
        return len(self.fibers)

    def __repr__(self):
        kind = "group" if self.group is not None else "space"
        return f"CompactQuotient({kind}, size={self.size})"


def _is_subgroup(ctx: FiniteGroup, elems: frozenset) -> bool:
    """Is N a subgroup? Checked on a generating subset, in O(|N|·|gens|).

    Walking N in ascending order, each member not yet reached becomes a
    generator, and the reached set is closed from e under right
    multiplication by the generators; a product outside N refutes at once.
    At the end every member is reached, so N is the set of products of its
    generators: a·b for b = g1···gk stays in N one factor at a time. N is
    finite, so g⁻¹ = g^(|g|−1) is such a product too.
    """
    if ctx.identity not in elems:
        return False
    table = ctx.table
    reached = [ctx.identity]
    seen = {ctx.identity}
    gens: list[int] = []
    for g in sorted(elems):
        if g in seen:
            continue
        gens.append(g)
        # reached[:old] is closed under the earlier generators already
        old, i = len(reached), 0
        while i < len(reached):
            x = reached[i]
            for h in gens if i >= old else gens[-1:]:
                y = table[x][h]
                if y not in elems:
                    return False
                if y not in seen:
                    seen.add(y)
                    reached.append(y)
            i += 1
    return True


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
    projection as a tuple indexed by source elements.
    """
    N = frozenset(normal_elems)
    if not _is_subgroup(ctx, N):
        raise ValueError("not a subgroup")
    if not _is_normal(ctx, N):
        raise ValueError("subgroup is not normal")
    projection = [None] * ctx.order
    reps = []
    for g in [ctx.identity] + [x for x in ctx.elements() if x != ctx.identity]:
        if projection[g] is not None:
            continue
        idx = len(reps)
        reps.append(g)
        for n in N:
            projection[ctx.table[g][n]] = idx
    table = [
        [projection[ctx.table[reps[i]][reps[j]]] for j in range(len(reps))]
        for i in range(len(reps))
    ]
    return FiniteGroup(table, name=f"{ctx.name}/N{len(N)}"), tuple(projection)


def logic_quotient(ctx: Group, equivalence) -> CompactQuotient:
    """Quotient by a bounded equivalence; fibers are canonical definable
    sets and the finite-index logic topology is discrete."""
    if isinstance(ctx, IntegerGroup) and isinstance(equivalence, CongruenceEquivalence):
        n = equivalence.modulus
        if n < 1:
            raise ValueError("modulus must be positive")
        fibers = [congruence_set(n, [r]) for r in range(n)]
        return CompactQuotient(ctx, fibers, cyclic_group(n))
    if isinstance(ctx, FiniteGroup) and isinstance(equivalence, PartitionEquivalence):
        blocks = [frozenset(map(ctx.check_element, b)) for b in equivalence.blocks]
        seen: set[int] = set()
        for b in blocks:
            if not b or b & seen:
                raise ValueError("blocks must be nonempty and disjoint")
            seen |= b
        if seen != set(ctx.elements()):
            raise ValueError("blocks do not cover the group")
        ident_block = next(b for b in blocks if ctx.identity in b)
        group = None
        if _is_subgroup(ctx, ident_block) and _is_normal(ctx, ident_block):
            cosets = set()
            for b in blocks:
                g = min(b)
                cosets.add(frozenset(ctx.table[g][n] for n in ident_block))
            if cosets == set(blocks):
                quotient, projection = finite_quotient(ctx, ident_block)
                fibers = []
                for i in range(quotient.order):
                    fibers.append(
                        FiniteSubset(ctx, elements=[g for g in ctx.elements() if projection[g] == i])
                    )
                return CompactQuotient(ctx, fibers, quotient)
        fibers = [FiniteSubset(ctx, elements=sorted(b)) for b in blocks]
        return CompactQuotient(ctx, fibers, group)
    raise ValueError("unsupported equivalence for this backend")


def g00_at_level(ctx: Group, level: int) -> Subgroup:
    """Level approximation of the smallest bounded-index definable
    subgroup: the full congruence subgroup over the integers, trivial for
    finite backends. Coarser levels give larger subgroups."""
    if level < 1:
        raise ValueError("level must be positive")
    if isinstance(ctx, FiniteGroup):
        return Subgroup.of_elements({ctx.identity})
    return Subgroup.congruence(level)


@dataclass
class FactorMap:
    """A commuting surjective homomorphism from the universal quotient onto
    a family member."""

    target_size: int
    images: tuple
    homomorphism: bool
    surjective: bool
    commutes: bool
    unique: bool = True


@dataclass
class UniversalCompactification:
    quotient: CompactQuotient
    factors: tuple


def universal_compactification(ctx: Group, level: int, targets) -> UniversalCompactification:
    """The level universal compactification with its universality witnesses.

    Over the integers: the congruence quotient at the level together with
    the reduction map onto each family modulus, each verified elementwise
    to be a commuting surjective homomorphism and forced (hence unique) on
    the image of the group. Family moduli must divide the level.
    """
    if isinstance(ctx, IntegerGroup):
        for m in targets:
            if m < 1:
                raise ValueError("target modulus must be positive")
            if level % m != 0:
                raise LevelError(f"level too coarse: {m} does not divide {level}")
        quotient = logic_quotient(ctx, CongruenceEquivalence(level))
        factors = []
        for m in targets:
            images = tuple(i % m for i in range(level))
            # Z/level is generated by 1 as a semigroup; see first_failing_pair
            j = 1 % level
            hom = all(
                images[(i + j) % level] == (images[i] + images[j]) % m
                for i in range(level)
            )
            surjective = set(images) == set(range(m))
            commutes = all(images[g % level] == g % m for g in range(-2 * level, 2 * level + 1))
            factors.append(FactorMap(m, images, hom, surjective, commutes))
        return UniversalCompactification(quotient, tuple(factors))
    if isinstance(ctx, FiniteGroup):
        subgroups = [frozenset(map(ctx.check_element, t)) for t in targets]
        for N in subgroups:
            if not (_is_subgroup(ctx, N) and _is_normal(ctx, N)):
                raise ValueError("family members must be quotients by normal subgroups")
        core = frozenset(ctx.elements())
        for N in subgroups:
            core = core & N
        quotient_group, projection = finite_quotient(ctx, core)
        fibers = [
            FiniteSubset(ctx, elements=[g for g in ctx.elements() if projection[g] == i])
            for i in range(quotient_group.order)
        ]
        quotient = CompactQuotient(ctx, fibers, quotient_group)
        factors = []
        for N in subgroups:
            target_group, target_proj = finite_quotient(ctx, N)
            images = [None] * quotient_group.order
            consistent = True
            for g in ctx.elements():
                i = projection[g]
                if images[i] is None:
                    images[i] = target_proj[g]
                elif images[i] != target_proj[g]:
                    consistent = False
            images = tuple(images)
            source_table, target_table = quotient_group.table, target_group.table
            hom = consistent and first_failing_pair(
                quotient_group,
                lambda a, b: images[source_table[a][b]] == target_table[images[a]][images[b]],
            ) is None
            surjective = set(images) == set(range(target_group.order))
            factors.append(FactorMap(target_group.order, images, hom, surjective, consistent))
        return UniversalCompactification(quotient, tuple(factors))
    raise ValueError("unsupported backend")


@dataclass
class HomomorphismVerdict:
    valid: bool
    reason: str | None = None
    fibers: tuple | None = None
    fiber_modulus: int | None = None
    factor_images: tuple | None = None
    closure_identity_checked: bool = False


def definable_homomorphism_check(
    ctx: Group, values, target: FiniteGroup, level: int | None = None
) -> HomomorphismVerdict:
    """Verify a candidate compactification map g -> C.

    Over the integers the map is given by one period of values (so it is
    exactly periodic); the checks are the homomorphism law, dense (here
    surjective) image, canonical definable fibers, and the factorization
    through the universal quotient at the fiber modulus. The closure
    identity cl f(A . B) = cl f(A) . cl f(B) is verified on the witness
    families of congruence classes. A value outside the target raises
    `BackendMismatch` before any check runs.
    """
    values = tuple(values)
    for v in values:
        target.check_element(v)
    if isinstance(ctx, IntegerGroup):
        d = len(values)
        if d < 1:
            raise ValueError("need at least one value")
        if values[0] != target.identity:
            return HomomorphismVerdict(False, reason="does not send 0 to the identity")
        table = target.table
        # Z/d is generated by 1 as a semigroup; see first_failing_pair
        one = 1 % d
        if not all(values[(a + one) % d] == table[values[a]][values[one]] for a in range(d)):
            a, b = next(
                (a, b)
                for a in range(d)
                for b in range(d)
                if values[(a + b) % d] != table[values[a]][values[b]]
            )
            return HomomorphismVerdict(False, reason=f"not a homomorphism at ({a},{b})")
        if set(values) != set(target.elements()):
            return HomomorphismVerdict(False, reason="dense-image failure")
        fibers = tuple(
            congruence_set(d, [r for r in range(d) if values[r] == c])
            for c in target.elements()
        )
        factor_level = d if level is None else level
        if factor_level % d != 0:
            raise LevelError(f"level too coarse: {d} does not divide {factor_level}")
        factor_images = tuple(values[i % d] for i in range(factor_level))
        # closure identity on witness families: the closure of the image of a
        # congruence class is the single value it maps to
        closure_ok = all(
            {values[(a + b) % d]} == {target.compose(values[a], values[b])}
            for a in range(d)
            for b in range(d)
        )
        return HomomorphismVerdict(
            True,
            fibers=fibers,
            fiber_modulus=d,
            factor_images=factor_images,
            closure_identity_checked=closure_ok,
        )
    if isinstance(ctx, FiniteGroup):
        if len(values) != ctx.order:
            raise ValueError("need one value per group element")
        if values[ctx.identity] != target.identity:
            return HomomorphismVerdict(False, reason="does not send the identity to the identity")
        source_table, target_table = ctx.table, target.table
        failure = first_failing_pair(
            ctx, lambda a, b: values[source_table[a][b]] == target_table[values[a]][values[b]]
        )
        if failure is not None:
            a, b = failure
            return HomomorphismVerdict(False, reason=f"not a homomorphism at ({a},{b})")
        if set(values) != set(target.elements()):
            return HomomorphismVerdict(False, reason="dense-image failure")
        fibers = tuple(
            FiniteSubset(ctx, elements=[g for g in ctx.elements() if values[g] == c])
            for c in target.elements()
        )
        return HomomorphismVerdict(
            True, fibers=fibers, factor_images=values, closure_identity_checked=True
        )
    raise ValueError("unsupported backend")
