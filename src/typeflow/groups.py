"""Group backends over which all dynamics is computed.

Three kinds of context: finite groups given by explicit multiplication
tables, the additive integers, and binary products of the other two.
Elements are raw values (table indices, ints, pairs) validated against
their context. Contexts are immutable after construction and safe to
share between threads.
"""

from __future__ import annotations


class BackendMismatch(ValueError):
    """An element or set was used with a context it does not belong to."""


class Group:
    """Common interface for the computable group backends.

    A backend with dynamics names the ``generators`` on which invariance,
    equivariance and closure are checked (`flows._equivariant`).
    """

    identity = None

    def compose(self, g, h):
        raise NotImplementedError

    def invert(self, g):
        raise NotImplementedError

    def is_element(self, g) -> bool:
        raise NotImplementedError

    def check_element(self, g):
        if not self.is_element(g):
            raise BackendMismatch(f"{g!r} is not an element of {self}")
        return g

    @property
    def is_finite(self) -> bool:
        return False


def _closure(starts, moves, seen=()) -> list:
    """Every point the maps reach from the starts without passing through
    `seen`, breadth first, starts first; from one start under one
    bijection, its cycle in order."""
    seen = set(seen)
    out = [x for x in dict.fromkeys(starts) if x not in seen]
    seen.update(out)
    for y in out:
        for move in moves:
            z = move(y)
            if z not in seen:
                seen.add(z)
                out.append(z)
    return out


def _greedy_generators(table, ident: int, elems=None) -> tuple[list[int], set]:
    """Elements that, with the identity, generate `elems` (by default the
    whole table) as a magma, and the set they reach.

    Each generator x is the first element not yet reached. The walk then
    reaches x, x·r for every r reached before, and all their images under
    left multiplication by the generators. So the reached set stays closed
    under left multiplication by every generator and is the submagma they
    generate; for a group table, the subgroup.
    """
    gens = []
    reached = set()
    for x in range(len(table)) if elems is None else elems:
        if x == ident or x in reached:
            continue
        gens.append(x)
        moves = [table[g].__getitem__ for g in gens]
        reached.update(_closure([x] + [table[x][r] for r in reached], moves, reached))
    return gens, reached


class FiniteGroup(Group):
    """Finite group presented by a full multiplication table.

    The table is row major: ``table[i][j]`` is the index of the product of
    elements ``i`` and ``j``; entries must be integers, not booleans,
    floats or strings. Group axioms (identity, inverses,
    associativity) are verified on construction, so holding a FiniteGroup
    is a proof that the table is a group.

    Associativity is verified by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups*, vol. 1, 1961): ``x(gy) == (xg)y`` is
    checked for all x, y and every g in a generating set. The elements g
    that pass form a submagma: if a and b pass, then
    x((ab)y) = x(a(by)) = (xa)(by) = ((xa)b)y = (x(ab))y. The identity
    always passes. So passing on generators proves the whole table
    associative, at O(n^2 |gens|) cost. Generators are picked greedily:
    each is the first element not yet reached by left multiplication among
    the earlier generators. For a group each new generator at least
    doubles the subgroup reached, so there are at most log2(n) of them.
    They are kept as the read-only tuple ``generators``, which is empty
    only for the trivial group; `first_failing_pair` checks group laws on
    them.

    Tables that are groups by construction skip these checks: the Z/n
    table of `cyclic_group` and the G/N table of `finite_quotient`, for an
    N just checked to be a normal subgroup. Both come from
    `_by_construction`, with identity 0 and their inverses given. Every
    table read from input (the ``finite`` kind, homomorphism targets) goes
    through the verifying constructor.
    """

    def __init__(self, table, name: str | None = None):
        table = tuple(map(tuple, table))
        n = len(table)
        if n == 0:
            raise ValueError("empty multiplication table")
        for row in table:
            if set(map(type, row)) - {int}:
                bad = next(x for x in row if type(x) is not int)
                raise ValueError(f"table entries must be integers, got {bad!r}")
            if len(row) != n or any(not 0 <= x < n for x in row):
                raise ValueError("table is not a square array of element indices")
        ident = None
        for e in range(n):
            if all(table[e][x] == x == table[x][e] for x in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("table has no identity element")
        inverse = []
        for g in range(n):
            inv_g = None
            for h in range(n):
                if table[g][h] == ident and table[h][g] == ident:
                    inv_g = h
                    break
            if inv_g is None:
                raise ValueError(f"element {g} has no inverse")
            inverse.append(inv_g)
        generators = tuple(_greedy_generators(table, ident)[0])
        for g in generators:
            row_g = table[g]
            for a in range(n):
                row_a = table[a]
                row_ag = table[row_a[g]]
                if row_ag != tuple(row_a[x] for x in row_g):
                    c = next(c for c in range(n) if row_ag[c] != row_a[row_g[c]])
                    raise ValueError(f"table is not associative at ({a},{g},{c})")
        self.order = n
        self.table = table
        self.inverse = tuple(inverse)
        self.identity = ident
        self.generators = generators
        self.name = name or f"finite{n}"

    @classmethod
    def _by_construction(cls, table: tuple, inverse, name: str) -> "FiniteGroup":
        """A group from a tuple-of-tuples table that is a group by how it
        was built, with identity 0 and ``inverse[g]`` the inverse of g."""
        self = cls.__new__(cls)
        self.order = len(table)
        self.table = table
        self.inverse = tuple(inverse)
        self.identity = 0
        self.generators = tuple(_greedy_generators(table, 0)[0])
        self.name = name
        return self

    @property
    def is_finite(self) -> bool:
        return True

    def elements(self) -> range:
        return range(self.order)

    def compose(self, g, h):
        return self.table[self.check_element(g)][self.check_element(h)]

    def invert(self, g):
        return self.inverse[self.check_element(g)]

    def is_element(self, g) -> bool:
        return isinstance(g, int) and not isinstance(g, bool) and 0 <= g < self.order

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        return f"FiniteGroup({self.name}, order={self.order})"


def first_failing_pair(elements, generators, holds):
    """The first pair (a, b) of a finite group's `elements`, in row-major
    order, at which a law fails; `generators` generate the group.

    `holds(a, b)` must test a law of the form f(ab) = f(a)f(b), where f maps
    the group into a group, or into maps of a carrier under composition.
    Returns None when the law holds for every pair. Only the pairs whose
    second entry is a generator are tested, which is enough:

    Let S generate G as a semigroup, and let B = {b : f(ab) = f(a)f(b) for
    all a}. B is closed under products: if b, c are in B, then
    f(a.bc) = f(ab.c) = f(ab)f(c) = f(a)f(b)f(c) = f(a)f(bc). So S ⊆ B
    implies B = G, at O(n |S|) cost with |S| <= log2(n) instead of O(n^2).
    In a finite group any nonempty set generating it as a group also does
    as a semigroup, since e = g^|g|; a trivial group given no generators
    is checked at (e, e).

    When some generator pair fails, all pairs are scanned in row-major order
    so that the pair returned does not depend on the generating set. No
    table is read: Z/d is range(d) with generator 1 % d.
    """
    if all(holds(a, b) for b in generators or elements for a in elements):
        return None
    return next((a, b) for a in elements for b in elements if not holds(a, b))


class IntegerGroup(Group):
    """The integers under addition, generated by 1."""

    identity = 0
    generators = (1,)

    def compose(self, g, h):
        return self.check_element(g) + self.check_element(h)

    def invert(self, g):
        return -self.check_element(g)

    def is_element(self, g) -> bool:
        return isinstance(g, int) and not isinstance(g, bool)

    def __eq__(self, other):
        return isinstance(other, IntegerGroup)

    def __hash__(self):
        return hash(IntegerGroup)

    def __repr__(self):
        return "IntegerGroup()"


INTEGERS = IntegerGroup()


class ProductGroup(Group):
    """Binary product of two non-product backends, elements are pairs.

    Nesting is kept shallow on purpose: neither factor may itself be a
    product.
    """

    def __init__(self, left: Group, right: Group):
        if isinstance(left, ProductGroup) or isinstance(right, ProductGroup):
            raise ValueError("products nest at most one level deep")
        self.left = left
        self.right = right
        self.identity = (left.identity, right.identity)

    @property
    def is_finite(self) -> bool:
        return self.left.is_finite and self.right.is_finite

    def compose(self, g, h):
        self.check_element(g)
        self.check_element(h)
        return (self.left.compose(g[0], h[0]), self.right.compose(g[1], h[1]))

    def invert(self, g):
        self.check_element(g)
        return (self.left.invert(g[0]), self.right.invert(g[1]))

    def is_element(self, g) -> bool:
        return (
            isinstance(g, tuple)
            and len(g) == 2
            and self.left.is_element(g[0])
            and self.right.is_element(g[1])
        )

    def elements(self):
        if not self.is_finite:
            raise ValueError("cannot enumerate an infinite product")
        return [(a, b) for a in self.left.elements() for b in self.right.elements()]

    def __eq__(self, other):
        return (
            isinstance(other, ProductGroup)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash((ProductGroup, self.left, self.right))

    def __repr__(self):
        return f"ProductGroup({self.left!r}, {self.right!r})"


# ---------------------------------------------------------------------------
# bundled finite groups (identity always at index 0)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    # row i is row 0 rotated left by i: (i + j) mod n
    row = tuple(range(n))
    table = tuple(row[i:] + row[:i] for i in range(n))
    return FiniteGroup._by_construction(table, (-g % n for g in row), f"c{n}")


def klein_four_group() -> FiniteGroup:
    # xor on two bits
    table = [[i ^ j for j in range(4)] for i in range(4)]
    return FiniteGroup(table, name="v4")


def symmetric_group_3() -> FiniteGroup:
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[x]] for x in range(3))] for q in perms]
        for p in perms
    ]
    return FiniteGroup(table, name="s3")


def dihedral_group_8() -> FiniteGroup:
    # elements r^a s^b with a < 4, b < 2, index a + 4b; s r = r^-1 s
    def mul(x, y):
        a, b = x % 4, x // 4
        c, d = y % 4, y // 4
        return (a + (c if b == 0 else -c)) % 4 + 4 * ((b + d) % 2)

    table = [[mul(i, j) for j in range(8)] for i in range(8)]
    return FiniteGroup(table, name="d4")


def quaternion_group_8() -> FiniteGroup:
    # index 2u + s: u in (e, i, j, k), s = 0 for +, 1 for -
    unit_mul = {
        (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
        (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
        (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
        (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
    }

    def mul(x, y):
        su, u = (-1 if x % 2 else 1), x // 2
        sv, v = (-1 if y % 2 else 1), y // 2
        sw, w = unit_mul[(u, v)]
        s = su * sv * sw
        return 2 * w + (0 if s > 0 else 1)

    table = [[mul(i, j) for j in range(8)] for i in range(8)]
    return FiniteGroup(table, name="q8")


def bundled_small_groups() -> list[FiniteGroup]:
    """Finite groups of order 2 through 8 shipped with the tool."""
    return [
        cyclic_group(2),
        cyclic_group(3),
        cyclic_group(4),
        klein_four_group(),
        cyclic_group(5),
        cyclic_group(6),
        symmetric_group_3(),
        cyclic_group(7),
        cyclic_group(8),
        dihedral_group_8(),
        quaternion_group_8(),
    ]


_BUNDLED_BY_NAME = None


def bundled_group(name: str) -> FiniteGroup:
    global _BUNDLED_BY_NAME
    if _BUNDLED_BY_NAME is None:
        _BUNDLED_BY_NAME = {g.name: g for g in bundled_small_groups()}
        _BUNDLED_BY_NAME["c1"] = cyclic_group(1)
    if name not in _BUNDLED_BY_NAME:
        raise ValueError(f"unknown bundled group {name!r}")
    return _BUNDLED_BY_NAME[name]


# ---------------------------------------------------------------------------
# scenario (de)serialization


def group_to_json(ctx: Group):
    if isinstance(ctx, IntegerGroup):
        return {"kind": "integers"}
    if isinstance(ctx, FiniteGroup):
        return {"kind": "finite", "name": ctx.name, "table": [list(r) for r in ctx.table]}
    if isinstance(ctx, ProductGroup):
        return {"kind": "product", "left": group_to_json(ctx.left), "right": group_to_json(ctx.right)}
    raise TypeError(f"not a group context: {ctx!r}")


def group_from_json(obj) -> Group:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("group spec must be an object with a 'kind' field")
    kind = obj["kind"]
    if kind == "integers":
        return INTEGERS
    if kind == "finite":
        return FiniteGroup(obj["table"], name=obj.get("name"))
    if kind == "cyclic":
        order = obj["order"]
        if type(order) is not int:
            raise ValueError(f"cyclic group order must be an integer, got {order!r}")
        return cyclic_group(order)
    if kind == "bundled":
        return bundled_group(obj["name"])
    if kind == "product":
        return ProductGroup(group_from_json(obj["left"]), group_from_json(obj["right"]))
    raise ValueError(f"unknown group kind {kind!r}")
