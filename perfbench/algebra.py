"""Finite group tables and eventually periodic integer sets, written for the
benchmark alone.

The corpus generator and the verdict reference both need group tables and
set membership. Neither may call typeflow, so this module re-derives what
they need from the scenario schema: the bundled group tables (with the
element numbering the schema fixes), table builders for the generator, and
a decoder of the integer-set normal form that evaluates membership over a
whole interval as one Python int bitmask.
"""

from __future__ import annotations

from math import gcd

# ---------------------------------------------------------------------------
# finite groups as row-major tables


def cyclic_table(n: int) -> list[list[int]]:
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def dihedral_table(m: int) -> list[list[int]]:
    """Symmetries of the m-gon: index a + m*b stands for r^a s^b."""

    def mul(x, y):
        a, b = x % m, x // m
        c, d = y % m, y // m
        return (a + (c if b == 0 else -c)) % m + m * ((b + d) % 2)

    return [[mul(x, y) for y in range(2 * m)] for x in range(2 * m)]


def _perm_table(perms) -> list[list[int]]:
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[x]] for x in range(len(p)))] for q in perms] for p in perms]


def _quaternion_table() -> list[list[int]]:
    # index 2u + s: u runs over the units 1, i, j, k and s = 1 marks the sign -
    units = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]

    def qmul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    elems = []
    for u in units:
        elems.append(u)
        elems.append(tuple(-c for c in u))
    index = {e: i for i, e in enumerate(elems)}
    return [[index[qmul(x, y)] for y in elems] for x in elems]


def bundled_table(name: str) -> list[list[int]]:
    """The table the scenario schema binds to a bundled group name."""
    if name.startswith("c") and name[1:].isdigit() and 1 <= int(name[1:]) <= 8:
        return cyclic_table(int(name[1:]))
    if name == "v4":
        return [[i ^ j for j in range(4)] for i in range(4)]
    if name == "s3":
        return _perm_table([(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)])
    if name == "d4":
        return dihedral_table(4)
    if name == "q8":
        return _quaternion_table()
    raise ValueError(f"unknown bundled group {name!r}")


BUNDLED_NAMES = ("c1", "c2", "c3", "c4", "c5", "c6", "c7", "c8", "v4", "s3", "d4", "q8")


def direct_product_table(t1, t2) -> list[list[int]]:
    """Table of the direct product; the pair (a, b) gets index a * |t2| + b."""
    n2 = len(t2)
    n = len(t1) * n2
    return [
        [t1[x // n2][y // n2] * n2 + t2[x % n2][y % n2] for y in range(n)]
        for x in range(n)
    ]


def relabel_table(table, perm) -> list[list[int]]:
    """The same group with element x renamed perm[x]."""
    n = len(table)
    inv = [0] * n
    for x, px in enumerate(perm):
        inv[px] = x
    return [[perm[table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]


class Table:
    """A finite group read from its table: identity, inverses, products."""

    def __init__(self, table):
        self.table = [list(row) for row in table]
        self.order = n = len(self.table)
        self.identity = next(e for e in range(n) if all(self.table[e][x] == x for x in range(n)))
        self.inverse = [next(h for h in range(n) if self.table[g][h] == self.identity) for g in range(n)]

    def mul(self, a, b):
        return self.table[a][b]

    def subgroup_closure(self, gens) -> frozenset:
        elems = {self.identity}
        frontier = list(elems)
        gens = list(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.table[x][g]
                if y not in elems:
                    elems.add(y)
                    frontier.append(y)
        return frozenset(elems)

    def normal_closure(self, gens) -> frozenset:
        conj = {self.table[self.table[g][x]][self.inverse[g]] for x in gens for g in range(self.order)}
        return self.subgroup_closure(conj)

    def is_subgroup(self, elems) -> bool:
        return self.identity in elems and all(self.table[a][self.inverse[b]] in elems for a in elems for b in elems)

    def is_normal(self, elems) -> bool:
        return all(self.table[self.table[g][x]][self.inverse[g]] in elems for g in range(self.order) for x in elems)

    def coset_projection(self, normal) -> list[int]:
        """Coset index of each element: the identity coset is 0, then cosets
        in order of their least representative."""
        proj = [-1] * self.order
        count = 0
        for g in [self.identity] + [x for x in range(self.order) if x != self.identity]:
            if proj[g] >= 0:
                continue
            for x in normal:
                proj[self.table[g][x]] = count
            count += 1
        return proj

    def quotient_table(self, normal) -> tuple[list[list[int]], list[int]]:
        proj = self.coset_projection(normal)
        k = max(proj) + 1
        reps = [proj.index(i) for i in range(k)]
        return [[proj[self.table[reps[i]][reps[j]]] for j in range(k)] for i in range(k)], proj


def table_of_spec(spec) -> list[list[int]]:
    """Table of a finite group spec from a scenario."""
    kind = spec["kind"]
    if kind == "cyclic":
        return cyclic_table(int(spec["order"]))
    if kind == "bundled":
        return bundled_table(spec["name"])
    if kind == "finite":
        return [list(row) for row in spec["table"]]
    raise ValueError(f"not a finite group spec: {kind!r}")


# ---------------------------------------------------------------------------
# eventually periodic integer sets


def lcm(*ns: int) -> int:
    out = 1
    for n in ns:
        out = out * n // gcd(out, n)
    return out


def _repeat(pattern: int, period: int, length: int) -> int:
    """The period-bit pattern repeated to cover length bits."""
    if length <= 0:
        return 0
    copies = -(-length // period)
    rep = pattern * (((1 << (period * copies)) - 1) // ((1 << period) - 1))
    return rep & ((1 << length) - 1)


class RefSet:
    """Membership semantics of an integer set as the schema defines it.

    Above the window membership is ``x % period in up``, below it ``x %
    period in down``, inside it the listed bits decide. Inputs need not be
    in normal form; outputs of typeflow are decoded the same way.
    """

    __slots__ = ("period", "up", "down", "lo", "hi", "bits")

    def __init__(self, period, up, down, lo, hi, bits):
        self.period = int(period)
        self.up = frozenset(int(r) % self.period for r in up)
        self.down = frozenset(int(r) % self.period for r in down)
        self.lo, self.hi = int(lo), int(hi)
        self.bits = [bool(b) for b in bits]
        if len(self.bits) != self.hi - self.lo + 1:
            raise ValueError("window bits do not match the window bounds")

    @classmethod
    def from_json(cls, obj) -> "RefSet":
        if isinstance(obj, str):
            named = {
                "evens": (2, [0], [0], 0, -1, []),
                "odds": (2, [1], [1], 0, -1, []),
                "all": (1, [0], [0], 0, -1, []),
                "empty": (1, [], [], 0, -1, []),
                "nonneg": (1, [0], [], 0, -1, []),
                "nonpos": (1, [], [0], 1, 0, []),
            }
            return cls(*named[obj])
        if isinstance(obj, list):
            if not obj:
                return cls(1, [], [], 0, -1, [])
            lo, hi = min(obj), max(obj)
            present = set(obj)
            return cls(1, [], [], lo, hi, [x in present for x in range(lo, hi + 1)])
        window = obj.get("window", {})
        return cls(
            obj.get("mod", 1),
            obj.get("up", []),
            obj.get("down", []),
            window.get("lo", 0),
            window.get("hi", -1),
            window.get("bits", []),
        )

    def member(self, x: int) -> bool:
        if x > self.hi:
            return x % self.period in self.up
        if x < self.lo:
            return x % self.period in self.down
        return self.bits[x - self.lo]

    def _periodic(self, residues, start: int, length: int) -> int:
        p = self.period
        pat = 0
        for j in range(p):
            if (start + j) % p in residues:
                pat |= 1 << j
        return _repeat(pat, p, length)

    def mask(self, a: int, b: int) -> int:
        """Bit i is membership of a + i, for a <= a + i <= b."""
        out = 0
        below_end = min(b, self.lo - 1)
        if a <= below_end:
            out |= self._periodic(self.down, a, below_end - a + 1)
        w0, w1 = max(a, self.lo), min(b, self.hi)
        if w0 <= w1:
            win = 0
            for i, x in enumerate(range(w0, w1 + 1)):
                if self.bits[x - self.lo]:
                    win |= 1 << i
            out |= win << (w0 - a)
        above = max(a, self.hi + 1)
        if above <= b:
            out |= self._periodic(self.up, above, b - above + 1) << (above - a)
        return out

    @property
    def reach(self) -> int:
        """A bound on |x| past which membership is periodic on either side."""
        return max(abs(self.lo), abs(self.hi)) + 1


def quotient_mask(A: RefSet, B: RefSet, a: int, b: int) -> int:
    """Bitmask of {x : x + y in A for some y in B} on [a, b], by brute force.

    A witness y far beyond both windows can be moved by lcm(periods) toward
    them without leaving either tail, so witnesses within the radius below
    suffice for every x in [a, b].
    """
    L = lcm(A.period, B.period)
    X = max(abs(a), abs(b))
    R = max(A.reach, B.reach) + X + L + 1
    b_mask = B.mask(-R, R)
    a_mask = A.mask(-R + a, R + b)
    out = 0
    for i in range(b - a + 1):
        if (a_mask >> i) & b_mask:
            out |= 1 << i
    return out
