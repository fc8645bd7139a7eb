"""Independent verdict reference for typeflow reports.

Each task result in a report is checked against an answer this module
derives on its own: closed forms for the level type spaces (idempotents are
+0 and -0, left ideals are unions of full sign circles, measure weights are
1/(2n), factor images are i mod m, the kernel intersection over Z at
max_modulus m is lcm(1..m)Z) and brute force for everything else (set
membership over whole intervals, table products, translate covers). It
decodes the JSON normal forms itself and imports nothing from typeflow.

A task fails when it is not ok, when any check or agreement flag in its
result is false, or when its verdict or certificate disagrees with the
reference.
"""

from __future__ import annotations

from .algebra import RefSet, Table, lcm, quotient_mask, table_of_spec

# result keys whose boolean value is a self-check that must hold
CHECK_FLAGS = {
    "oracle_agrees",
    "agrees_with_closed_form",
    "invariant",
    "agree",
    "homomorphism",
    "surjective",
    "commutes",
    "unique",
    "closure_identity_checked",
}


class Mismatch(Exception):
    """The report disagrees with the reference."""


def expect(cond, message: str):
    if not cond:
        raise Mismatch(message)


def false_flags(obj, path="result") -> list[str]:
    """Paths of check flags (and entries of `checks` maps) that are false."""
    out = []
    if isinstance(obj, dict):
        for key, value in obj.items():
            sub = f"{path}.{key}"
            if key == "checks" and isinstance(value, dict):
                out += [f"{sub}.{k}" for k, v in value.items() if v is not True]
            elif key in CHECK_FLAGS and isinstance(value, bool):
                if not value:
                    out.append(sub)
            else:
                out += false_flags(value, sub)
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            out += false_flags(value, f"{path}[{i}]")
    return out


# ---------------------------------------------------------------------------
# decoding


def point(obj):
    if obj["kind"] == "realized":
        value = obj["value"]
        return ("r", tuple(value) if isinstance(value, list) else value)
    return ("l", 1 if obj["sign"] == "+" else -1, int(obj["res"]), int(obj["mod"]))


def point_json(p) -> dict:
    if p[0] == "r":
        return {"kind": "realized", "value": list(p[1]) if isinstance(p[1], tuple) else p[1]}
    return {"kind": "limit", "sign": "+" if p[1] > 0 else "-", "res": p[2], "mod": p[3]}


def circle(sign: int, n: int) -> list[dict]:
    return [point_json(("l", sign, r, n)) for r in range(n)]


class Context:
    """The group backend of a scenario, decoded from its spec."""

    def __init__(self, spec):
        self.kind = spec["kind"]
        self.left = self.right = self.table = None
        if self.kind == "product":
            self.left = Context(spec["left"])
            self.right = Context(spec["right"])
        elif self.kind != "integers":
            self.table = Table(table_of_spec(spec))


class UnionSet:
    """Finite union of integer sets, enough for masks and quotients."""

    def __init__(self, parts):
        self.parts = list(parts)
        self.period = lcm(*(p.period for p in self.parts)) if self.parts else 1
        self.reach = max((p.reach for p in self.parts), default=1)

    def mask(self, a: int, b: int) -> int:
        out = 0
        for p in self.parts:
            out |= p.mask(a, b)
        return out


def full_mask(a: int, b: int) -> int:
    return (1 << (b - a + 1)) - 1


# ---------------------------------------------------------------------------
# integer sets


def canonical_problem(S: RefSet) -> str | None:
    """Why S is not in the unique normal form, or None."""
    p = S.period
    for d in range(1, p):
        if p % d == 0 and all(((r + d) % p in S.up) == (r in S.up) for r in range(p)) and all(
            ((r + d) % p in S.down) == (r in S.down) for r in range(p)
        ):
            return f"period {p} is not minimal ({d} works)"

    def up(x):
        return x % p in S.up

    def down(x):
        return x % p in S.down

    if S.hi >= S.lo:
        if S.bits[-1] == up(S.hi):
            return "window top agrees with the up pattern"
        if S.bits[0] == down(S.lo):
            return "window bottom agrees with the down pattern"
    elif S.up == S.down:
        if (S.lo, S.hi) != (0, -1):
            return "two-sided pattern without the fixed empty window"
    elif up(S.lo - 1) == down(S.lo - 1):
        return "empty-window boundary is not the least valid one"
    return None


def integer_result(obj) -> RefSet:
    S = RefSet.from_json(obj)
    problem = canonical_problem(S)
    expect(problem is None, f"result not canonical: {problem}")
    return S


def span(sets, extra: int = 0) -> tuple[int, int]:
    """An interval reaching two common periods past every window."""
    L = lcm(*(S.period for S in sets))
    lo = min(S.lo for S in sets) - 2 * L - extra
    hi = max(S.hi for S in sets) + 2 * L + extra
    return lo, hi


def check_integer_equal(result: RefSet, truth_mask, sets, extra: int = 0):
    """result equals the set whose mask on [a, b] is truth_mask(a, b); exact
    when every set involved is periodic past the interval's ends."""
    a, b = span(list(sets) + [result], extra)
    expect(result.mask(a, b) == truth_mask(a, b), f"membership differs from the reference on [{a}, {b}]")


def check_integer_difference(Y, D: RefSet):
    X = 2 * max(Y.reach, D.reach) + 4 * lcm(Y.period, D.period)
    expect(D.mask(-X, X) == quotient_mask(Y, Y, -X, X), f"difference set differs from brute force on [{-X}, {X}]")


def check_integer_cover(Y, translates):
    """The translates Y + t cover every integer (exact: past the interval
    every translate is periodic)."""
    expect(translates, "generic verdict without translates")
    a = Y.lo + min(translates) - 2 * Y.period - Y.reach
    b = Y.hi + max(translates) + 2 * Y.period + Y.reach
    covered = 0
    for t in translates:
        covered |= Y.mask(a - t, b - t)
    expect(covered == full_mask(a, b), "translates do not cover the integers")


def integer_generic(Y) -> bool:
    """Closed form: generic exactly when both eventual patterns are nonempty."""
    return bool(Y.up) and bool(Y.down)


# ---------------------------------------------------------------------------
# finite and product sets


def finite_set(obj) -> frozenset:
    return frozenset(obj["elements"] if isinstance(obj, dict) else obj)


def finite_result(obj, T: Table) -> frozenset:
    elems = obj["elements"]
    expect(elems == sorted(set(elems)) and all(0 <= e < T.order for e in elems), "malformed element list")
    return frozenset(elems)


def finite_quotient(T: Table, A, B) -> frozenset:
    return frozenset(T.mul(a, T.inverse[b]) for a in A for b in B)


class ProductSet:
    """Union of rectangles over a product backend, decoded for checking.

    Over integers x finite the set is kept per right-hand element as the
    union of the integer columns whose fiber holds it; over finite x finite
    it is the explicit set of pairs.
    """

    def __init__(self, ctx: Context, obj):
        self.rects = []
        for a, b in obj["rectangles"]:
            left = RefSet.from_json(a) if ctx.left.kind == "integers" else finite_set(a)
            self.rects.append((left, finite_set(b)))

    def column(self, y) -> UnionSet:
        return UnionSet(a for a, b in self.rects if y in b)

    def pairs(self) -> frozenset:
        return frozenset((x, y) for a, b in self.rects for x in a for y in b)

    def sets(self):
        return [a for a, _ in self.rects]


def check_product_equal(ctx: Context, result: ProductSet, truth_column, sources, extra: int = 0):
    """Over Z x F: compare each right-element column on a common interval.
    truth_column(y, a, b) is the reference mask of column y."""
    a, b = span([s for src in sources for s in src.sets()] + result.sets(), extra)
    for y in range(ctx.right.table.order):
        expect(result.column(y).mask(a, b) == truth_column(y, a, b), f"column {y} differs from the reference")


def product_pair_ops(ctx: Context):
    Tl, Tr = ctx.left.table, ctx.right.table

    def mul(g, h):
        return (Tl.mul(g[0], h[0]), Tr.mul(g[1], h[1]))

    def inv(g):
        return (Tl.inverse[g[0]], Tr.inverse[g[1]])

    elements = [(x, y) for x in range(Tl.order) for y in range(Tr.order)]
    return mul, inv, elements


# ---------------------------------------------------------------------------
# per-task checks; each raises Mismatch


def _set_in(ctx: Context, obj):
    if ctx.kind == "integers":
        return RefSet.from_json(obj)
    if ctx.kind == "product":
        return ProductSet(ctx, obj)
    return finite_set(obj)


def task_boolean(ctx, level, params, result):
    kind = params["kind"]
    A = _set_in(ctx, params["a"])
    B = _set_in(ctx, params["b"]) if "b" in params else None
    if ctx.kind == "integers":
        R = integer_result(result["result"])
        ops = {
            "union": lambda a, b: A.mask(a, b) | B.mask(a, b),
            "intersection": lambda a, b: A.mask(a, b) & B.mask(a, b),
            "complement": lambda a, b: ~A.mask(a, b) & full_mask(a, b),
        }
        check_integer_equal(R, ops[kind], [A] + ([B] if B else []))
    elif ctx.kind == "product":
        R = ProductSet(ctx, result["result"])
        if ctx.left.kind == "integers":
            ops = {
                "union": lambda y, a, b: A.column(y).mask(a, b) | B.column(y).mask(a, b),
                "intersection": lambda y, a, b: A.column(y).mask(a, b) & B.column(y).mask(a, b),
                "complement": lambda y, a, b: ~A.column(y).mask(a, b) & full_mask(a, b),
            }
            check_product_equal(ctx, R, ops[kind], [A] + ([B] if B else []))
        else:
            _, _, elements = product_pair_ops(ctx)
            truth = {
                "union": lambda: A.pairs() | B.pairs(),
                "intersection": lambda: A.pairs() & B.pairs(),
                "complement": lambda: frozenset(elements) - A.pairs(),
            }[kind]()
            expect(R.pairs() == truth, "product Boolean result differs from brute force")
    else:
        R = finite_result(result["result"], ctx.table)
        everything = frozenset(range(ctx.table.order))
        truth = {"union": lambda: A | B, "intersection": lambda: A & B, "complement": lambda: everything - A}[kind]()
        expect(R == truth, "finite Boolean result differs from brute force")


def task_translate(ctx, level, params, result):
    g = params["g"]
    Y = _set_in(ctx, params["set"])
    if ctx.kind == "integers":
        R = integer_result(result["result"])
        check_integer_equal(R, lambda a, b: Y.mask(a - g, b - g), [Y], extra=abs(g))
    elif ctx.kind == "product":
        R = ProductSet(ctx, result["result"])
        u, v = g
        Tr = ctx.right.table
        if ctx.left.kind == "integers":
            check_product_equal(
                ctx, R, lambda y, a, b: Y.column(Tr.mul(Tr.inverse[v], y)).mask(a - u, b - u), [Y], extra=abs(u)
            )
        else:
            mul, _, _ = product_pair_ops(ctx)
            expect(R.pairs() == frozenset(mul((u, v), p) for p in Y.pairs()), "product translate differs")
    else:
        R = finite_result(result["result"], ctx.table)
        expect(R == frozenset(ctx.table.mul(g, y) for y in Y), "finite translate differs")


def task_difference_set(ctx, level, params, result):
    Y = _set_in(ctx, params["set"])
    if ctx.kind == "integers":
        check_integer_difference(Y, integer_result(result["difference_set"]))
    elif ctx.kind == "product":
        R = ProductSet(ctx, result["difference_set"])
        Tr = ctx.right.table
        if ctx.left.kind == "integers":
            # (x, f) is a difference iff x + b1 in column(f b2) for some (b1, b2) in Y
            def truth(f, a, b):
                out = 0
                for b2 in range(Tr.order):
                    out |= quotient_mask(Y.column(Tr.mul(f, b2)), Y.column(b2), a, b)
                return out

            # opposite tails leave Frobenius gaps of up to L^2 past the windows
            L = lcm(*(S.period for S in Y.sets()))
            widest = max((S.reach for S in Y.sets()), default=1)
            check_product_equal(ctx, R, truth, [Y], extra=2 * widest + L * L + 4 * L)
        else:
            mul, inv, _ = product_pair_ops(ctx)
            pairs = Y.pairs()
            expect(R.pairs() == frozenset(mul(p, inv(q)) for p in pairs for q in pairs), "product difference differs")
    else:
        R = finite_result(result["difference_set"], ctx.table)
        expect(R == finite_quotient(ctx.table, Y, Y), "finite difference set differs")


def task_is_generic(ctx, level, params, result):
    Y = _set_in(ctx, params["set"])
    translates = result.get("translates")
    if ctx.kind == "integers":
        generic = integer_generic(Y)
        expect(result["generic"] == generic, f"generic should be {generic}")
        if generic:
            check_integer_cover(Y, translates)
    elif ctx.kind == "product" and ctx.left.kind == "integers":
        generic = any(a.up and b for a, b in Y.rects) and any(a.down and b for a, b in Y.rects)
        expect(result["generic"] == generic, f"generic should be {generic}")
        if generic:
            expect(translates, "generic verdict without translates")
            Tr = ctx.right.table
            us = [t[0] for t in translates]
            a, b = span(Y.sets(), extra=max(abs(u) for u in us) + max(S.reach for S in Y.sets()))
            for f in range(Tr.order):
                covered = 0
                for u, v in translates:
                    covered |= Y.column(Tr.mul(Tr.inverse[v], f)).mask(a - u, b - u)
                expect(covered == full_mask(a, b), f"translates leave column {f} uncovered")
    elif ctx.kind == "product":
        mul, _, elements = product_pair_ops(ctx)
        pairs = Y.pairs()
        expect(result["generic"] == bool(pairs), f"generic should be {bool(pairs)}")
        if pairs:
            covered = {mul(tuple(t), p) for t in translates for p in pairs}
            expect(covered == set(elements), "translates do not cover the product")
    else:
        T = ctx.table
        expect(result["generic"] == bool(Y), f"generic should be {bool(Y)}")
        if Y:
            covered = {T.mul(t, y) for t in translates for y in Y}
            expect(covered == set(range(T.order)), "translates do not cover the group")


def ref_star(p, q):
    """Closed form on one level: the right factor's direction wins, residues add."""
    if p[0] == "r" and q[0] == "r":
        return ("r", p[1] + q[1])
    level = q[3] if q[0] == "l" else p[3]
    expect(all(x[0] == "r" or x[3] == level for x in (p, q)), "reference covers same-level products only")
    if p[0] == "r":
        return ("l", q[1], (p[1] + q[2]) % level, level)
    if q[0] == "r":
        return ("l", p[1], (p[2] + q[1]) % level, level)
    return ("l", q[1], (p[2] + q[2]) % level, level)


def task_star(ctx, level, params, result):
    expect(ctx.kind == "integers", "reference covers integer products only")
    expect(point(result["product"]) == ref_star(point(params["p"]), point(params["q"])), "product differs from the closed form")


def task_idempotents(ctx, level, params, result):
    if ctx.kind == "integers":
        truth = [point_json(("l", 1, 0, level)), point_json(("l", -1, 0, level))]
    else:
        truth = [point_json(("r", ctx.table.identity))]
    expect(result["idempotents"] == truth, "idempotents are not exactly the identity types")


def task_minimal_subflows(ctx, level, params, result):
    if ctx.kind == "integers":
        truth = [circle(1, level), circle(-1, level)]
    else:
        truth = [[point_json(("r", g)) for g in range(ctx.table.order)]]
    expect(result["subflows"] == truth, "minimal subflows are not the sign circles")


def task_universal_minimal_flow(ctx, level, params, result):
    expect(ctx.kind == "integers", "reference covers the integer backend only")
    n = level
    expect(result["subflow"] == circle(1, n), "universal minimal flow is not the + circle")
    expect(result["idempotent"] == point_json(("l", 1, 0, n)), "idempotent is not +0")
    isos = result["isomorphisms"]
    expect(len(isos) == 2, "expected one isomorphism per minimal subflow")
    for sign, iso in zip((1, -1), isos):
        expect(iso["target"] == circle(sign, n), "isomorphism target is not a sign circle")
        expect(iso["map"] == [[point_json(("l", 1, r, n)), point_json(("l", sign, r, n))] for r in range(n)],
               "isomorphism is not right translation by the target's +0")


def task_is_left_ideal(ctx, level, params, result):
    pts = {point(p) for p in params["points"]}
    if ctx.kind == "integers":
        truth = bool(pts) and all(p[0] == "l" and p[3] == level for p in pts) and all(
            {("l", p[1], r, level) for r in range(level)} <= pts for p in pts
        )
    else:
        truth = pts == {("r", g) for g in range(ctx.table.order)}
    expect(result["left_ideal"] == truth, f"left_ideal should be {truth}")


def task_ambit_morphism(ctx, level, params, result):
    expect(ctx.kind == "integers", "reference covers integer flows only")
    flow = params["flow"]
    pi, base = flow["pi"], flow["base"]
    cycle = [base]
    while pi[cycle[-1]] != base:
        cycle.append(pi[cycle[-1]])
    d = len(cycle)
    expect(result["orbit_period"] == d, "orbit period differs")
    expect(result["realized_images"] == cycle, "realized images differ from the orbit")
    truth = [[point_json(("l", s, r, level)), cycle[r % d]] for s in (1, -1) for r in range(level)]
    expect(result["limit_images"] == truth, "limit images are not the residues mod the orbit period")


def task_invariant_measure(ctx, level, params, result):
    expect(ctx.kind == "integers" and "flow" not in params, "reference covers level measures over Z")
    weight = f"1/{2 * level}"
    truth = [[p, weight] for p in circle(1, level) + circle(-1, level)]
    expect(result["weights"] == truth, "weights are not 1/(2n) on each limit point")


def _action_flow(params):
    flow = params["flow"]
    return flow["carrier"], flow["action"], flow.get("base")


def task_fixed_points(ctx, level, params, result):
    if "flow" in params:
        size, action, _ = _action_flow(params)
        truth = [x for x in range(size) if all(row[x] == x for row in action)]
    elif ctx.kind == "integers":
        truth = [] if level > 1 else circle(1, 1) + circle(-1, 1)
    else:
        truth = [point_json(("r", ctx.table.identity))] if ctx.table.order == 1 else []
    expect(result["fixed_points"] == truth, "fixed points differ")


def task_check_flow(ctx, level, params, result):
    T = ctx.table
    size, action, base = _action_flow(params)
    valid = all(sorted(row) == list(range(size)) for row in action) and action[T.identity] == list(range(size))
    valid = valid and all(
        action[T.mul(g, h)][x] == action[g][action[h][x]]
        for g in range(T.order)
        for h in range(T.order)
        for x in range(size)
    )
    expect(valid and result["valid"] is True, "flow should be valid")
    orbits = [{row[x] for row in action} for x in range(size)]
    expect(result["orbit_periods"] == [len(o) for o in orbits], "orbit sizes differ")
    ambit = None if base is None else len(orbits[base]) == size
    expect(result["ambit"] == ambit, f"ambit should be {ambit}")


def task_universal_compactification(ctx, level, params, result):
    factors = result["factors"]
    targets = params["targets"]
    expect(len(factors) == len(targets), "one factor per target expected")
    if ctx.kind == "integers":
        expect(result["quotient_size"] == level, "quotient size is not the level")
        for m, f in zip(targets, factors):
            expect(f["target_size"] == m and f["images"] == [i % m for i in range(level)], f"factor images are not i mod {m}")
        return
    T = ctx.table
    core = frozenset(range(T.order))
    for N in targets:
        core &= frozenset(N)
    core_proj = T.coset_projection(core)
    expect(result["quotient_size"] == T.order // len(core), "quotient size differs")
    for N, f in zip(targets, factors):
        proj = T.coset_projection(frozenset(N))
        images = [None] * (max(core_proj) + 1)
        for g in range(T.order):
            images[core_proj[g]] = proj[g]
        expect(f["target_size"] == T.order // len(N) and f["images"] == images, "factor images differ")


def task_logic_quotient(ctx, level, params, result):
    T = ctx.table
    blocks = [frozenset(b) for b in params["blocks"]]
    fibers = [finite_result(f, T) for f in result["fibers"]]
    expect(result["size"] == len(blocks) and set(fibers) == set(blocks), "fibers are not the blocks")
    ident = next(b for b in blocks if T.identity in b)
    is_group = T.is_subgroup(ident) and T.is_normal(ident) and all(
        frozenset(T.mul(min(b), x) for x in ident) == b for b in blocks
    )
    expect(result["is_group"] == is_group, f"is_group should be {is_group}")


def task_check_homomorphism(ctx, level, params, result):
    T = ctx.table
    spec = params["target"]
    target = Table(table_of_spec(spec if isinstance(spec, dict) else {"kind": "bundled", "name": spec}))
    values = params["values"]
    valid = (
        values[T.identity] == target.identity
        and all(values[T.mul(a, b)] == target.mul(values[a], values[b]) for a in range(T.order) for b in range(T.order))
        and set(values) == set(range(target.order))
    )
    expect(result["valid"] == valid, f"valid should be {valid}")
    if valid:
        fibers = [{"elements": [g for g in range(T.order) if values[g] == c]} for c in range(target.order)]
        expect(result["fibers"] == fibers and result["factor_images"] == values, "fibers or factor images differ")


def _check_certificate_finite(T: Table, result):
    W = finite_result(result["witness_set"], T)
    D = finite_result(result["difference_set"], T)
    expect(W, "empty witness set")
    expect(D == finite_quotient(T, W, W), "certificate difference set differs")
    expect({T.mul(t, y) for t in result["translate_cover"] for y in W} == set(range(T.order)), "cover fails")
    expect(result["missed_element"] not in D and 0 <= result["missed_element"] < T.order, "missed element is in the difference set")


def _check_certificate_integers(result, max_modulus):
    W = integer_result(result["witness_set"])
    D = integer_result(result["difference_set"])
    expect(W.hi < W.lo and W.period <= max_modulus and W.up == W.down, "witness is not a family member")
    expect(integer_generic(W), "witness is not generic")
    check_integer_cover(W, result["translate_cover"])
    check_integer_difference(W, D)
    expect(not D.member(result["missed_element"]), "missed element is in the difference set")


def task_pestov_check(ctx, level, params, result):
    m = params.get("max_modulus", 4)
    if ctx.kind == "integers":
        expect(result["verdict"] == ("certificate" if m >= 2 else "exhausted"), "pestov verdict differs")
        if m >= 2:
            _check_certificate_integers(result, m)
        return
    T = ctx.table
    expect(result["verdict"] == ("certificate" if T.order > 1 else "exhausted"), "pestov verdict differs")
    if T.order > 1:
        _check_certificate_finite(T, result)


def task_kernel_intersection(ctx, level, params, result):
    m = params.get("max_modulus", 4)
    if ctx.kind == "integers":
        M = lcm(*range(1, m + 1))
        I = integer_result(result["intersection"])
        expect(
            (I.period, sorted(I.up), sorted(I.down), I.lo, I.hi) == (M, [0], [0], 0, -1),
            f"intersection is not {M}Z",
        )
        expect(result["subgroup"] == {"kind": "congruence", "modulus": M}, "subgroup descriptor differs")
        return
    e = ctx.table.identity
    expect(result["intersection"] == {"elements": [e]}, "intersection is not the trivial subgroup")
    expect(result["subgroup"] == {"kind": "elements", "elements": [e]}, "subgroup descriptor differs")


def task_singleton_minimal(ctx, level, params, result):
    m = params.get("max_modulus", 4)
    if ctx.kind == "integers":
        side_a = level == 1
        side_b = m < 2
    else:
        side_a = ctx.table.order == 1
        side_b = ctx.table.order == 1
    expect(result["all_minimal_singletons"] == side_a, f"all_minimal_singletons should be {side_a}")
    expect(result["meeting_sets_have_full_difference"] == side_b, "meeting-set side differs")
    expect(result["agree"] == (side_a == side_b), "agree differs")
    if not side_b:
        if ctx.kind == "integers":
            W = integer_result(result["witness"])
            d = W.period
            expect(W.hi < W.lo and d <= m, "witness is not a family member")
            expect(quotient_mask(W, W, 0, d - 1) != full_mask(0, d - 1), "witness has full difference set")
        else:
            W = finite_result(result["witness"], ctx.table)
            expect(W and len(finite_quotient(ctx.table, W, W)) < ctx.table.order, "witness has full difference set")


def task_acting_set(ctx, level, params, result):
    expect(ctx.kind == "integers", "reference covers integer acting sets only")
    p = point(params["p"])
    Y = RefSet.from_json(params["set"])
    R = integer_result(result["result"])
    if p[0] == "r":
        a = p[1]
        check_integer_equal(R, lambda lo, hi: Y.mask(lo + a, hi + a), [Y], extra=abs(a))
        return
    _, sign, r, n = p
    expect(n % Y.period == 0, "set period does not divide the level")
    pattern = Y.up if sign > 0 else Y.down
    truth = RefSet(Y.period, [(c - r) % Y.period for c in pattern], [(c - r) % Y.period for c in pattern], 0, -1, [])
    check_integer_equal(R, truth.mask, [truth])


def task_contains(ctx, level, params, result):
    p = point(params["p"])
    Y = RefSet.from_json(params["set"])
    if p[0] == "r":
        truth = Y.member(p[1])
    else:
        _, sign, r, n = p
        truth = (r % Y.period) in (Y.up if sign > 0 else Y.down)
    expect(result["contains"] == truth, f"contains should be {truth}")


def task_g00(ctx, level, params, result):
    if ctx.kind == "integers":
        truth = {"kind": "congruence", "modulus": params.get("level", level)}
    else:
        truth = {"kind": "elements", "elements": [ctx.table.identity]}
    expect(result["subgroup"] == truth, "g00 differs")


CHECKS = {
    "boolean": task_boolean,
    "translate": task_translate,
    "difference-set": task_difference_set,
    "is-generic": task_is_generic,
    "star": task_star,
    "star-via-schema": task_star,
    "idempotents": task_idempotents,
    "minimal-subflows": task_minimal_subflows,
    "universal-minimal-flow": task_universal_minimal_flow,
    "is-left-ideal": task_is_left_ideal,
    "universal-ambit-morphism": task_ambit_morphism,
    "invariant-measure": task_invariant_measure,
    "fixed-points": task_fixed_points,
    "check-flow": task_check_flow,
    "universal-compactification": task_universal_compactification,
    "logic-quotient": task_logic_quotient,
    "check-homomorphism": task_check_homomorphism,
    "pestov-check": task_pestov_check,
    "kernel-intersection": task_kernel_intersection,
    "singleton-minimal": task_singleton_minimal,
    "acting-set": task_acting_set,
    "contains": task_contains,
    "g00": task_g00,
}

# tasks that must carry oracle_agrees when the oracle is on (integer backend)
ORACLE_TASKS = {"star", "is-generic", "difference-set"}
ORACLE_LEVEL_TASKS = {"idempotents", "minimal-subflows"}


def check_report(scenario: dict, flags, report) -> list[str | None]:
    """One entry per task: None when the task passed, else why it failed."""
    tasks = scenario.get("tasks", [])
    if not isinstance(report, dict) or not isinstance(report.get("results"), list):
        return ["no report"] * len(tasks)
    results = report["results"]
    if len(results) != len(tasks) or report.get("scenario") != scenario:
        return ["report does not match the scenario"] * len(tasks)
    ctx = Context(scenario["group"])
    level = scenario.get("level", 1)
    oracle = "--with-oracle" in flags
    out = []
    for task, entry in zip(tasks, results):
        op = task["op"]
        params = {k: v for k, v in task.items() if k != "op"}
        try:
            expect(entry.get("op") == op and entry.get("params") == params, "entry does not echo its task")
            expect(entry.get("ok") is True, f"task not ok: {entry.get('error')}")
            result = entry["result"]
            bad = false_flags(result)
            expect(not bad, f"false check flags: {', '.join(bad)}")
            if oracle and ctx.kind == "integers" and (
                op in ORACLE_TASKS or (op in ORACLE_LEVEL_TASKS and level <= 8)
            ):
                expect(result.get("oracle_agrees") is True, "oracle agreement missing")
            expect(op in CHECKS, f"no reference for {op}")
            CHECKS[op](ctx, level, params, result)
            out.append(None)
        except Mismatch as exc:
            out.append(f"{op}: {exc}")
        except (AttributeError, KeyError, TypeError, ValueError, IndexError) as exc:
            out.append(f"{op}: malformed result ({type(exc).__name__}: {exc})")
    return out
