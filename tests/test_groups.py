import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from typeflow.compactify import _is_normal, _is_subgroup, definable_homomorphism_check, finite_quotient
from typeflow.flows import FiniteFlowPresentation, check_definable_flow
from typeflow.groups import (
    BackendMismatch,
    FiniteGroup,
    INTEGERS,
    ProductGroup,
    bundled_small_groups,
    cyclic_group,
    dihedral_group_8,
    first_failing_pair,
    group_from_json,
    group_to_json,
    klein_four_group,
    quaternion_group_8,
    symmetric_group_3,
)


def test_compose_examples():
    assert INTEGERS.compose(3, 4) == 7
    c3 = cyclic_group(3)
    assert c3.compose(1, 2) == 0
    prod = ProductGroup(INTEGERS, cyclic_group(2))
    assert prod.compose((1, 1), (2, 1)) == (3, 0)


def test_invert_examples():
    assert INTEGERS.invert(5) == -5
    c3 = cyclic_group(3)
    assert c3.invert(1) == 2
    assert c3.invert(c3.identity) == c3.identity


def test_invert_is_involution():
    for g in bundled_small_groups():
        for x in g.elements():
            assert g.invert(g.invert(x)) == x
    for x in (-9, 0, 14):
        assert INTEGERS.invert(INTEGERS.invert(x)) == x


def test_associativity_exhaustive_small_orders():
    for g in bundled_small_groups():
        if g.order > 12:
            continue
        for a in g.elements():
            for b in g.elements():
                for c in g.elements():
                    assert g.compose(g.compose(a, b), c) == g.compose(a, g.compose(b, c))


def test_identity_neutral():
    for g in bundled_small_groups():
        for x in g.elements():
            assert g.compose(g.identity, x) == x
            assert g.compose(x, g.identity) == x


def test_bundled_covers_orders_2_through_8():
    orders = sorted(g.order for g in bundled_small_groups())
    assert set(orders) == set(range(2, 9))
    # identity sits at index 0 in every bundled table
    assert all(g.identity == 0 for g in bundled_small_groups())


def test_nonabelian_tables_are_groups():
    s3 = symmetric_group_3()
    d4 = dihedral_group_8()
    q8 = quaternion_group_8()
    assert s3.order == 6 and d4.order == 8 and q8.order == 8
    assert any(s3.compose(a, b) != s3.compose(b, a) for a in s3.elements() for b in s3.elements())
    # q8 has a unique element of order 2
    squares = [x for x in q8.elements() if x != 0 and q8.compose(x, x) == 0]
    assert len(squares) == 1


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        FiniteGroup([[0, 1], [1, 1]])  # 1 has no inverse / not latin
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 0]])  # no identity behaves
    with pytest.raises(ValueError):
        FiniteGroup([])


def test_context_mismatch_errors():
    c3 = cyclic_group(3)
    with pytest.raises(BackendMismatch):
        c3.compose(1, 5)
    with pytest.raises(BackendMismatch):
        INTEGERS.compose(1, (2, 3))
    prod = ProductGroup(INTEGERS, c3)
    with pytest.raises(BackendMismatch):
        prod.compose((1, 1), 5)


def test_product_depth_limited():
    prod = ProductGroup(INTEGERS, cyclic_group(2))
    with pytest.raises(ValueError):
        ProductGroup(prod, INTEGERS)


def test_an_infinite_product_has_no_element_list():
    prod = ProductGroup(INTEGERS, cyclic_group(2))
    with pytest.raises(ValueError) as excinfo:
        prod.elements()
    assert type(excinfo.value) is ValueError and str(excinfo.value) == "cannot enumerate an infinite product"


def test_group_json_round_trip():
    for ctx in [INTEGERS, cyclic_group(5), ProductGroup(INTEGERS, symmetric_group_3())]:
        assert group_from_json(group_to_json(ctx)) == ctx


def literal_group_verdict(table) -> bool:
    """The group axioms checked by their definitions, associativity over all triples."""
    n = len(table)
    idents = [e for e in range(n) if all(table[e][x] == x == table[x][e] for x in range(n))]
    if not idents:
        return False
    e = idents[0]
    if not all(any(table[g][h] == e == table[h][g] for h in range(n)) for g in range(n)):
        return False
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def failing_triple(message):
    match = re.fullmatch(r"table is not associative at \((\d+),(\d+),(\d+)\)", message)
    assert match, message
    return tuple(int(x) for x in match.groups())


def relabel(table, perm):
    """The table carried along the bijection i -> perm[i]."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            out[perm[i]][perm[j]] = perm[table[i][j]]
    return out


def dihedral_table(m):
    # r^a s^b at index a + m b; s r = r^-1 s
    def mul(x, y):
        a, b = x % m, x // m
        c, d = y % m, y // m
        return (a + (c if b == 0 else -c)) % m + m * ((b + d) % 2)

    return [[mul(i, j) for j in range(2 * m)] for i in range(2 * m)]


def product_table(left, right):
    k = len(right)
    n = len(left) * k
    return [
        [left[i // k][j // k] * k + right[i % k][j % k] for j in range(n)]
        for i in range(n)
    ]


def test_associativity_alone_rejects_the_order_5_loop():
    loop = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3], [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    # an identity and two-sided inverses, so only associativity can fail
    assert all(loop[0][x] == x == loop[x][0] for x in range(5))
    assert all(loop[x][x] == 0 for x in range(5))
    with pytest.raises(ValueError, match="not associative") as info:
        FiniteGroup(loop)
    a, b, c = failing_triple(str(info.value))
    assert loop[loop[a][b]][c] != loop[a][loop[b][c]]


def random_table_with_identity(rng, n):
    """A table with identity 0 whose other entries are random; most
    elements get a two-sided inverse, and some tables are relabelled
    groups with a few entries changed or none."""
    if n > 1 and rng.random() < 0.4:
        base = rng.choice([g for g in bundled_small_groups() if g.order <= n] + [cyclic_group(n)])
        perm = [0] + rng.sample(range(1, base.order), base.order - 1)
        table = relabel(base.table, perm)
        for _ in range(rng.choice([0, 0, 1, 2])):
            i, j = rng.randrange(1, len(table)), rng.randrange(1, len(table))
            table[i][j] = rng.randrange(len(table))
        return table
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        table[0][x] = table[x][0] = x
    for i in range(1, n):
        for j in range(1, n):
            table[i][j] = rng.randrange(n)
    others = list(range(1, n))
    rng.shuffle(others)
    while others:
        g = others.pop()
        h = others.pop() if others and rng.random() < 0.7 else g
        if rng.random() < 0.9:
            table[g][h] = table[h][g] = 0
    return table


def test_light_test_agrees_with_the_triple_loop_on_random_tables():
    rng = random.Random(3)
    verdicts = []
    for _ in range(3000):
        table = random_table_with_identity(rng, rng.randint(1, 7))
        literal = literal_group_verdict(table)
        try:
            FiniteGroup(table)
            accepted = True
        except ValueError as exc:
            accepted = False
            if "associative" in str(exc):
                a, b, c = failing_triple(str(exc))
                assert table[table[a][b]][c] != table[a][table[b][c]]
        assert accepted == literal, table
        verdicts.append(accepted)
    # both verdicts occur often, so agreement is not vacuous
    assert 500 < sum(verdicts) < 2500


def test_relabelled_dihedral_and_product_tables_are_accepted():
    rng = random.Random(5)
    tables = [dihedral_table(m) for m in range(2, 13)]
    tables += [
        product_table(left.table, right.table)
        for left in (cyclic_group(2), cyclic_group(3), symmetric_group_3())
        for right in (cyclic_group(4), klein_four_group(), quaternion_group_8())
    ]
    for table in tables:
        perm = list(range(len(table)))
        rng.shuffle(perm)
        g = FiniteGroup(relabel(table, perm))
        assert g.order == len(table)
        assert g.identity == perm[0]


# ---------------------------------------------------------------------------
# group laws checked on the generating set


def _law_groups():
    rng = random.Random(8)
    groups = bundled_small_groups() + [cyclic_group(n) for n in range(1, 13)]
    for m in range(2, 7):
        perm = list(range(2 * m))
        rng.shuffle(perm)
        groups.append(FiniteGroup(relabel(dihedral_table(m), perm), name=f"relabelled-d{m}"))
    for left, right in [
        (cyclic_group(2), symmetric_group_3()),
        (cyclic_group(3), klein_four_group()),
        (klein_four_group(), cyclic_group(2)),
    ]:
        groups.append(FiniteGroup(product_table(left.table, right.table), name=f"{left.name}x{right.name}"))
    return groups


LAW_GROUPS = _law_groups()
LAWS = settings(derandomize=True, deadline=None, max_examples=150)


def literal_first_failure(G, holds):
    return next(((a, b) for a in G.elements() for b in G.elements() if not holds(a, b)), None)


def normal_closure(G, x):
    N = {G.identity, x}
    while True:
        more = {G.table[a][b] for a in N for b in N}
        more |= {G.table[G.table[g][a]][G.inverse[g]] for g in G.elements() for a in N}
        if more <= N:
            return frozenset(N)
        N |= more


@st.composite
def perturbed_quotient_maps(draw):
    """A group, its projection onto a quotient by a normal closure, and the
    quotient acting on itself through it, one entry of each changed."""
    G = draw(st.sampled_from(LAW_GROUPS))
    Q, projection = finite_quotient(G, normal_closure(G, draw(st.sampled_from(G.elements()))))
    values = list(projection)
    action = [[Q.table[projection[g]][x] for x in Q.elements()] for g in G.elements()]
    others = [g for g in G.elements() if g != G.identity]
    if others:
        values[draw(st.sampled_from(others))] = draw(st.sampled_from(Q.elements()))
        row = action[draw(st.sampled_from(others))]
        i, j = draw(st.sampled_from(Q.elements())), draw(st.sampled_from(Q.elements()))
        row[i], row[j] = row[j], row[i]
    return G, Q, values, action


def test_generators_are_kept_and_generate():
    for G in LAW_GROUPS:
        assert isinstance(G.generators, tuple)
        assert G.identity not in G.generators
        assert len(G.generators) <= max(G.order - 1, 0).bit_length()
        reached = {G.identity}
        while True:
            more = {G.table[a][s] for a in reached for s in G.generators} - reached
            if not more:
                break
            reached |= more
        assert reached == set(G.elements())
    assert cyclic_group(1).generators == ()


@LAWS
@given(perturbed_quotient_maps())
def test_generator_law_checks_agree_with_all_pairs(case):
    G, Q, values, action = case

    def hom_law(a, b):
        return values[G.table[a][b]] == Q.table[values[a]][values[b]]

    def action_law(a, b):
        return action[G.table[a][b]] == [action[a][action[b][x]] for x in Q.elements()]

    for law in (hom_law, action_law):
        assert first_failing_pair(G.elements(), G.generators, law) == literal_first_failure(G, law)

    failure = literal_first_failure(G, hom_law)
    verdict = definable_homomorphism_check(G, values, Q)
    if failure is None:
        assert verdict.valid or verdict.reason == "dense-image failure"
    else:
        assert not verdict.valid and verdict.reason == "not a homomorphism at ({},{})".format(*failure)

    failure = literal_first_failure(G, action_law)
    if failure is None:
        assert check_definable_flow(FiniteFlowPresentation(G, Q.order, action=action)).valid
    else:
        with pytest.raises(ValueError, match=re.escape("action is not a homomorphism at ({},{})".format(*failure))):
            check_definable_flow(FiniteFlowPresentation(G, Q.order, action=action))


def test_first_failing_pair_may_have_a_non_generator_second_entry():
    c4 = cyclic_group(4)
    assert c4.generators == (1,)
    values = [0, 1, 2, 1]

    def law(a, b):
        return values[c4.table[a][b]] == c4.table[values[a]][values[b]]

    # the generator scan fails first at (2, 1); the reported pair is (1, 2)
    assert not law(2, 1)
    assert first_failing_pair(c4.elements(), c4.generators, law) == literal_first_failure(c4, law) == (1, 2)
    verdict = definable_homomorphism_check(c4, values, c4)
    assert verdict.reason == "not a homomorphism at (1,2)"
    action = [[c4.table[v][x] for x in range(4)] for v in values]
    with pytest.raises(ValueError, match=re.escape("action is not a homomorphism at (1,2)")):
        check_definable_flow(FiniteFlowPresentation(c4, 4, action=action))


def test_trivial_group_law_is_checked_at_the_identity():
    c1 = cyclic_group(1)
    assert first_failing_pair(c1.elements(), c1.generators, lambda a, b: True) is None
    assert first_failing_pair(c1.elements(), c1.generators, lambda a, b: False) == (0, 0)
    # the map from c1 onto the non-identity element of c2 breaks the law at (0, 0)
    c2, values = cyclic_group(2), [1]
    law = lambda a, b: values[c1.table[a][b]] == c2.table[values[a]][values[b]]  # noqa: E731
    assert first_failing_pair(c1.elements(), c1.generators, law) == literal_first_failure(c1, law) == (0, 0)


@pytest.mark.parametrize("values, reason", [([0, 1, 0, 1], None), ([0, 1, 1, 1], "(1,1)"), ([0, 1, 0, 0], "(1,2)")])
def test_integer_homomorphism_law_names_the_first_failing_pair(values, reason):
    c2 = cyclic_group(2)
    literal = next(
        (
            (a, b)
            for a in range(len(values))
            for b in range(len(values))
            if values[(a + b) % len(values)] != c2.table[values[a]][values[b]]
        ),
        None,
    )
    verdict = definable_homomorphism_check(INTEGERS, values, c2)
    if reason is None:
        assert literal is None and verdict.valid
    else:
        assert f"({literal[0]},{literal[1]})" == reason
        assert verdict.reason == f"not a homomorphism at {reason}"


def _subsets(G):
    return [frozenset(g for g in G.elements() if mask >> g & 1) for mask in range(1 << G.order)]


@pytest.mark.parametrize("G", [symmetric_group_3(), dihedral_group_8(), quaternion_group_8()], ids=lambda G: G.name)
def test_is_normal_matches_the_literal_definition_on_every_subset(G):
    verdicts = []
    for N in _subsets(G):
        literal = all(G.table[G.table[g][n]][G.inverse[g]] in N for g in G.elements() for n in N)
        assert _is_normal(G, N) == literal, sorted(N)
        verdicts.append(literal)
    assert 0 < sum(verdicts) < len(verdicts)


def _s3_transpositions_first():
    # relabelled so that two transpositions precede their product, a
    # 3-cycle: {e, s, t, st} is then the product set <s><t>, not a subgroup
    G, label = symmetric_group_3(), [0, 4, 5, 1, 2, 3]
    table = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            table[label[a]][label[b]] = label[G.table[a][b]]
    return FiniteGroup(table, name="s3-transpositions-first")


def _s3_identity_three():
    # relabelled so that the identity is 3, which the subgroup walk skips
    t = symmetric_group_3().table
    table = [[(t[(a - 3) % 6][(b - 3) % 6] + 3) % 6 for b in range(6)] for a in range(6)]
    return FiniteGroup(table, name="s3-identity-3")


@pytest.mark.parametrize(
    "G",
    [
        symmetric_group_3(),
        _s3_transpositions_first(),
        _s3_identity_three(),
        dihedral_group_8(),
        quaternion_group_8(),
        cyclic_group(12),
    ],
    ids=lambda G: G.name,
)
def test_is_subgroup_matches_the_literal_definition_on_every_subset(G):
    verdicts = []
    for N in _subsets(G):
        literal = G.identity in N and all(G.table[a][b] in N and G.inverse[a] in N for a in N for b in N)
        assert _is_subgroup(G, N) == literal, sorted(N)
        verdicts.append(literal)
    assert 0 < sum(verdicts) < len(verdicts)


# ---------------------------------------------------------------------------
# tables that are groups by construction


def group_fields(G):
    return G.table, G.identity, G.inverse, G.generators, G.name, G.order


def test_cyclic_tables_match_the_verifying_constructor():
    for n in range(1, 61):
        built = cyclic_group(n)
        assert group_fields(built) == group_fields(FiniteGroup(built.table, name=f"c{n}"))


def normal_subgroups(G):
    """Every normal subgroup of G, found by trying every subset."""
    found = []
    for mask in range(1 << G.order):
        N = frozenset(g for g in G.elements() if mask >> g & 1)
        if _is_subgroup(G, N) and _is_normal(G, N):
            found.append(N)
    return found


def test_quotient_tables_match_the_verifying_constructor():
    groups = bundled_small_groups() + [
        FiniteGroup(product_table(cyclic_group(2).table, symmetric_group_3().table), name="c2xs3"),
        FiniteGroup(product_table(cyclic_group(3).table, klein_four_group().table), name="c3xv4"),
    ]
    quotients = 0
    for G in groups:
        for N in normal_subgroups(G):
            Q, _ = finite_quotient(G, N)
            assert group_fields(Q) == group_fields(FiniteGroup(Q.table, name=Q.name))
            quotients += 1
    # s3 has 3 normal subgroups, d4 and q8 have 6 each, c2 x s3 has 7
    assert quotients == 56
