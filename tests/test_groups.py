"""Group laws on element positions and the definitional power-graph oracle."""

import gc
import weakref

import numpy as np
import pytest

from powspec.groups import (
    POWER_BLOCK,
    GroupFamily,
    GroupSpec,
    LabeledGraph,
    complement_graph,
    cyclic_subgroup,
    delete_identity,
    edge_lines,
    element_label,
    mul,
    power_graph_oracle,
)
from powspec.joinstruct import build_join
from powspec.numtheory import prime_power

Z = GroupFamily.CYCLIC
D = GroupFamily.DIHEDRAL
Q = GroupFamily.DICYCLIC


def labels(spec):
    return [element_label(spec, i) for i in range(spec.order)]


def test_enumerate_orders():
    assert labels(GroupSpec(Z, 4)) == ["0", "1", "2", "3"]
    assert len(set(labels(GroupSpec(D, 3)))) == 6
    assert len(set(labels(GroupSpec(Q, 2)))) == 8


def test_enumerate_identity_first_and_unique():
    # position 0 is the identity on both sides of every element, and every
    # position has its own name
    for spec in [GroupSpec(Z, 9), GroupSpec(D, 5), GroupSpec(Q, 3)]:
        g = np.arange(spec.order)
        assert np.array_equal(mul(spec, 0, g), g) and np.array_equal(mul(spec, g, 0), g)
        assert element_label(spec, 0) == ("0" if spec.family is Z else "e")
        assert len(set(labels(spec))) == spec.order
        assert power_graph_oracle(spec).identity_index == 0


def test_element_labels_name_every_position():
    # D_n: a^k at k and b·a^k at n + k; Q_n: a^k at k and a^k·b at 2n + k
    assert labels(GroupSpec(D, 3)) == ["e", "a", "a^2", "b", "b·a", "b·a^2"]
    assert labels(GroupSpec(Q, 3)) == [
        "e", "a", "a^2", "a^3", "a^4", "a^5", "b", "a·b", "a^2·b", "a^3·b", "a^4·b", "a^5·b",
    ]
    assert element_label(GroupSpec(Z, 12), np.int64(7)) == "7"


def test_dicyclic_needs_n_at_least_two():
    with pytest.raises(ValueError):
        GroupSpec(Q, 1)
    with pytest.raises(ValueError):
        GroupSpec(Z, 0)


def power(spec, x, k):
    y = 0
    for _ in range(k):
        y = mul(spec, y, x)
    return y


def test_multiplication_relations():
    # defining relations of each presentation, on positions
    spec = GroupSpec(D, 7)
    a, b = 1, 7
    assert power(spec, a, 7) == 0  # a^7 = e
    assert power(spec, a, 6) != 0
    assert mul(spec, b, b) == 0  # b^2 = e
    # b*a = a^(-1)*b
    assert mul(spec, b, a) == mul(spec, power(spec, a, 6), b)
    assert element_label(spec, mul(spec, b, a)) == "b·a"

    spec = GroupSpec(Q, 3)
    a, b = 1, 6
    assert power(spec, a, 6) == 0  # a^6 = e
    assert mul(spec, b, b) == power(spec, a, 3)  # b^2 = a^n
    # a*b = b*a^(-1)
    assert mul(spec, a, b) == mul(spec, b, power(spec, a, 5))
    assert element_label(spec, mul(spec, a, b)) == "a·b"


@pytest.mark.parametrize("n", [1, 2, 3, 7, 12, 30])
def test_index_law_relations_on_whole_arrays(n):
    # a^(order of a) = e, b^2 = e or a^n, b*a = a^(-1)*b, applied on the
    # right of every element at once through the group law on positions
    for family, ord_a, b_squared in ((D, n, 0), (Q, 2 * n, n)):
        if family is Q and n < 2:
            continue
        spec = GroupSpec(family, n)
        g = np.arange(spec.order)
        a, b, a_inv = 1 % ord_a, ord_a, (ord_a - 1) % ord_a  # a, b, a^-1

        def times(x, *ys):
            for y in ys:
                x = mul(spec, x, y)
            return x

        assert np.array_equal(times(g, *[a] * ord_a), g)
        if ord_a > 1:
            assert not np.array_equal(times(g, *[a] * (ord_a - 1)), g)
        assert np.array_equal(times(g, b, b), times(g, b_squared))
        assert np.array_equal(times(g, b, a), times(g, a_inv, b))
        # associativity on every (x, y, z) with x, y ranging over the group
        x, y = np.meshgrid(g, g)
        for z in (a, b, a_inv, spec.order - 1):
            assert np.array_equal(times(times(x, y), z), times(x, times(y, z)))


def presentation_mul(spec, i, j):
    """The law written out from the layout: position t*m + k is b^t*a^k in
    D_n (a^k*b = b*a^(-k)) and a^k*b^t in Q_n (b*a^k = a^(-k)*b, b^2 = a^n),
    with m the order of a."""
    n = spec.n
    m = 2 * n if spec.family is Q else n
    ti, ki = divmod(i, m)
    tj, kj = divmod(j, m)
    if spec.family is D:  # b^ti a^ki b^tj a^kj = b^(ti+tj) a^(+-ki + kj)
        k = ki - 2 * tj * ki + kj
    else:  # a^ki b^ti a^kj b^tj = a^(ki +- kj + n ti tj) b^(ti+tj)
        k = ki + kj - 2 * ti * kj + n * ti * tj
    return (ti ^ tj) * m + k % m


@pytest.mark.parametrize("family", [D, Q], ids=["dn", "qn"])
def test_array_law_is_the_presentation_law(family):
    # i*j, not j*i: swapping the factors of the array law keeps every power
    # graph, every certificate verdict and the whole-array relations above,
    # so only the law itself tells them apart
    for n in range(2 if family is Q else 1, 31):
        spec = GroupSpec(family, n)
        g = np.arange(spec.order)
        x, y = np.meshgrid(g, g, indexing="ij")
        want = presentation_mul(spec, x, y)
        assert np.array_equal(mul(spec, x, y), want), n
        # a (k, w) block times a (k, 1) column, as the certificate's listing
        # multiplies, and a 2-d block times a 1-d row, as the oracle steps
        assert np.array_equal(mul(spec, x, y[:, :1]), want[:, :1].repeat(spec.order, axis=1)), n
        assert np.array_equal(mul(spec, x, g), want), n
        assert np.array_equal(mul(spec, g, x), want.T), n
        for i, j in ((1, spec.order - 1), (spec.order - 1, 1), (0, 0)):
            got = mul(spec, i, j)
            assert type(got) is int and got == presentation_mul(spec, i, j), (n, i, j)
    # a*b and b*a: b*a^2 and b*a in D_3, a*b and a^5*b in Q_3
    spec, b = GroupSpec(family, 3), 3 if family is D else 6
    assert (mul(spec, 1, b), mul(spec, b, 1)) == ((5, 4) if family is D else (7, 11))


def test_law_tables_live_and_die_with_their_spec():
    for family, n in ((D, 15), (Q, 12), (D, 1), (Q, 2)):
        first, second = GroupSpec(family, n), GroupSpec(family, n)
        assert first == second and hash(first) == hash(second)
        g = np.arange(first.order)
        assert np.array_equal(mul(first, g, g[::-1]), mul(second, g, g[::-1]))
        tables = first._tables
        assert all(a is not b for a, b in zip(tables, second._tables))
        # at most six int64 words per element
        assert all(t.dtype == np.int64 for t in tables)
        assert sum(t.nbytes for t in tables) <= 6 * 8 * first.order
        # the build's certificate and the oracle read the same tables
        assert build_join(first, "power").spec is first and first._tables is tables
        power_graph_oracle(first)
        assert first._tables is tables
        gone = weakref.ref(tables[0])
        del first, tables
        gc.collect()
        assert gone() is None  # no memo outlives the spec
    spec = GroupSpec(Z, 12)
    power_graph_oracle(spec)
    build_join(spec, "power")
    assert "_tables" not in vars(spec) and spec._tables is None


def test_cyclic_subgroup_examples():
    assert cyclic_subgroup(GroupSpec(Z, 6), 2) == {0, 2, 4}
    # b in Q_2 (position 4) generates {e, b, a^2, a^2 b}, written b^3 = a^2 b
    got = cyclic_subgroup(GroupSpec(Q, 2), 4)
    assert got == {0, 4, 2, 6}
    assert sorted(element_label(GroupSpec(Q, 2), x) for x in got) == ["a^2", "a^2·b", "b", "e"]
    # every reflection of D_n has order 2
    for n in (2, 5, 9):
        for k in range(n):
            assert cyclic_subgroup(GroupSpec(D, n), n + k) == {0, n + k}


@pytest.mark.parametrize(
    "spec", [GroupSpec(Z, 12), GroupSpec(D, 6), GroupSpec(Q, 3), GroupSpec(Q, 4)],
    ids=["Z12", "D6", "Q3", "Q4"],
)
def test_cyclic_subgroup_matches_oracle_rows(spec):
    # x ~ y iff x != y and one lies in the subgroup the other generates
    g = power_graph_oracle(spec)
    subgroup = [cyclic_subgroup(spec, x) for x in range(spec.order)]
    for x in range(spec.order):
        row = {y for y in range(spec.order) if y != x and (y in subgroup[x] or x in subgroup[y])}
        assert set(np.flatnonzero(g.adj[x]).tolist()) == row, x


def brute_power_graph_zn(n):
    """Independent oracle: u ~ v iff one is an integer multiple of the other
    mod n, checked by direct enumeration of multiples."""
    adj = np.zeros((n, n), dtype=bool)
    for u in range(n):
        mult_u = {(u * m) % n for m in range(n)}
        for v in range(n):
            mult_v = {(v * m) % n for m in range(n)}
            if u != v and (u in mult_v or v in mult_u):
                adj[u, v] = True
    return adj


def test_power_graph_z4_complete():
    g = power_graph_oracle(GroupSpec(Z, 4))
    assert g.edge_count() == 6  # K_4


def test_power_graph_z6():
    g = power_graph_oracle(GroupSpec(Z, 6))
    assert g.edge_count() == 13
    assert np.array_equal(g.adj, brute_power_graph_zn(6))
    assert not g.adj[2, 3] and not g.adj[4, 3]


def test_power_graph_d3():
    g = power_graph_oracle(GroupSpec(D, 3))
    # triangle on {e, a, a^2} plus e joined to the three reflections
    assert g.edge_count() == 6
    rot, refl = [0, 1, 2], [3, 4, 5]  # a^k at k, b·a^k at 3 + k
    assert all(g.adj[i, j] for i in rot for j in rot if i != j)
    assert all(g.adj[0, j] for j in refl)
    assert not any(g.adj[i, j] for i in refl for j in refl if i != j)
    assert not any(g.adj[i, j] for i in rot[1:] for j in refl)


def test_delete_identity():
    g4 = delete_identity(power_graph_oracle(GroupSpec(Z, 4)))
    assert g4.n == 3 and g4.edge_count() == 3  # K_3

    gd3 = delete_identity(power_graph_oracle(GroupSpec(D, 3)))
    assert gd3.n == 5 and gd3.edge_count() == 1  # K_2 plus 3 isolated vertices

    g1 = delete_identity(power_graph_oracle(GroupSpec(Z, 1)))
    assert g1.n == 0

    with pytest.raises(ValueError):
        delete_identity(g4)  # identity already gone


@pytest.mark.parametrize(
    "spec", [GroupSpec(Z, 12), GroupSpec(D, 7), GroupSpec(Q, 5)], ids=["Z12", "D7", "Q5"]
)
def test_delete_identity_equals_gather_without_vertex_zero(spec):
    g = power_graph_oracle(spec)
    keep = np.arange(1, g.n)
    proper = delete_identity(g)
    assert np.array_equal(proper.adj, g.adj[np.ix_(keep, keep)])
    assert proper.identity_index is None and proper.n == spec.order - 1
    assert proper.adj.flags.owndata  # a copy, not a view of the power graph


def test_complement_examples():
    k4 = power_graph_oracle(GroupSpec(Z, 4))
    assert complement_graph(k4).edge_count() == 0
    comp6 = complement_graph(power_graph_oracle(GroupSpec(Z, 6)))
    assert sorted(edge_lines(comp6)) == ["2 3", "3 4"]


def test_complement_involution():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(1, 30))
        adj = np.triu(rng.uniform(size=(n, n)) < 0.5, 1)
        g = power_graph_oracle(GroupSpec(Z, n))  # plus a random graph below
        assert np.array_equal(complement_graph(complement_graph(g)).adj, g.adj)
        h = LabeledGraph(adj | adj.T)
        assert np.array_equal(complement_graph(complement_graph(h)).adj, h.adj)


def test_completeness_criterion_small():
    # complete iff n = 1 or a prime power (cyclic family)
    for n in range(1, 61):
        g = power_graph_oracle(GroupSpec(Z, n))
        complete = g.edge_count() == n * (n - 1) // 2
        assert complete == (n == 1 or prime_power(n) is not None)


def test_identity_universal_and_reflection_degree():
    for spec in [GroupSpec(Z, 12), GroupSpec(D, 8), GroupSpec(Q, 5)]:
        g = power_graph_oracle(spec)
        assert int(g.degrees()[g.identity_index]) == g.n - 1
    for n in (2, 3, 10):
        g = power_graph_oracle(GroupSpec(D, n))
        for k in range(n):
            assert int(g.degrees()[n + k]) == 1  # the reflection b·a^k


def test_edge_lines_format():
    g = power_graph_oracle(GroupSpec(Z, 4))
    lines = list(edge_lines(g))
    assert lines == ["0 1", "0 2", "0 3", "1 2", "1 3", "2 3"]


def structural_power_graph(spec):
    """Power graph from the known subgroup structure, not from products:
    in Z_n, u ~ v iff gcd(u, n) and gcd(v, n) divide one another; in D_n the
    rotations form the power graph of Z_n and each reflection is joined to
    e alone; in Q_n the a-powers form the power graph of Z_2n and a^k b is
    joined to e, a^n and a^(n+k) b."""
    m = spec.order if spec.family is Z else spec.order // 2
    g = np.gcd(np.arange(m), m)
    g[0] = m
    cyc = (g[:, None] % g[None, :] == 0) | (g[None, :] % g[:, None] == 0)
    adj = np.zeros((spec.order, spec.order), dtype=bool)
    adj[:m, :m] = cyc
    if spec.family is D:
        adj[0, m:] = adj[m:, 0] = True
    elif spec.family is Q:
        n = spec.n
        k = np.arange(m)
        for partner in (np.zeros_like(k), np.full_like(k, n), m + (n + k) % m):
            adj[m + k, partner] = adj[partner, m + k] = True
    np.fill_diagonal(adj, False)
    return adj


@pytest.mark.parametrize(
    "family, top", [(Z, 200), (D, 100), (Q, 60)], ids=["zn", "dn", "qn"]
)
def test_oracle_matches_structural_rule(family, top):
    for n in range(1 if family is not Q else 2, top + 1):
        spec = GroupSpec(family, n)
        assert np.array_equal(power_graph_oracle(spec).adj, structural_power_graph(spec)), n


@pytest.mark.parametrize("family, n", [(Z, 1260), (D, 630), (Q, 315)], ids=["zn", "dn", "qn"])
def test_oracle_matches_structural_rule_several_blocks_deep(family, n):
    # element orders up to 1260 and 630 take many blocks of powers; every
    # order divides 1260, so none is a multiple of 8, and with blocks of a
    # multiple of 8 powers every row drops inside a block
    spec = GroupSpec(family, n)
    assert spec.order > 16 * POWER_BLOCK and POWER_BLOCK % 8 == 0
    assert np.array_equal(power_graph_oracle(spec).adj, structural_power_graph(spec))
