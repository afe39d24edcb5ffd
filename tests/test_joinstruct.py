"""Join templates, block partitions, derived degrees and the cyclic-subgroup
certificate, checked against the assembled graph and the definitional
oracle."""

import random
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from powspec.groups import (
    GroupFamily,
    GroupSpec,
    LabeledGraph,
    cyclic_subgroup,
    delete_identity,
    element_label,
    power_graph_oracle,
)
from powspec.joinstruct import (
    JoinBlock,
    JoinStructure,
    StructureValidationError,
    Variant,
    _column_gcds,
    _gcds,
    _orders,
    _power,
    build_join,
    divisor_graph,
    validate_structure,
    variant_graph,
)
from powspec.numtheory import divisors, factorize, totient
from powspec.spectra import (
    UniversalParams,
    dense_eigen,
    hjoin_spectrum,
    multiset_gap,
    universal_matrix,
)

Z = GroupFamily.CYCLIC
D = GroupFamily.DIHEDRAL
Q = GroupFamily.DICYCLIC


def assemble(js):
    """Concrete graph of a join structure in the vertex order of its
    (proper) power graph: each block a set of disjoint cliques, plus
    complete bipartite gluing between template-adjacent blocks.  The block
    members must be a permutation of the vertex positions."""
    clique_of = np.empty(js.order, dtype=np.intp)
    first = 0  # cliques are numbered across all blocks
    for block in js.blocks:
        clique_of[block.members] = first + np.arange(block.size) // block.clique
        first += block.copies
    block_of = np.repeat(np.arange(len(js.blocks)), [b.copies for b in js.blocks])  # per clique
    joined = js.adj[np.ix_(block_of, block_of)] | np.eye(first, dtype=bool)
    adj = joined[:, clique_of][clique_of]
    np.fill_diagonal(adj, False)
    return LabeledGraph(adj, None if js.variant is Variant.PROPER else 0)


def oracle_refusal(js):
    """The refusal of ``js`` by the vertex-for-vertex comparison of its
    assembled graph with the oracle, or None: the reference the certificate
    must reproduce, naming the row-major first mismatching pair."""
    oracle = variant_graph(power_graph_oracle(js.spec), js.variant)
    built = assemble(js).adj
    mismatch = built != oracle.adj
    if not mismatch.any():
        return None
    i, j = np.argwhere(mismatch)[0]
    shift = 1 if js.variant is Variant.PROPER else 0
    x, y = element_label(js.spec, i + shift), element_label(js.spec, j + shift)
    has, lacks = ("join", "power graph") if built[i, j] else ("power graph", "join")
    return (
        f"join of {js.spec.family.value} n={js.spec.n} ({js.variant.value}) refused: "
        f"{x} ~ {y} in the {has}, not in the {lacks}"
    )


def certificate_refusal(js):
    try:
        validate_structure(js)
    except StructureValidationError as exc:
        return str(exc)
    return None


def template_edges(labels, adj):
    t = len(labels)
    return {(labels[i], labels[j]) for i in range(t) for j in range(i + 1, t) if adj[i, j]}


def structure_edges(js):
    return template_edges([b.label for b in js.blocks], js.adj)


def test_divisor_graph_15():
    assert template_edges((1, 3, 5, 15), divisor_graph([1, 3, 5, 15])) == {
        (1, 3), (1, 5), (1, 15), (3, 15), (5, 15),
    }


def test_divisor_graph_prime_power_complete():
    for n in (8, 27, 25):
        divs = divisors(n)
        assert len(template_edges(divs, divisor_graph(divs))) == len(divs) * (len(divs) - 1) // 2


def test_divisor_graph_trivial():
    assert divisor_graph([1]).tolist() == [[False]]


def test_divisor_graph_is_pairwise_divisibility():
    for n in range(1, 2001):
        divs = divisors(n)
        want = [[a != b and (b % a == 0 or a % b == 0) for b in divs] for a in divs]
        assert divisor_graph(divs).tolist() == want, n


def test_gcd_sieves_are_gcd():
    # gcd(k, m) with k = 0 counting as m: the divisor class of a^k in the
    # builder, the column gcd of a listed row in the certificate
    for m in list(range(1, 2001)) + [720720]:
        want = np.gcd(np.arange(m), m)
        want[0] = m
        assert np.array_equal(_gcds(m), want), m
        assert np.array_equal(_column_gcds(m, [p for p, _ in factorize(2 * m)]), want), m


def dihedral_template(n):
    js = build_join(GroupSpec(D, n), Variant.POWER)
    return [b.label for b in js.blocks], structure_edges(js)


def test_dihedral_template():
    labels, edges = dihedral_template(15)
    assert len(labels) == 5
    assert ("R",) == tuple(labels[-1:])
    assert (15, "R") in edges
    assert sum(1 for e in edges if "R" in e) == 1

    assert dihedral_template(7)[1] == {(1, 7), (7, "R")}  # path 1 -- 7 -- R
    assert dihedral_template(1)[1] == {(1, "R")}


def test_dicyclic_template_poset():
    # rotation blocks on the divisors of 2n joined by divisibility, and R
    # joined to the blocks of a^n (d = n) and e (d = 2n) only
    js = build_join(GroupSpec(Q, 5), Variant.POWER)
    assert [b.label for b in js.blocks] == [1, 2, 5, 10, "R"]
    assert structure_edges(js) == {
        (1, 2), (1, 5), (1, 10), (2, 10), (5, 10), (5, "R"), (10, "R"),
    }


def assert_derived_fields(js):
    """``sizes``, ``order`` and ``degrees``, read twice, against their
    recomputation from the blocks and the template."""
    sizes = tuple(len(b.members) for b in js.blocks)
    degrees = tuple(
        b.clique - 1 + sum(size for size, joined in zip(sizes, row) if joined)
        for b, row in zip(js.blocks, js.adj.tolist())
    )
    for _ in range(2):
        assert (js.sizes, js.order, js.degrees) == (sizes, sum(sizes), degrees)
        assert all(type(x) is int for x in (js.order, *js.sizes, *js.degrees))


def test_build_join_z6_blocks():
    js = build_join(GroupSpec(Z, 6), Variant.POWER)
    assert_derived_fields(js)
    by_label = {b.label: b for b in js.blocks}
    assert {lab: b.size for lab, b in by_label.items()} == {1: 2, 2: 2, 3: 1, 6: 1}
    assert all(b.clique == b.size for b in js.blocks)


def test_build_join_d15_blocks():
    js = build_join(GroupSpec(D, 15), Variant.POWER)
    assert_derived_fields(js)
    by_label = {b.label: b for b in js.blocks}
    assert {lab: b.size for lab, b in by_label.items()} == {1: 8, 3: 4, 5: 2, 15: 1, "R": 15}
    assert by_label["R"].clique == 1
    assert all(by_label[d].clique == by_label[d].size for d in (1, 3, 5, 15))


def test_build_join_q2_proper_blocks():
    js = build_join(GroupSpec(Q, 2), Variant.PROPER)
    assert_derived_fields(js)
    assert [b.label for b in js.blocks] == [1, 2, "R"]
    assert js.sizes == (2, 1, 4)
    # vertices of the proper power graph: vertex i is the element at i + 1
    assert js.blocks[0].members.tolist() == [0, 2]
    assert js.blocks[1].members.tolist() == [1]
    r = js.blocks[2]
    assert r.members.tolist() == [3, 5, 4, 6]  # clique by clique

    def names(block):
        return [element_label(js.spec, i + 1) for i in block.members]

    assert names(js.blocks[0]) == ["a", "a^3"]
    assert names(r) == ["b", "a^2·b", "a·b", "a^3·b"]
    assert r.clique == 2 and r.regularity == 1 and js.degrees[2] == 2
    assert structure_edges(js) == {(1, 2), (2, "R")}


def test_block_local_eigenvalues():
    # -1 inside the cliques, clique - 1 across them; with the all-ones
    # direction they account for every vertex of the block
    assert JoinBlock("K5", np.arange(5), 5).local_eigenvalues() == ((-1, 4), (4, 0))
    assert JoinBlock("E4", np.arange(4), 1).local_eigenvalues() == ((-1, 0), (0, 3))
    assert JoinBlock("3K2", np.arange(6), 2).local_eigenvalues() == ((-1, 3), (1, 2))
    for n in (3, 6, 12):
        for b in build_join(GroupSpec(Q, n), Variant.POWER).blocks:
            assert 1 + sum(m for _, m in b.local_eigenvalues()) == b.size


def test_assemble_z4_complete():
    g = assemble(build_join(GroupSpec(Z, 4), Variant.POWER))
    assert g.edge_count() == 6


@pytest.mark.parametrize(
    "spec,variant",
    [
        (GroupSpec(Z, 6), Variant.POWER),
        (GroupSpec(D, 3), Variant.POWER),
        (GroupSpec(D, 3), Variant.PROPER),
        (GroupSpec(Q, 4), Variant.POWER),
    ],
)
def test_assemble_matches_oracle_vertexwise(spec, variant):
    js = build_join(spec, variant)
    built = assemble(js)
    oracle = power_graph_oracle(spec)
    if variant is Variant.PROPER:
        oracle = delete_identity(oracle)
    assert built.n == oracle.n
    assert built.identity_index == oracle.identity_index
    assert np.array_equal(built.adj, oracle.adj)


def test_validation_sweep_small():
    for n in range(1, 61):
        build_join(GroupSpec(Z, n), Variant.POWER)
        if n >= 2:
            build_join(GroupSpec(Z, n), Variant.PROPER)
    for n in range(1, 31):
        build_join(GroupSpec(D, n), Variant.POWER)
        build_join(GroupSpec(D, n), Variant.PROPER)
    for n in (2, 4, 8, 16):
        build_join(GroupSpec(Q, n), Variant.POWER)
        build_join(GroupSpec(Q, n), Variant.PROPER)


def test_dicyclic_every_n_validates():
    for n in range(2, 61):
        t = len(divisors(2 * n)) + 1
        assert len(build_join(GroupSpec(Q, n), Variant.POWER).blocks) == t
        assert len(build_join(GroupSpec(Q, n), Variant.PROPER).blocks) == t - 1


def star_structure(n):
    """A hand-made star join for Q_n: {e, a^n} at the centre, the other
    a-powers as one clique leaf, and the n pairs {a^k b, a^(n+k) b} as
    clique leaves.  It is the power graph only when n is a power of two.
    a^k sits at position k and a^k b at 2n + k."""
    members = [[0, n], [j for j in range(2 * n) if j not in (0, n)]]
    members += [[2 * n + k, 3 * n + k] for k in range(n)]
    adj = np.zeros((n + 2, n + 2), dtype=bool)
    adj[0, 1:] = adj[1:, 0] = True
    blocks = tuple(JoinBlock(i, np.array(m), len(m)) for i, m in enumerate(members))
    return JoinStructure(GroupSpec(Q, n), Variant.POWER, adj, blocks)


def test_dicyclic_structure_refused_away_from_two_powers():
    # the poset builder validates at every n; a star template validates
    # only at powers of two, and the validator refuses it elsewhere
    for n in (3, 5, 6, 12):
        build_join(GroupSpec(Q, n), Variant.POWER)
        build_join(GroupSpec(Q, n), Variant.PROPER)
        with pytest.raises(StructureValidationError):
            validate_structure(star_structure(n))
    for n in (2, 4, 8):
        validate_structure(star_structure(n))


def test_members_are_vertex_positions_of_cyclic_subgroups():
    # the blocks together hold each vertex position once, and every clique
    # of a block is the set of generators of one cyclic subgroup, its own;
    # rotation block d lists the k with gcd(k, m) = d ascending
    from math import gcd

    specs = (
        [GroupSpec(Z, n) for n in range(1, 61)]
        + [GroupSpec(D, n) for n in range(1, 31)]
        + [GroupSpec(Q, n) for n in range(2, 16)]
    )
    for spec in specs:
        subgroup = [frozenset(cyclic_subgroup(spec, x)) for x in range(spec.order)]
        for variant in (Variant.POWER, Variant.PROPER):
            if variant is Variant.PROPER and spec.order < 2:
                continue
            js = build_join(spec, variant)
            shift = 1 if variant is Variant.PROPER else 0
            every = np.sort(np.concatenate([b.members for b in js.blocks]))
            assert np.array_equal(every, np.arange(spec.order - shift)), (spec, variant)
            seen = set()
            m = spec.order if spec.family is Z else spec.order // 2
            for b in js.blocks:
                assert b.members.dtype.kind == "i"
                if b.label != "R":
                    ks = [k for k in range(m) if (gcd(k, m) if k else m) == b.label]
                    assert b.members.tolist() == [k - shift for k in ks], (spec, variant, b.label)
                for clique in b.members.reshape(-1, b.clique) + shift:
                    generated = {subgroup[i] for i in clique.tolist()}
                    assert len(generated) == 1, (spec, variant, b.label)
                    seen |= generated
            assert len(seen) == sum(b.copies for b in js.blocks), (spec, variant)


def mutant(js, edit):
    """``js`` with its block members replaced by ``edit(list of member lists)``."""
    members = edit([b.members.tolist() for b in js.blocks])
    blocks = tuple(replace(b, members=np.array(m)) for b, m in zip(js.blocks, members))
    return replace(js, blocks=blocks)


def swap_first(ms, i, j):
    ms[i][0], ms[j][0] = ms[j][0], ms[i][0]
    return ms


def set_first(ms, value):
    ms[0][0] = value
    return ms


@pytest.mark.parametrize(
    "spec, variant",
    [
        (GroupSpec(Z, 12), Variant.POWER),
        (GroupSpec(D, 6), Variant.PROPER),
        (GroupSpec(Q, 6), Variant.POWER),
    ],
    ids=["Z12", "D6-proper", "Q6"],
)
@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda ms: swap_first(ms, 0, 1), "refused: "),
        # not block 0 with the last: in Z_n the generators and e are twins
        (lambda ms: swap_first(ms, 1, -1), "refused: "),
        (lambda ms: set_first(ms, ms[1][0]), "are not the positions"),
        (lambda ms: set_first(ms, -1), "are not the positions"),
        (lambda ms: set_first(ms, sum(map(len, ms))), "are not the positions"),
        (lambda ms: [m[1:] if k == 0 else m for k, m in enumerate(ms)], "covers"),
        (lambda ms: [m + m[:1] if k == 0 else m for k, m in enumerate(ms)], "covers"),
    ],
    ids=[
        "swapped", "swapped-with-last", "repeated", "negative", "at-N", "missing", "extra",
    ],
)
def test_validation_refuses_member_mutants(spec, variant, edit, reason):
    js = build_join(spec, variant)
    with pytest.raises(StructureValidationError, match=reason):
        validate_structure(mutant(js, edit))


def test_proper_needs_order_two():
    with pytest.raises(ValueError):
        build_join(GroupSpec(Z, 1), Variant.PROPER)


def test_block_size_sums():
    for spec in [GroupSpec(Z, 36), GroupSpec(D, 12), GroupSpec(Q, 8)]:
        assert build_join(spec, Variant.POWER).order == spec.order
        assert build_join(spec, Variant.PROPER).order == spec.order - 1


def test_cross_block_adjacency_is_divisibility():
    # on the oracle graph, two gcd-classes are fully joined iff one divisor
    # divides the other, and never partially joined
    from math import gcd

    for n in range(2, 201):
        g = power_graph_oracle(GroupSpec(Z, n))
        divs = divisors(n)
        members = {d: [] for d in divs}
        for x in range(n):
            members[gcd(x, n) if x else n].append(x)
        for i, di in enumerate(divs):
            for dj in divs[i + 1 :]:
                if dj == n or di == n:
                    continue
                sub = g.adj[np.ix_(members[di], members[dj])]
                if dj % di == 0 or di % dj == 0:
                    assert sub.all(), (n, di, dj)
                else:
                    assert not sub.any(), (n, di, dj)


def test_degree_formula():
    # degree of a vertex in the gcd-d block: phi(n/d) - 1 + sum of adjacent
    # block sizes in the divisor graph
    from math import gcd

    for n in (12, 30, 60, 90):
        g = power_graph_oracle(GroupSpec(Z, n))
        divs = divisors(n)
        deg = g.degrees()
        for x in range(n):
            d = gcd(x, n) if x else n
            expected = totient(n // d) - 1 + sum(
                totient(n // dj)
                for dj in divs
                if dj != d and (dj % d == 0 or d % dj == 0)
            )
            assert int(deg[x]) == expected


def test_degrees_are_oracle_row_sums():
    # every vertex of a block has the block's derived degree, on both variants
    specs = (
        [GroupSpec(Z, n) for n in range(1, 401)]
        + [GroupSpec(D, n) for n in range(1, 201)]
        + [GroupSpec(Q, n) for n in range(2, 101)]
    )
    for spec in specs:
        power = power_graph_oracle(spec)
        for variant in (Variant.POWER, Variant.PROPER):
            if variant is Variant.PROPER and spec.order < 2:
                continue
            js = build_join(spec, variant)
            assert_derived_fields(js)
            want = np.empty(js.order, dtype=np.int64)
            for b, degree in zip(js.blocks, js.degrees):
                want[b.members] = degree
            assert np.array_equal(variant_graph(power, variant).degrees(), want), (spec, variant)
    js = build_join(GroupSpec(D, 15), Variant.POWER)
    by_label = dict(zip([b.label for b in js.blocks], js.degrees))
    assert by_label["R"] == 1  # a reflection is joined to e alone
    assert by_label[15] == 8 + 4 + 2 + 15  # e: every other vertex
    assert by_label[1] == 7 + 4 + 2 + 1  # a generator: its clique, then a^3, a^5, e


def test_structure_clears_loops_and_is_read_only():
    js = build_join(GroupSpec(Z, 12), Variant.POWER)
    adj = np.ones((len(js.blocks),) * 2, dtype=bool)
    looped = replace(js, adj=adj)
    assert not np.diag(looped.adj).any() and adj.all()  # cleared on a copy
    assert looped.degrees == (js.order - 1,) * len(js.blocks)
    with pytest.raises(ValueError):
        js.adj[0, 1] = False
    with pytest.raises(ValueError):
        js.adj[0, 0] = True


def test_validate_structure_direct_call():
    js = build_join(GroupSpec(Z, 12), Variant.POWER)
    validate_structure(js)  # no error, on a second call too


def flipped(spec, variant, a, b):
    """The structure of ``spec`` with the a-b template edge flipped."""
    js = build_join(spec, variant)
    labels = [blk.label for blk in js.blocks]
    i, j = labels.index(a), labels.index(b)
    adj = js.adj.copy()
    adj[i, j] = adj[j, i] = not adj[i, j]
    return replace(js, adj=adj)


@pytest.mark.parametrize(
    "spec, variant, a, b, reason",
    [
        (GroupSpec(Z, 12), Variant.POWER, 2, 4, "2 ~ 4 in the power graph, not in the join"),
        (GroupSpec(Z, 12), Variant.PROPER, 2, 3, "2 ~ 3 in the join, not in the power graph"),
        (GroupSpec(D, 6), Variant.PROPER, 3, "R", "a^3 ~ b in the join, not in the power graph"),
        (GroupSpec(Q, 6), Variant.POWER, 1, 4, "a ~ a^4 in the power graph, not in the join"),
    ],
    ids=["Z12-2-4", "Z12-proper-2-3", "D6-proper-3-R", "Q6-1-4"],
)
def test_refusal_names_first_mismatching_pair(spec, variant, a, b, reason):
    js = flipped(spec, variant, a, b)
    with pytest.raises(StructureValidationError) as exc:
        validate_structure(js)
    assert str(exc.value) == (
        f"join of {spec.family.value} n={spec.n} ({variant.value}) refused: {reason}"
    )
    assert oracle_refusal(js) == str(exc.value)


def test_variant_graph():
    g = power_graph_oracle(GroupSpec(D, 6))
    assert variant_graph(g, Variant.POWER) is g
    proper = variant_graph(g, Variant.PROPER)
    assert np.array_equal(proper.adj, delete_identity(g).adj)
    assert proper.identity_index is None
    with pytest.raises(ValueError):
        variant_graph(power_graph_oracle(GroupSpec(Z, 1)), Variant.PROPER)


def test_certificate_accepts_every_small_structure():
    specs = (
        [GroupSpec(Z, n) for n in range(1, 401)]
        + [GroupSpec(D, n) for n in range(1, 201)]
        + [GroupSpec(Q, n) for n in range(2, 101)]
    )
    accepted = 0
    for spec in specs:
        for variant in (Variant.POWER, Variant.PROPER):
            if variant is Variant.PROPER and spec.order < 2:
                continue
            build_join(spec, variant)  # validates
            accepted += 1
    assert accepted == 1397


def flip_edge(js, rng):
    x, z = rng.randrange(len(js.blocks)), rng.randrange(len(js.blocks))
    adj = js.adj.copy()
    adj[x, z] = adj[z, x] = not adj[x, z]
    return replace(js, adj=adj)


def swap_members(js, rng):
    blocks = list(js.blocks)
    x, z = rng.randrange(len(blocks)), rng.randrange(len(blocks))
    mx = blocks[x].members.copy()
    mz = mx if x == z else blocks[z].members.copy()
    i, k = rng.randrange(len(mx)), rng.randrange(len(mz))
    mx[i], mz[k] = mz[k], mx[i]
    blocks[x], blocks[z] = replace(blocks[x], members=mx), replace(blocks[z], members=mz)
    return replace(js, blocks=tuple(blocks))


def resize_cliques(js, rng, merge):
    """``js`` with one block cut into cliques of another size that divides
    it; under ``merge``, a multiple of the old size, so whole cliques join."""
    options = [
        (x, c)
        for x, b in enumerate(js.blocks)
        for c in range(1, b.size + 1)
        if b.size % c == 0 and c != b.clique and (not merge or c % b.clique == 0)
    ]
    if not options:
        return None
    x, c = rng.choice(options)
    blocks = list(js.blocks)
    blocks[x] = replace(blocks[x], clique=c)
    return replace(js, blocks=tuple(blocks))


MUTANTS = {
    "flipped-edge": flip_edge,
    "swapped-members": swap_members,
    "merged-cliques": lambda js, rng: resize_cliques(js, rng, merge=True),
    "clique-size": lambda js, rng: resize_cliques(js, rng, merge=False),
}


@pytest.mark.parametrize("kind", list(MUTANTS))
def test_certificate_matches_oracle_on_seeded_mutants(kind):
    # same verdict as the assembled graph against the oracle, and on a
    # refusal the same first pair, on every mutant; mutants of a mutant too.
    # A flipped edge on the diagonal is a loop, which the structure clears.
    rng = random.Random(f"certificate:{kind}")
    specs = (
        [GroupSpec(Z, n) for n in (1, 2, 6, 12, 16, 30, 36, 60, 64, 97, 120)]
        + [GroupSpec(D, n) for n in (1, 2, 3, 6, 8, 15, 30, 32)]
        + [GroupSpec(Q, n) for n in (2, 3, 4, 6, 8, 15)]
    )
    refused = compared = 0
    for spec in specs:
        for variant in (Variant.POWER, Variant.PROPER):
            if variant is Variant.PROPER and spec.order < 2:
                continue
            js = build_join(spec, variant)
            for _ in range(6):
                mutated = MUTANTS[kind](js, rng)
                if mutated is not None and rng.random() < 0.3:
                    mutated = MUTANTS[rng.choice(list(MUTANTS))](mutated, rng) or mutated
                if mutated is None:
                    continue
                expect = oracle_refusal(mutated)
                assert certificate_refusal(mutated) == expect, (spec, variant)
                refused += expect is not None
                compared += 1
    assert compared > 100 and refused > compared // 2


def test_certificate_accepts_what_the_oracle_accepts():
    # in Z_n the identity and the generators are true twins: swapping one
    # generator with e leaves the assembled graph, hence the verdict, alone
    for n in (2, 12, 30):
        js = mutant(build_join(GroupSpec(Z, n), Variant.POWER), lambda ms: swap_first(ms, 0, -1))
        assert oracle_refusal(js) is None
        validate_structure(js)


def test_certificate_refuses_broken_cliques_and_templates():
    js = build_join(GroupSpec(D, 6), Variant.POWER)
    r = js.blocks[-1]
    blocks = js.blocks[:-1] + (replace(r, clique=4),)  # 6 reflections, cliques of 4
    with pytest.raises(StructureValidationError, match="not made of whole cliques"):
        validate_structure(replace(js, blocks=blocks))
    adj = js.adj.copy()
    adj[0, -1] = not adj[0, -1]
    with pytest.raises(StructureValidationError, match="not symmetric"):
        validate_structure(replace(js, adj=adj))
    for shape in ((4, 4), (5, 6)):  # D_6 has 5 blocks
        with pytest.raises(StructureValidationError, match="not symmetric over its 5 blocks"):
            validate_structure(replace(js, adj=np.zeros(shape, dtype=bool)))


def test_certificate_needs_no_template_code(monkeypatch):
    structures = [
        build_join(spec, variant)
        for spec in (GroupSpec(Z, 360), GroupSpec(D, 60), GroupSpec(Q, 30))
        for variant in (Variant.POWER, Variant.PROPER)
    ]

    def refuse(*args):
        raise AssertionError("template code called")

    for name in ("divisors", "divisor_graph", "power_graph_oracle"):
        monkeypatch.setattr(f"powspec.joinstruct.{name}", refuse, raising=False)
    monkeypatch.setattr("powspec.groups.power_graph_oracle", refuse)
    for js in structures:
        validate_structure(js)


def test_certificate_beyond_the_oracle():
    # order 55440: the oracle would take 6 GB; the certificate still names a pair
    spec = GroupSpec(Z, 55440)
    build_join(spec, Variant.POWER)  # validates
    with pytest.raises(StructureValidationError) as exc:
        validate_structure(flipped(spec, Variant.PROPER, 2, 4))
    assert str(exc.value) == (
        "join of zn n=55440 (proper) refused: 2 ~ 4 in the power graph, not in the join"
    )


def test_orders_are_cyclic_subgroup_sizes():
    specs = [GroupSpec(Z, n) for n in range(1, 201)]
    specs += [GroupSpec(D, n) for n in range(1, 101)]
    specs += [GroupSpec(Q, n) for n in range(2, 51)]
    specs += [GroupSpec(Z, 1024), GroupSpec(Q, 256)]  # every order a power of two
    for spec in specs:
        want = [len(cyclic_subgroup(spec, x)) for x in range(spec.order)]
        assert _orders(spec, np.arange(spec.order)).tolist() == want, spec


def orders_by_primes(spec, x):
    """Element orders one prime of |G| at a time at every position, with no
    settling by squaring: the reference for refusals under a broken law."""
    size = spec.order
    out = np.ones(len(x), dtype=np.int64)
    for p, e in factorize(size):
        y = _power(spec, x, size // p**e)
        for _ in range(e):
            live = y != 0
            if not live.any():
                break
            out[live] *= p
            y = _power(spec, y, p)
        if y.any():
            bad = element_label(spec, x[np.argmax(y != 0)])
            raise StructureValidationError(f"{bad}^{size} is not e in {spec}")
    return out


def orders_or_refusal(orders, spec, x):
    try:
        return orders(spec, x).tolist()
    except StructureValidationError as exc:
        return str(exc)


@pytest.mark.parametrize(
    "spec, modulus",
    [
        (GroupSpec(Z, 12), 16),
        (GroupSpec(Z, 12), 18),
        (GroupSpec(Z, 40), 64),
        (GroupSpec(Z, 30), 7),
        (GroupSpec(D, 6), 8),
        (GroupSpec(D, 10), 24),
        (GroupSpec(Q, 3), 32),
        (GroupSpec(Q, 6), 48),
    ],
)
def test_orders_refusal_names_the_same_element_under_a_broken_law(monkeypatch, spec, modulus):
    # positions added modulo another modulus: a law with identity 0 whose
    # orders need not divide |G|; elements it sends to e by squaring are
    # settled before the per-prime loop, which must still name the same x
    js = build_join(spec, Variant.POWER)
    monkeypatch.setattr("powspec.joinstruct.mul", lambda spec, i, j: (i + j) % modulus)
    for seed in range(5):
        x = np.random.default_rng(seed).permutation(spec.order)
        got = orders_or_refusal(_orders, spec, x)
        assert isinstance(got, str) and got == orders_or_refusal(orders_by_primes, spec, x), x
    reps = np.concatenate([b.members.reshape(-1, b.clique)[:, 0] for b in js.blocks])
    with pytest.raises(StructureValidationError) as exc:
        validate_structure(js)
    assert str(exc.value) == orders_or_refusal(orders_by_primes, spec, reps)


@pytest.mark.parametrize(
    "spec, label",
    [
        (GroupSpec(Z, 12), "1"),
        (GroupSpec(Z, 30), "1"),
        (GroupSpec(D, 6), "a"),
        (GroupSpec(Q, 6), "a"),
    ],
)
def test_listing_refuses_a_row_that_repeats_under_a_broken_law(monkeypatch, spec, label):
    # positions added modulo |G|, except that a product landing on the last
    # position lands on 1: every first-round rep has an order that passes
    # _orders, but the powers of position 1, listed first, come back to 1
    # at column |G| - 1
    size = spec.order
    landing = np.arange(size)
    landing[-1] = 1
    js = build_join(spec, Variant.POWER)
    monkeypatch.setattr("powspec.joinstruct.mul", lambda spec, i, j: landing[(i + j) % size])
    reps = np.concatenate([b.members.reshape(-1, b.clique)[:, 0] for b in js.blocks])
    assert isinstance(orders_or_refusal(_orders, spec, reps), list)
    with pytest.raises(StructureValidationError) as exc:
        validate_structure(js)
    assert str(exc.value) == f"the powers of {label} repeat before its order in {spec}"


def random_structure(spec, variant, rng):
    """Vertices shuffled into blocks of random clique sizes under a random
    template: cliques that mix generator classes, split them or straddle
    blocks, so the certificate takes several rounds per clique."""
    vertices = list(range(spec.order - (variant is Variant.PROPER)))
    rng.shuffle(vertices)
    blocks = []
    while vertices:
        clique = min(rng.choice((1, 1, 2, 3, 4)), len(vertices))
        size = clique * min(rng.randint(1, 3), len(vertices) // clique)
        blocks.append(JoinBlock(len(blocks), np.array(vertices[:size]), clique))
        vertices = vertices[size:]
    t = len(blocks)
    adj = np.triu(np.array([[rng.random() < 0.5 for _ in range(t)] for _ in range(t)]), 1)
    return JoinStructure(spec, variant, adj | adj.T, tuple(blocks))


def test_certificate_matches_oracle_on_random_structures():
    rng = random.Random("certificate:random")
    accepted = refused = 0
    for _ in range(400):
        family = rng.choice(list(GroupFamily))
        spec = GroupSpec(family, rng.randint(2, 9))
        variant = rng.choice(list(Variant))
        js = random_structure(spec, variant, rng)
        expect = oracle_refusal(js)
        assert certificate_refusal(js) == expect, (spec, variant)
        accepted += expect is None
        refused += expect is not None
    assert accepted > 0 and refused > 300


def test_certificate_matches_oracle_read_in_small_slices(monkeypatch):
    # the comparable pairs read a few table entries at a time, so that every
    # row offset of a slice counts, against the oracle as above
    monkeypatch.setattr("powspec.joinstruct._SLICE", 5)
    rng = random.Random("certificate:slices")
    for _ in range(100):
        family = rng.choice(list(GroupFamily))
        spec = GroupSpec(family, rng.randint(2, 9))
        variant = rng.choice(list(Variant))
        js = random_structure(spec, variant, rng)
        assert certificate_refusal(js) == oracle_refusal(js), (spec, variant)
    for spec in (GroupSpec(Z, 60), GroupSpec(D, 15), GroupSpec(Q, 12)):
        js = build_join(spec, Variant.PROPER)  # validated in slices of 5
        for _ in range(10):
            mutated = swap_members(js, rng)
            assert certificate_refusal(mutated) == oracle_refusal(mutated), spec


def looped_z6(clique):
    """Z_6 with block 1 (the generators 1 and 5) cut into cliques of size
    ``clique`` and its template vertex looped, which the structure clears."""
    js = build_join(GroupSpec(Z, 6), Variant.POWER)
    i = [b.label for b in js.blocks].index(1)
    blocks = list(js.blocks)
    blocks[i] = replace(blocks[i], clique=clique)
    adj = js.adj.copy()
    adj[i, i] = True
    return replace(js, adj=adj, blocks=tuple(blocks))


def test_validation_refuses_a_loop_on_several_cliques():
    # a loop cannot join the two cliques of block 1: it is cleared, and the
    # pair check names the edge the power graph has, as the oracle does
    js = looped_z6(1)
    assert not np.diag(js.adj).any()
    with pytest.raises(StructureValidationError) as exc:
        validate_structure(js)
    assert str(exc.value) == (
        "join of zn n=6 (power) refused: 1 ~ 5 in the power graph, not in the join"
    )
    assert oracle_refusal(js) == str(exc.value)


def test_validation_accepts_a_loop_on_one_clique():
    validate_structure(looped_z6(2))


@pytest.mark.parametrize(
    "spec, limit_mb",
    [(GroupSpec(Z, 720720), 150), (GroupSpec(D, 360360), 216), (GroupSpec(Q, 180180), 205)],
    ids=["Z720720", "D360360", "Q180180"],
)
def test_certificate_memory_is_bounded(spec, limit_mb):
    # the traced peak of the certificate alone, beyond the structure it
    # checks; a fresh spec, so the law tables of D_n and Q_n count in it
    js = replace(build_join(spec, Variant.POWER), spec=GroupSpec(spec.family, spec.n))
    tracemalloc.start()
    try:
        validate_structure(js)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < limit_mb * 10**6, peak
