"""Join decompositions of power graphs.

A power graph splits into blocks of group elements glued along a small
template graph: blocks sit on template vertices, and two blocks are
completely joined exactly when their template vertices are adjacent.
One rule gives the blocks of every supported family.  A block holds the
elements that generate the same cyclic subgroup, with false twins of
equal size merged, and two blocks are joined iff one subgroup contains
the other.  For Z_n, D_n and Q_n the rule is symbolic:

* rotation blocks -- one per divisor d of m, where m = n for Z_n and D_n
  and m = 2n for Q_n, holding the a-powers a^k with gcd(k, m) = d (k = 0
  counts as d = m).  They all generate <a^d>, so each block is a clique,
  and two of them are joined iff one divisor divides the other;
* the coset block "R" (D_n and Q_n) -- every element x outside the
  rotations.  <x> meets the rotations in <x^2>, which is {e} in D_n and
  {e, a^n} in Q_n, so R is joined exactly to the rotation blocks d with
  n | d.  Inside R, x and y are adjacent iff <x> = <y>: R is n disjoint
  cliques, single reflections in D_n and the pairs {a^k b, a^(n+k) b}
  in Q_n.

Every block is thus a set of disjoint cliques of one size, a regular
graph whose spectrum is known, which is all the H-join theorem for
regular blocks needs.  Blocks hold vertex positions: vertex i is the
group element at position i (see ``groups``), or at i + 1 in the proper
variant, which drops the identity 0.

A ``JoinStructure`` holds only what the builder decides: the blocks
(label, members, clique size) and the template as a read-only loop-free
bool array.  Whatever the spectra read beyond that is derived when read:
a vertex of block i has degree (c_i - 1) + sum of n_j over the template
neighbours j of i (``JoinStructure.degrees``), so no stored copy can
disagree with the adjacency that validation certifies.

``build_join`` does not trust the rule: ``validate_structure`` proves,
vertex for vertex, that the join graph is the power graph, by a
certificate built from the group law alone.  It lists the cyclic
subgroup <x> of one member x per clique, from the order of x, and reads
off which members generate it and which subgroups contain which.  An
order that is a power of two is settled by squaring x as often as 2
divides |G| (the reflections of D_n, the coset elements of Q_n); any
other order is found by dividing the primes of |G| out of |G|.  That takes about
N log N time and memory for a group of order N, where comparing with the
definitional N x N oracle of ``groups`` took N^2, and shares no divisor
or template code with the builder.  A failed proof raises
``StructureValidationError`` naming the first mismatching pair of
elements by ``element_label``, the pair the comparison with the oracle
would name: a refused structure is a defect, not a route.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .groups import (
    GroupFamily,
    GroupSpec,
    LabeledGraph,
    delete_identity,
    element_label,
    mul,
)
from .numtheory import divisors, factorize

__all__ = [
    "Variant",
    "JoinBlock",
    "JoinStructure",
    "StructureValidationError",
    "divisor_graph",
    "build_join",
    "variant_graph",
    "validate_structure",
]


class Variant(str, Enum):
    POWER = "power"
    PROPER = "proper"


class StructureValidationError(RuntimeError):
    """The join graph of a structure is not the (proper) power graph."""


@dataclass(frozen=True, eq=False)
class JoinBlock:
    """One block: its template label, its members (an int array of vertex
    positions of the graph, listed clique by clique) and the size of its
    disjoint cliques."""

    label: object
    members: np.ndarray
    clique: int

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def copies(self) -> int:
        return self.size // self.clique

    @property
    def regularity(self) -> int:
        return self.clique - 1

    def local_eigenvalues(self) -> tuple:
        """(value, multiplicity) of the block's adjacency eigenvalues
        orthogonal to its all-ones vector: -1 inside each clique, and
        clique - 1 across the cliques."""
        return (
            (-1, self.copies * (self.clique - 1)),
            (self.clique - 1, self.copies - 1),
        )


@dataclass(frozen=True, eq=False)
class JoinStructure:
    """Ordered blocks and their template: ``adj[i, j]`` joins blocks i and
    j completely.  Construction copies ``adj`` as a read-only bool array
    without loops, so a block is always its disjoint cliques."""

    spec: GroupSpec
    variant: Variant
    adj: np.ndarray
    blocks: tuple

    def __post_init__(self):
        adj = np.array(self.adj, dtype=bool)
        np.fill_diagonal(adj, False)
        adj.setflags(write=False)
        object.__setattr__(self, "adj", adj)

    @property
    def order(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def sizes(self) -> tuple:
        return tuple(b.size for b in self.blocks)

    @property
    def degrees(self) -> tuple:
        """The degree of every vertex of each block: its clique's other
        members plus every vertex of the template-adjacent blocks."""
        sizes = np.array(self.sizes, dtype=np.int64)
        return tuple((self.adj @ sizes + [b.regularity for b in self.blocks]).tolist())


def divisor_graph(divs) -> np.ndarray:
    """Adjacency of the divisibility graph on the distinct positive
    integers ``divs``: two are adjacent iff one divides the other."""
    d = np.array(divs, dtype=np.int64)
    divides = d % d[:, None] == 0  # [i, j]: d_i | d_j
    adj = divides | divides.T
    np.fill_diagonal(adj, False)
    return adj


# family -> (m / n, clique size of the coset block, None without one)
_FAMILIES = {
    GroupFamily.CYCLIC: (1, None),
    GroupFamily.DIHEDRAL: (1, 1),
    GroupFamily.DICYCLIC: (2, 2),
}


def build_join(spec: GroupSpec, variant: Variant, validate: bool = True) -> JoinStructure:
    """Blocks and template for the (proper) power graph of ``spec``, from
    the cyclic-subgroup rule of the module docstring.

    Blocks follow the ascending divisors of m, then "R"; the proper variant
    drops the identity block m.  Members are vertex positions: a^k sits at
    k and the coset element of exponent k at m + k, one less in the proper
    variant.  The structure holds only these choices; the degrees the
    spectra read follow from them (``JoinStructure.degrees``).  Raises
    ``StructureValidationError`` when ``validate_structure`` refuses the
    result.
    """
    variant = Variant(variant)
    n = spec.n
    if variant is Variant.PROPER and spec.order < 2:
        raise ValueError("proper variant needs group order >= 2")

    m_over_n, clique = _FAMILIES[spec.family]
    m = m_over_n * n
    labels = divisors(m)
    adj = divisor_graph(labels)
    classes = np.gcd(np.arange(m), m)
    classes[0] = m
    by_class = np.argsort(classes, kind="stable")
    members = np.split(by_class, np.flatnonzero(np.diff(classes[by_class])) + 1)
    cliques = [len(group) for group in members]
    if clique is not None:
        t = len(labels)
        adj = np.pad(adj, (0, 1))
        adj[t, :t] = adj[:t, t] = np.array(labels) % n == 0
        labels.append("R")
        # clique by clique: the clique of k < n is m + k + j*n, j < clique
        members.append((m + np.arange(n)[:, None] + n * np.arange(clique)).ravel())
        cliques.append(clique)
    if variant is Variant.PROPER:
        drop = labels.index(m)
        adj = np.delete(np.delete(adj, drop, 0), drop, 1)
        del labels[drop], members[drop], cliques[drop]
        members = [group - 1 for group in members]

    js = JoinStructure(spec, variant, adj, tuple(map(JoinBlock, labels, members, cliques)))
    if validate:
        validate_structure(js)
    return js


def variant_graph(power: LabeledGraph, variant: Variant) -> LabeledGraph:
    """The graph of ``variant`` from a power graph: the power graph itself,
    or the proper power graph without the identity."""
    if Variant(variant) is Variant.PROPER:
        if power.n < 2:
            raise ValueError("proper variant needs group order >= 2")
        return delete_identity(power)
    return power


# ---------------------------------------------------------------------------
# the cyclic-subgroup certificate
# ---------------------------------------------------------------------------


def _power(spec: GroupSpec, x: np.ndarray, k: int) -> np.ndarray:
    """x^k for an array of positions x and an int k >= 0, by repeated
    squaring under ``mul``."""
    result = None  # the identity
    while k:
        if k & 1:
            result = x if result is None else mul(spec, result, x)
        k >>= 1
        if k:
            x = mul(spec, x, x)
    return np.zeros_like(x) if result is None else result


def _orders(spec: GroupSpec, x: np.ndarray) -> np.ndarray:
    """Element orders of the positions x.  Orders that are powers of two
    are settled by squaring: with 2^e2 the largest power of 2 dividing |G|,
    x is squared e2 times, and the least j with x^(2^j) = e gives o(x) =
    2^j.  The other positions go one prime of |G| at a time: the p-part of
    o(x) is the order of x^(|G| / p^e), found by raising that power to p
    until it is e; for odd p that power is taken of x^(2^e2), which the
    squaring left.  Refuses when some x^|G| is not e, naming the first such
    x; a settled x has x^|G| = e, since 2^j divides |G|."""
    size = spec.order
    two = size & -size  # 2^e2
    out = np.ones(len(x), dtype=np.int64)
    rest = np.flatnonzero(x)  # unsettled; e has order 1
    y = x[rest]
    for j in range(1, two.bit_length()):
        y = mul(spec, y, y)  # x^(2^j)
        done = y == 0
        out[rest[done]] = 2**j
        rest, y = rest[~done], y[~done]
    x, top, odd = x[rest], y, size // two  # top = x^(2^e2)
    part = np.ones(len(x), dtype=np.int64)
    for p, e in factorize(size):
        # x^(|G| / p^e), for odd p as a power of x^(2^e2)
        y = _power(spec, x, odd) if p == 2 else _power(spec, top, odd // p**e)
        for _ in range(e):
            live = y != 0
            if not live.any():
                break
            part[live] *= p
            y = _power(spec, y, p)
        if y.any():
            bad = element_label(spec, x[np.argmax(y != 0)])
            raise StructureValidationError(f"{bad}^{size} is not e in {spec}")
    out[rest] = part
    return out


def _subgroups(spec: GroupSpec, reps: np.ndarray, orders: np.ndarray):
    """All powers rep^k, k < o(rep), of every rep, flat and rep by rep:
    (owner, k, position).  rep^k for 2^j <= k < 2^(j+1) is rep^(k - 2^j)
    times rep^(2^j), so each power costs one product."""
    start = np.cumsum(orders) - orders
    owner = np.repeat(np.arange(len(reps)), orders)
    k = np.arange(len(owner)) - start[owner]
    elem = np.zeros(len(owner), dtype=np.int64)
    step = reps.astype(np.int64)  # rep^(2^j)
    span, top = 1, orders.max(initial=0)
    while span < top:
        sel = np.flatnonzero((k >= span) & (k < 2 * span))
        elem[sel] = mul(spec, elem[sel - span], step[owner[sel]])
        span *= 2
        if span < top:
            step = mul(spec, step, step)
    return owner, k, elem


def _units(js: JoinStructure, listing: np.ndarray, clique_of_listing: np.ndarray):
    """Splits every clique into units, the classes of its members under
    "generates the same cyclic subgroup".

    Each round takes the first unplaced member of every clique as a rep,
    lists S = <rep> as rep^k (checking that no power repeats) and places
    each unplaced member x of the clique found in S: x = rep^k generates
    <rep^g>, g = gcd(k, o(rep)), so (rep, g) names its unit.  A clique of
    one generator class takes one round.

    Returns (unit of each vertex, rep of each unit, g of each unit, and the
    flat powers of all reps: owner, position, start of each rep)."""
    spec = js.spec
    shift = 1 if js.variant is Variant.PROPER else 0
    size = spec.order
    unit_of = np.empty(len(listing), dtype=np.int64)
    unit_rep, unit_g, orders, starts, elems = [], [], [], [], []
    n_reps = n_units = n_flat = 0
    pending = np.arange(len(listing))  # listing positions still unplaced
    while pending.size:
        cl = clique_of_listing[pending]
        first = np.flatnonzero(np.r_[True, cl[1:] != cl[:-1]])
        reps = listing[pending[first]] + shift
        o = _orders(spec, reps)
        owner, k, elem = _subgroups(spec, reps, o)
        keys = owner * size + elem
        by_key = np.argsort(keys, kind="stable")
        sorted_keys = keys[by_key]
        repeat = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])
        if repeat.size:
            x = element_label(spec, reps[owner[by_key[repeat[0]]]])
            raise StructureValidationError(f"the powers of {x} repeat before its order in {spec}")
        rep_of = np.repeat(np.arange(len(first)), np.diff(np.r_[first, len(pending)]))
        query = rep_of * size + listing[pending] + shift
        at = np.minimum(np.searchsorted(sorted_keys, query), len(keys) - 1)
        found = sorted_keys[at] == query
        g = np.gcd(k[by_key[at[found]]], o[rep_of[found]])
        unit_key, unit_idx = np.unique(rep_of[found] * (size + 1) + g, return_inverse=True)
        unit_of[listing[pending[found]]] = n_units + unit_idx.reshape(-1)
        unit_rep.append(n_reps + unit_key // (size + 1))
        unit_g.append(unit_key % (size + 1))
        orders.append(o)
        starts.append(n_flat + np.cumsum(o) - o)
        elems.append(elem)
        n_reps += len(reps)
        n_units += len(unit_key)
        n_flat += len(elem)
        pending = pending[~found]
    cat = np.concatenate
    return unit_of, cat(unit_rep), cat(unit_g), cat(orders), cat(starts), cat(elems)


def validate_structure(js: JoinStructure) -> None:
    """Hard check, vertex for vertex, that the join graph of ``js`` is the
    (proper) power graph of ``js.spec``, from the group law alone.

    x ~ y in a power graph iff <x> and <y> are comparable under inclusion.
    Every clique splits into units of members that generate one cyclic
    subgroup S (see ``_units``), so a pair of vertices is adjacent in the
    power graph iff their units are the same or have comparable subgroups,
    and in the join iff their units share a clique or sit in
    template-adjacent blocks.  S_u is contained in S_v iff the smallest
    vertex m_u of unit u lies in S_v, so listing every S_v once yields
    every comparable pair of units; equal subgroups, met in both orders,
    count once.  Both relations are then counted per pair of blocks and
    per clique, and every count must be all of the pairs or none, as the
    join says.  That costs
    O(s log s) time and O(s) memory for s = sum of |S|, about N log N for
    a group of order N, and uses only ``mul`` and ``factorize(|G|)``.

    The block members must hold every vertex position exactly once, in
    whole cliques, and the template must be a symmetric t x t array for t
    blocks.  A refusal names the first mismatching vertex pair in row-major
    order, by ``element_label``.  Everything the spectra read of ``js`` --
    the blocks' cliques, their template adjacency and the degrees derived
    from both -- is thus certified."""
    spec = js.spec
    shift = 1 if js.variant is Variant.PROPER else 0
    n_vert = spec.order - shift
    if js.order != n_vert:
        raise StructureValidationError(
            f"join structure for {spec} covers {js.order} vertices, the graph has {n_vert}"
        )
    listing = np.concatenate([b.members for b in js.blocks])
    if not np.array_equal(np.sort(listing), np.arange(n_vert)):
        raise StructureValidationError(
            f"block members of {spec} are not the positions 0..{n_vert - 1}, each once"
        )
    listing = listing.astype(np.int64)
    clique = np.array([b.clique for b in js.blocks])
    if np.any(clique < 1) or np.any(np.array(js.sizes) % clique):
        raise StructureValidationError(f"a block of {spec} is not made of whole cliques")
    adj, t = js.adj, len(js.blocks)
    if adj.shape != (t, t) or not np.array_equal(adj, adj.T):
        raise StructureValidationError(
            f"the template of {spec} is not symmetric over its {t} blocks"
        )

    copies = np.array([b.copies for b in js.blocks])
    block_of_clique = np.repeat(np.arange(len(js.blocks)), copies)
    clique_of_listing = np.repeat(np.arange(len(block_of_clique)), clique[block_of_clique])
    unit_of, unit_rep, unit_g, orders, starts, elems = _units(js, listing, clique_of_listing)

    n_units = len(unit_rep)
    first = np.full(n_units, n_vert)  # m_u, the smallest vertex of unit u
    np.minimum.at(first, unit_of, np.arange(n_vert))
    clique_of_vertex = np.empty(n_vert, dtype=np.int64)
    clique_of_vertex[listing] = clique_of_listing
    unit_clique = clique_of_vertex[first]
    unit_block = block_of_clique[unit_clique]
    unit_size = orders[unit_rep] // unit_g  # |S_u|

    # S_u is rep^(g*j), j < |S_u|; (a, v): m_a in S_v, a != v
    v = np.repeat(np.arange(n_units), unit_size)
    j = np.arange(len(v)) - np.repeat(np.cumsum(unit_size) - unit_size, unit_size)
    y = elems[starts[unit_rep[v]] + unit_g[v] * j] - shift
    keep = y >= 0  # the identity is no vertex of the proper variant
    y, v = y[keep], v[keep]
    a = unit_of[y]
    keep = (first[a] == y) & (a != v)
    a, v = a[keep], v[keep]
    keep = (unit_size[a] != unit_size[v]) | (a < v)
    a, v = a[keep], v[keep]

    count = np.bincount(unit_block[a] * t + unit_block[v], minlength=t * t).reshape(t, t)
    comparable = count + count.T
    np.fill_diagonal(comparable, np.diag(count))
    same = unit_clique[a] == unit_clique[v]
    n_cliques = len(block_of_clique)
    same_count = np.bincount(unit_clique[a][same], minlength=n_cliques)
    per_clique = np.bincount(unit_clique, minlength=n_cliques)
    clique_pairs = per_clique * (per_clique - 1) // 2
    per_block = np.bincount(unit_block, minlength=t)
    in_cliques = np.zeros(t, dtype=np.int64)
    np.add.at(in_cliques, block_of_clique, clique_pairs)
    expect = np.where(adj, np.outer(per_block, per_block), 0)
    np.fill_diagonal(expect, in_cliques)
    if np.array_equal(comparable, expect) and np.array_equal(same_count, clique_pairs):
        return

    # Refusal: the first vertex pair of a failing unit pair (a, b) is
    # (min(m_a, m_b), max(m_a, m_b)).  Comparable pairs the join lacks are
    # among (a, v); pairs the join has but the power graph lacks lie in a
    # clique or block pair whose count fell short.
    def joined(p, q):
        return (unit_clique[p] == unit_clique[q]) | adj[unit_block[p], unit_block[q]]

    def pair_keys(p, q):
        return np.minimum(first[p], first[q]) * n_vert + np.maximum(first[p], first[q])

    wrong = ~joined(a, v)
    candidates = [pair_keys(a[wrong], v[wrong])]
    comparable_keys = np.concatenate([a * n_units + v, v * n_units + a])
    short = [np.flatnonzero(unit_clique == c) for c in np.flatnonzero(same_count < clique_pairs)]
    short = [(units, units) for units in short]
    short += [
        (np.flatnonzero(unit_block == x), np.flatnonzero(unit_block == z))
        for x, z in np.argwhere(adj & (comparable < expect))
        if x < z
    ]
    for p, q in short:
        p, q = (units.ravel() for units in np.meshgrid(p, q, indexing="ij"))
        missing = (p != q) & ~np.isin(p * n_units + q, comparable_keys)
        candidates.append(pair_keys(p[missing], q[missing]))
    i, j = divmod(int(np.concatenate(candidates).min()), n_vert)
    has, lacks = (
        ("join", "power graph") if joined(unit_of[i], unit_of[j]) else ("power graph", "join")
    )
    x, y = element_label(spec, i + shift), element_label(spec, j + shift)
    raise StructureValidationError(
        f"join of {spec.family.value} n={spec.n} ({js.variant.value}) refused: "
        f"{x} ~ {y} in the {has}, not in the {lacks}"
    )
