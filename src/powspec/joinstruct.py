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
bool array.  What the spectra read beyond that is derived once per
structure: the sizes n_i, the order and the degree (c_i - 1) + sum of n_j
over the template neighbours j of block i (``JoinStructure.degrees``).
The template is read-only, the blocks are frozen and an array's length is
fixed, so no cached value can disagree with what validation certifies.

``build_join`` does not trust the rule: ``validate_structure`` proves,
vertex for vertex, that the join graph is the power graph, by a
certificate built from the group law alone.  It rests on one lemma: a
cyclic group M holds one subgroup of each order, so for y in M, x lies in
<y> exactly when x lies in M and o(x) divides o(y).  The certificate lists
cyclic subgroups <g> = (g^0, g^1, ...) that together cover G, largest
order first, and homes every element in the first row that lists it,
where the entry at column k has order o(g) / gcd(k, o(g)); which members
generate one subgroup, and which subgroups contain which, is read off
those rows.  Z_n lists its N elements once, as <a>; D_n and Q_n list about
1.5N, the rotations once and then <x> for every coset element x.  The
orders of the listed g come from the group law: a power of two by
squaring g as often as 2 divides |G|, any other order by dividing the
primes of |G| out of |G|.  That takes about N log N time and a few arrays
of N entries for a group of order N, plus the six words per element of
the D_n and Q_n law's index tables (``groups.mul``), where comparing
with the definitional N x N oracle of ``groups`` took N^2, and it shares
no divisor or template code with the builder.  A failed proof raises
``StructureValidationError`` naming the first mismatching pair of
elements by ``element_label``, the pair the comparison with the oracle
would name: a refused structure is a defect, not a route.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property, partial, reduce

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
    without loops, so a block is always its disjoint cliques.  ``sizes``,
    ``order`` and ``degrees`` are computed on first read and kept."""

    spec: GroupSpec
    variant: Variant
    adj: np.ndarray
    blocks: tuple

    def __post_init__(self):
        adj = np.array(self.adj, dtype=bool)
        np.fill_diagonal(adj, False)
        adj.setflags(write=False)
        object.__setattr__(self, "adj", adj)

    @cached_property
    def sizes(self) -> tuple:
        return tuple(b.size for b in self.blocks)

    @cached_property
    def order(self) -> int:
        return sum(self.sizes)

    @cached_property
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


def _gcds(m: int) -> np.ndarray:
    """gcd(k, m) for every k < m, with k = 0 counting as m: every prime
    power p^j dividing m multiplies p into the entries at its multiples."""
    out = np.ones(m, dtype=np.int64)
    for p, e in factorize(m):
        for j in range(1, e + 1):
            out[:: p**j] *= p
    return out


def build_join(spec: GroupSpec, variant: Variant) -> JoinStructure:
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
    classes = _gcds(m)
    # one stable sort (radix, on int16 keys) lists each class's k ascending
    keys = classes.astype(np.int16) if m < 2**15 else classes
    cliques = np.bincount(classes)[labels].tolist()
    members = np.split(np.argsort(keys, kind="stable"), np.cumsum(cliques)[:-1])
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
    squaring left, from one ladder of its squares.  Refuses when some x^|G|
    is not e, naming the first such x; a settled x has x^|G| = e (2^j | |G|)."""
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
    x, odd, primes = x[rest], size // two, factorize(size)
    ladder = [y]  # top^(2^j), top = x^(2^e2): squared once for all odd p
    for _ in range(1, max((odd // p**e for p, e in primes if p > 2), default=1).bit_length()):
        ladder.append(mul(spec, ladder[-1], ladder[-1]))
    part = np.ones(len(x), dtype=np.int64)
    for p, e in primes:
        # x^(|G| / p^e); for odd p, top^k, k = odd / p^e, as ``_power``
        # multiplies it: the ladder entries of the bits of k, lowest first
        if p == 2:
            y = _power(spec, x, odd)
        else:
            k = odd // p**e
            y = reduce(partial(mul, spec), [ladder[j] for j in range(k.bit_length()) if k >> j & 1])
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


def _listing(spec: GroupSpec, gens: np.ndarray, top: int) -> np.ndarray:
    """The powers g^k, k < top, of every g in ``gens`` (all of order top),
    one row per g.  Columns span..2*span-1 are columns 0..span-1 times
    g^span, so each power costs one product; column 1 is g itself, so each
    row lists its g whatever the law.  Refuses when a row repeats an
    entry, naming its g."""
    table = np.empty((len(gens), top), dtype=np.int64)
    table[:, 0] = 0
    table[:, 1:2] = gens[:, None]  # no column when top = 1
    step, span = gens, 2
    while span < top:
        step = mul(spec, step, step)  # g^span
        width = min(span, top - span)
        table[:, span : span + width] = mul(spec, table[:, :width], step[:, None])
        span *= 2
    keys = np.sort((np.arange(len(gens))[:, None] * spec.order + table).ravel())
    repeat = np.flatnonzero(keys[1:] == keys[:-1])
    if repeat.size:  # the first row with a repeat, as keys sort row by row
        x = element_label(spec, gens[keys[repeat[0]] // spec.order])
        raise StructureValidationError(f"the powers of {x} repeat before its order in {spec}")
    return table


def _column_gcds(top: int, primes) -> np.ndarray:
    """gcd(k, top) for every column k < top, k = 0 counting as top, from the
    ``primes`` of |G|, which top divides: every prime power p^j dividing top
    multiplies p into the entries at its multiples.  This is the builder's
    ``_gcds`` sieve written apart, so that a fault in one cannot pass both
    the builder and its certificate."""
    out = np.ones(top, dtype=np.int64)
    for p in primes:
        q = p
        while top % q == 0:
            out[::q] *= p
            q *= p
    return out


def _home(table, first_row, col_gcd, home, order, canon) -> None:
    """Homes every entry of ``table`` in the first row that lists it, rows
    numbered from ``first_row``, unless an earlier table homed it: sets its
    home row, its order top / gcd(k, top) for its column k, from
    ``col_gcd``, and its canonical generator, the entry at column
    gcd(k, top) mod top."""
    count, top = table.shape
    entries = table.ravel()
    rows = np.repeat(first_row + np.arange(count), top)
    np.minimum.at(home, entries, rows)
    mine = home[entries] == rows
    where = entries[mine]
    order[where] = np.tile(top // col_gcd, count)[mine]
    canon[where] = table[:, col_gcd % top].ravel()[mine]


def _leaders(key: np.ndarray, clique_of: np.ndarray, size: int) -> np.ndarray:
    """For every position, the first position of its clique with the same
    ``key`` (ints below ``size``; positions are grouped clique by clique).
    A scatter finds the first position of every key; positions whose key
    was met first in an earlier clique are led by a sort of their (clique,
    key) pairs instead."""
    at = np.arange(len(key))
    first = np.full(size, len(key))
    np.minimum.at(first, key, at)
    lead = first[key]
    later = np.flatnonzero(clique_of[lead] != clique_of)
    if later.size:
        pairs = clique_of[later] * size + key[later]
        _, head, back = np.unique(pairs, return_index=True, return_inverse=True)
        lead[later] = later[head][back]
    return lead


def _cover(spec: GroupSpec, listing: np.ndarray, clique_of: np.ndarray, shift: int):
    """Lists cyclic subgroups that together hold every vertex of
    ``listing`` (vertex positions grouped clique by clique, ``clique_of``
    each; vertex i is the element at i + ``shift``) and splits every clique
    into units, its members that generate one cyclic subgroup.

    Each round takes the first unhomed member of every clique, finds its
    order (``_orders``) and lists <g> for those still unhomed, largest order
    first (``_listing``), so that one row homes the cliques of its
    subgroups.  Each element is homed in the first row that lists it.  At
    column k of a row of order top sits g^k, of order top / gcd(k, top); it
    generates what the entry at column gcd(k, top) mod top generates, its
    canonical generator.  A round homes every member it takes, so the
    rounds end.  Members generate one subgroup iff they have one canonical
    generator, so the units of a clique are its members with one canonical
    generator: one home row and one order.

    Returns the unit of every listing position, the first position of every
    unit (units are numbered in that order), the home row and the order of
    every unit, and the tables listed, rows numbered on across tables."""
    size = spec.order
    primes = [p for p, _ in factorize(size)]
    unmet = np.iinfo(np.int64).max
    home = np.full(size, unmet)
    order = np.zeros(size, dtype=np.int64)
    canon = np.zeros(size, dtype=np.int64)
    tables, n_rows = [], 0
    pending = np.arange(len(listing))
    while pending.size:
        cl = clique_of[pending]
        gens = listing[pending[np.r_[True, cl[1:] != cl[:-1]]]] + shift
        o = _orders(spec, gens)
        while gens.size:
            top = int(o.max())
            run = gens[o == top]
            table = _listing(spec, run, top)
            _home(table, n_rows, _column_gcds(top, primes), home, order, canon)
            tables.append(table)
            n_rows += len(run)
            left = home[gens] == unmet
            gens, o = gens[left], o[left]
        pending = pending[home[listing[pending] + shift] == unmet]

    lead = _leaders(canon[listing + shift], clique_of, size)
    is_leader = lead == np.arange(len(lead))
    leaders = np.flatnonzero(is_leader)
    unit_at = (np.cumsum(is_leader) - 1)[lead]
    heads = listing[leaders] + shift
    return unit_at, leaders, home[heads], order[heads], tables


# entries of the listed tables that ``_comparable`` reads at a time
_SLICE = 1 << 18


def _comparable(tables, unit_of, first, unit_home, unit_order, shift):
    """The pairs (a, v) of units with S_a in S_v and a != v, where equal
    subgroups count once.  A row lists S_a iff it lists m_a = ``first[a]``,
    the smallest vertex of a, and S_a lies in S_v iff the home row of v
    lists m_a and o_a divides o_v, as a cyclic group holds one subgroup of
    each order.  Each (row, a) is met once, since rows repeat nothing.  The
    tables are read a slice of rows at a time, each about ``_SLICE``
    entries or one row, which bounds the memory of the pairs not kept."""
    homed = np.argsort(unit_home, kind="stable")
    per_row = np.bincount(unit_home, minlength=sum(map(len, tables)))
    offset = np.cumsum(per_row) - per_row
    found, n_rows = [], 0
    for table in tables:
        rows, top = table.shape
        per_slice = -(-_SLICE // top)
        for lo in range(0, rows, per_slice):
            # column 0, e, is no vertex of the proper variant
            y = (table[lo : lo + per_slice, shift:] - shift).ravel()
            a = unit_of[y]
            at = np.flatnonzero(first[a] == y)
            a, r = a[at], n_rows + lo + at // (top - shift)
            # every (r, a) joined with every unit v homed in row r
            count = per_row[r]
            v = np.repeat(offset[r] - np.cumsum(count) + count, count)
            v = homed[v + np.arange(len(v))]
            a = np.repeat(a, count)
            oa, ov = unit_order[a], unit_order[v]
            keep = (ov % oa == 0) & (a != v) & ((oa != ov) | (a < v))
            found.append((a[keep], v[keep]))
        n_rows += rows
    a, v = zip(*found)
    return np.concatenate(a), np.concatenate(v)


def validate_structure(js: JoinStructure) -> None:
    """Hard check, vertex for vertex, that the join graph of ``js`` is the
    (proper) power graph of ``js.spec``, from the group law alone.

    x ~ y in a power graph iff <x> and <y> are comparable under inclusion.
    ``_cover`` lists cyclic subgroups that cover G and splits every clique
    into units of members that generate one cyclic subgroup S: a unit is
    the members of a clique with one home row and one order.  A pair of
    vertices is adjacent in the power graph iff their units are the same
    or have comparable subgroups, and in the join iff their units share a
    clique or sit in template-adjacent blocks.  As a cyclic group holds one
    subgroup of each order, S_u lies in S_v iff the home row of v lists
    the smallest vertex m_u of u and o_u divides o_v; the comparable pairs
    are thus the units met in each row joined with the units homed there
    (``_comparable``).  Both relations are then counted per pair of blocks
    and per clique, and every count must be all of the pairs or none, as
    the join says.  The rows hold N entries for Z_n and about 1.5N for D_n
    and Q_n, so that costs about N log N time and a few arrays of N
    entries, with six more words per element for the index tables of the
    D_n and Q_n law, and uses only ``mul`` and ``factorize``.

    The block members must hold every vertex position exactly once, in
    whole cliques, and the template must be a symmetric t x t array for t
    blocks.  A refusal names the first mismatching vertex pair in row-major
    order, by ``element_label``, or the first listed row that repeats an
    entry.  Everything the spectra read of ``js`` -- the blocks' cliques,
    their template adjacency and the degrees derived from both -- is thus
    certified."""
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
    listing = listing.astype(np.int64, copy=False)
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
    unit_at, leaders, unit_home, unit_order, tables = _cover(
        spec, listing, clique_of_listing, shift
    )
    n_units = len(leaders)
    unit_of = np.empty(n_vert, dtype=np.int64)
    unit_of[listing] = unit_at
    del unit_at
    first = np.full(n_units, n_vert)  # m_u, the smallest vertex of unit u
    np.minimum.at(first, unit_of, np.arange(n_vert))
    unit_clique = clique_of_listing[leaders]
    unit_block = block_of_clique[unit_clique]
    a, v = _comparable(tables, unit_of, first, unit_home, unit_order, shift)

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
