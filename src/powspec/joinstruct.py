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
cyclic group M holds one subgroup of each order, so for y in M, x lies
in <y> exactly when x lies in M and o(x) divides o(y).  The certificate
lists cyclic subgroups <g> = (g^0, g^1, ...) that together cover G,
largest order first, and homes every element in the first row that lists
it, where the entry at column k has order o(g) / gcd(k, o(g)); which
members generate one subgroup, and which subgroups contain which, is
read off those rows.  Z_n lists its N elements once, as <a>; D_n and Q_n
list about 1.5N, the rotations once and then <x> for every coset element
x.  The orders of the listed g come from the group law: <a> is cut from
the |G| powers of a at its first e, and o(a) divides |G|; every other
order is a power of two found by squaring g as often as 2 divides |G|,
or found by dividing the primes of |G| out of |G|.  That takes about N
log N time and a few arrays of N entries for a group of order N, plus
the six words per element of the D_n and Q_n law's index tables
(``groups.mul``), where comparing with the definitional N x N oracle of
``groups`` took N^2, and it shares no divisor or template code with the
builder.  At the orders a request meets, up to a few thousand, the count
of numpy calls sets its cost, not that work: a median 0.18-0.20 ms at
Z_60 and 0.55-0.58 ms at Z_5040 in 231 and 246 Python-level calls, on
one core of a 2-core x86 VM, where the same certificate in 429 and 650
calls took 0.31-0.36 and 0.93-1.07 ms.  A failed proof raises
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
    shift = 1 if variant is Variant.PROPER else 0
    labels = divisors(m)
    classes = _gcds(m)
    # one stable sort (radix, on int16 keys) lists each class's k ascending;
    # the identity's class m, k = 0 alone, comes last, so the proper variant
    # drops the last divisor and the last entry
    keys = classes.astype(np.int16) if m < 2**15 else classes
    cliques = np.bincount(classes)[labels].tolist()
    order = np.argsort(keys, kind="stable")
    if shift:
        order -= 1
        del labels[-1], cliques[-1]
    ends = np.cumsum(cliques).tolist()
    members = [order[a:b] for a, b in zip([0] + ends, ends)]
    t = len(labels)
    adj = np.zeros((t + (clique is not None),) * 2, dtype=bool)
    adj[:t, :t] = divisor_graph(labels)
    if clique is not None:
        adj[t, :t] = adj[:t, t] = np.array(labels) % n == 0
        labels.append("R")
        # clique by clique: the clique of k < n is m + k + j*n, j < clique
        members.append((m - shift + np.arange(n)[:, None] + n * np.arange(clique)).ravel())
        cliques.append(clique)

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
    x is squared e2 times, or until all are e, and the least j with
    x^(2^j) = e gives o(x) = 2^j.  The other positions go one prime of |G|
    at a time: the p-part of o(x) is the order of x^(|G| / p^e), found by
    raising that power to p until it is e; for odd p that power is taken
    of x^(2^e2), which the squaring left, from one ladder of its squares.
    Refuses when some x^|G| is not e, naming the first such x; a settled x
    has x^|G| = e (2^j | |G|)."""
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
        if not rest.size:
            return out
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


def _listing(spec: GroupSpec, gens: np.ndarray, top: int | None = None) -> np.ndarray:
    """The powers g^k, k < top, of every g in ``gens`` (all of order top),
    one row per g.  With columns 0..s-1 listed, columns s..2s-2 are columns
    1..s-1 times g^(s-1), so each power costs one product and the columns
    one product per doubling; column 1 is g itself, so each row lists its g
    whatever the law.  Without ``top``, of one g of unknown order: its |G|
    powers, cut before the first e after column 0, at o(g) columns, as o(g)
    divides |G|.  Refuses when a row repeats an entry, naming its g, and
    then, without ``top``, when g^|G| is not e."""
    size = spec.order
    table = np.empty((len(gens), top or size), dtype=np.int64)
    table[:, 0] = 0
    table[:, 1:2] = gens[:, None]  # no column when top = 1
    s = 2
    while s < table.shape[1]:
        width = min(s - 1, table.shape[1] - s)
        table[:, s : s + width] = mul(spec, table[:, 1 : width + 1], table[:, s - 1 : s])
        s += width
    if top is None:
        last = mul(spec, table[:, -1], gens)  # g^|G|
        at = np.flatnonzero(table[0, 1:] == 0)
        if at.size:  # a copy, which frees the |G| columns
            table = table[:, : at[0] + 1].copy()
    # entries keyed by row, row by row; int32 keys sort in half the time
    keys = np.arange(len(gens))[:, None] * size + table
    keys = np.sort((keys.astype(np.int32) if len(gens) * size <= 2**31 else keys).ravel())
    repeat = np.flatnonzero(keys[1:] == keys[:-1])
    if repeat.size:  # the first row with a repeat, as keys sort row by row
        x = element_label(spec, gens[keys[repeat[0]] // size])
        raise StructureValidationError(f"the powers of {x} repeat before its order in {spec}")
    if top is None and last.any():
        raise StructureValidationError(f"{element_label(spec, gens[0])}^{size} is not e in {spec}")
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


def _home(table, first_row, col_gcd, home, order, canon) -> int:
    """Homes every entry of ``table`` in the first row that lists it, rows
    numbered from ``first_row``, unless an earlier table homed it: sets its
    home row, its order top / gcd(k, top) for its column k, from
    ``col_gcd`` (which it overwrites), and its canonical generator, the
    entry at column gcd(k, top) mod top.  Returns how many entries it
    homed."""
    count, top = table.shape
    entries = table.ravel()
    rows = np.arange(first_row, first_row + count).repeat(top)
    np.minimum.at(home, entries, rows)
    at = np.flatnonzero(home[entries] == rows)
    where = entries[at]
    # in place, as a single row of |G| entries is the largest array here
    start = rows[at]  # the flat position of column 0 of each one's row
    del rows
    start -= first_row
    start *= top
    col = at - start
    del at
    order[where] = (top / col_gcd)[col]  # exact: every gcd divides top < 2^53
    col_gcd[0] = 0  # gcd(0, top) mod top
    start += col_gcd[col]
    del col
    canon[where] = entries[start]
    return len(where)


# the home row of an element no row lists yet
_UNMET = np.iinfo(np.int64).max


def _cover(spec: GroupSpec, elem: np.ndarray, starts: np.ndarray, clique_of: np.ndarray):
    """Lists cyclic subgroups that together hold every element of ``elem``
    (the vertices as elements, grouped clique by clique; clique c starts at
    ``starts[c]`` and ``clique_of`` maps an element to its clique).

    Each round first lists <g> for the first unhomed member g of the
    first clique that has one, cut from its |G| powers at its first e
    (``_listing`` without an order), which homes all g generates -- every
    rotation, for the structures the rule builds -- before any order is
    found from the primes of |G|.  It then takes the first unhomed member
    of every clique, finds its order (``_orders``) and lists <g> for those
    still unhomed, largest order first, so that one row homes the cliques
    of its subgroups.  Each element is homed in the first row that lists it
    (``_home``).  At column k of a row of order top sits g^k, of order
    top / gcd(k, top); it generates what the entry at column gcd(k, top)
    mod top generates, its canonical generator.  A round homes every member
    it takes, so the rounds end, and every row lists e, so they end when
    all of G is homed.  Members generate one subgroup iff they have one
    canonical generator.

    Returns the home row, the order and the canonical generator of every
    element, and the tables listed, rows numbered on across tables."""
    size = spec.order
    primes = [p for p, _ in factorize(size)]
    home = np.full(size, _UNMET)
    order = np.empty(size)  # float64, exact below 2^53
    canon = np.empty(size, dtype=np.int64)
    tables, n_rows, n_homed = [], 0, 0
    gens = elem[starts]
    while True:
        table = _listing(spec, gens[:1])  # of unknown order
        n_homed += _home(table, n_rows, _column_gcds(table.shape[1], primes), home, order, canon)
        tables.append(table)
        n_rows += 1
        gens = gens[home[gens] == _UNMET]
        o = _orders(spec, gens) if gens.size else None
        while gens.size:
            top = int(o.max())
            run = gens[o == top]
            table = _listing(spec, run, top)
            n_homed += _home(table, n_rows, _column_gcds(top, primes), home, order, canon)
            tables.append(table)
            n_rows += len(run)
            left = home[gens] == _UNMET
            gens, o = gens[left], o[left]
        if n_homed == size:
            return home, order, canon, tables
        todo = elem[home[elem] == _UNMET]
        cl = clique_of[todo]
        gens = todo[np.r_[True, cl[1:] != cl[:-1]]]


# entries of the listed tables that ``_comparable`` reads at a time
_SLICE = 1 << 18


def _comparable(tables, rep, reps, home, order):
    """The pairs (a, v) of units with S_a in S_v and a != v, where equal
    subgroups count once, each unit named by its smallest element, its
    entry of ``reps`` and the ``rep`` of each of its members.  A row lists
    S_a iff it lists a, and S_a lies in S_v iff the home row of v lists a
    and o_a divides o_v, as a cyclic group holds one subgroup of each
    order.  Each (row, a) is met once, since rows repeat nothing.  The
    tables are read a slice of rows at a time, each about ``_SLICE``
    entries or one row, which bounds the memory of the pairs not kept."""
    unit_home = home[reps]
    homed = reps[np.argsort(unit_home, kind="stable")]
    per_row = np.bincount(unit_home, minlength=sum(map(len, tables)))
    ends = np.cumsum(per_row)
    found, n_rows = [], 0
    for table in tables:
        rows, top = table.shape
        per_slice = -(-_SLICE // top)
        for lo in range(0, rows, per_slice):
            y = table[lo : lo + per_slice].ravel()
            at = np.flatnonzero(rep[y] == y)
            a, r = y[at], n_rows + lo + at // top
            # every (r, a) joined with every unit v homed in row r
            count = per_row[r]
            v = np.repeat(ends[r] - np.cumsum(count), count)
            v = homed[v + np.arange(len(v))]
            a = np.repeat(a, count)
            oa, ov = order[a], order[v]
            # o_a | o_v, exact below 2^53; equal orders mean equal subgroups
            q = ov / oa
            keep = (np.floor(q) == q) & ((oa < ov) | (a < v))
            found.append((a[keep], v[keep]))
        n_rows += rows
    a, v = zip(*found)
    return np.concatenate(a), np.concatenate(v)


def validate_structure(js: JoinStructure) -> None:
    """Hard check, vertex for vertex, that the join graph of ``js`` is the
    (proper) power graph of ``js.spec``, from the group law alone.

    x ~ y in a power graph iff <x> and <y> are comparable under inclusion.
    ``_cover`` lists cyclic subgroups that cover G and gives every element
    its canonical generator, one per cyclic subgroup.  A unit is the
    members of a clique with one canonical generator, named by its smallest
    element.  A pair of vertices is adjacent in the power graph iff their
    units are the same or have comparable subgroups, and in the join iff
    their units share a clique or sit in template-adjacent blocks.  As a
    cyclic group holds one subgroup of each order, S_u lies in S_v iff the
    home row of v lists the smallest element of u and o_u divides o_v; the
    comparable pairs are thus the units met in each row joined with the
    units homed there (``_comparable``), each unordered pair once.  Every
    comparable pair must be joined, and there must be as many comparable
    pairs as joined ones.  The rows hold N entries for Z_n and about 1.5N
    for D_n and Q_n, so that costs about N log N time and a few arrays of
    N entries, with six more words per element for the index tables of the
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
    size = spec.order
    n_vert = size - shift
    if js.order != n_vert:
        raise StructureValidationError(
            f"join structure for {spec} covers {js.order} vertices, the graph has {n_vert}"
        )
    blocks = js.blocks
    elem = np.concatenate([b.members for b in blocks])
    # n_vert entries, none negative, none at n_vert or beyond, none twice
    if (
        elem.dtype.kind not in "iu"
        or elem.min() < 0
        or elem.max() >= n_vert
        or np.bincount(elem.astype(np.int64, copy=False)).max() > 1
    ):
        raise StructureValidationError(
            f"block members of {spec} are not the positions 0..{n_vert - 1}, each once"
        )
    elem = elem.astype(np.int64, copy=False)
    elem += shift  # the vertices as elements, grouped clique by clique
    clique = np.array([b.clique for b in blocks])
    sizes = np.array(js.sizes)
    if (clique < 1).any() or (sizes % clique).any():
        raise StructureValidationError(f"a block of {spec} is not made of whole cliques")
    adj, t = js.adj, len(blocks)
    if adj.shape != (t, t) or (adj != adj.T).any():
        raise StructureValidationError(
            f"the template of {spec} is not symmetric over its {t} blocks"
        )

    block_of_clique = np.repeat(np.arange(t), sizes // clique)
    clique_size = clique[block_of_clique]
    n_cliques = len(block_of_clique)
    clique_of = np.empty(size, dtype=np.int64)  # by element; e's entry unused if proper
    clique_of[elem] = np.repeat(np.arange(n_cliques), clique_size)
    home, order, canon, tables = _cover(
        spec, elem, np.cumsum(clique_size) - clique_size, clique_of
    )
    del elem

    # rep: the smallest element of each vertex's unit, -1 for e if proper
    vert_canon = canon[shift:]
    lead = np.full(size, size)
    np.minimum.at(lead, vert_canon, np.arange(shift, size))
    rep = np.empty(size, dtype=np.int64)
    rep[:shift] = -1
    own = rep[shift:]
    np.take(lead, vert_canon, out=own)
    del lead
    later = np.flatnonzero(clique_of[own] != clique_of[shift:])
    if later.size:  # a subgroup whose generators lie in several cliques
        pairs = clique_of[shift:][later] * size + vert_canon[later]
        _, head, back = np.unique(pairs, return_index=True, return_inverse=True)
        own[later] = (later + shift)[head][back]
    reps = np.flatnonzero(rep == np.arange(size))
    a, v = _comparable(tables, rep, reps, home, order)
    ca, cv = clique_of[a], clique_of[v]
    joined = (ca == cv) | adj[block_of_clique[ca], block_of_clique[cv]]
    unit_clique = clique_of[reps]
    unit_block = block_of_clique[unit_clique]
    per_clique = np.bincount(unit_clique)
    per_block = np.bincount(unit_block, minlength=t)
    n_joined = int(per_clique @ (per_clique - 1) + per_block @ adj @ per_block) // 2
    if joined.all() and len(a) == n_joined:
        return

    # units numbered in the order of their smallest elements
    n_units = len(reps)
    uid = np.empty(size, dtype=np.int64)
    uid[reps] = np.arange(n_units)
    a, v = uid[a], uid[v]

    # Refusal: the first vertex pair of a failing unit pair (a, b) is
    # (min(m_a, m_b), max(m_a, m_b)), m_a the smallest vertex of unit a.
    # Comparable pairs the join lacks are among (a, v); pairs the join has
    # but the power graph lacks lie in a clique or block pair whose count
    # of comparable pairs fell short.
    first = reps - shift

    def pair_keys(p, q):
        return np.minimum(first[p], first[q]) * n_vert + np.maximum(first[p], first[q])

    count = np.bincount(unit_block[a] * t + unit_block[v], minlength=t * t).reshape(t, t)
    comparable = count + count.T
    np.fill_diagonal(comparable, np.diag(count))
    same = unit_clique[a] == unit_clique[v]
    same_count = np.bincount(unit_clique[a][same], minlength=n_cliques)
    per_clique = np.bincount(unit_clique, minlength=n_cliques)
    clique_pairs = per_clique * (per_clique - 1) // 2
    expect = np.where(adj, np.outer(per_block, per_block), 0)
    np.fill_diagonal(expect, np.bincount(block_of_clique, clique_pairs, minlength=t))

    candidates = [pair_keys(a[~joined], v[~joined])]
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
    ui, uj = uid[rep[i + shift]], uid[rep[j + shift]]
    has, lacks = (
        ("join", "power graph")
        if unit_clique[ui] == unit_clique[uj] or adj[unit_block[ui], unit_block[uj]]
        else ("power graph", "join")
    )
    x, y = element_label(spec, i + shift), element_label(spec, j + shift)
    raise StructureValidationError(
        f"join of {spec.family.value} n={spec.n} ({js.variant.value}) refused: "
        f"{x} ~ {y} in the {has}, not in the {lacks}"
    )
