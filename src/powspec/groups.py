"""Group laws and definitional power graphs for three group families.

Families: the cyclic group Z_n (integers with addition mod n), the
dihedral group D_n of order 2n, and the dicyclic group Q_n of order 4n
with presentation a^(2n) = e, b^2 = a^n, a*b = b*a^(-1).

An element is its position 0..|G|-1, and the identity is position 0.  In
Z_n the position is the integer itself.  In D_n and Q_n, with m = n or 2n
the order of a, a^k sits at k and the coset element of exponent k at
m + k: b*a^k in D_n, a^k*b in Q_n.  The group law ``mul`` works on
positions, on plain ints or on numpy index arrays alike, and
``element_label`` names a position for messages.

In Z_n the law is (i + j) mod n.  In D_n and Q_n it is gathers into
index tables built from the presentation (``_law_tables``), with no
division: every element is b^s*a^e, and i*j = (i*b^s)*a^e for
j = b^s*a^e, so the tables give j's s and e, then i*b^s, then the
position of b^s*a^(e mod m).  They hold six int64 words per element, 35
MB at D_360360.  They are built on the first product in a ``GroupSpec``
and kept as long as that object: one request's build, certificate and
oracle share them, and an equal spec made later builds its own.

The power graph is built directly from generated cyclic subgroups:
u ~ v iff one lies in the subgroup generated by the other.  The oracle
steps the powers x, x^2, x^3, ... of all elements together under the
group law, ``POWER_BLOCK`` powers per step: the first block x^1 .. x^B
by doubling, every later one as the block before times x^B.  It marks
each power in x's row and drops x once the identity shows in its block.
That costs O(sum over x of ord(x)) array work in about max ord / B
steps, and N^2 bytes of boolean memory for a group of order N.  This
definitional construction is the ground-truth oracle against which the
structural (join) route is validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator

import numpy as np

__all__ = [
    "GroupFamily",
    "GroupSpec",
    "LabeledGraph",
    "mul",
    "cyclic_subgroup",
    "power_graph_oracle",
    "delete_identity",
    "complement_graph",
    "edge_lines",
    "element_label",
]


class GroupFamily(str, Enum):
    CYCLIC = "zn"
    DIHEDRAL = "dn"
    DICYCLIC = "qn"


@dataclass(frozen=True)
class GroupSpec:
    """One of the three supported group families plus its size parameter."""

    family: GroupFamily
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"group parameter must be positive, got n={self.n}")
        if self.family is GroupFamily.DICYCLIC and self.n < 2:
            raise ValueError("dicyclic groups need n >= 2")

    @property
    def order(self) -> int:
        if self.family is GroupFamily.CYCLIC:
            return self.n
        if self.family is GroupFamily.DIHEDRAL:
            return 2 * self.n
        return 4 * self.n

    @cached_property
    def _tables(self):
        """The index tables of ``mul`` in D_n and Q_n, built on first use and
        kept with this object; None in Z_n, whose law needs none."""
        return None if self.family is GroupFamily.CYCLIC else _law_tables(self)


@dataclass(eq=False)
class LabeledGraph:
    """Dense undirected graph on the positions of group elements.

    ``adj`` is a square boolean array, symmetric with an empty diagonal.
    ``identity_index`` is 0 when the identity is a vertex (power graphs)
    and None when it is not (proper power graphs); vertex i is then the
    element at position i or i + 1.
    """

    adj: np.ndarray
    identity_index: int | None = None

    def __post_init__(self):
        self.adj = np.asarray(self.adj, dtype=bool)
        if self.adj.ndim != 2 or self.adj.shape[0] != self.adj.shape[1]:
            raise ValueError("adjacency must be a square array")
        if self.identity_index not in (0, None):
            raise ValueError("the identity is vertex 0 or no vertex")

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1)

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2


def _coset_modulus(spec: GroupSpec) -> int:
    """The order m of a: position i stands for coset i // m and exponent
    i % m."""
    return 2 * spec.n if spec.family is GroupFamily.DICYCLIC else spec.n


def _law_tables(spec: GroupSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The tables of the D_n or Q_n law, from the presentation: a^m = e,
    b^2 = a^z (z = 0 in D_n, z = n in Q_n) and a^k*b = b*a^(-k).

    Every element is b^s*a^e for one s < 2 and e < m, and its code is
    s*|G| + e.  For j = b^s*a^e, ``row[j]`` is s*|G| and ``exponent[j]``
    is e; ``times_b[s*|G| + i]`` is the code of i*b^s; ``place[c]`` is the
    position of b^s*a^(e mod m) for the code c = s*|G| + e, e < |G|.  So
    i*j = place[times_b[row[j] + i] + exponent[j]]: adding e to a code
    multiplies by a^e on the right, and place reduces the exponent.  The
    four hold |G|, |G|, 2|G| and 2|G| int64 entries."""
    m = _coset_modulus(spec)
    size = 2 * m
    # the tables are written in place: at |G| ~ 10^6 first touching fresh
    # pages costs more than the arithmetic
    row = np.repeat(np.array([0, size]), m)
    exponent = np.empty(size, dtype=np.int64)
    k, coset = exponent[:m], exponent[m:]
    k[:] = np.arange(m)
    neg = np.concatenate(([0], k[:0:-1]))  # -k mod m, its own inverse
    # b*a^k sits at m + k in D_n; in Q_n it is a^(-k)*b, at m + (-k mod m)
    coset[:] = k if spec.family is GroupFamily.DIHEDRAL else neg
    place = np.empty(2 * size, dtype=np.int64)
    place[:m] = place[m:size] = k
    place[size : size + m] = place[size + m :] = m + coset
    # (b^s*a^e)*b = b^(s+1)*a^(-e) and b^2 = a^z: the code of i*b is
    # |G| + (-e mod m) for i = a^e, and (z - e) mod m for i = b*a^e
    z = spec.n if spec.family is GroupFamily.DICYCLIC else 0
    times_b = np.empty(2 * size, dtype=np.int64)
    np.add(row, exponent, out=times_b[:size])
    np.add(neg, size, out=times_b[size : size + m])
    tail = times_b[size + m :]
    np.take(neg, coset, out=tail)
    tail += z
    tail %= m
    return row, exponent, times_b, place


def mul(spec: GroupSpec, i, j):
    """Product of the elements at positions i and j, as a position; i and j
    may be ints, giving an int, or numpy integer arrays that broadcast.

    Dihedral: position t*n + k is b^t*a^k; a^k*b = b*a^(-k).
    Dicyclic: position t*2n + k is a^k*b^t; b*a^k = a^(-k)*b and b^2 = a^n.
    Both read the spec's index tables (``_law_tables``), which only
    positions 0..|G|-1 index correctly: a negative one wraps without an
    error, as numpy's gathers do.
    """
    if spec.family is GroupFamily.CYCLIC:
        return (i + j) % spec.n
    row, exponent, times_b, place = spec._tables
    out = place[times_b[row[j] + i] + exponent[j]]
    return out if isinstance(out, np.ndarray) else int(out)


def cyclic_subgroup(spec: GroupSpec, x: int) -> set:
    """Positions of the subgroup {x^m : m in Z} generated by the element at
    position x; always contains the identity 0 and x itself."""
    out = {0}
    y = x
    while y != 0:
        out.add(y)
        y = mul(spec, y, x)
    return out


# Powers stepped per block, and the side of the square tiles in which the
# membership matrix is made symmetric.
POWER_BLOCK = 32
_TILE = 512


def power_graph_oracle(spec: GroupSpec) -> LabeledGraph:
    """Definitional power graph: u ~ v iff u != v and one of them is a power
    of the other (membership in the generated cyclic subgroup).

    Row x of the membership matrix marks x, x^2, ... up to the identity,
    all rows stepped together under the group law ``POWER_BLOCK`` powers
    at a time (fewer in a group of order below B): x^1 .. x^B by
    doubling, then each block the previous one times x^B.
    A row drops once the identity shows in its block; the powers marked
    after it in that block come round again, so they are already marked.
    The matrix is made symmetric tile by tile, so that the transposed
    reads stay in cache."""
    size = spec.order
    width = min(POWER_BLOCK, size)
    block = np.arange(size)[None].repeat(width, axis=0)  # row k is to hold x^(k+1)
    done = 1
    while done < width:
        step = min(done, width - done)  # rows done .. done + step - 1 are the first ones times x^done
        first = block[0] if step == 1 else block[:step]  # one row as 1-d, cheaper on small groups
        block[done : done + step] = mul(spec, first, block[done - 1])
        done += step
    stride = block[-1]  # x^width
    rows = block[0] * size
    member = np.zeros((size, size), dtype=bool)
    flat = member.reshape(-1)
    while True:
        flat[rows + block] = True
        live = block.all(axis=0)  # the identity has not shown in these columns
        if not live.any():
            break
        if not live.all():
            block, rows, stride = block[:, live], rows[live], stride[live]
        block = mul(spec, block, stride)
    for i in range(0, size, _TILE):
        for j in range(0, size, _TILE):
            member[i : i + _TILE, j : j + _TILE] |= member[j : j + _TILE, i : i + _TILE].T
    flat[:: size + 1] = False
    return LabeledGraph(member, identity_index=0)


def delete_identity(g: LabeledGraph) -> LabeledGraph:
    """Induced subgraph on everything except the identity vertex 0."""
    if g.identity_index is None:
        raise ValueError("graph has no identity vertex to delete")
    return LabeledGraph(g.adj[1:, 1:].copy())


def complement_graph(g: LabeledGraph) -> LabeledGraph:
    """Same vertices, complemented adjacency, still loop-free."""
    comp = ~g.adj
    np.fill_diagonal(comp, False)
    return LabeledGraph(comp, g.identity_index)


def edge_lines(g: LabeledGraph) -> Iterator[str]:
    """One "u v" line per edge, vertices by canonical index, u < v."""
    rows, cols = np.nonzero(np.triu(g.adj, k=1))
    for u, v in zip(rows.tolist(), cols.tolist()):
        yield f"{u} {v}"


def element_label(spec: GroupSpec, i: int) -> str:
    """Name of the element at position i: 3 in Z_n; e, a^2, b·a^3 in D_n;
    e, a^2, a^3·b in Q_n."""
    if spec.family is GroupFamily.CYCLIC:
        return str(int(i))
    t, k = divmod(int(i), _coset_modulus(spec))
    power = {0: "", 1: "a"}.get(k, f"a^{k}")
    if t == 0:
        return power or "e"
    if not power:
        return "b"
    return f"b·{power}" if spec.family is GroupFamily.DIHEDRAL else f"{power}·b"
