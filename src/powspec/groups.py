"""Element enumeration and definitional power graphs for three group families.

Families: the cyclic group Z_n (integers with addition mod n), the
dihedral group D_n of order 2n, and the dicyclic group Q_n of order 4n
with presentation a^(2n) = e, b^2 = a^n, a*b = b*a^(-1).

Elements live in a fixed normal form (tuples) and in a fixed order,
``elements(spec)``.  The group law works on positions in that order, on
plain ints or on numpy index arrays alike; ``mul`` on tuples encodes its
operands to positions, applies that law and decodes the result.

The power graph is built directly from generated cyclic subgroups:
u ~ v iff one lies in the subgroup generated by the other.  The oracle
steps the powers x, x^2, x^3, ... of all elements together under the
index-coded law, marks each power in x's row, and drops x once its power
returns to the identity.  That costs O(sum over x of ord(x)) array work
and N^2 bytes of boolean memory for a group of order N.  This
definitional construction is the ground-truth oracle against which the
structural (join) route is validated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

__all__ = [
    "GroupFamily",
    "GroupSpec",
    "LabeledGraph",
    "elements",
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

    @property
    def identity(self):
        if self.family is GroupFamily.CYCLIC:
            return 0
        if self.family is GroupFamily.DIHEDRAL:
            return ("r", 0)
        return ("a", 0)


@dataclass(eq=False)
class LabeledGraph:
    """Dense undirected graph with group-element vertex labels.

    ``adj`` is a square boolean array, symmetric with an empty diagonal.
    ``identity_index`` points at the identity-element vertex when one is
    present (power graphs have one, proper power graphs do not).
    """

    adj: np.ndarray
    labels: tuple
    identity_index: int | None = None

    def __post_init__(self):
        self.adj = np.asarray(self.adj, dtype=bool)
        if self.adj.shape != (len(self.labels), len(self.labels)):
            raise ValueError("adjacency shape does not match label count")

    @property
    def n(self) -> int:
        return len(self.labels)

    def degrees(self) -> np.ndarray:
        return self.adj.sum(axis=1)

    def edge_count(self) -> int:
        return int(self.adj.sum()) // 2


def elements(spec: GroupSpec) -> list:
    """Deterministic element order: rotations/a-powers by exponent, then the
    reflection/b-coset elements by exponent.  Index 0 is the identity."""
    n = spec.n
    if spec.family is GroupFamily.CYCLIC:
        return list(range(n))
    if spec.family is GroupFamily.DIHEDRAL:
        return [("r", k) for k in range(n)] + [("s", k) for k in range(n)]
    return [("a", k) for k in range(2 * n)] + [("b", k) for k in range(2 * n)]


def _coset_modulus(spec: GroupSpec) -> int:
    """Number of elements before the second coset in ``elements(spec)``:
    index i stands for coset i // m and exponent i % m."""
    return 2 * spec.n if spec.family is GroupFamily.DICYCLIC else spec.n


def _mul_index(spec: GroupSpec, i, j):
    """Product of the elements at positions i and j of ``elements(spec)``,
    as a position; i and j may be ints or numpy integer arrays.

    Dihedral: (t, k) is b^t*a^k; a^k*b = b*a^(-k).
    Dicyclic: (t, k) is a^k*b^t; b*a^k = a^(-k)*b and b^2 = a^n.
    """
    n = spec.n
    if spec.family is GroupFamily.CYCLIC:
        return (i + j) % n
    m = _coset_modulus(spec)
    ti, ki = divmod(i, m)
    tj, kj = divmod(j, m)
    if spec.family is GroupFamily.DIHEDRAL:
        k = ki - 2 * tj * ki + kj
    else:
        k = ki + kj - 2 * ti * kj + n * ti * tj
    return (ti ^ tj) * m + k % m


_TAGS = {GroupFamily.DIHEDRAL: ("r", "s"), GroupFamily.DICYCLIC: ("a", "b")}


def mul(spec: GroupSpec, x, y):
    """Product x*y reduced to normal form.

    Dihedral: ("r", k) is a^k, ("s", k) is b*a^k; b*a^k*b = a^(-k).
    Dicyclic: ("a", k) is a^k, ("b", k) is a^k*b; b*a^k = a^(-k)*b and
    b^2 = a^n, exponents mod 2n.
    """
    if spec.family is GroupFamily.CYCLIC:
        return _mul_index(spec, x, y)
    tags = _TAGS[spec.family]
    m = _coset_modulus(spec)

    def encode(z):
        tag, k = z
        return tags.index(tag) * m + k % m

    t, k = divmod(_mul_index(spec, encode(x), encode(y)), m)
    return (tags[t], k)


def cyclic_subgroup(spec: GroupSpec, x) -> set:
    """The subgroup {x^m : m in Z} generated by x; always contains the
    identity and x itself."""
    e = spec.identity
    out = {e}
    y = x
    while y != e:
        out.add(y)
        y = mul(spec, y, x)
    return out


def power_graph_oracle(spec: GroupSpec) -> LabeledGraph:
    """Definitional power graph: u ~ v iff u != v and one of them is a power
    of the other (membership in the generated cyclic subgroup).

    Row x of the membership matrix marks x, x^2, ... up to the identity,
    all rows stepped together with the index-coded group law."""
    elts = elements(spec)
    size = len(elts)
    member = np.zeros((size, size), dtype=bool)
    member[:, 0] = True  # the identity (index 0) is a power of everything
    flat = member.reshape(-1)
    base = np.arange(size)
    row_start = base * size
    power = base
    while base.size:
        flat[row_start + power] = True
        power = _mul_index(spec, power, base)
        live = power != 0
        if not live.all():
            base, row_start, power = base[live], row_start[live], power[live]
    adj = member | member.T
    np.fill_diagonal(adj, False)
    return LabeledGraph(adj, tuple(elts), identity_index=0)


def delete_identity(g: LabeledGraph) -> LabeledGraph:
    """Induced subgraph on everything except the identity vertex."""
    if g.identity_index is None:
        raise ValueError("graph has no identity vertex to delete")
    keep = [i for i in range(g.n) if i != g.identity_index]
    sub = g.adj[np.ix_(keep, keep)]
    return LabeledGraph(sub, tuple(g.labels[i] for i in keep), identity_index=None)


def complement_graph(g: LabeledGraph) -> LabeledGraph:
    """Same vertices, complemented adjacency, still loop-free."""
    comp = ~g.adj
    np.fill_diagonal(comp, False)
    return LabeledGraph(comp, g.labels, identity_index=g.identity_index)


def edge_lines(g: LabeledGraph) -> Iterator[str]:
    """One "u v" line per edge, vertices by canonical index, u < v."""
    rows, cols = np.nonzero(np.triu(g.adj, k=1))
    for u, v in zip(rows.tolist(), cols.tolist()):
        yield f"{u} {v}"


def element_label(x) -> str:
    """Human-readable element name: 3, a^2, b·a, a^3·b, ..."""
    if isinstance(x, int):
        return str(x)
    tag, k = x
    if tag == "r":
        return "e" if k == 0 else ("a" if k == 1 else f"a^{k}")
    if tag == "s":
        return "b" if k == 0 else (f"b·a" if k == 1 else f"b·a^{k}")
    if tag == "a":
        return "e" if k == 0 else ("a" if k == 1 else f"a^{k}")
    return "b" if k == 0 else (f"a·b" if k == 1 else f"a^{k}·b")
