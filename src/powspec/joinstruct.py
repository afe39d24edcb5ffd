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
regular blocks needs.  ``build_join`` still validates the assembled
graph vertex-for-vertex against the definitional oracle and raises
``StructureValidationError``, naming the first mismatching pair, rather
than trusting it: a refused structure is a defect, not a route.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd

import numpy as np

from .groups import (
    GroupFamily,
    GroupSpec,
    LabeledGraph,
    delete_identity,
    element_label,
    power_graph_oracle,
)
from .numtheory import divisors

__all__ = [
    "Variant",
    "TemplateGraph",
    "JoinBlock",
    "JoinStructure",
    "StructureValidationError",
    "divisor_graph",
    "build_join",
    "variant_graph",
    "assemble",
    "validate_structure",
]


class Variant(str, Enum):
    POWER = "power"
    PROPER = "proper"


class StructureValidationError(RuntimeError):
    """The assembled join graph disagrees with the definitional oracle."""


@dataclass(eq=False)
class TemplateGraph:
    """Small graph whose vertices index the blocks of a join."""

    adj: np.ndarray
    labels: tuple

    def __post_init__(self):
        self.adj = np.asarray(self.adj, dtype=bool)

    @property
    def n(self) -> int:
        return len(self.labels)

    def drop_vertex(self, label) -> "TemplateGraph":
        keep = [i for i, lab in enumerate(self.labels) if lab != label]
        if len(keep) == self.n:
            raise ValueError(f"template has no vertex labelled {label!r}")
        return TemplateGraph(
            self.adj[np.ix_(keep, keep)], tuple(self.labels[i] for i in keep)
        )


@dataclass(frozen=True)
class JoinBlock:
    """One block: its template label, its members listed clique by clique,
    the size of its disjoint cliques, and the total size of the
    template-adjacent blocks."""

    label: object
    members: tuple
    clique: int
    join_degree: int

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


@dataclass(eq=False)
class JoinStructure:
    """Template plus ordered blocks; block order follows template labels."""

    spec: GroupSpec
    variant: Variant
    template: TemplateGraph
    blocks: tuple

    @property
    def order(self) -> int:
        return sum(b.size for b in self.blocks)

    @property
    def sizes(self) -> tuple:
        return tuple(b.size for b in self.blocks)


def divisor_graph(n: int) -> TemplateGraph:
    """Graph on the divisors of n; two divisors are adjacent iff one
    divides the other."""
    divs = divisors(n)
    t = len(divs)
    adj = np.zeros((t, t), dtype=bool)
    for i in range(t):
        for j in range(i + 1, t):
            if divs[j] % divs[i] == 0:
                adj[i, j] = adj[j, i] = True
    return TemplateGraph(adj, tuple(divs))


# family -> (m / n, rotation tag, coset tag, clique size of the coset block);
# a tag of None leaves the exponent bare, as in Z_n
_FAMILIES = {
    GroupFamily.CYCLIC: (1, None, None, None),
    GroupFamily.DIHEDRAL: (1, "r", "s", 1),
    GroupFamily.DICYCLIC: (2, "a", "b", 2),
}


def build_join(
    spec: GroupSpec,
    variant: Variant,
    validate: bool = True,
    oracle: LabeledGraph | None = None,
) -> JoinStructure:
    """Block partition + template for the (proper) power graph of ``spec``,
    from the cyclic-subgroup rule of the module docstring.

    Blocks follow the ascending divisors of m, then "R"; the proper variant
    drops the identity block m.  Raises ``StructureValidationError`` when
    the assembled graph does not reproduce the oracle.  A precomputed
    graph of ``spec`` and ``variant`` (see ``variant_graph``) can be passed
    as ``oracle`` to skip rebuilding it during validation.
    """
    variant = Variant(variant)
    n = spec.n
    if variant is Variant.PROPER and spec.order < 2:
        raise ValueError("proper variant needs group order >= 2")

    m_over_n, rotation, coset, clique = _FAMILIES[spec.family]
    m = m_over_n * n
    template = divisor_graph(m)
    by_gcd: dict[int, list] = {d: [] for d in template.labels}
    for k in range(m):
        by_gcd[gcd(k, m) if k else m].append(k if rotation is None else (rotation, k))
    members = [by_gcd[d] for d in template.labels]
    cliques = [len(group) for group in members]
    if coset is not None:
        t = template.n
        adj = np.zeros((t + 1, t + 1), dtype=bool)
        adj[:t, :t] = template.adj
        adj[t, :t] = adj[:t, t] = [d % n == 0 for d in template.labels]
        template = TemplateGraph(adj, template.labels + ("R",))
        members.append([(coset, k + j * n) for k in range(n) for j in range(clique)])
        cliques.append(clique)
    if variant is Variant.PROPER:
        drop = template.labels.index(m)
        template = template.drop_vertex(m)
        del members[drop], cliques[drop]

    sizes = np.array([len(group) for group in members])
    blocks = tuple(
        JoinBlock(label, tuple(group), c, int(sizes[template.adj[i]].sum()))
        for i, (label, group, c) in enumerate(zip(template.labels, members, cliques))
    )
    js = JoinStructure(spec, variant, template, blocks)
    if validate:
        validate_structure(js, oracle=oracle)
    return js


def assemble(js: JoinStructure) -> LabeledGraph:
    """Concrete graph of a join structure: each block a set of disjoint
    cliques, plus complete bipartite gluing between template-adjacent
    blocks."""
    sizes = js.sizes
    offsets = np.concatenate(([0], np.cumsum(sizes)))
    total = int(offsets[-1])
    adj = np.zeros((total, total), dtype=bool)
    for i, block in enumerate(js.blocks):
        lo, hi = offsets[i], offsets[i + 1]
        clique_of = np.arange(hi - lo) // block.clique
        adj[lo:hi, lo:hi] = clique_of[:, None] == clique_of[None, :]
        for j in range(i + 1, js.template.n):
            if js.template.adj[i, j]:
                lo2, hi2 = offsets[j], offsets[j + 1]
                adj[lo:hi, lo2:hi2] = True
                adj[lo2:hi2, lo:hi] = True
    np.fill_diagonal(adj, False)
    labels = tuple(x for block in js.blocks for x in block.members)
    ident = js.spec.identity
    identity_index = labels.index(ident) if ident in labels else None
    return LabeledGraph(adj, labels, identity_index=identity_index)


def variant_graph(power: LabeledGraph, variant: Variant) -> LabeledGraph:
    """The graph of ``variant`` from a power graph: the power graph itself,
    or the proper power graph without the identity."""
    if Variant(variant) is Variant.PROPER:
        if power.n < 2:
            raise ValueError("proper variant needs group order >= 2")
        return delete_identity(power)
    return power


def validate_structure(js: JoinStructure, oracle: LabeledGraph | None = None) -> None:
    """Hard check: assembled graph == oracle graph vertex-for-vertex.  The
    oracle graph is the (proper) power graph of ``js``, built here when not
    given.  A refusal names the first mismatching vertex pair."""
    if oracle is None:
        oracle = variant_graph(power_graph_oracle(js.spec), js.variant)
    built = assemble(js)
    if built.n != oracle.n:
        raise StructureValidationError(
            f"join structure for {js.spec} covers {built.n} vertices, oracle has {oracle.n}"
        )
    pos = {lab: i for i, lab in enumerate(oracle.labels)}
    try:
        perm = np.array([pos[lab] for lab in built.labels], dtype=int)
    except KeyError as missing:
        raise StructureValidationError(
            f"block member {missing} is not a vertex of the oracle graph"
        ) from None
    mismatch = built.adj != oracle.adj[np.ix_(perm, perm)]
    if mismatch.any():
        i, j = np.argwhere(mismatch)[0]
        x, y = element_label(built.labels[i]), element_label(built.labels[j])
        has, lacks = ("join", "power graph") if built.adj[i, j] else ("power graph", "join")
        raise StructureValidationError(
            f"join of {js.spec.family.value} n={js.spec.n} ({js.variant.value}) refused: "
            f"{x} ~ {y} in the {has}, not in the {lacks}"
        )
