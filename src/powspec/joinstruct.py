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
variant, which drops the identity 0.  ``build_join`` still validates the
assembled graph vertex-for-vertex against the definitional oracle and
raises ``StructureValidationError``, naming the first mismatching pair
by ``element_label``, rather than trusting it: a refused structure is a
defect, not a route.
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


@dataclass(frozen=True, eq=False)
class JoinBlock:
    """One block: its template label, its members (an int array of vertex
    positions of the graph, listed clique by clique), the size of its
    disjoint cliques, and the total size of the template-adjacent blocks."""

    label: object
    members: np.ndarray
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


# family -> (m / n, clique size of the coset block, None without one)
_FAMILIES = {
    GroupFamily.CYCLIC: (1, None),
    GroupFamily.DIHEDRAL: (1, 1),
    GroupFamily.DICYCLIC: (2, 2),
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
    drops the identity block m.  Members are vertex positions: a^k sits at
    k and the coset element of exponent k at m + k, one less in the proper
    variant.  Raises ``StructureValidationError`` when the assembled graph
    does not reproduce the oracle.  A precomputed graph of ``spec`` and
    ``variant`` (see ``variant_graph``) can be passed as ``oracle`` to skip
    rebuilding it during validation.
    """
    variant = Variant(variant)
    n = spec.n
    if variant is Variant.PROPER and spec.order < 2:
        raise ValueError("proper variant needs group order >= 2")

    m_over_n, clique = _FAMILIES[spec.family]
    m = m_over_n * n
    template = divisor_graph(m)
    classes = np.gcd(np.arange(m), m)
    classes[0] = m
    by_class = np.argsort(classes, kind="stable")
    members = np.split(by_class, np.flatnonzero(np.diff(classes[by_class])) + 1)
    cliques = [len(group) for group in members]
    if clique is not None:
        t = template.n
        adj = np.zeros((t + 1, t + 1), dtype=bool)
        adj[:t, :t] = template.adj
        adj[t, :t] = adj[:t, t] = [d % n == 0 for d in template.labels]
        template = TemplateGraph(adj, template.labels + ("R",))
        # clique by clique: the clique of k < n is m + k + j*n, j < clique
        members.append((m + np.arange(n)[:, None] + n * np.arange(clique)).ravel())
        cliques.append(clique)
    if variant is Variant.PROPER:
        drop = template.labels.index(m)
        template = template.drop_vertex(m)
        del members[drop], cliques[drop]
        members = [group - 1 for group in members]

    sizes = np.array([len(group) for group in members])
    blocks = tuple(
        JoinBlock(label, group, c, int(sizes[template.adj[i]].sum()))
        for i, (label, group, c) in enumerate(zip(template.labels, members, cliques))
    )
    js = JoinStructure(spec, variant, template, blocks)
    if validate:
        validate_structure(js, oracle=oracle)
    return js


def assemble(js: JoinStructure) -> LabeledGraph:
    """Concrete graph of a join structure in the vertex order of its
    (proper) power graph: each block a set of disjoint cliques, plus
    complete bipartite gluing between template-adjacent blocks.  The block
    members must be a permutation of the vertex positions."""
    clique_of = np.empty(js.order, dtype=np.intp)
    first = 0  # cliques are numbered across all blocks
    for block in js.blocks:
        clique_of[block.members] = first + np.arange(block.size) // block.clique
        first += block.copies
    block_of = np.repeat(np.arange(js.template.n), [b.copies for b in js.blocks])  # per clique
    joined = js.template.adj[np.ix_(block_of, block_of)] | np.eye(first, dtype=bool)
    adj = joined[:, clique_of][clique_of]  # whole-row copies, C order; np.ix_ is slower
    np.fill_diagonal(adj, False)
    return LabeledGraph(adj, None if js.variant is Variant.PROPER else 0)


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
    given.  The block members must hold every vertex position exactly
    once.  A refusal names the first mismatching vertex pair."""
    if oracle is None:
        oracle = variant_graph(power_graph_oracle(js.spec), js.variant)
    if js.order != oracle.n:
        raise StructureValidationError(
            f"join structure for {js.spec} covers {js.order} vertices, oracle has {oracle.n}"
        )
    positions = np.sort(np.concatenate([b.members for b in js.blocks]))
    if not np.array_equal(positions, np.arange(oracle.n)):
        raise StructureValidationError(
            f"block members of {js.spec} are not the positions 0..{oracle.n - 1}, each once"
        )
    built = assemble(js)
    mismatch = built.adj != oracle.adj
    if mismatch.any():
        i, j = np.argwhere(mismatch)[0]
        shift = 1 if js.variant is Variant.PROPER else 0
        x, y = element_label(js.spec, i + shift), element_label(js.spec, j + shift)
        has, lacks = ("join", "power graph") if built.adj[i, j] else ("power graph", "join")
        raise StructureValidationError(
            f"join of {js.spec.family.value} n={js.spec.n} ({js.variant.value}) refused: "
            f"{x} ~ {y} in the {has}, not in the {lacks}"
        )
