"""The structural route to universal adjacency spectra.

A power graph splits into blocks of elements that generate the same cyclic
subgroup.  Each block is a set of disjoint cliques of one size (a single
clique for the rotations, single reflections in D_n, pairs in Q_n), and
two blocks are either completely joined or not joined at all, according
to a small template graph: the poset of those subgroups.  The spectrum of

    U = alpha*A + beta*D + gamma*I + eta*J

then comes in two parts: difference vectors inside each block, plus the
eigenpairs of a small symmetric quotient matrix lifted to block-constant
vectors.  This script walks through the dihedral group of order 30.
"""

import numpy as np

from powspec import (
    GroupFamily,
    GroupSpec,
    UniversalParams,
    Variant,
    build_join,
    complement_params,
    dense_eigen,
    element_label,
    hjoin_spectrum,
    multiset_gap,
    power_graph_oracle,
    quotient_matrix,
    universal_matrix,
    verify_eigenpairs,
)

spec = GroupSpec(GroupFamily.DIHEDRAL, 15)
js = build_join(spec, Variant.POWER)  # proved equal to the power graph

# js.degrees derives a vertex's degree from the blocks: the rest of its
# clique, plus every vertex of the template-adjacent blocks
print("blocks of the power graph of D_15:")
for b, degree in zip(js.blocks, js.degrees):
    print(
        f"  label {b.label!r:>5}: {b.size:>2} vertices, {b.copies} clique(s) of "
        f"{b.clique}, vertex degree {degree}"
    )

# a block holds vertex positions: a^k sits at k, b·a^k at 15 + k
block = next(b for b in js.blocks if b.label == 3)
names = ", ".join(element_label(spec, i) for i in block.members)
print(f"block 3 holds the vertex positions {block.members.tolist()}: {names}")

laplacian = UniversalParams.preset("laplacian")
print("\nLaplacian quotient matrix (symmetric form):")
print(np.array_str(quotient_matrix(js, laplacian), precision=3))

spectrum = hjoin_spectrum(js, laplacian, want_vectors=True)
print("\nLaplacian spectrum by the structural route:")
for e in spectrum.eigenspaces:
    print(f"  {e.value:10.6f}  x{e.multiplicity:<3} ({e.provenance})")

# cross-check against the brute-force eigensolver and the residuals
u = universal_matrix(power_graph_oracle(spec), laplacian)
gap = multiset_gap(spectrum, dense_eigen(u))
report = verify_eigenpairs(u, spectrum, tol=1e-8)
print(f"\nmultiset gap vs dense route: {gap:.2e}")
print(f"max eigenpair residual:      {report.max_residual:.2e} (pass={report.passed})")

# the complement costs nothing extra: swap parameters, keep the structure
comp_params = complement_params(laplacian, js.order)
comp_spectrum = hjoin_spectrum(js, comp_params)
print("\nLaplacian spectrum of the complement (same join structure):")
for e in comp_spectrum.eigenspaces:
    print(f"  {e.value:10.6f}  x{e.multiplicity:<3}")

# the same rule covers the dicyclic groups at every n: Q_6 has one block
# per divisor of 12 plus one block of the six b-coset pairs: t = 7 for 24 vertices
q6 = build_join(GroupSpec(GroupFamily.DICYCLIC, 6), Variant.POWER)
print(f"\nQ_6 join: t = {len(q6.blocks)} blocks of sizes {q6.sizes}")
