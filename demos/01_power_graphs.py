"""Power graphs of the three supported group families.

Two group elements are adjacent in the power graph when one is a power of
the other.  This script builds the graphs definitionally (from generated
cyclic subgroups), then looks at the proper variant (identity removed) and
the complement.
"""

import numpy as np

from powspec import (
    GroupFamily,
    GroupSpec,
    complement_graph,
    cyclic_subgroup,
    delete_identity,
    edge_lines,
    element_label,
    power_graph_oracle,
)

# --- cyclic: Z_12 ----------------------------------------------------------

spec = GroupSpec(GroupFamily.CYCLIC, 12)
g = power_graph_oracle(spec)
print(f"Z_12: {g.n} vertices, {g.edge_count()} edges")
print("degrees:", g.degrees().tolist())

# 0 is adjacent to everything; generators (1, 5, 7, 11) are too:
print("neighbors of 2:", sorted(int(j) for j in np.nonzero(g.adj[2])[0]))

# the subgroup generated by 8 explains its row
print("subgroup <8> =", sorted(cyclic_subgroup(spec, 8)))

# --- dihedral: D_6 ----------------------------------------------------------

spec = GroupSpec(GroupFamily.DIHEDRAL, 6)
g = power_graph_oracle(spec)
print(f"\nD_6: {g.n} vertices, {g.edge_count()} edges")
# every reflection has order two, so it only touches the identity; vertex i
# is the element at position i (a^k at k, b·a^k at 6 + k):
for i, deg in enumerate(g.degrees()):
    print(f"  {element_label(spec, i):>6}  degree {int(deg)}")

proper = delete_identity(g)
print(f"proper power graph of D_6: {proper.n} vertices, {proper.edge_count()} edges")

# --- dicyclic: Q_2 (the quaternion group of order 8) ------------------------

spec = GroupSpec(GroupFamily.DICYCLIC, 2)
g = power_graph_oracle(spec)
print(f"\nQ_2: {g.n} vertices, {g.edge_count()} edges")
print("edge list:")
for line in edge_lines(g):
    print(" ", line)

comp = complement_graph(g)
print(f"complement: {comp.edge_count()} edges "
      f"(complete tripartite between the three four-element subgroups minus the center)")
