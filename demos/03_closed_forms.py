"""Closed-form spectra and three-way cross-validation.

For special orders every eigenvalue has an explicit expression.  Each
closed form here is checked against both the structural route and the
dense eigensolver.
"""

from math import sqrt

import numpy as np

from powspec import (
    GroupFamily,
    GroupSpec,
    UniversalParams,
    Variant,
    build_join,
    complement_graph,
    cyclic_prime_power_spectrum,
    cyclic_two_prime_complement_eta0,
    cyclic_two_prime_quotient,
    dense_eigen,
    dicyclic_repeated_eigenvalue,
    hjoin_spectrum,
    multiset_gap,
    power_graph_oracle,
    quaternion8_complement_spectrum,
    universal_matrix,
)

# --- prime powers: the power graph of Z_{p^r} is complete -------------------

params = UniversalParams.preset("signless")
cf = cyclic_prime_power_spectrum(3, 2, params)
print("signless Laplacian of the power graph of Z_9:")
for e in cf.eigenspaces:
    print(f"  {float(e.value):8.3f} x{e.multiplicity}")

js = build_join(GroupSpec(GroupFamily.CYCLIC, 9), Variant.POWER)
structural = hjoin_spectrum(js, params)
u = universal_matrix(power_graph_oracle(GroupSpec(GroupFamily.CYCLIC, 9)), params)
print("agrees with structural route:", multiset_gap(cf.expanded(), structural) < 1e-10)
print("agrees with dense route:     ", multiset_gap(cf.expanded(), dense_eigen(u)) < 1e-10)

# --- two distinct primes: the quotient in the alpha = -eta regime ------------

params = UniversalParams(-1, 1, 0, 1)
cf = cyclic_two_prime_quotient(3, 5, params)
print("\nquotient eigenvalues for Z_15 at (alpha,beta,gamma,eta) = (-1,1,0,1):")
print(" ", sorted(cf.expanded().tolist()))
# two of them come from an explicit radical:
mean = 1 * (2 * 15 - 3 - 5) + 2 * (1 + 0)
rad = sqrt(1 * (3 - 5) ** 2 + 4 * 1 * (3 - 1) * (5 - 1))
print(f"  radical pair: ({mean} +- {rad}) / 2 = {(mean+rad)/2}, {(mean-rad)/2}")

# --- complements -------------------------------------------------------------

cf = cyclic_two_prime_complement_eta0(3, 5, UniversalParams.preset("adjacency"))
g = complement_graph(power_graph_oracle(GroupSpec(GroupFamily.CYCLIC, 15)))
u = universal_matrix(g, UniversalParams.preset("adjacency"))
print("\nadjacency spectrum of the complement of the power graph of Z_15:")
print("  closed form:", {round(float(e.value), 6): e.multiplicity for e in cf.eigenspaces})
print("  matches dense:", multiset_gap(cf.expanded(), dense_eigen(u)) < 1e-10)

# --- dicyclic families --------------------------------------------------------

value, mult = dicyclic_repeated_eigenvalue(8, UniversalParams.preset("laplacian"))
print(f"\nrepeated eigenvalue for Q_8 (Laplacian): {float(value)} x{mult}")

params = UniversalParams(1, 0, 0, 1)
cf = quaternion8_complement_spectrum(params)
g = complement_graph(power_graph_oracle(GroupSpec(GroupFamily.DICYCLIC, 2)))
u = universal_matrix(g, params)
print("\nA + J over the complement of the power graph of the quaternion group:")
for e in cf.eigenspaces:
    print(f"  {float(e.value):12.6f} x{e.multiplicity}")
print("  matches dense:", multiset_gap(cf.expanded(), dense_eigen(u)) < 1e-10)
