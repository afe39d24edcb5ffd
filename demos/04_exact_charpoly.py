"""Exact characteristic polynomials of quotient matrices.

The symmetric quotient matrix carries square roots of block sizes, but it
is similar to an integer-weighted form with the same characteristic
polynomial, so rational parameters give exact rational coefficients.
The roots are the eigenvalues of a tridiagonal matrix read off the
remainder sequence of that polynomial and its derivative, run at a
working precision; exact sign changes of the polynomial around each one
prove them real and simple.  Where they repeat, the exact sequence runs
instead, certifies that they are real and counts their multiplicities.
The roots cross-check the quotient's floating-point eigenvalues.
"""

from fractions import Fraction

import numpy as np

from powspec import (
    GroupFamily,
    GroupSpec,
    UniversalParams,
    Variant,
    build_join,
    charpoly_exact,
    charpoly_roots,
    cyclic_two_prime_case2_charpoly,
    dense_eigen,
    multiset_gap,
    normalized_laplacian_charpoly_at,
    quotient_matrix,
)

# --- exact coefficients -------------------------------------------------------

js = build_join(GroupSpec(GroupFamily.DIHEDRAL, 15), Variant.POWER)
laplacian = UniversalParams.preset("laplacian")
coeffs = charpoly_exact(js, laplacian)
print("Laplacian quotient charpoly of the power graph of D_15 (monic, descending):")
print(" ", [str(c) for c in coeffs])
print("  constant term zero, so 0 is an eigenvalue (as every Laplacian demands)")

roots = charpoly_roots(coeffs)
print("  roots:", [round(r, 9) + 0.0 for r in roots])
print("  match dense eigensolver:", multiset_gap(np.array(roots), dense_eigen(quotient_matrix(js, laplacian))) < 1e-10)

# rational (non-preset) parameters stay exact
params = UniversalParams(Fraction(3, 2), Fraction(-1, 3), Fraction(2), Fraction(5, 7))
coeffs = charpoly_exact(build_join(GroupSpec(GroupFamily.CYCLIC, 30), Variant.POWER), params)
print("\nZ_30 quotient charpoly at (3/2, -1/3, 2, 5/7):")
print("  degree", len(coeffs) - 1, "constant term", coeffs[-1])

# --- a pointwise polynomial identity ------------------------------------------

# for Z_pq with eta = 0 the quotient determinant collapses to a short
# product-sum expression; evaluate both sides at a rational point, the
# right one as det(B - lambda*I) = (-1)^t p(lambda) from the exact charpoly
params = UniversalParams(2, Fraction(-1, 2), Fraction(1, 3), 0)
lam = Fraction(7, 5)
lhs = cyclic_two_prime_case2_charpoly(2, 3, params, lam)
js = build_join(GroupSpec(GroupFamily.CYCLIC, 6), Variant.POWER)
p_at = Fraction(0)
for c in charpoly_exact(js, params):
    p_at = p_at * lam + c
rhs = (-1) ** len(js.blocks) * p_at
print("\nproduct-sum formula vs exact charpoly at lambda = 7/5:")
print(f"  {lhs} == {rhs}: {lhs == rhs}")

# --- normalized Laplacian through the join --------------------------------------

# det(D - A - lambda*D) / det(D): block values times the quotient determinant
js = build_join(GroupSpec(GroupFamily.CYCLIC, 4), Variant.POWER)
print("\nnormalized-Laplacian characteristic value of the power graph of Z_4:")
for lam in (0, Fraction(1, 2), Fraction(4, 3), 2):
    value = normalized_laplacian_charpoly_at(js, lam)
    print(f"  psi({lam}) = {value}")
