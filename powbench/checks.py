"""Checks of ``powspec`` outputs against the reference values.

Each check returns a list of problems; an empty list means the output is
correct.  Only values are checked, never routes, provenance or
verification fields, so any correct way of computing them passes.
Floats are compared within 1e-8 * max(1, ||U||_inf), the tolerance the
program itself states.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

import reference

TOL = 1e-8


def _expanded(report: dict) -> np.ndarray:
    vals = [e["value"] for e in report["eigenspaces"] for _ in range(e["multiplicity"])]
    return np.sort(np.array(vals, dtype=float))


def multiset(values, expected: np.ndarray, tol: float, what: str) -> list[str]:
    values = np.sort(np.asarray(values, dtype=float))
    expected = np.sort(expected)
    if values.shape != expected.shape:
        return [f"{what}: {values.size} values, reference has {expected.size}"]
    gap = float(np.max(np.abs(values - expected))) if values.size else 0.0
    return [f"{what}: gap {gap:.3e} > {tol:.3e}"] if gap > tol else []


def spectrum(report: dict, ref: dict, u: np.ndarray | None = None) -> list[str]:
    """Eigenvalue multiset; with ``u`` also every returned eigenvector:
    residual ||Ux - lambda x||_inf <= tol * ||x||_inf and a basis of full
    rank for each eigenspace."""
    tol = TOL * max(1.0, ref["norm"])
    problems = multiset(_expanded(report), np.array(ref["eigenvalues"]), tol, "eigenvalues")
    if u is None:
        return problems
    for e in report["eigenspaces"]:
        basis = np.array(e.get("basis", []), dtype=float).reshape(-1, u.shape[0]).T
        if basis.shape[1] != e["multiplicity"]:
            problems.append(
                f"eigenvalue {e['value']:.6g}: {basis.shape[1]} basis vectors "
                f"for multiplicity {e['multiplicity']}"
            )
            continue
        res = np.max(np.abs(u @ basis - e["value"] * basis), axis=0)
        bound = tol * np.max(np.abs(basis), axis=0)
        if (res > bound).any():
            problems.append(f"eigenvalue {e['value']:.6g}: residual {res.max():.3e}")
        elif np.linalg.matrix_rank(basis) != e["multiplicity"]:
            problems.append(f"eigenvalue {e['value']:.6g}: basis is not independent")
    return problems


def quotient(coeffs: list[Fraction], roots, ref: dict) -> list[str]:
    """Exact coefficients (modulo a prime, against the reference quotient),
    the roots against the quotient's eigenvalues, and every root against
    the eigenvalues of U."""
    tol = TOL * max(1.0, ref["norm"])
    problems = []
    if len(coeffs) != len(ref["charpoly_mod"]):
        problems.append(f"degree {len(coeffs) - 1}, reference quotient has {len(ref['charpoly_mod']) - 1}")
    elif reference.scaled_mod(coeffs, ref["lcm"]) != ref["charpoly_mod"]:
        problems.append("charpoly coefficients differ from the reference quotient's")
    problems += multiset(roots, np.array(ref["quotient_eigenvalues"]), tol, "charpoly roots")
    eig = np.sort(np.array(ref["eigenvalues"]))
    for r in roots:
        if np.min(np.abs(eig - r)) > tol:
            problems.append(f"root {r:.12g} is not an eigenvalue of U")
            break
    return problems


def normalized(value: float, ref: dict) -> list[str]:
    """value == prod(mu_i - X) within the first-order error of the product
    under a 1e-8 change in each mu_i."""
    factors = np.array(ref["mu"]) - float(ref["at"])
    expected = float(np.prod(factors))
    slack = sum(float(np.prod(np.delete(np.abs(factors), i))) for i in range(factors.size))
    tol = TOL * slack + 1e-300
    gap = abs(value - expected)
    return [f"normalized value {value:.12g}, reference {expected:.12g}"] if gap > tol else []
