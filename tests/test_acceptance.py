"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE n: PASS/FAIL` line (visible with -s, and in
captured output on failure) and then asserts, so a plain `pytest` run is the
acceptance gate.
"""

import time
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from powspec.closedforms import (
    cyclic_prime_power_spectrum,
    cyclic_two_prime_case2_charpoly,
    cyclic_two_prime_quotient,
)
from powspec.groups import (
    GroupFamily,
    GroupSpec,
    LabeledGraph,
    complement_graph,
    delete_identity,
    power_graph_oracle,
)
from powspec.joinstruct import Variant, build_join
from powspec.numtheory import prime_power
from powspec.spectra import (
    UniversalParams,
    charpoly_exact,
    charpoly_roots,
    complement_params,
    dense_eigen,
    hjoin_spectrum,
    integer_form,
    multiset_gap,
    quotient_matrix,
    sample_params,
    universal_matrix,
    verify_eigenpairs,
)

Z = GroupFamily.CYCLIC
D = GroupFamily.DIHEDRAL
Q = GroupFamily.DICYCLIC

LAPLACIAN = UniversalParams.preset("laplacian")
ADJACENCY = UniversalParams.preset("adjacency")
SIGNLESS = UniversalParams.preset("signless")


def report(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def inf_scale(u: np.ndarray) -> float:
    return max(1.0, float(np.abs(u).sum(axis=1).max())) if u.size else 1.0


def test_acceptance_1_oracle_equivalence_sweep():
    """Structural route vs dense eigensolver across every family instance of
    order <= 300, power/proper, plain/complement, 5 random quadruples each;
    per-instance tolerance 1e-8 * max(1, ||U||_inf).  Every instance must
    take the structural route: a refusal raises."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst = 0.0
    compared = 0
    cases = (
        [(Z, n) for n in range(1, 301)]
        + [(D, n) for n in range(1, 151)]
        + [(Q, n) for n in range(2, 76)]
    )
    for family, n in cases:
        spec = GroupSpec(family, n)
        g_power = power_graph_oracle(spec)
        variants = [(Variant.POWER, g_power)]
        if g_power.n >= 2:
            variants.append((Variant.PROPER, delete_identity(g_power)))
        for variant, gv in variants:
            js = build_join(spec, variant)
            for comp in (False, True):
                target = complement_graph(gv) if comp else gv
                if target.n == 0:
                    continue
                for _ in range(5):
                    p = sample_params(rng)
                    u = universal_matrix(target, p)
                    p_eff = complement_params(p, gv.n) if comp else p
                    gap = multiset_gap(hjoin_spectrum(js, p_eff), dense_eigen(u))
                    ratio = gap / (1e-8 * inf_scale(u))
                    worst = max(worst, ratio)
                    compared += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1.0 and compared > 9000 and elapsed < 120.0
    report(1, ok, f"{compared} comparisons, worst gap {worst:.3e} of tolerance, {elapsed:.1f}s")


def test_acceptance_2_prime_power_regression():
    """Closed form for Z_{p^r}: exact formula identity against the engine's
    quotient and block values, and 1e-10 agreement with both numeric routes,
    for (p,r) in {(2,1),(2,3),(3,2),(5,1)} and 10 random quadruples."""
    rng = np.random.default_rng(2)
    worst = 0.0
    exact_ok = True
    for p, r in [(2, 1), (2, 3), (3, 2), (5, 1)]:
        n = p**r
        spec = GroupSpec(Z, n)
        js = build_join(spec, Variant.POWER)
        g = power_graph_oracle(spec)
        for _ in range(10):
            params = sample_params(rng, integer=True)  # exact in both worlds
            cf = cyclic_prime_power_spectrum(p, r, params)
            top = params.alpha * (n - 1) + params.beta * (n - 1) + params.eta * n + params.gamma
            rest = -params.alpha + params.beta * (n - 1) + params.gamma
            got = {e.value: e.multiplicity for e in cf.eigenspaces}
            want = {top: 1}
            want[rest] = want.get(rest, 0) + (n - 1)
            exact_ok = exact_ok and got == want
            # formula-exact check against the engine: B fixes the all-ones
            # block vector at the top value, and the block eigenvalue is the
            # same integer expression both ways
            a, d = integer_form(js, params)
            image = [Fraction(int(x), d) for x in a.sum(axis=1).tolist()]
            exact_ok = exact_ok and all(x == top for x in image)
            for b, degree in zip(js.blocks, js.degrees):
                if b.size >= 2:
                    part1 = -params.alpha + params.beta * degree + params.gamma
                    exact_ok = exact_ok and part1 == rest
            u = universal_matrix(g, params)
            gap_struct = multiset_gap(cf.expanded(), hjoin_spectrum(js, params))
            gap_dense = multiset_gap(cf.expanded(), dense_eigen(u))
            worst = max(worst, gap_struct, gap_dense)
    ok = exact_ok and worst <= 1e-10
    report(2, ok, f"exact formula identity {exact_ok}, worst numeric gap {worst:.3e}")


def test_acceptance_3_two_prime_radical():
    """alpha = -eta radical pair for Z_{pq}: the explicit values match the
    dense eigensolver on the quotient within 1e-10."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for p, q in [(2, 3), (3, 5), (5, 7)]:
        js = build_join(GroupSpec(Z, p * q), Variant.POWER)
        for eta in (1, -2):
            for _ in range(3):
                beta = float(rng.uniform(-2, 2))
                gamma = float(rng.uniform(-2, 2))
                params = UniversalParams(-eta, beta, gamma, eta)
                mean = beta * (2 * p * q - p - q) + 2 * (eta + gamma)
                rad = sqrt(beta**2 * (p - q) ** 2 + 4 * eta**2 * (p - 1) * (q - 1))
                lam3, lam4 = (mean + rad) / 2, (mean - rad) / 2
                lam12 = beta * (p * q - 1) + gamma + eta
                k = quotient_matrix(js, params)
                gap = multiset_gap(
                    np.array([lam12, lam12, lam3, lam4]), dense_eigen(k)
                )
                worst = max(worst, gap)
                cf = cyclic_two_prime_quotient(p, q, params)
                worst = max(worst, multiset_gap(cf.expanded(), dense_eigen(k)))
    report(3, worst <= 1e-10, f"worst radical-pair gap {worst:.3e}")


def test_acceptance_4_complement_adjacency():
    """Adjacency spectrum of the complement: {+-sqrt(2), 0 x4} for Z_6 and
    {+-sqrt(8), 0 x13} for Z_15, within 1e-10 of the dense route."""
    worst = 0.0
    for n, radical, zeros in [(6, sqrt(2.0), 4), (15, sqrt(8.0), 13)]:
        g = complement_graph(power_graph_oracle(GroupSpec(Z, n)))
        dense = dense_eigen(universal_matrix(g, ADJACENCY))
        expected = np.sort(np.array([radical, -radical] + [0.0] * zeros))
        worst = max(worst, multiset_gap(expected, dense))
    report(4, worst <= 1e-10, f"worst gap {worst:.3e}")


def test_acceptance_5_d15_quotient_regression():
    """Laplacian quotient of D_15 has eigenvalues {30,15,9,1,0} (1e-9), and
    the oracle-adjudicated full spectrum is frozen below.

    A reference hand calculation of this instance reports the off-quotient
    eigenvalues as 16, 13, 11, 1 with multiplicities 7, 4, 1, 14; that
    overcounts a 30-vertex graph once the five quotient eigenvalues are
    added (26 + 5 > 30), and the block formula actually yields 15 (not 16)
    on the gcd-1 block and multiplicity 3 (not 4) on the gcd-3 block.  The
    dense oracle adjudicates; only the adjudicated spectrum is asserted.
    """
    spec = GroupSpec(D, 15)
    js = build_join(spec, Variant.POWER)
    k = quotient_matrix(js, LAPLACIAN)
    gap_quotient = multiset_gap(np.array([0.0, 1.0, 9.0, 15.0, 30.0]), dense_eigen(k))

    adjudicated = np.sort(
        np.array(
            [30.0]
            + [15.0] * 8
            + [13.0] * 3
            + [11.0] * 1
            + [9.0] * 1
            + [1.0] * 15
            + [0.0]
        )
    )
    u = universal_matrix(power_graph_oracle(spec), LAPLACIAN)
    gap_full = multiset_gap(adjudicated, dense_eigen(u))
    ok = gap_quotient <= 1e-9 and gap_full <= 1e-9
    report(5, ok, f"quotient gap {gap_quotient:.3e}, full-spectrum gap {gap_full:.3e}")


def test_acceptance_6_complement_matrix_identity():
    """U(complement(G), p) == U(G, complement_params(p)) entrywise exactly
    for 50 random graphs (n <= 40) and random integer quadruples."""
    rng = np.random.default_rng(6)
    failures = 0
    for _ in range(50):
        n = int(rng.integers(2, 41))
        adj = np.triu(rng.uniform(size=(n, n)) < float(rng.uniform(0.1, 0.9)), 1)
        g = LabeledGraph(adj | adj.T)
        p = sample_params(rng, integer=True)
        lhs = universal_matrix(complement_graph(g), p)
        rhs = universal_matrix(g, complement_params(p, n))
        if not np.array_equal(lhs, rhs):
            failures += 1
    report(6, failures == 0, f"{failures} of 50 graphs failed exact equality")


def test_acceptance_7_property_battery():
    """Trace, Frobenius, residuals, part-1/part-2 orthogonality, signless
    nonnegativity, complement involution, and the completeness criterion,
    with zero failures."""
    rng = np.random.default_rng(7)
    failures = []

    def check(name, good):
        if not good:
            failures.append(name)

    specs = [
        GroupSpec(Z, 24),
        GroupSpec(Z, 36),
        GroupSpec(D, 10),
        GroupSpec(D, 15),
        GroupSpec(Q, 2),
        GroupSpec(Q, 8),
    ]
    for spec in specs:
        g = power_graph_oracle(spec)
        js = build_join(spec, Variant.POWER)
        for comp in (False, True):
            target = complement_graph(g) if comp else g
            for _ in range(3):
                p = sample_params(rng)
                a, b, gm, e = p.as_floats()
                u = universal_matrix(target, p)
                scale = inf_scale(u)
                vals = dense_eigen(u)
                check(
                    f"trace[{spec.family.value}{spec.n},{comp}]",
                    abs(vals.sum() - (2 * b * target.edge_count() + (gm + e) * target.n))
                    <= 1e-9 * scale,
                )
                check(
                    f"frobenius[{spec.family.value}{spec.n},{comp}]",
                    abs((vals**2).sum() - (u**2).sum()) <= 1e-8 * scale**2,
                )
                p_eff = complement_params(p, g.n) if comp else p
                s = hjoin_spectrum(js, p_eff, want_vectors=True)
                check(
                    f"residual[{spec.family.value}{spec.n},{comp}]",
                    verify_eigenpairs(u, s, tol=1e-8).passed,
                )
                block = [
                    v for es in s.eigenspaces if es.provenance == "BlockDiff" for v in es.basis
                ]
                lifted = [
                    v for es in s.eigenspaces if es.provenance == "Quotient" for v in es.basis
                ]
                check(
                    f"orthogonality[{spec.family.value}{spec.n},{comp}]",
                    all(float(x @ y) == 0.0 for x in block for y in lifted),
                )

        for target in (g, complement_graph(g), delete_identity(g)):
            if target.n == 0:
                continue
            vals = dense_eigen(universal_matrix(target, SIGNLESS))
            check(f"signless[{spec.family.value}{spec.n}]", vals.min() >= -1e-9)

        check(
            f"involution[{spec.family.value}{spec.n}]",
            np.array_equal(complement_graph(complement_graph(g)).adj, g.adj),
        )

    # completeness criterion: the power graph is complete exactly for the
    # cyclic groups of prime-power (or trivial) order
    for n in range(1, 201):
        g = power_graph_oracle(GroupSpec(Z, n))
        complete = g.edge_count() == n * (n - 1) // 2
        check(f"complete[zn{n}]", complete == (n == 1 or prime_power(n) is not None))
    for n in range(1, 101):
        g = power_graph_oracle(GroupSpec(D, n))
        complete = g.edge_count() == g.n * (g.n - 1) // 2
        check(f"complete[dn{n}]", complete == (n == 1))
    for n in range(2, 51):
        g = power_graph_oracle(GroupSpec(Q, n))
        check(f"complete[qn{n}]", g.edge_count() < g.n * (g.n - 1) // 2)

    report(7, not failures, f"{len(failures)} failures" + (f": {failures[:5]}" if failures else ""))


def test_acceptance_8_exactness_bridge():
    """Exact rational characteristic polynomials: roots from the exact
    coefficients match the dense eigensolver within 1e-8 on 20 random
    instances, and the eta=0 two-prime polynomial formula agrees with
    det(B - lambda*I) from the exact characteristic polynomial at 20 random
    evaluation points within 1e-8 relative."""
    rng = np.random.default_rng(8)
    worst_roots = 0.0
    candidates = [(Z, n) for n in (6, 12, 24, 30, 36, 48, 60, 90)] + [
        (D, n) for n in (6, 10, 12, 15, 20)
    ] + [(Q, n) for n in (2, 4, 8)]
    for k in range(20):
        family, n = candidates[int(rng.integers(0, len(candidates)))]
        variant = Variant.POWER if rng.integers(0, 2) else Variant.PROPER
        js = build_join(GroupSpec(family, n), variant)
        p = sample_params(rng, integer=True)
        if rng.integers(0, 2):
            p = complement_params(p, js.order)
        sym = quotient_matrix(js, p)
        roots = charpoly_roots(charpoly_exact(js, p))
        gap = multiset_gap(np.array(roots), dense_eigen(sym))
        worst_roots = max(worst_roots, gap / max(1.0, inf_scale(sym)))

    worst_rel = 0.0
    js6 = build_join(GroupSpec(Z, 6), Variant.POWER)
    js15 = build_join(GroupSpec(Z, 15), Variant.POWER)
    for k in range(20):
        p_int = sample_params(rng, integer=True)
        params = UniversalParams(p_int.alpha, p_int.beta, p_int.gamma, 0)
        pq, js = ((2, 3), js6) if rng.integers(0, 2) else ((3, 5), js15)
        lam = Fraction(float(rng.uniform(-30, 30)))
        formula = cyclic_two_prime_case2_charpoly(*pq, params, lam)
        p_at = Fraction(0)
        for c in charpoly_exact(js, params):
            p_at = p_at * lam + c
        det = (-1) ** len(js.blocks) * p_at  # det(B - lam*I)
        rel = abs(float(formula - det)) / max(1.0, abs(float(det)))
        worst_rel = max(worst_rel, rel)
    ok = worst_roots <= 1e-8 and worst_rel <= 1e-8
    report(
        8,
        ok,
        f"worst scaled root gap {worst_roots:.3e}, worst charpoly relative gap {worst_rel:.3e}",
    )
