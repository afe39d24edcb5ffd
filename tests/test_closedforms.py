"""Closed-form evaluators against the engine and the dense oracle."""

from fractions import Fraction
import tracemalloc
from math import gcd, sqrt

import numpy as np
import pytest

from powspec.closedforms import (
    cyclic_prime_power_spectrum,
    cyclic_two_prime_case2_charpoly,
    cyclic_two_prime_complement_eta0,
    cyclic_two_prime_quotient,
    dicyclic_repeated_eigenvalue,
    dihedral_prime_power_proper,
    quaternion8_complement_spectrum,
)
from powspec.groups import (
    GroupFamily,
    GroupSpec,
    complement_graph,
    delete_identity,
    power_graph_oracle,
)
from powspec.joinstruct import Variant, build_join
from powspec.spectra import (
    Basis,
    Eigenspace,
    Spectrum,
    UndefinedUniversalMatrixError,
    UniversalParams,
    charpoly_exact,
    dense_eigen,
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


def residuals_pass(u, cf, tol=1e-8) -> bool:
    return verify_eigenpairs(u, cf, tol=tol).passed


# ---------------------------------------------------------------------------
# prime powers
# ---------------------------------------------------------------------------


def test_prime_power_examples():
    cf = cyclic_prime_power_spectrum(2, 2, LAPLACIAN)
    assert [(e.value, e.multiplicity) for e in cf.eigenspaces] == [(4, 3), (0, 1)]
    cf = cyclic_prime_power_spectrum(3, 1, SIGNLESS)
    assert [(e.value, e.multiplicity) for e in cf.eigenspaces] == [(4, 1), (1, 2)]
    cf = cyclic_prime_power_spectrum(2, 1, ADJACENCY)
    assert [(e.value, e.multiplicity) for e in cf.eigenspaces] == [(1, 1), (-1, 1)]


def test_closed_forms_are_spectra_with_exact_values():
    # one spectrum type: eigenspaces tagged with the closed form, and
    # rational parameters give exact values
    params = UniversalParams(Fraction(3, 2), Fraction(-1, 3), Fraction(2), Fraction(5, 7))
    cf = cyclic_prime_power_spectrum(3, 1, params)
    assert isinstance(cf, Spectrum) and cf.dimension == 3
    assert all(isinstance(e, Eigenspace) for e in cf.eigenspaces)
    assert [e.provenance for e in cf.eigenspaces] == ["prime-power", "prime-power"]
    assert [e.value for e in cf.eigenspaces] == [Fraction(136, 21), Fraction(-1, 6)]
    assert all(isinstance(e.value, Fraction) for e in cf.eigenspaces)


def test_prime_power_rejects_composite_base():
    with pytest.raises(ValueError):
        cyclic_prime_power_spectrum(6, 1, LAPLACIAN)


def test_prime_power_exact_formula_matches_engine():
    # with Fraction parameters both routes are exact and must agree exactly
    params = UniversalParams(Fraction(3, 2), Fraction(-1, 3), Fraction(2), Fraction(5, 7))
    for p, r in [(2, 1), (2, 3), (3, 2), (5, 1)]:
        n = p**r
        cf = cyclic_prime_power_spectrum(p, r, params)
        js = build_join(GroupSpec(Z, n), Variant.POWER)
        block = next(b for b in js.blocks if b.label == 1)
        i = js.blocks.index(block)
        part1 = params.alpha * (-1) + params.beta * js.degrees[i] + params.gamma
        values = {e.value: e.multiplicity for e in cf.eigenspaces}
        assert part1 in values  # exact Fraction membership
        # the join of all the clique blocks is the complete graph; its top
        # quotient eigenvalue equals the closed form exactly on the
        # block-constant all-ones direction: check through the exact
        # similar form B = A / d
        top = next(v for v in values if v != part1) if len(values) == 2 else part1
        a, d = integer_form(js, params)
        image = [Fraction(int(x), d) for x in a.sum(axis=1).tolist()]
        assert all(x == top for x in image)  # B * 1 = top * 1 exactly


def test_closed_form_bases_are_compact():
    # in-block differences are vertex pairs, not dense rows of length N
    params = UniversalParams(Fraction(3, 2), Fraction(-1, 3), 2, 0)
    for build in (
        lambda: cyclic_prime_power_spectrum(2, 12, params),
        lambda: cyclic_two_prime_complement_eta0(61, 67, params),
    ):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 10**6, peak


def test_prime_power_residuals():
    for p, r in [(2, 2), (3, 1), (5, 1)]:
        n = p**r
        u = universal_matrix(power_graph_oracle(GroupSpec(Z, n)), SIGNLESS)
        cf = cyclic_prime_power_spectrum(p, r, SIGNLESS)
        assert residuals_pass(u, cf, tol=1e-12)


# ---------------------------------------------------------------------------
# two distinct primes: quotient
# ---------------------------------------------------------------------------


def test_two_prime_case1_example():
    # p=3, q=5, (alpha,beta,gamma,eta) = (-1,1,0,1): radical pair {15, 9}
    cf = cyclic_two_prime_quotient(3, 5, UniversalParams(-1, 1, 0, 1))
    values = sorted(cf.expanded().tolist())
    assert values == pytest.approx([9, 15, 15, 15])


@pytest.mark.parametrize("p,q", [(2, 3), (3, 5), (5, 7)])
@pytest.mark.parametrize("eta", [1, -2])
def test_two_prime_case1_matches_engine_quotient(p, q, eta):
    for beta, gamma in [(1, 0), (-2, 3), (0, 1)]:
        params = UniversalParams(-eta, beta, gamma, eta)
        cf = cyclic_two_prime_quotient(p, q, params)
        js = build_join(GroupSpec(Z, p * q), Variant.POWER)
        k = quotient_matrix(js, params)
        assert multiset_gap(cf.expanded(), dense_eigen(k)) < 1e-10


def test_two_prime_case3_is_alpha_zero():
    with pytest.raises(UndefinedUniversalMatrixError):
        UniversalParams(0, 1, 0, 0)


@pytest.mark.parametrize(
    "params",
    [
        UniversalParams(2, Fraction(-1, 2), Fraction(1, 3), 0),  # case 2
        UniversalParams(1, 1, 0, 0),  # case 2, signless
        UniversalParams(2, -1, 3, 1),  # case 4
        UniversalParams(-1, 0, 0, 3),  # case 4
    ],
)
def test_two_prime_cases_2_and_4_match_engine(params):
    for p, q in [(2, 3), (3, 5)]:
        cf = cyclic_two_prime_quotient(p, q, params)
        js = build_join(GroupSpec(Z, p * q), Variant.POWER)
        k = quotient_matrix(js, params)
        assert multiset_gap(cf.expanded(), dense_eigen(k)) < 1e-10


def quotient_det_minus(js, params, lam) -> Fraction:
    """det(B - lam*I) of the quotient's similar form B: (-1)^t p(lam), with p
    the monic characteristic polynomial from ``charpoly_exact``."""
    value = Fraction(0)
    for c in charpoly_exact(js, params):
        value = value * lam + c
    return (-1) ** len(js.blocks) * value


def test_case2_charpoly_exact_agreement():
    params = UniversalParams(2, Fraction(-1, 2), Fraction(1, 3), 0)
    js = build_join(GroupSpec(Z, 6), Variant.POWER)
    for lam in [Fraction(0), Fraction(1), Fraction(-3, 7), Fraction(22, 5)]:
        formula = cyclic_two_prime_case2_charpoly(2, 3, params, lam)
        assert formula == quotient_det_minus(js, params, lam)


def test_case2_charpoly_at_zero_is_determinant():
    params = UniversalParams(-1, 1, 0, 0)
    js = build_join(GroupSpec(Z, 6), Variant.POWER)
    det_b = (-1) ** len(js.blocks) * charpoly_exact(js, params)[-1]
    assert cyclic_two_prime_case2_charpoly(2, 3, params, 0) == det_b


def test_case2_charpoly_requires_eta_zero():
    with pytest.raises(ValueError):
        cyclic_two_prime_case2_charpoly(2, 3, UniversalParams(1, 0, 0, 1), 0.0)


# ---------------------------------------------------------------------------
# two distinct primes: complement
# ---------------------------------------------------------------------------


def complement_adjacency_by_formula(p, q):
    """The adjacency spectrum of the complement of the power graph of Z_pq
    written out: 0 with multiplicity pq - 2 and the pair
    +-sqrt((p-1)(q-1)) of the complete bipartite part between the gcd-q and
    gcd-p blocks, with dense eigenvectors."""
    n = p * q
    by_gcd = {}
    for x in range(n):
        by_gcd.setdefault(gcd(x, n) if x else n, []).append(x)
    zero, gens, q_block, p_block = by_gcd[n], by_gcd[1], by_gcd[q], by_gcd[p]

    def vector(*parts):
        x = np.zeros(n)
        for support, value in parts:
            x[support] = value
        return x

    diffs = [vector(([b[0]], 1.0), ([s], -1.0)) for b in (gens, q_block, p_block) for s in b[1:]]
    isolated = [vector((zero, sqrt(q - 1))), vector((gens, 1.0 / sqrt(p - 1)))]
    rad = sqrt((p - 1) * (q - 1))
    spaces = [
        (rad, [vector((q_block, sqrt((q - 1) / (p - 1))), (p_block, 1.0))]),
        (0.0, diffs + isolated),
        (-rad, [vector((q_block, sqrt((q - 1) / (p - 1))), (p_block, -1.0))]),
    ]
    return Spectrum(
        tuple(Eigenspace(v, len(b), "formula", Basis.of_rows(b)) for v, b in spaces), n
    )


def test_complement_adjacency_23():
    cf = cyclic_two_prime_complement_eta0(2, 3, ADJACENCY)
    assert multiset_gap(
        cf.expanded(), np.array([-sqrt(2), 0, 0, 0, 0, sqrt(2)])
    ) < 1e-14
    g = complement_graph(power_graph_oracle(GroupSpec(Z, 6)))
    u = universal_matrix(g, ADJACENCY)
    assert residuals_pass(u, cf, tol=1e-10)


def test_complement_adjacency_35_matches_oracle():
    cf = cyclic_two_prime_complement_eta0(3, 5, ADJACENCY)
    g = complement_graph(power_graph_oracle(GroupSpec(Z, 15)))
    u = universal_matrix(g, ADJACENCY)
    assert multiset_gap(cf.expanded(), dense_eigen(u)) < 1e-10
    assert residuals_pass(u, cf, tol=1e-10)


def test_complement_adjacency_sign_symmetric():
    for p, q in [(2, 3), (3, 5), (2, 7)]:
        vals = cyclic_two_prime_complement_eta0(p, q, ADJACENCY).expanded()
        nonzero = vals[np.abs(vals) > 1e-12]
        assert np.allclose(np.sort(nonzero), np.sort(-nonzero))


def test_complement_eta0_laplacian_23():
    params = LAPLACIAN
    cf = cyclic_two_prime_complement_eta0(2, 3, params)
    g = complement_graph(power_graph_oracle(GroupSpec(Z, 6)))
    u = universal_matrix(g, params)
    assert multiset_gap(cf.expanded(), dense_eigen(u)) < 1e-10
    assert residuals_pass(u, cf)


def test_complement_eta0_reduces_to_adjacency():
    # the specialisation against the adjacency spectrum written out: the
    # same values, bit for bit, the same multiplicities, and eigenvectors
    # of both that pass against the oracle
    for p, q in [(2, 3), (3, 5), (2, 7), (5, 7)]:
        cf = cyclic_two_prime_complement_eta0(p, q, ADJACENCY)
        formula = complement_adjacency_by_formula(p, q)
        shape = [(float(e.value), e.multiplicity) for e in cf.eigenspaces]
        assert shape == [(float(e.value), e.multiplicity) for e in formula.eigenspaces]
        assert shape[1] == (0.0, p * q - 2)
        g = complement_graph(power_graph_oracle(GroupSpec(Z, p * q)))
        u = universal_matrix(g, ADJACENCY)
        assert residuals_pass(u, cf, tol=1e-10)
        assert residuals_pass(u, formula, tol=1e-10)


def test_complement_eta0_multiplicity_sum():
    for p, q in [(2, 3), (3, 5), (5, 7)]:
        cf = cyclic_two_prime_complement_eta0(p, q, LAPLACIAN)
        assert sum(e.multiplicity for e in cf.eigenspaces) == p * q


def test_complement_eta0_rejects_eta():
    with pytest.raises(ValueError):
        cyclic_two_prime_complement_eta0(2, 3, UniversalParams(1, 0, 0, 1))


# ---------------------------------------------------------------------------
# dihedral, proper, n = p^r
# ---------------------------------------------------------------------------


def test_dihedral_proper_21_laplacian():
    cf = dihedral_prime_power_proper(2, 1, LAPLACIAN)
    # three isolated vertices
    assert multiset_gap(cf.expanded(), np.zeros(3)) < 1e-12
    g = delete_identity(power_graph_oracle(GroupSpec(D, 2)))
    assert multiset_gap(cf.expanded(), dense_eigen(universal_matrix(g, LAPLACIAN))) < 1e-12


def test_dihedral_proper_31_adjacency():
    cf = dihedral_prime_power_proper(3, 1, ADJACENCY)
    assert multiset_gap(cf.expanded(), np.array([-1, 0, 0, 0, 1])) < 1e-12


def test_dihedral_proper_multiplicity_sum():
    for p, r in [(2, 1), (3, 1), (2, 3), (5, 1)]:
        m = p**r
        cf = dihedral_prime_power_proper(p, r, LAPLACIAN)
        assert sum(e.multiplicity for e in cf.eigenspaces) == 2 * m - 1


@pytest.mark.parametrize("p,r", [(2, 2), (3, 1), (5, 1)])
@pytest.mark.parametrize("complemented", [False, True])
def test_dihedral_proper_matches_oracle(p, r, complemented):
    rng = np.random.default_rng(p * 100 + r)
    g = delete_identity(power_graph_oracle(GroupSpec(D, p**r)))
    if complemented:
        g = complement_graph(g)
    for _ in range(3):
        params = sample_params(rng)
        cf = dihedral_prime_power_proper(p, r, params, complemented=complemented)
        u = universal_matrix(g, params)
        scale = max(1.0, float(np.abs(u).sum(axis=1).max()))
        assert multiset_gap(cf.expanded(), dense_eigen(u)) <= 1e-8 * scale
        assert residuals_pass(u, cf)


# ---------------------------------------------------------------------------
# dicyclic
# ---------------------------------------------------------------------------


def dense_count(n, params, value, proper=False, complemented=False) -> int:
    """How often the dense spectrum of U over the (proper) power graph of
    Q_n, or its complement, holds ``value`` within 1e-8 * ||U||_inf."""
    g = power_graph_oracle(GroupSpec(Q, n))
    if proper:
        g = delete_identity(g)
    if complemented:
        g = complement_graph(g)
    u = universal_matrix(g, params)
    scale = max(1.0, float(np.abs(u).sum(axis=1).max()))
    vals = dense_eigen(u)
    return int(np.sum(np.abs(vals - float(value)) <= 1e-8 * scale))


def test_dicyclic_repeated_power_laplacian():
    value, mult = dicyclic_repeated_eigenvalue(2, LAPLACIAN)
    assert value == -1 + 3 * 1 + 0 == 2 and mult == 1  # alpha+3beta+gamma = 2


def test_dicyclic_repeated_power_adjacency_n4():
    value, mult = dicyclic_repeated_eigenvalue(4, ADJACENCY)
    assert value == 1 and mult == 3
    assert dense_count(4, ADJACENCY, value) >= 3


def test_dicyclic_repeated_complement_q2():
    p = UniversalParams(2, 3, -1, 1)
    value, mult = dicyclic_repeated_eigenvalue(2, p, complemented=True)
    assert value == -2 * 2 + 4 * 3 + (-1) and mult == 1
    # the complement of the quaternion group's power graph carries it twice
    assert dense_count(2, p, value, complemented=True) == 2


def test_dicyclic_repeated_proper_variants():
    p = LAPLACIAN
    value, _ = dicyclic_repeated_eigenvalue(4, p, proper=True)
    assert value == -1 + 2 * 1 + 0  # alpha+2beta+gamma
    assert dense_count(4, p, value, proper=True) >= 3
    value, _ = dicyclic_repeated_eigenvalue(4, p, proper=True, complemented=True)
    assert value == 2 + (4 * 4 - 4) * 1 + 0  # -2alpha+(4n-4)beta+gamma
    assert dense_count(4, p, value, proper=True, complemented=True) >= 3


def test_dicyclic_repeated_holds_for_every_n():
    rng = np.random.default_rng(12)
    for n in (2, 3, 4, 5, 6, 12):
        for proper in (False, True):
            for complemented in (False, True):
                p = sample_params(rng)
                value, mult = dicyclic_repeated_eigenvalue(
                    n, p, proper=proper, complemented=complemented
                )
                assert mult == n - 1
                assert dense_count(n, p, value, proper, complemented) >= n - 1
    with pytest.raises(ValueError):
        dicyclic_repeated_eigenvalue(1, LAPLACIAN)


# ---------------------------------------------------------------------------
# quaternion group of order 8, complement
# ---------------------------------------------------------------------------


def test_quaternion8_radical_example():
    params = UniversalParams(1, 0, 0, 1)
    cf = quaternion8_complement_spectrum(params)
    rad = 2 * sqrt(1 + 0 + 4 + 0 + 2 + 0)
    values = {round(float(e.value), 10): e.multiplicity for e in cf.eigenspaces}
    assert values[round(2 + 4 + rad, 10)] == 1
    assert values[round(2 + 4 - rad, 10)] == 1
    assert values[round(-2.0, 10)] == 2
    g = complement_graph(power_graph_oracle(GroupSpec(Q, 2)))
    u = universal_matrix(g, params)
    assert multiset_gap(cf.expanded(), dense_eigen(u)) < 1e-10
    assert residuals_pass(u, cf)


def test_quaternion8_eta_zero_fallback():
    # alpha + beta > 0, = 0 (Laplacian) and < 0 pick the eta = 0 vectors apart
    g = complement_graph(power_graph_oracle(GroupSpec(Q, 2)))
    for params in (
        ADJACENCY,
        LAPLACIAN,
        SIGNLESS,
        UniversalParams(-2, 1, 0, 0),
        UniversalParams(-2, 1, 3, 0),
    ):
        cf = quaternion8_complement_spectrum(params)
        u = universal_matrix(g, params)
        assert multiset_gap(cf.expanded(), dense_eigen(u)) < 1e-10
        assert residuals_pass(u, cf)


def test_quaternion8_laplacian_zero_has_full_basis():
    # eta = 0 and radicand 0: lam_plus = lam_minus = gamma = 0
    cf = quaternion8_complement_spectrum(LAPLACIAN)
    zero = next(e for e in cf.eigenspaces if float(e.value) == 0.0)
    assert zero.multiplicity == 3
    assert np.linalg.matrix_rank(np.column_stack(zero.basis)) == 3


def test_quaternion8_multiplicity_sum():
    rng = np.random.default_rng(77)
    for _ in range(5):
        cf = quaternion8_complement_spectrum(sample_params(rng))
        assert sum(e.multiplicity for e in cf.eigenspaces) == 8


def test_quaternion8_random_params_match_oracle():
    rng = np.random.default_rng(13)
    g = complement_graph(power_graph_oracle(GroupSpec(Q, 2)))
    for _ in range(5):
        params = sample_params(rng)
        cf = quaternion8_complement_spectrum(params)
        u = universal_matrix(g, params)
        scale = max(1.0, float(np.abs(u).sum(axis=1).max()))
        assert multiset_gap(cf.expanded(), dense_eigen(u)) <= 1e-8 * scale
        assert residuals_pass(u, cf)


def test_three_way_agreement_sample():
    # closed form vs structural route vs dense oracle on shared instances
    rng = np.random.default_rng(99)
    for _ in range(3):
        params = sample_params(rng)
        cf = cyclic_prime_power_spectrum(3, 2, params)
        js = build_join(GroupSpec(Z, 9), Variant.POWER)
        from powspec.spectra import hjoin_spectrum

        structural = hjoin_spectrum(js, params)
        u = universal_matrix(power_graph_oracle(GroupSpec(Z, 9)), params)
        dense = dense_eigen(u)
        scale = max(1.0, float(np.abs(u).sum(axis=1).max()))
        assert multiset_gap(cf.expanded(), structural) <= 1e-8 * scale
        assert multiset_gap(cf.expanded(), dense) <= 1e-8 * scale
