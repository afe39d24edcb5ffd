"""Universal matrix assembly, both spectral routes, and exact polynomials."""

from fractions import Fraction
from math import comb, gcd, lcm, prod, sqrt

import numpy as np
import pytest

from powspec.groups import (
    GroupFamily,
    GroupSpec,
    LabeledGraph,
    complement_graph,
    delete_identity,
    power_graph_oracle,
)
import powspec.spectra
from powspec.closedforms import cyclic_prime_power_spectrum
from powspec.joinstruct import Variant, build_join, variant_graph
from powspec.spectra import (
    Basis,
    Eigenspace,
    Spectrum,
    UndefinedUniversalMatrixError,
    UniversalParams,
    charpoly_exact,
    charpoly_roots,
    complement_params,
    dense_eigen,
    hjoin_spectrum,
    integer_form,
    multiset_gap,
    normalized_laplacian_charpoly_at,
    quotient_matrix,
    sample_params,
    universal_matrix,
    verify_eigenpairs,
)
from powspec.spectra import (
    _certified_roots,
    _charpoly_primes,
    _full_rank,
    _independent,
    _isolated,
    _jacobi_matrices,
    _lone_coordinates,
    _primitive_form,
    _repeated_mod_prime,
    _set_residuals,
)

Z = GroupFamily.CYCLIC
D = GroupFamily.DIHEDRAL
Q = GroupFamily.DICYCLIC

LAPLACIAN = UniversalParams.preset("laplacian")
ADJACENCY = UniversalParams.preset("adjacency")
SIGNLESS = UniversalParams.preset("signless")
SEIDEL = UniversalParams.preset("seidel")


def k2():
    return power_graph_oracle(GroupSpec(Z, 2))


def test_universal_matrix_k2_presets():
    assert np.array_equal(universal_matrix(k2(), LAPLACIAN), [[1, -1], [-1, 1]])
    assert np.array_equal(universal_matrix(k2(), SEIDEL), [[0, -1], [-1, 0]])


def test_universal_matrix_signless_k4():
    u = universal_matrix(power_graph_oracle(GroupSpec(Z, 4)), SIGNLESS)
    assert np.array_equal(np.diag(u), [3, 3, 3, 3])
    off = u[~np.eye(4, dtype=bool)]
    assert np.array_equal(off, np.ones(12))


def test_alpha_zero_rejected():
    with pytest.raises(UndefinedUniversalMatrixError):
        UniversalParams(0, 1, 0, 0)
    with pytest.raises(UndefinedUniversalMatrixError):
        UniversalParams(Fraction(0), 1, 2, 3)


def test_complement_params_presets():
    n = 10
    assert complement_params(ADJACENCY, n) == UniversalParams(-1, 0, -1, 1)
    assert complement_params(LAPLACIAN, n) == UniversalParams(1, -1, n, -1)
    assert complement_params(SEIDEL, n) == UniversalParams(2, 0, 1, -1)


def test_complement_params_keeps_exactness():
    p = UniversalParams(Fraction(1, 3), Fraction(-2), Fraction(5, 7), Fraction(0))
    pc = complement_params(p, 9)
    assert pc.is_rational
    assert pc.alpha == Fraction(-1, 3)
    assert pc.gamma == Fraction(5, 7) + Fraction(-2) * 8 - Fraction(1, 3)
    assert pc.eta == Fraction(1, 3)


def test_quotient_case1_coupling_structure():
    # alpha = -eta kills every divisibility coupling; only the (p, q) pair
    # survives, with weight eta * sqrt(phi(p) * phi(q))
    p, q = 3, 5
    js = build_join(GroupSpec(Z, p * q), Variant.POWER)
    params = UniversalParams(-2, 1, 0, 2)
    k = quotient_matrix(js, params)
    labels = [b.label for b in js.blocks]
    i, j = labels.index(p), labels.index(q)
    off = k - np.diag(np.diag(k))
    expected = np.zeros_like(off)
    expected[i, j] = expected[j, i] = 2 * np.sqrt((p - 1) * (q - 1))
    assert np.allclose(off, expected)


def test_quotient_d15_laplacian_diagonal():
    js = build_join(GroupSpec(D, 15), Variant.POWER)
    k = quotient_matrix(js, LAPLACIAN)
    assert sorted(np.diag(k).tolist()) == [1, 7, 9, 9, 29]


def test_quotient_z2_by_hand():
    # blocks {1} and {0}, one template edge: kappa_i = beta + gamma + eta,
    # coupling alpha + eta
    js = build_join(GroupSpec(Z, 2), Variant.POWER)
    p = UniversalParams(2, 3, 5, 7)
    k = quotient_matrix(js, p)
    assert np.array_equal(k, [[3 + 5 + 7, 2 + 7], [2 + 7, 3 + 5 + 7]])


def test_hjoin_prime_power_values():
    for p, r in [(2, 1), (2, 3), (3, 2), (5, 1)]:
        n = p**r
        js = build_join(GroupSpec(Z, n), Variant.POWER)
        params = UniversalParams(1.5, -0.5, 2.0, 0.25)
        s = hjoin_spectrum(js, params)
        a, b, g, e = params.as_floats()
        top = a * (n - 1) + b * (n - 1) + e * n + g
        rest = -a + b * (n - 1) + g
        expected = np.sort([top] + [rest] * (n - 1))
        assert multiset_gap(s, expected) < 1e-12


def test_hjoin_d15_quotient_values():
    js = build_join(GroupSpec(D, 15), Variant.POWER)
    s = hjoin_spectrum(js, LAPLACIAN)
    quotient_values = sorted(
        e.value for e in s.eigenspaces if "Quotient" in e.provenance
    )
    assert np.allclose(quotient_values, [0, 1, 9, 15, 30], atol=1e-9)


def test_hjoin_z6_adjacency_matches_dense():
    js = build_join(GroupSpec(Z, 6), Variant.POWER)
    s = hjoin_spectrum(js, ADJACENCY)
    u = universal_matrix(power_graph_oracle(GroupSpec(Z, 6)), ADJACENCY)
    assert multiset_gap(s, dense_eigen(u)) < 1e-10


def test_dense_eigen_identity_and_swap():
    values = dense_eigen(np.eye(3))
    assert values.shape == (3,) and values.tolist() == [1.0, 1.0, 1.0]
    assert dense_eigen(np.array([[0.0, 1.0], [1.0, 0.0]])).tolist() == [-1.0, 1.0]
    assert dense_eigen(np.zeros((0, 0))).shape == (0,)


def test_dense_eigen_d15_quotient():
    js = build_join(GroupSpec(D, 15), Variant.POWER)
    k = quotient_matrix(js, LAPLACIAN)
    s = dense_eigen(k)
    assert multiset_gap(s, np.array([0.0, 1.0, 9.0, 15.0, 30.0])) < 1e-10


def test_dense_eigen_rejects_asymmetric():
    with pytest.raises(ValueError):
        dense_eigen(np.array([[0.0, 1.0], [0.5, 0.0]]))
    # m is compared with m.T tile by tile: an entry in a far tile and a NaN
    # are refused as by one comparison of the whole arrays
    rng = np.random.default_rng(26)
    m = rng.standard_normal((2000, 2000))
    m += m.T
    for i, j in ((1999, 3), (3, 1999), (1000, 1777), (1999, 1998)):
        bad = m.copy()
        bad[i, j] += 1.0
        with pytest.raises(ValueError, match="exactly symmetric"):
            dense_eigen(bad)
    for spots in (((5, 5),), ((7, 1900), (1900, 7))):  # NaN equals nothing, not even itself
        bad = m.copy()
        for i, j in spots:
            bad[i, j] = np.nan
        with pytest.raises(ValueError, match="exactly symmetric"):
            dense_eigen(bad)
    for n in (1, 255, 256, 257, 513):  # tile edges
        a = rng.standard_normal((n, n))
        for b in (a + a.T, a + a.T * (1 + 2**-52)):  # the second off by an ulp for n > 1
            if np.array_equal(b, b.T):
                assert len(dense_eigen(b)) == n
            else:
                with pytest.raises(ValueError, match="exactly symmetric"):
                    dense_eigen(b)


@pytest.mark.parametrize(
    "spec", [GroupSpec(Z, 12), GroupSpec(D, 15), GroupSpec(Q, 6)], ids=["Z12", "D15", "Q6"]
)
@pytest.mark.parametrize("variant", [Variant.POWER, Variant.PROPER])
def test_hjoin_quotient_values_are_lapack_eigenvalues(spec, variant):
    # t <= 12 here: the quotient goes to the same LAPACK solver as any other
    js = build_join(spec, variant)
    assert len(js.blocks) <= 12
    rng = np.random.default_rng(41)
    for p in [LAPLACIAN, SEIDEL] + [sample_params(rng) for _ in range(3)]:
        lapack = set(np.linalg.eigh(quotient_matrix(js, p))[0].tolist())
        single = [
            e.value
            for e in hjoin_spectrum(js, p).eigenspaces
            if e.provenance == "Quotient" and e.multiplicity == 1
        ]
        assert single
        for value in single:
            assert value in lapack


def test_verify_eigenpairs_exact_k4_laplacian():
    n = 4
    u = universal_matrix(power_graph_oracle(GroupSpec(Z, n)), LAPLACIAN)
    diffs = []
    for r in range(2, n + 1):
        x = np.zeros(n)
        x[0], x[r - 1] = 1.0, -1.0
        diffs.append(x)
    s = Spectrum(
        (
            Eigenspace(4.0, 3, "closed", Basis.of_rows(diffs)),
            Eigenspace(0.0, 1, "closed", Basis.of_rows([np.ones(n)])),
        ),
        n,
    )
    report = verify_eigenpairs(u, s, tol=1e-12)
    assert report.passed and report.max_residual == 0.0

    bad = Spectrum(
        (
            Eigenspace(4.001, 3, "closed", Basis.of_rows(diffs)),
            Eigenspace(0.0, 1, "closed", Basis.of_rows([np.ones(n)])),
        ),
        n,
    )
    assert not verify_eigenpairs(u, bad, tol=1e-8).passed


def test_verify_eigenpairs_reports_its_scale():
    # scale = max(1, ||U||_inf), the factor of every residual bound
    u = universal_matrix(power_graph_oracle(GroupSpec(Z, 4)), LAPLACIAN)
    s = cyclic_prime_power_spectrum(2, 2, LAPLACIAN)
    report = verify_eigenpairs(u, s, tol=1e-8)
    assert report.scale == 6.0  # degree 3 plus three off-diagonal -1
    assert all(bound <= 1e-8 * 6.0 for _, _, _, bound in report.rows)  # |x|_inf <= 1
    small = 0.25 * np.eye(2)
    s = Spectrum((Eigenspace(0.25, 2, "x", Basis.of_rows(np.eye(2))),), 2)
    assert verify_eigenpairs(small, s).scale == 1.0


def test_verify_eigenpairs_errors():
    u = np.eye(3)
    s = Spectrum((Eigenspace(1.0, 2, "x", Basis.of_rows([np.ones(2)])),), 2)
    with pytest.raises(ValueError):
        verify_eigenpairs(u, s)
    s2 = Spectrum((Eigenspace(1.0, 3, "x", None),), 3)
    with pytest.raises(ValueError):
        verify_eigenpairs(u, s2)


def test_verify_eigenpairs_rejects_zero_and_dependent_bases():
    u = np.array([[2.0, 1.0], [1.0, 2.0]])
    zero = np.zeros(2)
    ones, diff = np.array([1.0, 1.0]), np.array([1.0, -1.0])

    def spectrum(*spaces):
        return Spectrum(tuple(Eigenspace(v, len(b), "x", Basis.of_rows(b)) for v, b in spaces), 2)

    # two zero vectors claiming a double eigenvalue 100
    assert not verify_eigenpairs(u, spectrum((100.0, (zero, zero)))).passed
    assert not verify_eigenpairs(u, spectrum((3.0, (ones,)), (1.0, (zero,)))).passed
    assert verify_eigenpairs(u, spectrum((3.0, (ones,)), (1.0, (diff,)))).passed
    # a repeated vector, and a short basis
    v = np.eye(3)
    rep = Spectrum((Eigenspace(1.0, 3, "x", Basis.of_rows([v[0], v[1], v[1]])),), 3)
    assert not verify_eigenpairs(np.eye(3), rep).passed
    short = Spectrum((Eigenspace(1.0, 3, "x", Basis.of_rows([v[0], v[1]])),), 3)
    assert not verify_eigenpairs(np.eye(3), short).passed


def test_verify_eigenpairs_accepts_nonorthogonal_block_differences():
    # K_5: eigenvalue -1 on the differences e_0 - e_r, pairwise non-orthogonal
    u = universal_matrix(power_graph_oracle(GroupSpec(Z, 5)), ADJACENCY)
    ones = Basis.of_rows([np.ones(5)])
    diffs = Basis.of_rows([np.eye(5)[0] - np.eye(5)[r] for r in range(1, 5)])
    s = Spectrum((Eigenspace(4.0, 1, "x", ones), Eigenspace(-1.0, 4, "x", diffs)), 5)
    assert verify_eigenpairs(u, s, tol=1e-12).passed
    chain = Basis.of_rows([np.eye(5)[r - 1] - np.eye(5)[r] for r in range(1, 5)])
    s = Spectrum((Eigenspace(4.0, 1, "x", ones), Eigenspace(-1.0, 4, "x", chain)), 5)
    assert verify_eigenpairs(u, s, tol=1e-12).passed


def test_pipeline_d15_residuals():
    js = build_join(GroupSpec(D, 15), Variant.POWER)
    s = hjoin_spectrum(js, LAPLACIAN, want_vectors=True)
    u = universal_matrix(power_graph_oracle(GroupSpec(D, 15)), LAPLACIAN)
    assert verify_eigenpairs(u, s, tol=1e-8).passed


def test_part1_part2_orthogonality_exact():
    js = build_join(GroupSpec(D, 15), Variant.POWER)
    rng = np.random.default_rng(23)
    s = hjoin_spectrum(js, sample_params(rng), want_vectors=True)
    block = [v for e in s.eigenspaces if e.provenance == "BlockDiff" for v in e.basis]
    lifted = [v for e in s.eigenspaces if e.provenance == "Quotient" for v in e.basis]
    assert block and lifted
    for x in block:
        for y in lifted:
            assert float(x @ y) == 0.0


@pytest.mark.parametrize("variant", [Variant.POWER, Variant.PROPER])
def test_hjoin_clique_pair_block_q6(variant):
    # the coset block of Q_6 is six disjoint pairs: -1 inside the pairs
    # (x6) and 1 across them (x5); all eigenvectors together span R^N
    js = build_join(GroupSpec(Q, 6), variant)
    r = js.blocks[-1]
    assert (r.label, r.clique, r.copies) == ("R", 2, 6)
    assert r.local_eigenvalues() == ((-1, 6), (1, 5))
    g = power_graph_oracle(GroupSpec(Q, 6))
    if variant is Variant.PROPER:
        g = delete_identity(g)
    p = sample_params(np.random.default_rng(31))
    u = universal_matrix(g, p)
    s = hjoin_spectrum(js, p, want_vectors=True)
    assert verify_eigenpairs(u, s, tol=1e-8).passed
    basis = np.column_stack([v for e in s.eigenspaces for v in e.basis])
    assert np.linalg.matrix_rank(basis) == g.n


def test_trace_and_frobenius_identities():
    rng = np.random.default_rng(17)
    for spec in [GroupSpec(Z, 24), GroupSpec(D, 10), GroupSpec(Q, 4)]:
        g = power_graph_oracle(spec)
        for comp in (False, True):
            target = complement_graph(g) if comp else g
            for _ in range(3):
                p = sample_params(rng)
                u = universal_matrix(target, p)
                vals = dense_eigen(u)
                a, b, gm, e = p.as_floats()
                scale = max(1.0, float(np.abs(u).sum(axis=1).max()))
                expected_trace = 2 * b * target.edge_count() + (gm + e) * target.n
                assert abs(vals.sum() - expected_trace) <= 1e-9 * scale
                assert abs((vals**2).sum() - (u**2).sum()) <= 1e-8 * scale**2


def test_signless_laplacian_nonnegative():
    for spec in [GroupSpec(Z, 30), GroupSpec(D, 9), GroupSpec(Q, 8)]:
        g = power_graph_oracle(spec)
        for target in (g, complement_graph(g), delete_identity(g)):
            if target.n == 0:
                continue
            vals = dense_eigen(universal_matrix(target, SIGNLESS))
            assert vals.min() >= -1e-9


def test_oracle_equivalence_small_sweep():
    rng = np.random.default_rng(101)
    cases = (
        [(GroupSpec(Z, n), None) for n in range(1, 41)]
        + [(GroupSpec(D, n), None) for n in range(1, 21)]
        + [(GroupSpec(Q, n), None) for n in (2, 3, 4, 8)]
    )
    for spec, _ in cases:
        g_power = power_graph_oracle(spec)
        variants = [(Variant.POWER, g_power)]
        if g_power.n >= 2:
            variants.append((Variant.PROPER, delete_identity(g_power)))
        for variant, gv in variants:
            js = build_join(spec, variant)
            for comp in (False, True):
                target = complement_graph(gv) if comp else gv
                for _ in range(3):
                    p = sample_params(rng)
                    p_eff = complement_params(p, gv.n) if comp else p
                    u = universal_matrix(target, p)
                    scale = max(1.0, float(np.abs(u).sum(axis=1).max())) if u.size else 1.0
                    gap = multiset_gap(hjoin_spectrum(js, p_eff), dense_eigen(u))
                    assert gap <= 1e-8 * scale, (spec, variant, comp, gap)


def test_complement_matrix_identity_exact():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 30))
        adj = np.triu(rng.uniform(size=(n, n)) < 0.4, 1)
        g = LabeledGraph(adj | adj.T)
        p = sample_params(rng, integer=True)
        lhs = universal_matrix(complement_graph(g), p)
        rhs = universal_matrix(g, complement_params(p, n))
        assert np.array_equal(lhs, rhs)


def _universal_by_loop_formula(g, p):
    """Reference assembly: float copy of A, affine pass, degree diagonal."""
    alpha, beta, gamma, eta = p.as_floats()
    u = alpha * g.adj.astype(float) + eta
    np.fill_diagonal(u, beta * g.degrees().astype(float) + gamma + eta)
    return u


def _degree_by_loop(js, i):
    """The degree of a vertex of block i: its clique, then every vertex of
    the template neighbours."""
    b = js.blocks[i]
    return b.clique - 1 + sum(c.size for j, c in enumerate(js.blocks) if js.adj[i, j])


def _quotient_by_loop_formula(js, p):
    """Reference quotient: one product per entry, as (sym, similar)."""
    from math import sqrt

    sizes = js.sizes
    t = len(sizes)
    sym = np.zeros((t, t))
    similar = [[0] * t for _ in range(t)]
    for i, b in enumerate(js.blocks):
        kappa = (
            p.alpha * b.regularity
            + p.beta * _degree_by_loop(js, i)
            + p.gamma
            + p.eta * b.size
        )
        sym[i, i] = float(kappa)
        similar[i][i] = kappa
        for j in range(t):
            if i != j:
                theta = p.alpha + p.eta if js.adj[i, j] else p.eta
                similar[i][j] = theta * sizes[j]
                sym[i, j] = float(theta) * sqrt(sizes[i] * sizes[j])
    return sym, similar


BIT_IDENTITY_PARAMS = [
    ADJACENCY,
    LAPLACIAN,
    SEIDEL,
    UniversalParams(Fraction(5, 2), Fraction(-7, 3), Fraction(6, 5), Fraction(-9, 7)),
    UniversalParams(-3, 2, 0, Fraction(1, 2)),
    UniversalParams(Fraction(1, 10), Fraction(1, 3), Fraction(-2, 7), Fraction(1, 5)),
    UniversalParams(0.3, -1.7, 2.2, -0.0),
    UniversalParams(-1.5, 0.0, 0.1, 0.0),
]


def test_universal_matrix_bit_identical_to_loop_formula():
    rng = np.random.default_rng(17)
    graphs = [power_graph_oracle(GroupSpec(f, n)) for f, n in ((Z, 12), (D, 9), (Q, 4))]
    for _ in range(20):
        n = int(rng.integers(1, 25))
        adj = np.triu(rng.uniform(size=(n, n)) < rng.uniform(), 1)
        graphs.append(LabeledGraph(adj | adj.T))
    for g in graphs:
        for p in BIT_IDENTITY_PARAMS:
            for target, q in ((g, p), (complement_graph(g), p), (g, complement_params(p, g.n))):
                got = universal_matrix(target, q)
                assert got.tobytes() == _universal_by_loop_formula(target, q).tobytes()


def _hjoin_values_by_loop_formula(js, p):
    """(value, multiplicity, provenance) of the eigenspaces of
    ``hjoin_spectrum``, from block values that are ``float`` of the exact
    expression and the loop formula's quotient K, grouped as it groups
    them: sorted neighbours merge when their enclosures overlap, of radius
    4 t eps ||K||_inf for a quotient value and 4 eps (|alpha| max clique +
    |beta| max degree + |gamma|) for a block value.  A group of one keeps
    its value, a wider one takes the multiplicity-weighted mean.  The
    reference."""
    eps = np.finfo(float).eps
    degrees = [_degree_by_loop(js, i) for i in range(len(js.blocks))]
    block_values = {}
    for i, b in enumerate(js.blocks):
        for lam, mult in b.local_eigenvalues():
            if mult:
                value = float(p.alpha * lam + p.beta * degrees[i] + p.gamma)
                block_values.setdefault(value, []).append(mult)
    alpha, beta, gamma = (abs(float(v)) for v in (p.alpha, p.beta, p.gamma))
    clique = max(b.clique for b in js.blocks)
    radius = 4 * eps * (alpha * clique + beta * max(degrees) + gamma)
    candidates = [(v, sum(m), "BlockDiff", radius) for v, m in block_values.items()]
    sym = _quotient_by_loop_formula(js, p)[0]
    radius = 4 * len(sym) * eps * max(sum(abs(x) for x in row) for row in sym.tolist())
    candidates += [(float(v), 1, "Quotient", radius) for v in np.linalg.eigh(sym)[0]]
    candidates.sort(key=lambda c: c[0])
    groups = []
    for cand in candidates:
        last = groups[-1][-1] if groups else None
        if last is None or cand[0] - last[0] > cand[3] + last[3]:
            groups.append([])
        groups[-1].append(cand)
    spaces = []
    for group in groups:
        mult = sum(m for _, m, _, _ in group)
        if len(group) == 1:
            value = group[0][0] + 0.0
        else:
            value = sum(v * m for v, m, _, _ in group) / mult + 0.0
        spaces.append((value, mult, "+".join(sorted({prov for _, _, prov, _ in group}))))
    return sorted(spaces, key=lambda e: -e[0])


QUOTIENT_BIT_IDENTITY_PARAMS = BIT_IDENTITY_PARAMS + [
    UniversalParams(  # 20-digit numerators
        Fraction(12345678901234567891, 987654321098765),
        Fraction(-31415926535897932384, 2718281828459045),
        Fraction(11111111111111111111, 3),
        Fraction(-99999999999999999989, 70000000000000000001),
    ),
    UniversalParams(2, -1.5, 0, 3),
    UniversalParams(0.5, 1, -2, 0),
    UniversalParams(-1, 0, 0, 0.75),
    UniversalParams(Fraction(1, 3), 0.25, 1, Fraction(-2, 7)),
]


def _hjoin_triples(js, p):
    spaces = hjoin_spectrum(js, p).eigenspaces
    assert all(type(e.value) is float and type(e.multiplicity) is int for e in spaces)
    return [(e.value, e.multiplicity, e.provenance) for e in spaces]


# the groups of the large-order benchmark workload
LARGE_ORDER_JOINS = [
    (GroupSpec(Z, 5040), Variant.POWER),
    (GroupSpec(Z, 2310), Variant.PROPER),
    (GroupSpec(D, 1155), Variant.PROPER),
    (GroupSpec(Q, 512), Variant.POWER),
    (GroupSpec(Q, 300), Variant.POWER),
]


def test_quotient_matrix_bit_identical_to_loop_formula(monkeypatch):
    rng = np.random.default_rng(26)
    params = QUOTIENT_BIT_IDENTITY_PARAMS + [sample_params(rng) for _ in range(10)]
    specs = [GroupSpec(Z, n) for n in (1, 2, 12, 60, 97)]
    specs += [GroupSpec(D, n) for n in (1, 6, 15, 32)]
    specs += [GroupSpec(Q, n) for n in (2, 4, 8)]
    for spec in specs:
        for variant in (Variant.POWER, Variant.PROPER):
            if variant is Variant.PROPER and spec.order < 2:
                continue
            js = build_join(spec, variant)
            for p in params:
                for q in (p, complement_params(p, js.order)):
                    sym, similar = _quotient_by_loop_formula(js, q)
                    assert quotient_matrix(js, q).tobytes() == sym.tobytes()
                    if q.is_rational:  # A / d entry by entry, d the least denominator
                        a, d = integer_form(js, q)
                        entries = [int(x) for x in a.ravel().tolist()]
                        assert [Fraction(x, d) for x in entries] == [
                            Fraction(x) for row in similar for x in row
                        ]
                        assert gcd(d, *entries) == 1
                    else:
                        assert integer_form(js, q) is None
                    assert _hjoin_triples(js, q) == _hjoin_values_by_loop_formula(js, q)
    # hjoin_spectrum alone on the large-order groups, t up to 60
    joins = [build_join(spec, variant) for spec, variant in LARGE_ORDER_JOINS]
    pairs = [(js, q) for js in joins for p in params for q in (p, complement_params(p, js.order))]
    for js, q in pairs:
        assert _hjoin_triples(js, q) == _hjoin_values_by_loop_formula(js, q), (js.spec, q)
    # the block values keep alpha*lam + beta*deg + gamma in that order: the
    # same sum reordered rounds apart from the reference at float parameters
    monkeypatch.setattr(
        powspec.spectra, "_block_value", lambda p, deg, lam: p.gamma + p.beta * deg + p.alpha * lam
    )
    assert any(
        _hjoin_triples(js, q) != _hjoin_values_by_loop_formula(js, q)
        for js, q in pairs
        if not q.is_rational
    )


def test_block_values_are_the_floats_of_their_exact_values():
    # a space of one block candidate prints that candidate's value, never
    # v * m / m, which can round 1 ulp away for m > 1
    rng = np.random.default_rng(34)
    specs = [GroupSpec(Z, n) for n in (12, 30, 36, 60, 90, 120)]
    specs += [GroupSpec(D, n) for n in (6, 12, 15, 30)]
    specs += [GroupSpec(Q, n) for n in (3, 6, 8, 15)]
    checked = 0
    for spec in specs:
        for variant in Variant:
            js = build_join(spec, variant)
            for _ in range(8):
                p = sample_params(rng, integer=True)
                q = UniversalParams(*(
                    Fraction(v, int(rng.integers(2, 10))) for v in (p.alpha, p.beta, p.gamma, p.eta)
                ))
                exact = {}
                for b, degree in zip(js.blocks, js.degrees):
                    for lam, mult in b.local_eigenvalues():
                        if mult:
                            v = q.alpha * lam + q.beta * degree + q.gamma
                            exact[float(v)] = exact.get(float(v), 0) + mult
                for e in hjoin_spectrum(js, q).eigenspaces:
                    if e.provenance == "BlockDiff":
                        assert exact.get(e.value) == e.multiplicity, (spec, variant, q, e.value)
                        checked += 1
    assert checked > 500


def test_hjoin_spectrum_builds_its_quotient_through_quotient_matrix(monkeypatch):
    calls = []
    real = powspec.spectra.quotient_matrix

    def spy(js, p):
        calls.append((js, p))
        return real(js, p)

    monkeypatch.setattr(powspec.spectra, "quotient_matrix", spy)
    js = build_join(GroupSpec(D, 15), Variant.POWER)
    for want_vectors in (False, True):
        calls.clear()
        hjoin_spectrum(js, LAPLACIAN, want_vectors=want_vectors)
        assert calls == [(js, LAPLACIAN)]


# ---------------------------------------------------------------------------
# exact characteristic polynomials
# ---------------------------------------------------------------------------


def _loop_similar(js, p):
    """The similar form B of the quotient of ``js`` at ``p`` from the loop
    formula, as nested lists of int or Fraction entries: the references'
    own quotient."""
    return _quotient_by_loop_formula(js, p)[1]


def test_charpoly_one_by_one():
    # Z_1: one block of one vertex, kappa = gamma + eta
    js, p = build_join(GroupSpec(Z, 1), Variant.POWER), UniversalParams(1, 0, 7, 0)
    assert integer_form(js, p)[0].tolist() == [[7]]
    assert charpoly_exact(js, p) == [1, -7]


def test_charpoly_two_by_two_symmetric():
    # Z_2 = K_2: two blocks of one vertex, kappa = beta + gamma + eta and
    # theta = alpha + eta
    a, b = 3, 5
    js, p = build_join(GroupSpec(Z, 2), Variant.POWER), UniversalParams(b, 0, a, 0)
    assert integer_form(js, p)[0].tolist() == [[a, b], [b, a]]
    assert charpoly_exact(js, p) == [1, -2 * a, a * a - b * b]


def test_charpoly_d15_constant_term_zero():
    js = build_join(GroupSpec(D, 15), Variant.POWER)
    coeffs = charpoly_exact(js, LAPLACIAN)
    assert coeffs[-1] == 0
    roots = charpoly_roots(coeffs)
    assert np.allclose(roots, [0, 1, 9, 15, 30], atol=1e-10)


def test_charpoly_rejects_float_params():
    js = build_join(GroupSpec(Z, 6), Variant.POWER)
    with pytest.raises(TypeError):
        charpoly_exact(js, UniversalParams(1.5, 0.0, 0.0, 0.0))


def test_charpoly_roots_match_dense():
    rng = np.random.default_rng(31)
    for n in (6, 12, 30, 36):
        js = build_join(GroupSpec(Z, n), Variant.POWER)
        p = sample_params(rng, integer=True)
        k = quotient_matrix(js, p)
        roots = charpoly_roots(charpoly_exact(js, p))
        scale = max(1.0, float(np.max(np.abs(k))))
        assert multiset_gap(np.array(roots), dense_eigen(k)) <= 1e-8 * scale


def test_charpoly_similar_matches_symmetric():
    # det(lambda I - B) must agree with the symmetric form's eigenvalues
    js = build_join(GroupSpec(D, 12), Variant.POWER)
    p = UniversalParams(2, -1, 3, 1)
    roots = charpoly_roots(charpoly_exact(js, p))
    assert multiset_gap(np.array(roots), dense_eigen(quotient_matrix(js, p))) < 1e-8


def _charpoly_by_fraction_loop(similar) -> list[Fraction]:
    """Faddeev-LeVerrier with every entry a Fraction: the reference."""
    t = len(similar)
    b = [[Fraction(x) for x in row] for row in similar]
    coeffs = [Fraction(1)]
    m = [row[:] for row in b]
    for k in range(1, t + 1):
        ck = -sum(m[i][i] for i in range(t)) / k
        coeffs.append(ck)
        if k == t:
            break
        for i in range(t):
            m[i][i] += ck
        m = [
            [sum(b[i][l] * m[l][j] for l in range(t)) for j in range(t)]
            for i in range(t)
        ]
    return coeffs


def _charpoly_by_integer_faddeev(similar) -> list[Fraction]:
    """Faddeev-LeVerrier on the object-dtype integer matrix d*B, d the lcm
    of the denominators, the k-th coefficient divided by d^k: the
    reference the multi-modular charpoly must equal."""
    t = len(similar)
    d = lcm(*(Fraction(x).denominator for row in similar for x in row))
    b = np.array([[int(x * d) for x in row] for row in similar], dtype=object)
    ident = np.eye(t, dtype=object)
    coeffs = [1]
    m = b
    for k in range(1, t + 1):
        ck = -m.trace() // k  # exact: an integer matrix has integer coefficients
        coeffs.append(ck)
        if k < t:
            m = b @ (m + ck * ident)
    return [Fraction(c, d**k) for k, c in enumerate(coeffs)]


def _gershgorin_radius(similar) -> int:
    """R, the largest absolute row sum of d*B."""
    d = lcm(*(Fraction(x).denominator for row in similar for x in row))
    return int(max(sum(abs(x * d) for x in row) for row in similar))


def _gershgorin_bound(similar) -> int:
    """C(t, k) * R^k at its largest, R the largest absolute row sum of d*B."""
    t = len(similar)
    radius = _gershgorin_radius(similar)
    return max(comb(t, k) * radius**k for k in range(t + 1))


# (family, n, variant, complement) of the exact-quotient benchmark slots
EXACT_QUOTIENT_SLOTS = [
    (Z, 120, Variant.POWER, False),
    (Z, 168, Variant.PROPER, True),
    (D, 120, Variant.POWER, True),
    (Z, 240, Variant.PROPER, False),
    (Z, 360, Variant.POWER, False),
]
EXACT_QUOTIENT_PARAMS = UniversalParams(
    Fraction(7, 2), Fraction(-5, 3), Fraction(8, 5), Fraction(-9, 7)
)
# the groups and variants of its normalized slots, at points X of its range
NORMALIZED_SLOTS = [(Z, 60, Variant.PROPER), (D, 30, Variant.POWER), (Q, 15, Variant.POWER)]
NORMALIZED_SLOT_POINTS = [Fraction(-7, 4), Fraction(5, 4), Fraction(15, 4)]


def exact_quotients():
    for family, n, variant, complement in EXACT_QUOTIENT_SLOTS:
        js = build_join(GroupSpec(family, n), variant)
        p = EXACT_QUOTIENT_PARAMS
        yield js, complement_params(p, js.order) if complement else p


def test_charpoly_exact_matches_fraction_loop():
    # parameters of several denominators, so d*B scales every row
    p = EXACT_QUOTIENT_PARAMS
    for spec in (GroupSpec(Z, 120), GroupSpec(D, 60), GroupSpec(Q, 15)):
        for variant in Variant:
            js = build_join(spec, variant)
            for q in (p, complement_params(p, js.order)):
                coeffs = charpoly_exact(js, q)
                similar = _loop_similar(js, q)
                assert coeffs == _charpoly_by_fraction_loop(similar)
                assert coeffs == _charpoly_by_integer_faddeev(similar)
                assert all(type(c) is Fraction for c in coeffs)


def test_charpoly_exact_matches_integer_faddeev_on_the_benchmark_slots():
    for js, p in exact_quotients():
        assert charpoly_exact(js, p) == _charpoly_by_integer_faddeev(_loop_similar(js, p))
    for family, n, variant in NORMALIZED_SLOTS:
        js = build_join(GroupSpec(family, n), variant)
        for x in NORMALIZED_SLOT_POINTS:
            p = UniversalParams(-1, 1 - x, 0, 0)
            assert charpoly_exact(js, p) == _charpoly_by_integer_faddeev(_loop_similar(js, p))


def test_charpoly_exact_with_entries_wider_than_int64():
    # 30-digit numerators: d*B has entries far beyond int64
    p = UniversalParams(
        Fraction(10**29 + 7, 3),
        Fraction(-(10**30 - 11), 7),
        Fraction(123456789012345678901234567891, 5),
        Fraction(-987654321098765432109876543211, 2),
    )
    for spec in (GroupSpec(Z, 120), GroupSpec(D, 30)):
        js = build_join(spec, Variant.POWER)
        for q in (p, complement_params(p, js.order)):
            similar = _loop_similar(js, q)
            d = lcm(*(Fraction(x).denominator for row in similar for x in row))
            assert max(abs(x * d) for row in similar for x in row) > 2**63
            assert charpoly_exact(js, q) == _charpoly_by_integer_faddeev(similar)


def test_charpoly_exact_at_the_int64_boundary():
    # the numerators of wide parameters scaled by k coprime to their lcm
    # denominator 210, so d*B scales by k: a Gershgorin radius just below
    # 2**62 (reduced in int64), just above it, and with an entry past
    # int64, which a threshold admitting it would fail to convert
    base = (Fraction(7654321, 2), Fraction(-1234567, 3), Fraction(4444441, 5), Fraction(-3333331, 7))

    def scaled(k):
        return UniversalParams(*(Fraction(k * v.numerator, v.denominator) for v in base))

    def coprime(k, step):
        while gcd(k, 210) > 1:
            k += step
        return k

    for spec, variant in ((GroupSpec(Z, 60), Variant.POWER), (GroupSpec(D, 6), Variant.PROPER)):
        js = build_join(spec, variant)
        for complement in (False, True):
            def quotient(k):
                p = scaled(k)
                return complement_params(p, js.order) if complement else p

            unit = _loop_similar(js, quotient(1))
            r0 = _gershgorin_radius(unit)
            widest = max(abs(x) for row in unit for x in row) * 210
            ks = [coprime(2**62 // r0, -1), coprime(2**62 // r0 + 1, 1), coprime(2**63 // widest + 1, 1)]
            qs = [quotient(k) for k in ks]
            similars = [_loop_similar(js, q) for q in qs]
            radii = [_gershgorin_radius(similar) for similar in similars]
            assert 2**62 - r0 * 12 < radii[0] < 2**62 <= radii[1] < 2**62 + r0 * 12
            assert max(abs(x * 210) for row in similars[2] for x in row) >= 2**63
            for q, similar in zip(qs, similars):
                assert integer_form(js, q)[1] == 210
                assert charpoly_exact(js, q) == _charpoly_by_integer_faddeev(similar)


def test_charpoly_exact_z5040_beyond_64_primes_of_20_bits():
    js = build_join(GroupSpec(Z, 5040), Variant.POWER)
    assert len(js.blocks) == 60
    similar = _loop_similar(js, EXACT_QUOTIENT_PARAMS)
    bound = _gershgorin_bound(similar)
    assert bound.bit_length() > 64 * 20  # beyond 64 primes of 20 bits
    primes = _charpoly_primes(60, bound)
    assert len(primes) == 58 and all(p.bit_length() == 23 for p in primes)
    assert charpoly_exact(js, EXACT_QUOTIENT_PARAMS) == _charpoly_by_integer_faddeev(similar)


@pytest.mark.parametrize("t", [1, 2, 15, 16, 17, 24, 48, 60, 240])
def test_charpoly_primes_cover_the_bound_and_one_fewer_does_not(t):
    # the prime count follows from the product alone: every coefficient
    # |c| <= bound is a symmetric residue modulo the product, and one prime
    # fewer would leave the product at or below 2 * bound
    for bound in (1, 2**62, 2**64 + 1, 10**300, 7**1500):
        primes = _charpoly_primes(t, bound)
        assert prod(primes) > 2 * bound >= prod(primes[:-1])
        assert all(t < p and t * p * 2 * p < 2**53 for p in primes)
        assert primes == sorted(set(primes), reverse=True)
    assert len(_charpoly_primes(t, 7**1500)) > 64


def test_charpoly_coefficients_within_the_gershgorin_bound():
    for js, p in exact_quotients():
        similar = _loop_similar(js, p)
        d = lcm(*(Fraction(x).denominator for row in similar for x in row))
        bound = _gershgorin_bound(similar)
        coeffs = charpoly_exact(js, p)
        assert all(abs(c * d**k) <= bound for k, c in enumerate(coeffs))


def _from_roots(roots) -> list[Fraction]:
    coeffs = [Fraction(1)]
    for r in roots:
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def _monic(f: list[Fraction]) -> list[Fraction]:
    return [c / f[0] for c in f]


def _roots_by_monic_fraction_chain(coeffs) -> list[float]:
    """The remainder sequence of f and f' with every member a monic
    ``Fraction`` polynomial, its tridiagonal matrices through ``eigvalsh``:
    the reference the integer sequence of ``charpoly_roots`` must equal."""
    f = _monic([Fraction(c) for c in coeffs])
    roots: list[float] = []
    while len(f) > 1:
        n = len(f) - 1
        prev, cur = f, _monic([c * (n - i) for i, c in enumerate(f[:-1])])
        diag, off = [], []
        while True:
            a = (cur[1] if len(cur) > 1 else 0) - prev[1]
            diag.append(float(a))
            # prev - (x - a) cur, whose two leading terms cancel
            r = [p - c + a * e for p, c, e in zip(prev, cur + [0], [0] + cur)][2:]
            if not any(r):
                break
            b = -r[0]
            if b <= 0:  # b = 0: the degree fell by more than one
                raise ValueError("polynomial has non-real roots")
            off.append(sqrt(b))
            prev, cur = cur, [c / -b for c in r]
        jacobi = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
        roots.extend(np.linalg.eigvalsh(jacobi).tolist())
        f = cur
    return sorted(roots)


REPEATED_ROOTS = [
    [Fraction(1, 3)] * 4 + [Fraction(-2, 7)] * 2 + [Fraction(10)],
    [Fraction(2)] * 2,
    [Fraction(-5), Fraction(0), Fraction(0), Fraction(0), Fraction(7, 9)],
    [],
]


@pytest.mark.parametrize("roots", REPEATED_ROOTS)
def test_charpoly_roots_repeated_rational_roots(roots):
    # a non-monic input, with a negative leading coefficient too
    for lead in (1, Fraction(-3, 4), -7, Fraction(5, 11)):
        coeffs = [lead * c for c in _from_roots(roots)]
        found = charpoly_roots(coeffs)
        assert found == _roots_by_monic_fraction_chain(coeffs)
        assert len(found) == len(roots)
        scale = max([1.0] + [abs(float(r)) for r in roots])
        assert multiset_gap(np.array(found), [float(r) for r in roots]) <= 1e-12 * scale


@pytest.mark.parametrize(
    "coeffs",
    [[1, 0, 1], [1, -3, 3, -2], [1, 0, 0, 0, 1], [-2, 0, -2], [1, 0, 0, 1], [3, 0, 9, 0, 0, 0]],
)
def test_charpoly_roots_rejects_non_real_roots(coeffs):
    for roots in (charpoly_roots, _roots_by_monic_fraction_chain):
        with pytest.raises(ValueError):
            roots(coeffs)
    # the working-precision path gives no answer, and the exact one raises
    f = _primitive_form(coeffs)
    assert _certified_roots(f) is None
    with pytest.raises(ValueError):
        _jacobi_matrices(f)


@pytest.mark.parametrize("coeffs", [[0, 1, 2], [0], [0, 0]])
def test_charpoly_roots_rejects_a_zero_leading_coefficient(coeffs):
    with pytest.raises(ValueError):
        charpoly_roots(coeffs)


@pytest.fixture
def exact_chains(monkeypatch):
    """The polynomials the exact remainder sequence runs on, in order."""
    runs = []
    real = powspec.spectra._jacobi_matrices

    def spy(f, bits=None):
        if bits is None:
            runs.append(f)
        return real(f, bits)

    monkeypatch.setattr(powspec.spectra, "_jacobi_matrices", spy)
    return runs


def test_charpoly_roots_certify_the_benchmark_slots(exact_chains):
    for js, p in exact_quotients():
        charpoly_roots(charpoly_exact(js, p))
    assert exact_chains == []


@pytest.mark.parametrize("roots", REPEATED_ROOTS)
def test_charpoly_roots_repeated_roots_take_the_exact_chain(roots, exact_chains):
    # spotted modulo a prime, so the working-precision chain never runs
    f = _primitive_form(_from_roots(roots))
    assert _repeated_mod_prime(f) == (len(set(roots)) < len(roots))
    charpoly_roots(f)
    assert exact_chains


def _rational_params(rng) -> UniversalParams:
    """Seeded numerators in [-9, 9] over denominators in [1, 7], alpha nonzero."""
    num = rng.integers(-9, 10, size=4)
    num[0] = num[0] or 1
    return UniversalParams(*(Fraction(int(a), int(b)) for a, b in zip(num, rng.integers(1, 8, size=4))))


def test_charpoly_roots_certified_sweep_against_the_exact_chain(exact_chains):
    # every certified root within its radius of the exact chain's root; the
    # exact chain runs only where a root repeats (beta = 0, or the complete
    # power graph of Z_(p^2), say)
    rng = np.random.default_rng(35)
    specs = [GroupSpec(Z, int(n)) for n in rng.choice(np.arange(2, 361), 8, replace=False)]
    specs += [GroupSpec(D, int(n)) for n in rng.choice(np.arange(3, 181), 5, replace=False)]
    specs += [GroupSpec(Q, int(n)) for n in rng.choice(np.arange(2, 61), 4, replace=False)]
    specs += [GroupSpec(Z, 360), GroupSpec(D, 180), GroupSpec(Q, 60)]
    repeated = []
    for spec in specs:
        for variant in Variant:
            js = build_join(spec, variant)
            p = _rational_params(rng)
            for q in (p, complement_params(p, js.order)):
                coeffs = charpoly_exact(js, q)
                found = charpoly_roots(coeffs)
                exact = _roots_by_monic_fraction_chain(coeffs)
                f = _primitive_form(coeffs)
                certified = _certified_roots(f)
                if certified is None:
                    assert len(_jacobi_matrices(f)) > 1
                    assert found == exact
                    repeated.append(f)
                    continue
                roots, radius = certified
                assert found == roots
                assert np.abs(np.subtract(roots, exact)).max() <= radius
    assert exact_chains == repeated
    assert len(repeated) < 8


def test_charpoly_roots_certificate_refuses_wrong_roots():
    (js, p), *_ = exact_quotients()
    f = _primitive_form(charpoly_exact(js, p))
    roots, radius = _certified_roots(f)
    assert _isolated(f, roots, radius)
    for i in range(len(roots)):
        shifted = roots[:i] + [roots[i] + 3 * radius] + roots[i + 1 :]
        assert not _isolated(f, shifted, radius)
        assert not _isolated(f, roots[:i] + roots[i + 1 :], radius)
    for i in range(len(roots) - 1):
        swapped = roots[:i] + [roots[i + 1], roots[i]] + roots[i + 2 :]
        assert not _isolated(f, swapped, radius)


@pytest.mark.parametrize("gap", [Fraction(1, 2**46), Fraction(1, 2**60)])
def test_charpoly_roots_near_coincident_roots_take_the_exact_chain(gap, exact_chains):
    # roots 1 and 1 + gap lie closer than twice the radius: the intervals
    # overlap, so nothing is certified
    coeffs = _from_roots([Fraction(1), 1 + gap, Fraction(-3)])
    assert _certified_roots(_primitive_form(coeffs)) is None
    assert charpoly_roots(coeffs) == _roots_by_monic_fraction_chain(coeffs)
    assert exact_chains


def test_charpoly_roots_equal_the_monic_chain_on_the_benchmark_slots():
    for js, p in exact_quotients():
        coeffs = charpoly_exact(js, p)
        for lead in (1, -1):  # det(B - lambda*I) for odd t leads with -1
            f = [lead * c for c in coeffs]
            assert charpoly_roots(f) == _roots_by_monic_fraction_chain(f)


def test_charpoly_roots_hand_eigvalsh_the_monic_chain_matrices(monkeypatch):
    # the same tridiagonal matrices bit for bit, signed zeros included:
    # x^3 - x has a_k = 0 over a negative product of leading coefficients,
    # a -0.0 quotient that the sum with the off-diagonals makes +0.0
    seen = []
    real = np.linalg.eigvalsh

    def record(m):
        seen.append(np.asarray(m).tobytes())
        return real(m)

    monkeypatch.setattr(np.linalg, "eigvalsh", record)
    polys = [[1, 0, -1, 0], [-1, 0, 5, 0, -4, 0], [2, 0, -4, 0, 2], [1, 0, 0, 0]]
    polys += [charpoly_exact(js, p) for js, p in exact_quotients()]
    for f in polys:
        charpoly_roots(f)
        ours = seen[:]
        seen.clear()
        _roots_by_monic_fraction_chain(f)
        assert ours == seen
        seen.clear()


def test_charpoly_roots_z2520_quotient():
    # t = 48, coefficients of about 500 bits: the case high-precision
    # polynomial root finding failed to converge on
    js, p = build_join(GroupSpec(Z, 2520), Variant.POWER), UniversalParams(1, -1, 2, 3)
    k = quotient_matrix(js, p)
    coeffs = charpoly_exact(js, p)
    roots = charpoly_roots(coeffs)
    assert roots == _roots_by_monic_fraction_chain(coeffs)
    scale = max(1.0, float(np.max(np.abs(k).sum(axis=1))))
    assert multiset_gap(np.array(roots), np.linalg.eigvalsh(k)) <= 1e-8 * scale


def test_charpoly_roots_z5040_quotient():
    # t = 60, rational parameters: certified at working precision
    js, p = build_join(GroupSpec(Z, 5040), Variant.POWER), EXACT_QUOTIENT_PARAMS
    k = quotient_matrix(js, p)
    roots = charpoly_roots(charpoly_exact(js, p))
    scale = max(1.0, float(np.max(np.abs(k).sum(axis=1))))
    assert multiset_gap(np.array(roots), dense_eigen(k)) <= 1e-8 * scale


# ---------------------------------------------------------------------------
# normalized Laplacian evaluations
# ---------------------------------------------------------------------------


def _exact_det(rows) -> int:
    """Determinant of an integer matrix by Bareiss fraction-free elimination."""
    a = [row[:] for row in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1]


def dense_normalized_value(g, lam: Fraction) -> Fraction:
    """det(D - A - lam*D) / det(D) from the N x N matrix of ``g``: the
    reference the join route must reproduce exactly."""
    deg = [int(d) for d in g.degrees()]
    if min(deg) == 0:
        raise ValueError("graph has an isolated vertex; det(D) = 0")
    num, den = lam.numerator, lam.denominator  # den * U has integer entries
    rows = [[-den if g.adj[i, j] else 0 for j in range(g.n)] for i in range(g.n)]
    for i, d in enumerate(deg):
        rows[i][i] = (den - num) * d
    product = 1
    for d in deg:
        product *= d
    return Fraction(_exact_det(rows), den**g.n * product)


SWEEP = [
    (GroupSpec(family, n), variant)
    for family, top in ((Z, 24), (D, 12), (Q, 6))
    for n in range(2, top + 1)
    for variant in Variant
]
SWEEP += [(GroupSpec(family, n), variant) for family, n, variant in NORMALIZED_SLOTS]


NORMALIZED_POINTS = [Fraction(0), Fraction(1, 2), Fraction(-3, 4), Fraction(7, 4), Fraction(2)]


@pytest.mark.parametrize(
    "spec, variant", SWEEP, ids=[f"{s.family.value}{s.n}-{v.value}" for s, v in SWEEP]
)
def test_normalized_laplacian_join_matches_dense_determinant(spec, variant):
    js = build_join(spec, variant)
    g = variant_graph(power_graph_oracle(spec), variant)
    for complement, graph in ((False, g), (True, complement_graph(g))):
        for lam in NORMALIZED_POINTS:
            try:
                expected = dense_normalized_value(graph, lam)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    normalized_laplacian_charpoly_at(js, lam, complement=complement)
                assert str(got.value) == str(exc)
                continue
            value = normalized_laplacian_charpoly_at(js, lam, complement=complement)
            assert isinstance(value, Fraction)
            assert value == expected, (spec, variant, complement, lam)


def test_normalized_laplacian_k2():
    js = build_join(GroupSpec(Z, 2), Variant.POWER)
    assert normalized_laplacian_charpoly_at(js, 1) == -1
    assert normalized_laplacian_charpoly_at(js, 0) == 0
    # a float argument at a root gives exactly 0.0
    assert normalized_laplacian_charpoly_at(js, 0.0) == 0.0
    assert normalized_laplacian_charpoly_at(js, 2.0) == 0.0
    # eigenvalues of the normalized Laplacian of K_2 are 0 and 2
    assert abs(normalized_laplacian_charpoly_at(js, 0.5) - (0 - 0.5) * (2 - 0.5)) < 1e-12


def test_normalized_laplacian_z4_at_zero():
    js = build_join(GroupSpec(Z, 4), Variant.POWER)
    assert normalized_laplacian_charpoly_at(js, 0) == 0
    assert normalized_laplacian_charpoly_at(js, 0.0) == 0.0


def test_normalized_laplacian_float_matches_exact():
    js = build_join(GroupSpec(Z, 12), Variant.POWER)
    lam = Fraction(3, 10)
    exact = normalized_laplacian_charpoly_at(js, lam)
    approx = normalized_laplacian_charpoly_at(js, 0.3)
    assert isinstance(approx, float)
    assert abs(approx - float(exact)) <= 1e-9 * max(1.0, abs(float(exact)))


def test_normalized_laplacian_large_graph_no_overflow():
    # det U and the degree product overflow binary64 here; their ratio does not
    spec = GroupSpec(Z, 200)
    value = normalized_laplacian_charpoly_at(build_join(spec, Variant.POWER), 0.37)
    assert np.isfinite(value)
    g = power_graph_oracle(spec)
    sign, logabs = np.linalg.slogdet(universal_matrix(g, UniversalParams(-1.0, 1.0 - 0.37, 0.0, 0.0)))
    dense = sign * np.exp(logabs - np.sum(np.log(g.degrees().astype(float))))
    assert abs(value - dense) <= 1e-9 * abs(dense)


def test_normalized_laplacian_rejects_isolated():
    js = build_join(GroupSpec(D, 2), Variant.PROPER)
    with pytest.raises(ValueError, match="isolated vertex"):
        normalized_laplacian_charpoly_at(js, 1)
    # the identity of a power graph is isolated in the complement
    js = build_join(GroupSpec(Z, 6), Variant.POWER)
    with pytest.raises(ValueError, match="isolated vertex"):
        normalized_laplacian_charpoly_at(js, Fraction(1, 2), complement=True)


def test_multiset_gap_count_mismatch():
    assert multiset_gap(np.array([1.0]), np.array([1.0, 2.0])) == float("inf")


def reference_residual_rows(u, s, tol):
    """verify_eigenpairs' rows, one matrix-vector product per basis vector;
    a set difference wider than one vertex takes the gathered-column
    formula instead, which must lie within 4 N eps ||U||_inf of its
    product."""
    norm = float(np.max(np.abs(u).sum(axis=1)))
    scale = max(1.0, norm)
    slack = 4 * len(u) * np.finfo(float).eps * norm
    rows = []
    for e in s.eigenspaces:
        b, value = e.basis, float(e.value)
        res = bound = 0.0
        # the members of each vector's sets, None for a lift
        members = [
            pair for kind, (a, c) in b.segments
            for pair in (zip(a, c) if kind == Basis.SET else [None] * len(a))
        ]
        for pair, x in zip(members, b):
            r = float(np.max(np.abs(u @ x - value * x)))
            if pair is not None and len(pair[0]) > 1:
                gathered = gathered_residual(u, *pair, value)
                assert abs(gathered - r) <= slack
                r = gathered
            res = max(res, r)
            bound = max(bound, tol * scale * float(np.max(np.abs(x))))
        rows.append((value, e.multiplicity, res, bound))
    return rows


@pytest.mark.parametrize(
    "spec, variant, complement",
    [
        (GroupSpec(Z, 36), Variant.POWER, False),
        (GroupSpec(D, 15), Variant.PROPER, True),
        (GroupSpec(Q, 9), Variant.POWER, True),
        (GroupSpec(Z, 2), Variant.PROPER, False),
    ],
)
def test_verify_eigenpairs_matches_per_vector_products(spec, variant, complement):
    # the residuals of the signed two-entry columns come from gathered
    # columns; they must equal the per-vector ones bit for bit, and those
    # of wider sets the gathered-column formula
    rng = np.random.default_rng(16)
    g = variant_graph(power_graph_oracle(spec), variant)
    js = build_join(spec, variant)
    for _ in range(3):
        p = sample_params(rng)
        u = universal_matrix(complement_graph(g) if complement else g, p)
        s = hjoin_spectrum(js, complement_params(p, g.n) if complement else p, want_vectors=True)
        report = verify_eigenpairs(u, s)
        assert report.passed
        assert list(report.rows) == reference_residual_rows(u, s, 1e-8)


def test_verify_eigenpairs_fails_a_nan_residual():
    u = universal_matrix(power_graph_oracle(GroupSpec(Z, 6)), LAPLACIAN)
    s = hjoin_spectrum(build_join(GroupSpec(Z, 6), Variant.POWER), LAPLACIAN, want_vectors=True)
    assert verify_eigenpairs(u, s).passed
    u[0, 0] = np.nan
    assert not verify_eigenpairs(u, s).passed


# ---------------------------------------------------------------------------
# compact bases
# ---------------------------------------------------------------------------


def test_expanded_equals_the_list_of_every_value():
    rng = np.random.default_rng(17)
    for spec, complement in [(GroupSpec(Z, 36), False), (GroupSpec(Q, 9), True)]:
        js = build_join(spec, Variant.POWER)
        for p in (sample_params(rng), sample_params(rng, integer=True)):
            p = complement_params(p, js.order) if complement else p
            s = hjoin_spectrum(js, p)
            listed = [e.value for e in s.eigenspaces for _ in range(e.multiplicity)]
            expect = np.sort(np.array(listed, dtype=float))
            assert s.expanded().tobytes() == expect.tobytes()
            # the dense values: eigvalsh's own, none averaged
            k = quotient_matrix(js, p)
            assert dense_eigen(k).tobytes() == (np.linalg.eigvalsh(k) + 0.0).tobytes()
    # two values 1e-9 apart stay two
    assert dense_eigen(np.diag([2.0, 1.0 + 1e-9, 1.0])).tolist() == [1.0, 1.0 + 1e-9, 2.0]
    exact = Spectrum((Eigenspace(Fraction(1, 3), 2, "x"), Eigenspace(-7, 1, "x")), 3)
    assert exact.expanded().tolist() == [-7.0, 1 / 3, 1 / 3]
    assert Spectrum((), 0).expanded().shape == (0,)


def test_basis_reads_as_dense_vectors():
    dense = np.array([[0.5, -0.0, 2.0, 1.0]])
    b = Basis(
        4,
        [
            (Basis.SET, (np.array([[2]]), np.array([[0]]))),
            (Basis.LIFT, (dense, np.arange(4))),  # a dense row: a lift over one block per vertex
            (Basis.SET, (np.array([[1]]), np.array([[3]]))),
        ],
    )
    expect = [[-1.0, 0.0, 1.0, 0.0], [0.5, -0.0, 2.0, 1.0], [0.0, 1.0, 0.0, -1.0]]
    assert len(b) == 3 and bool(b)
    assert np.array(b).tobytes() == np.array(expect).tobytes()
    assert [x.tolist() for x in b] == expect
    assert b[-1].tolist() == expect[2] and b[1].tobytes() == dense[0].tobytes()
    assert np.column_stack(b).shape == (4, 3)
    # wider sets, and lifts that each read their own block map
    wide = Basis(
        5,
        [
            (Basis.LIFT, (np.array([[2.5, -0.0]]), np.array([1, 0, 0, 1, 1]))),
            (Basis.SET, (np.array([[0, 1], [3, 4]]), np.array([[2, 4], [1, 0]]))),
            (Basis.LIFT, (np.array([[1.0, 2.0, 3.0]]), np.array([2, 2, 1, 0, 1]))),
        ],
    )
    expect = [
        [-0.0, 2.5, 2.5, -0.0, -0.0],
        [1.0, 1.0, -1.0, 0.0, -1.0],
        [-1.0, -1.0, 0.0, 1.0, 1.0],
        [3.0, 3.0, 2.0, 1.0, 2.0],
    ]
    assert [kind for kind, _ in wide.segments] == [Basis.LIFT, Basis.SET, Basis.LIFT]
    assert np.array(wide).tobytes() == np.array(expect).tobytes()
    assert wide.lifted().tobytes() == np.array([expect[0], expect[3]]).tobytes()
    # empty segments drop
    no_rows = Basis(3, [
        (Basis.SET, (np.zeros((0, 1), np.int64),) * 2),
        (Basis.LIFT, (np.ones((0, 2)), np.array([0, 1, 1]))),
    ])
    assert no_rows.segments == [] and len(no_rows) == 0 and np.array(no_rows).shape == (0, 3)
    # a sequence of vectors becomes dense rows, lifts over one block per vertex
    rows = Basis.of_rows((np.ones(3), np.zeros(3)))
    [(kind, (coeffs, block_of))] = rows.segments
    assert rows.dimension == 3 and kind == Basis.LIFT and block_of.tolist() == [0, 1, 2]
    assert np.array(rows).tolist() == [[1.0] * 3, [0.0] * 3]
    assert len(Basis.of_rows(())) == 0
    empty_rows = Basis.of_rows(np.zeros((2, 0)))  # two vectors in dimension 0
    assert len(empty_rows) == 2 and np.array(empty_rows).shape == (2, 0)
    with pytest.raises(ValueError):
        Basis(3, [(Basis.LIFT, (np.ones((1, 4)), np.arange(4)))])
    with pytest.raises(ValueError):
        Basis(3, [(Basis.SET, (np.array([[0, 1]]), np.array([[2]])))])
    with pytest.raises(ValueError):
        Basis(3, [(Basis.SET, (np.array([0]), np.array([1])))])
    with pytest.raises(ValueError):
        Basis(3, [(Basis.SET, (np.zeros((1, 0), np.int64),) * 2)])
    with pytest.raises(ValueError):
        Basis(3, [(Basis.LIFT, (np.ones((1, 2)), np.array([0, 1])))])
    for outside in (-1, 3):  # numpy would wrap -1, and the emitter splice at a bad offset
        with pytest.raises(ValueError):
            Basis(3, [(Basis.SET, (np.array([[0]]), np.array([[outside]])))])
        with pytest.raises(ValueError):
            Basis(3, [(Basis.LIFT, (np.ones((1, 3)), np.array([0, outside, 1])))])


def test_basis_refuses_a_segment_of_kind_2():
    """2 names no kind of vector (it was the dense rows' flag)."""
    one_set = (np.array([[0]]), np.array([[1]]))
    assert len(Basis(3, [(Basis.SET, one_set)])) == 1
    with pytest.raises(ValueError):
        Basis(3, [(Basis.SET, one_set), (2, one_set)])
    with pytest.raises(ValueError):  # an empty segment of no kind is refused too
        Basis(3, [(2, (np.zeros((0, 1), np.int64),) * 2)])


@pytest.mark.parametrize(
    "plus, minus",
    [
        ([[0, 0]], [[1, 2]]),  # twice in P
        ([[0, 1]], [[2, 2]]),  # twice in M
        ([[0, 1]], [[2, 1]]),  # in P and in M
        ([[3]], [[3]]),  # e_i - e_i
    ],
)
def test_basis_refuses_a_vertex_listed_twice_in_one_vector(plus, minus):
    segment = (np.array(plus), np.array(minus))
    size = segment[0].shape[1]
    fine = (np.arange(size)[None], np.arange(size, 2 * size)[None])
    assert len(Basis(4, [(Basis.SET, fine)])) == 1
    with pytest.raises(ValueError):
        Basis(4, [(Basis.SET, segment)])
    with pytest.raises(ValueError):  # in a later row of a segment
        Basis(4, [(Basis.SET, tuple(np.vstack([f, m]) for f, m in zip(fine, segment)))])


def sets_of(basis):
    """The (plus, minus) arrays of the set segments of ``basis``."""
    return [data for kind, data in basis.segments if kind == Basis.SET]


def lone_of(basis):
    """``_lone_coordinates`` of the sets of one basis."""
    return _lone_coordinates([(0, *data) for data in sets_of(basis)], basis.dimension)


def structural_cases(family, top):
    """Every instance of ``family`` up to ``top``, both variants, plain and
    complement, at one seeded float quadruple each: (U, structural
    spectrum, join structure, the parameters of the spectrum)."""
    rng = np.random.default_rng(1700 + top)
    for n in range(2 if family is Q else 1, top + 1):
        spec = GroupSpec(family, n)
        for variant in Variant:
            if variant is Variant.PROPER and spec.order < 2:
                continue
            g = variant_graph(power_graph_oracle(spec), variant)
            js = build_join(spec, variant)
            for complement in (False, True):
                p = sample_params(rng)
                u = universal_matrix(complement_graph(g) if complement else g, p)
                p_eff = complement_params(p, g.n) if complement else p
                yield u, hjoin_spectrum(js, p_eff, want_vectors=True), js, p_eff


def gathered_residual(u, plus, minus, value):
    """||U x - lambda x||_inf of x = 1_P - 1_M with distinct members, from
    columns: the sum of U[:, p] over P left to right, minus that over M,
    then lambda off at P and on at M."""
    r = u[:, plus[0]].copy()
    for p in plus[1:]:
        r += u[:, p]
    q = u[:, minus[0]].copy()
    for m in minus[1:]:
        q += u[:, m]
    r -= q
    r[plus] -= value
    r[minus] += value
    return float(np.max(np.abs(r)))


def lift_coeffs(s):
    """The block coefficients of every lift of ``s``, stacked."""
    return np.concatenate([
        c for e in s.eigenspaces for kind, (c, _) in e.basis.segments if kind == Basis.LIFT
    ])


def block_map(js):
    """The block of every vertex of ``js``."""
    out = np.empty(js.order, dtype=np.int64)
    for l, b in enumerate(js.blocks):
        out[b.members] = l
    return out


def legacy_rows(js, p):
    """The eigenvectors of ``hjoin_spectrum(js, p, want_vectors=True)`` as
    the dense construction before compact sets and lifts made them, for
    float ``p``: the rows of every candidate, in the order the candidates
    sort, which is the order of the eigenspaces by ascending value."""
    total = js.order
    groups = {}
    for i, (b, degree) in enumerate(zip(js.blocks, js.degrees)):
        for lam, mult in b.local_eigenvalues():
            if mult:
                value = float(p.alpha * lam + p.beta * degree + p.gamma)
                groups.setdefault(value, []).append((i, lam))
    candidates = []
    for value, parts in groups.items():
        rows = []
        for i, lam in parts:
            cliques = js.blocks[i].members.reshape(-1, js.blocks[i].clique)
            size = cliques.shape[1]
            if lam == -1 or size == 1:  # two-entry differences
                if lam == -1:
                    plus, minus = np.repeat(cliques[:, 0], size - 1), cliques[:, 1:].ravel()
                else:
                    plus, minus = np.repeat(cliques[0], len(cliques) - 1), cliques[1:, 0]
                block = np.zeros((len(plus), total))
                block[np.arange(len(plus)), plus] = 1.0
                block[np.arange(len(plus)), minus] -= 1.0
            else:  # differences of clique indicators
                block = np.zeros((len(cliques) - 1, total))
                block[:, cliques[0]] = 1.0
                block[np.arange(len(block))[:, None], cliques[1:]] = -1.0
            rows.append(block)
        candidates.append((value, np.concatenate(rows)))
    qvals, qvecs = np.linalg.eigh(quotient_matrix(js, p))
    sizes = js.sizes
    weights = np.array([sqrt(sizes[-1] / size) for size in sizes])
    lifted = np.take((qvecs * weights[:, None]).T, block_map(js), axis=1)
    candidates += [(value, lifted[k : k + 1]) for k, value in enumerate(qvals.tolist())]
    candidates.sort(key=lambda c: c[0])
    return np.concatenate([rows for _, rows in candidates])


@pytest.mark.parametrize("family, top", [(Z, 200), (D, 100), (Q, 60)])
def test_pair_residuals_and_rank_verdicts_match_the_dense_forms(family, top):
    # the compact bases expand to the dense construction before them; a
    # set residual of size 1 is bit for bit the U x - lambda x of the dense
    # vector, a wider one the gathered-column formula and within
    # 4 N eps ||U||_inf of the dense product; every rank verdict is the
    # one of the Cholesky test, and every row of the report the one of
    # these residuals
    sets_seen = wide_seen = mixed_seen = 0
    for u, s, js, p in structural_cases(family, top):
        ascending = [np.array(e.basis) for e in reversed(s.eigenspaces)]
        assert np.concatenate(ascending).tobytes() == legacy_rows(js, p).tobytes()
        norm = float(np.max(np.abs(u).sum(axis=1)))
        scale, slack = max(1.0, norm), 4 * len(u) * np.finfo(float).eps * norm
        lifts = (lift_coeffs(s), block_map(js))
        rows = []
        for e in s.eigenspaces:
            b, vecs = e.basis, np.array(e.basis)
            value = float(e.value)
            per_vector = np.array([np.max(np.abs(u @ x - value * x)) for x in vecs])
            sets = sets_of(b)
            got = np.concatenate(
                [_set_residuals(u, plus, minus, np.full(len(plus), value)) for plus, minus in sets]
                + [np.zeros(0)]
            )
            formula = np.array([
                gathered_residual(u, p, m, value)
                for plus, minus in sets
                for p, m in zip(plus, minus)
            ])
            assert got.tobytes() == formula.tobytes()
            is_set = np.concatenate(
                [np.full(len(a), kind == Basis.SET) for kind, (a, _) in b.segments]
            )
            pairs = np.array([plus.shape[1] == 1 for plus, _ in sets for _ in plus], dtype=bool)
            assert got[pairs].tobytes() == per_vector[is_set][pairs].tobytes()
            assert np.all(np.abs(got - per_vector[is_set]) <= slack)
            expect = per_vector.copy()
            expect[is_set] = got
            assert _independent(b, e.multiplicity, lone_of(b)) == _full_rank(vecs, e.multiplicity)
            size = float(np.max(np.abs(vecs)))
            rows.append((value, e.multiplicity, float(expect.max()), 1e-8 * scale * size))
            sets_seen += len(pairs)
            wide_seen += int(np.count_nonzero(~pairs))
            if sets:  # the sets of this space beside every lift
                segments = [(Basis.SET, data) for data in sets] + [(Basis.LIFT, lifts)]
                mixed = Basis(b.dimension, segments)
                assert _independent(mixed, len(mixed), lone_of(mixed)) == _full_rank(
                    np.array(mixed), len(mixed)
                )
                mixed_seen += 1
        report = verify_eigenpairs(u, s)
        assert report.passed and list(report.rows) == rows
    assert sets_seen > 1000 and mixed_seen > 100
    assert (wide_seen > 100) == (family is Q)


def test_mixed_spaces_split_only_where_exactly_orthogonal(monkeypatch):
    # sets that each sum to zero on every block beside lifts: the Cholesky
    # factor runs on the lifts alone; a set that crosses two blocks, or a
    # repeated lift, sends the whole basis to the Cholesky test, and every
    # verdict is the one of _full_rank on the dense vectors
    spec = GroupSpec(Q, 15)
    js = build_join(spec, Variant.POWER)
    p = UniversalParams(Fraction(3, 2), Fraction(-1, 3), Fraction(2), Fraction(-5, 7))
    s = hjoin_spectrum(js, p, want_vectors=True)
    coset = js.blocks[-1].members.reshape(-1, 2)
    coeffs, block_of = lift_coeffs(s), block_map(js)
    calls = []
    real = powspec.spectra._full_rank

    def spy(vecs, multiplicity):
        calls.append(len(vecs))
        return real(vecs, multiplicity)

    monkeypatch.setattr(powspec.spectra, "_full_rank", spy)
    cases = {
        "balanced": (np.repeat(coset[:1], 3, axis=0), coset[1:4], coeffs[:4], True, 4),
        "crossing": (
            np.repeat(coset[:1], 3, axis=0),
            np.vstack([coset[1:3], [[coset[3, 0], js.blocks[0].members[0]]]]),
            coeffs[:4],
            True,
            7,
        ),
        "repeated lift": (
            np.repeat(coset[:1], 3, axis=0), coset[1:4], coeffs[[0, 1, 1]], False, 3,
        ),
    }
    for name, (plus, minus, c, verdict, factored) in cases.items():
        b = Basis(js.order, [(Basis.SET, (plus, minus)), (Basis.LIFT, (c, block_of))])
        calls.clear()
        assert _independent(b, len(b), lone_of(b)) is verdict, name
        assert calls == [factored], name
        assert real(np.array(b), len(b)) is verdict, name


def reflection_space(n=11):
    """D_n at generic parameters with the block-difference space of its n
    reflections, single-vertex cliques: (U, spectrum, index of that space,
    the reflections)."""
    spec = GroupSpec(D, n)
    js = build_join(spec, Variant.POWER)
    p = UniversalParams(Fraction(3, 2), Fraction(-1, 3), Fraction(2), Fraction(-5, 7))
    s = hjoin_spectrum(js, p, want_vectors=True)
    k = next(k for k, e in enumerate(s.eigenspaces) if e.multiplicity == n - 1)
    assert s.eigenspaces[k].provenance == "BlockDiff"
    return universal_matrix(power_graph_oracle(spec), p), s, k, js.blocks[-1].members.tolist()


def with_sets(s, k, plus, minus):
    """``s`` with the basis of eigenspace k replaced by the set differences
    of the rows of ``plus`` and ``minus``."""
    spaces = list(s.eigenspaces)
    e = spaces[k]
    plus, minus = (np.array(a, dtype=np.int64).reshape(len(a), -1) for a in (plus, minus))
    basis = Basis(s.dimension, [(Basis.SET, (plus, minus))])
    spaces[k] = Eigenspace(e.value, e.multiplicity, e.provenance, basis)
    return Spectrum(tuple(spaces), s.dimension)


def with_pairs(s, k, pairs):
    return with_sets(s, k, [i for i, _ in pairs], [j for _, j in pairs])


def test_pair_bases_fail_zero_repeated_missing_and_cyclic_vectors():
    u, s, k, c = reflection_space()
    assert verify_eigenpairs(u, s, tol=1e-12).passed
    [(kind, (plus, minus))] = s.eigenspaces[k].basis.segments
    assert kind == Basis.SET and plus.shape == (len(c) - 1, 1)
    pairs = np.column_stack([plus, minus]).tolist()
    assert pairs == [[c[0], c[r]] for r in range(1, len(c))]
    with pytest.raises(ValueError):  # the zero vector e_i - e_i is no set difference
        with_pairs(s, k, [[c[0], c[0]]] + pairs[1:])
    mutants = {
        "repeated": [pairs[0]] + pairs[:-1],
        "missing": pairs[:-1],
        "cycle": [[c[0], c[1]], [c[1], c[2]], [c[2], c[0]]] + pairs[2:-1],
    }
    for name, mutant in mutants.items():
        m = with_pairs(s, k, mutant)
        assert len(m.eigenspaces[k].basis) == len(pairs) - (name == "missing")
        report = verify_eigenpairs(u, m, tol=1e-12)
        assert not report.passed, name
        if name in ("repeated", "cycle"):  # sound eigenvectors: the rank test fails them
            assert report.max_residual <= 1e-12 * report.scale


def coset_clique_space(n=15):
    """Q_n at generic parameters with the space of its coset cliques'
    indicator differences, sets of size 2: (U, spectrum, index of that
    space, the n cliques)."""
    spec = GroupSpec(Q, n)
    js = build_join(spec, Variant.POWER)
    p = UniversalParams(Fraction(3, 2), Fraction(-1, 3), Fraction(2), Fraction(-5, 7))
    s = hjoin_spectrum(js, p, want_vectors=True)
    k = next(k for k, e in enumerate(s.eigenspaces) if e.multiplicity == n - 1)
    assert s.eigenspaces[k].provenance == "BlockDiff"
    cliques = js.blocks[-1].members.reshape(-1, 2).tolist()
    return universal_matrix(power_graph_oracle(spec), p), s, k, cliques


def test_set_bases_fail_zero_repeated_missing_and_swapped_clique_vectors():
    u, s, k, c = coset_clique_space()
    assert verify_eigenpairs(u, s, tol=1e-12).passed
    [(kind, (plus, minus))] = s.eigenspaces[k].basis.segments
    assert kind == Basis.SET and plus.shape == (len(c) - 1, 2)
    plus, minus = plus.tolist(), minus.tolist()
    assert plus == [c[0]] * (len(c) - 1) and minus == c[1:]
    # one clique minus itself, in order and listed apart
    for zero in ([c[1]] + plus[1:], [c[1][::-1]] + plus[1:]):
        with pytest.raises(ValueError):
            with_sets(s, k, zero, minus)
    mutants = {
        "repeated": (plus, [minus[0]] + minus[:-1]),
        "missing": (plus[:-1], minus[:-1]),
        "swapped clique": (plus, [[c[1][0], c[2][1]], [c[2][0], c[1][1]]] + minus[2:]),
        "cycle": ([c[0], c[1], c[2]] + plus[3:], [c[1], c[2], c[0]] + minus[3:]),
    }
    for name, (mp, mm) in mutants.items():
        m = with_sets(s, k, mp, mm)
        assert len(m.eigenspaces[k].basis) == len(plus) - (name == "missing")
        report = verify_eigenpairs(u, m, tol=1e-12)
        assert not report.passed, name
        if name in ("repeated", "cycle"):  # sound eigenvectors: the rank test fails them
            assert report.max_residual <= 1e-12 * report.scale


def test_pair_path_without_lone_coordinates_falls_back_to_cholesky(monkeypatch):
    u, s, k, c = reflection_space()
    path = with_pairs(s, k, [[c[r], c[r + 1]] for r in range(len(c) - 1)])
    lone = lone_of(path.eigenspaces[k].basis)
    assert lone.tolist() == [True] + [False] * (len(c) - 3) + [True]
    calls = []
    real = powspec.spectra._full_rank

    def spy(vecs, multiplicity):
        calls.append(len(vecs))
        return real(vecs, multiplicity)

    monkeypatch.setattr(powspec.spectra, "_full_rank", spy)
    assert verify_eigenpairs(u, path, tol=1e-12).passed
    assert len(c) - 1 in calls
    calls.clear()
    assert verify_eigenpairs(u, s, tol=1e-12).passed
    assert len(c) - 1 not in calls  # the original pairs each have a lone coordinate


def test_seed_905_merged_space_keeps_its_verdict():
    # Q_42 complement at (1/5, 8, 1/3, 5/6): BlockDiff 888.33333333 (x12) and
    # a Quotient value 5e-5 away are two eigenspaces, and all 24 pass; the
    # 13-fold space a global merge tolerance made of them fails its
    # residual check, as before the compact bases
    spec = GroupSpec(Q, 42)
    js = build_join(spec, Variant.POWER)
    p = UniversalParams(Fraction(1, 5), Fraction(8), Fraction(1, 3), Fraction(5, 6))
    s = hjoin_spectrum(js, complement_params(p, js.order), want_vectors=True)
    u = universal_matrix(complement_graph(power_graph_oracle(spec)), p)
    assert len(s.eigenspaces) == 24
    assert verify_eigenpairs(u, s).passed
    near = [e for e in s.eigenspaces if abs(e.value - 888.3333) < 1e-3]
    assert [(e.multiplicity, e.provenance) for e in near] == [(12, "BlockDiff"), (1, "Quotient")]
    block, quotient = near
    # merged as a tolerance merged them: the weighted mean over the ascending
    # candidates, their vectors in that order
    e = Eigenspace(
        (quotient.value + block.value * 12) / 13 + 0.0,
        13,
        "BlockDiff+Quotient",
        Basis(js.order, [*quotient.basis.segments, *block.basis.segments]),
    )
    merged = Spectrum(tuple(e if x is block else x for x in s.eigenspaces if x is not quotient), js.order)
    # twelve in-clique pairs and one lift: a mixed space
    assert (e.multiplicity, len(lone_of(e.basis)), len(e.basis.lifted())) == (13, 12, 1)
    report = verify_eigenpairs(u, merged)
    assert not report.passed
    assert report.max_residual == 0.0002821692542056553
    assert _independent(e.basis, 13, lone_of(e.basis)) == _full_rank(tuple(e.basis), 13)


# ---------------------------------------------------------------------------
# merge decisions against exact rank
# ---------------------------------------------------------------------------


RANK_PRIMES = (2147483647, 2147483629)


def _rank_mod(m, p):
    """The rank modulo the prime p < 2**31 of an integer matrix (int64 or
    Python ints), by Gaussian elimination on int64 residues."""
    a = np.array(m % p, dtype=np.int64)
    rank = 0
    for c in range(a.shape[1]):
        rows = np.flatnonzero(a[rank:, c])
        if not len(rows):
            continue
        r = rank + rows[0]
        a[[rank, r]] = a[[r, rank]]
        a[rank, c:] = a[rank, c:] * pow(int(a[rank, c]), -1, p) % p
        below = a[rank + 1 :, c:]  # columns left of c are zero there
        below -= below[:, :1] * a[rank, c:]
        below %= p
        rank += 1
        if rank == len(a):
            break
    return rank


def _merge_decisions(js, p):
    """(merged, nullity) for every block value of ``hjoin_spectrum(js, p)``
    within 1e-6 * max(1, max |value|) of a quotient value: whether its
    eigenspace also holds quotient values, and t - rank of d*v*I - A modulo
    two primes, with (A, d) the quotient's ``integer_form``: the number of
    quotient eigenvalues equal to v, exactly unless both primes divide a
    minor.  The eigenspace's multiplicity is also checked against it."""
    a, d = integer_form(js, p)
    t = len(a)
    spaces = hjoin_spectrum(js, p).eigenspaces
    qvals = np.linalg.eigvalsh(quotient_matrix(js, p))
    exact, mults = {}, {}
    for b, degree in zip(js.blocks, js.degrees):
        for lam, mult in b.local_eigenvalues():
            if mult:
                v = Fraction(p.alpha) * lam + Fraction(p.beta) * degree + Fraction(p.gamma)
                exact[float(v)] = v
                mults[float(v)] = mults.get(float(v), 0) + mult
    scale = max(1.0, *map(abs, exact), *np.abs(qvals).tolist())
    out = []
    for value, v in exact.items():
        if np.abs(qvals - value).min() > 1e-6 * scale:
            continue
        x = v * d  # an eigenvalue of B at v means the integer d*v is one of A
        nullity = 0
        if x.denominator == 1:
            shifted = np.diag(np.full(t, int(x), dtype=a.dtype)) - a
            nullity = t
            for prime in RANK_PRIMES:  # a rank mod p is at most the rank over Q
                nullity = min(nullity, t - _rank_mod(shifted, prime))
                if not nullity:
                    break
        owner = min(
            (e for e in spaces if "BlockDiff" in e.provenance), key=lambda e: abs(e.value - value)
        )
        merged = "Quotient" in owner.provenance
        assert owner.multiplicity == mults[value] + (nullity if merged else 0), (value, owner)
        out.append((merged, nullity))
    return out


def _assert_decisions(cases):
    decisions = [d for js, p in cases for d in _merge_decisions(js, p)]
    for merged, nullity in decisions:
        assert merged == (nullity > 0), decisions
    return decisions


def test_merge_decisions_agree_with_exact_rank_at_scale():
    decisions = _assert_decisions([(build_join(GroupSpec(Z, 972), Variant.POWER), LAPLACIAN)])
    assert (False, 0) in decisions  # 730 stays apart from 729.99998
    cases = []
    for spec in (GroupSpec(Z, 720720), GroupSpec(D, 360360), GroupSpec(Q, 180180)):
        js = build_join(spec, Variant.POWER)
        cases += [(js, LAPLACIAN), (js, UniversalParams(1, -1, 2, 3))]
    decisions = _assert_decisions(cases)
    merged = sum(m for m, _ in decisions)
    assert merged and len(decisions) - merged >= 5, decisions


def test_merge_decisions_agree_with_exact_rank_seeded_sweep():
    rng = np.random.default_rng(32)
    presets = [LAPLACIAN, SIGNLESS, ADJACENCY]

    def small():
        return Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 4)))

    cases = []
    for family, top in ((Z, 400), (D, 200), (Q, 100)):
        for n in range(2, top + 1):
            alpha = small() or Fraction(1)
            # alpha = -beta and the presets make exact coincidences; beta
            # 1e-8 * |alpha| away from -alpha makes near ones
            draw = rng.random()
            beta = -alpha if draw < 0.3 else -alpha * (1 - Fraction(1, 10**8)) if draw < 0.6 else small()
            p = UniversalParams(alpha, beta, small(), small())
            if rng.random() < 0.3:
                p = presets[int(rng.integers(len(presets)))]
            variant = Variant.PROPER if rng.random() < 0.3 else Variant.POWER
            js = build_join(GroupSpec(family, n), variant)
            cases.append((js, complement_params(p, js.order) if rng.random() < 0.3 else p))
    decisions = _assert_decisions(cases)
    merged = sum(m for m, _ in decisions)
    assert merged >= 50 and len(decisions) - merged >= 50, (merged, len(decisions))

