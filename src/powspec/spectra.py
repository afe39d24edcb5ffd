"""Universal adjacency matrices and their spectra.

The universal adjacency matrix of a graph H is

    U(H) = alpha*A(H) + beta*D(H) + gamma*I + eta*J,   alpha != 0,

which specializes to the adjacency, Laplacian, signless Laplacian and
Seidel matrices (and, after a parameter swap, the same matrices of the
complement).  Two independent routes to its spectrum live here:

* the structural route: for a validated join structure, per-block
  difference eigenpairs plus the eigenpairs of a small symmetric
  quotient matrix, lifted to block-constant vectors;
* the brute-force route: LAPACK's dense symmetric eigensolver (``eigh``)
  on U itself.

Everything downstream cross-validates the two against each other.

Exact answers take one determinant path: the characteristic polynomial of
the quotient's rational similar form.  The normalized-Laplacian value is
the U determinant at (-1, 1-X, 0, 0) over the degree product, so it too is
block values times that polynomial's constant term.  The polynomial's roots
come from its exact remainder sequence, which certifies real-rootedness and
multiplicities, through the same LAPACK eigensolver on a tridiagonal matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, sqrt

import numpy as np

from .groups import LabeledGraph
from .joinstruct import JoinStructure

__all__ = [
    "UniversalParams",
    "UndefinedUniversalMatrixError",
    "PRESETS",
    "Eigenspace",
    "Spectrum",
    "QuotientMatrix",
    "VerificationReport",
    "universal_matrix",
    "complement_params",
    "quotient_matrix",
    "dense_eigen",
    "hjoin_spectrum",
    "verify_eigenpairs",
    "charpoly_exact",
    "charpoly_roots",
    "normalized_laplacian_charpoly_at",
    "multiset_gap",
    "sample_params",
]

GROUPING_RTOL = 1e-7  # two eigenvalues merge within 1e-7 * max(1, scale)

PRESETS = {
    "adjacency": (1, 0, 0, 0),
    "laplacian": (-1, 1, 0, 0),
    "signless": (1, 1, 0, 0),
    "seidel": (-2, 0, -1, 1),
}


class UndefinedUniversalMatrixError(ValueError):
    """alpha = 0 leaves U undefined."""


@dataclass(frozen=True)
class UniversalParams:
    """The quadruple (alpha, beta, gamma, eta); alpha must be nonzero.

    Values may be int, Fraction or float; integer/Fraction quadruples keep
    quotient matrices exact, which the characteristic-polynomial route
    requires.
    """

    alpha: object
    beta: object
    gamma: object
    eta: object

    def __post_init__(self):
        if self.alpha == 0:
            raise UndefinedUniversalMatrixError(
                "universal matrix U is undefined for alpha = 0"
            )

    @classmethod
    def preset(cls, name: str) -> "UniversalParams":
        if name not in PRESETS:
            raise KeyError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
        return cls(*PRESETS[name])

    def as_floats(self) -> tuple[float, float, float, float]:
        return (float(self.alpha), float(self.beta), float(self.gamma), float(self.eta))

    @property
    def is_rational(self) -> bool:
        return all(
            isinstance(v, (int, Fraction)) and not isinstance(v, bool)
            for v in (self.alpha, self.beta, self.gamma, self.eta)
        )


def complement_params(p: UniversalParams, order: int) -> UniversalParams:
    """Parameters p' with U(complement(G), p) == U(G, p') for every G on
    ``order`` vertices: (-a, -b, g + b*(order-1) - a, e + a)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    return UniversalParams(
        -p.alpha,
        -p.beta,
        p.gamma + p.beta * (order - 1) - p.alpha,
        p.eta + p.alpha,
    )


def universal_matrix(g: LabeledGraph, p: UniversalParams) -> np.ndarray:
    """Dense symmetric U(g): entry (i,j) = alpha*A_ij + eta off the diagonal,
    beta*deg(i) + gamma + eta on it."""
    alpha, beta, gamma, eta = p.as_floats()
    u = np.where(g.adj, alpha * 1.0 + eta, alpha * 0.0 + eta)
    np.fill_diagonal(u, beta * g.degrees().astype(float) + gamma + eta)
    return u


# ---------------------------------------------------------------------------
# eigen machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Eigenspace:
    value: float  # a closed form keeps an int or Fraction value exact
    multiplicity: int
    provenance: str  # "BlockDiff" | "Quotient" | "BlockDiff+Quotient" | "Dense" | closed form
    basis: tuple | None = None  # full-dimension vectors, one per multiplicity


@dataclass(eq=False)
class Spectrum:
    """Eigenvalues with multiplicities, sorted descending by value."""

    eigenspaces: tuple
    dimension: int

    def __post_init__(self):
        total = sum(e.multiplicity for e in self.eigenspaces)
        if total != self.dimension:
            raise ValueError(
                f"multiplicities sum to {total}, ambient dimension is {self.dimension}"
            )

    def expanded(self) -> np.ndarray:
        """All eigenvalues with multiplicity, ascending (for comparisons)."""
        vals = [e.value for e in self.eigenspaces for _ in range(e.multiplicity)]
        return np.sort(np.array(vals, dtype=float))

    def find(self, value: float, tol: float) -> Eigenspace | None:
        for e in self.eigenspaces:
            if abs(e.value - value) <= tol:
                return e
        return None


def multiset_gap(a, b) -> float:
    """Largest entrywise distance between two sorted eigenvalue multisets;
    inf when the counts differ."""
    va = a.expanded() if isinstance(a, Spectrum) else np.sort(np.asarray(a, dtype=float))
    vb = b.expanded() if isinstance(b, Spectrum) else np.sort(np.asarray(b, dtype=float))
    if va.shape != vb.shape:
        return float("inf")
    if va.size == 0:
        return 0.0
    return float(np.max(np.abs(va - vb)))


def _group_tolerance(values) -> float:
    scale = max((abs(v) for v in values), default=0.0)
    return GROUPING_RTOL * max(1.0, scale)


def dense_eigen(m: np.ndarray, vectors: bool = True) -> Spectrum:
    """Full eigendecomposition of a symmetric matrix by LAPACK (``eigh``),
    grouped into eigenspaces by the merge tolerance.  The brute-force oracle.

    ``vectors=False`` calls ``eigvalsh`` and skips the eigenvector bases
    (eigenvalue-multiset consumers don't pay for them)."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    if not np.array_equal(m, m.T):
        raise ValueError("dense_eigen requires an exactly symmetric matrix")
    n = m.shape[0]
    if n == 0:
        return Spectrum((), 0)
    if vectors:
        vals, vecs = np.linalg.eigh(m)  # ascending
    else:
        vals = np.linalg.eigvalsh(m)
    gtol = _group_tolerance(vals.tolist())
    spaces = []
    start = 0
    for i in range(1, n + 1):
        if i == n or vals[i] - vals[i - 1] > gtol:
            group = vals[start:i]
            basis = None
            if vectors:
                basis = tuple(vecs[:, j].copy() for j in range(start, i))
            spaces.append(
                Eigenspace(float(np.mean(group)) + 0.0, i - start, "Dense", basis)
            )
            start = i
    spaces.sort(key=lambda e: -e.value)
    return Spectrum(tuple(spaces), n)


# ---------------------------------------------------------------------------
# structural route
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class QuotientMatrix:
    """Quotient of U over the block partition.

    ``sym`` is the symmetric form (off-diagonal theta_ij * sqrt(n_i*n_j));
    ``similar`` the integer-weighted form B = S^-1 K S with S = diag(sqrt n_i)
    (off-diagonal theta_ij * n_j), kept in exact arithmetic whenever the
    parameters are rational so characteristic polynomials stay exact.
    """

    sym: np.ndarray
    similar: list
    sizes: tuple

    @property
    def dimension(self) -> int:
        return len(self.sizes)


def quotient_matrix(js: JoinStructure, p: UniversalParams) -> QuotientMatrix:
    """kappa_i = alpha*r_i + beta*(r_i + rho_i) + gamma + eta*n_i on the
    diagonal; theta_ij = alpha+eta on template edges, eta elsewhere."""
    blocks = js.blocks
    sizes = js.sizes
    kappa = [
        p.alpha * b.regularity
        + p.beta * (b.regularity + b.join_degree)
        + p.gamma
        + p.eta * b.size
        for b in blocks
    ]
    adj = js.template.adj
    theta_edge = p.alpha + p.eta
    n = np.array(sizes, dtype=np.int64)
    sym = np.where(adj, float(theta_edge), float(p.eta)) * np.sqrt(np.outer(n, n))
    np.fill_diagonal(sym, [float(k) for k in kappa])
    edge_col = [theta_edge * size for size in sizes]
    plain_col = [p.eta * size for size in sizes]
    similar = [
        [e if joined else q for joined, e, q in zip(row, edge_col, plain_col)]
        for row in adj.tolist()
    ]
    for i, k in enumerate(kappa):
        similar[i][i] = k
    return QuotientMatrix(sym, similar, sizes)


def hjoin_spectrum(js: JoinStructure, p: UniversalParams, want_vectors: bool = False) -> Spectrum:
    """Spectrum of U over a validated join structure.

    Part one: every block is ``copies`` disjoint cliques of size c, with
    regularity r = c - 1, and each adjacency eigenvalue lam of the block
    orthogonal to its all-ones vector gives alpha*lam + beta*(r+rho) +
    gamma.  lam = -1 has multiplicity copies*(c-1), with the in-clique
    difference vectors (+1 at a clique's first vertex, -1 at its r-th) as
    eigenvectors; lam = c - 1 has multiplicity copies-1, with the
    differences of clique indicator vectors (first clique minus the r-th).
    Part two: the eigenpairs of the quotient matrix, each lifted
    to a block-constant vector scaled by sqrt(n_last / n_block).  Values
    are then grouped into eigenspaces by the merge tolerance.

    Block members are vertex positions of the underlying graph (element
    positions, see ``groups``), so the eigenvectors pair directly with
    ``universal_matrix`` of that graph.
    """
    blocks = js.blocks
    sizes = js.sizes
    total = js.order

    # part 1, grouped by exact formula value
    block_groups: dict[float, list] = {}
    for i, b in enumerate(blocks):
        for lam, mult in b.local_eigenvalues():
            if mult == 0:
                continue
            value = float(p.alpha * lam + p.beta * (b.regularity + b.join_degree) + p.gamma)
            block_groups.setdefault(value, []).append((i, lam, mult))

    candidates = []  # (value, multiplicity, provenance, vector factory args)
    for value, parts in block_groups.items():
        mult = sum(part_mult for _, _, part_mult in parts)
        candidates.append((value, mult, "BlockDiff", ("blocks", parts)))

    qm = quotient_matrix(js, p)
    qvals, qvecs = np.linalg.eigh(qm.sym)
    for k in range(qm.dimension):
        candidates.append((float(qvals[k]), 1, "Quotient", ("quotient", k)))

    def block_vectors(parts):
        vecs = []
        for i, lam, _ in parts:
            cliques = blocks[i].members.reshape(-1, blocks[i].clique)
            if lam == -1:  # in-clique differences
                pairs = [(c[:1], c[r : r + 1]) for c in cliques for r in range(1, len(c))]
            else:  # differences of clique indicators
                pairs = [(cliques[0], cliques[r]) for r in range(1, len(cliques))]
            for plus, minus in pairs:
                x = np.zeros(total)
                x[plus] = 1.0
                x[minus] = -1.0
                vecs.append(x)
        return vecs

    def lifted_vector(k):
        nu = qvecs[:, k]
        last = sizes[-1]
        x = np.empty(total)
        for l in range(len(sizes)):
            x[blocks[l].members] = nu[l] * sqrt(last / sizes[l])
        return x

    gtol = _group_tolerance([v for v, *_ in candidates])
    candidates.sort(key=lambda c: c[0])
    spaces = []
    group: list = []
    for cand in candidates:
        if group and cand[0] - group[-1][0] > gtol:
            spaces.append(_merge_candidates(group, want_vectors, block_vectors, lifted_vector))
            group = []
        group.append(cand)
    if group:
        spaces.append(_merge_candidates(group, want_vectors, block_vectors, lifted_vector))
    spaces.sort(key=lambda e: -e.value)
    return Spectrum(tuple(spaces), total)


def _merge_candidates(group, want_vectors, block_vectors, lifted_vector):
    total_mult = sum(m for _, m, _, _ in group)
    value = sum(v * m for v, m, _, _ in group) / total_mult + 0.0  # -0.0 -> 0.0
    provs = []
    for _, _, prov, _ in group:
        if prov not in provs:
            provs.append(prov)
    provenance = "+".join(sorted(provs))
    basis = None
    if want_vectors:
        vecs = []
        for _, _, _, (kind, arg) in group:
            if kind == "blocks":
                vecs.extend(block_vectors(arg))
            else:
                vecs.append(lifted_vector(arg))
        basis = tuple(vecs)
    return Eigenspace(value, total_mult, provenance, basis)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple  # (value, multiplicity, max_residual, bound)
    tolerance: float
    max_residual: float
    passed: bool
    scale: float  # max(1, ||U||_inf), the factor of every bound

    def __str__(self):
        lines = [
            f"eigenvalue {v:.12g} (x{m}): max residual {r:.3e} (bound {b:.3e})"
            for v, m, r, b in self.rows
        ]
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'}: max residual {self.max_residual:.3e}"
        )
        return "\n".join(lines)


# A basis counts as independent when the Cholesky factor of the Gram matrix
# of its max-normalised vectors has every pivot above this.
RANK_PIVOT_MIN = 1e-6


def _full_rank(vecs, multiplicity: int) -> bool:
    """Whether the nonzero ``vecs`` are ``multiplicity`` independent vectors."""
    if len(vecs) != multiplicity:
        return False
    x = np.column_stack(vecs)
    x = x / np.max(np.abs(x), axis=0)
    try:
        pivots = np.diag(np.linalg.cholesky(x.T @ x))
    except np.linalg.LinAlgError:
        return False
    return bool(np.min(pivots) > RANK_PIVOT_MIN)


def verify_eigenpairs(u: np.ndarray, s: Spectrum, tol: float = 1e-8) -> VerificationReport:
    """Residual check ||U x - lambda x||_inf <= tol * max(1, ||U||_inf) * ||x||_inf
    for every eigenpair carried by ``s``.  A zero vector fails, and so does
    an eigenspace whose basis has rank below its multiplicity."""
    u = np.asarray(u, dtype=float)
    if u.shape != (s.dimension, s.dimension):
        raise ValueError(
            f"matrix is {u.shape}, spectrum lives in dimension {s.dimension}"
        )
    scale = max(1.0, float(np.max(np.abs(u).sum(axis=1)))) if u.size else 1.0
    rows = []
    worst = 0.0
    passed = True
    for e in s.eigenspaces:
        if e.basis is None:
            raise ValueError("spectrum carries no eigenvector bases")
        value = float(e.value)
        res = 0.0
        bound = 0.0
        if e.basis:
            x = np.column_stack(e.basis)
            r = np.empty(x.shape[1])
            # Columns of at most two entries +-1, 0 elsewhere: every summation
            # order of U x gives the same bits, so one product serves them all.
            nonzero = np.count_nonzero(x, axis=0)
            signs = (nonzero <= 2) & (np.count_nonzero(np.abs(x) == 1, axis=0) == nonzero)
            if signs.any():
                xs = x[:, signs]
                r[signs] = np.max(np.abs(u @ xs - value * xs), axis=0)
            for k in np.flatnonzero(~signs):
                r[k] = np.max(np.abs(u @ e.basis[k] - value * e.basis[k]))
            size = np.max(np.abs(x), axis=0)
            b = tol * scale * size
            res, bound = float(r.max()), float(b.max())
            if not (np.all(r <= b) and np.all(size > 0.0)):  # a NaN residual fails
                passed = False
        # skipped once failed: a zero vector fails above, and would divide by 0
        if passed and not _full_rank(e.basis, e.multiplicity):
            passed = False
        rows.append((value, e.multiplicity, res, bound))
        worst = max(worst, res)
    return VerificationReport(tuple(rows), tol, worst, passed, scale)


# ---------------------------------------------------------------------------
# exact characteristic polynomials and determinants
# ---------------------------------------------------------------------------


def charpoly_exact(q: QuotientMatrix) -> list[Fraction]:
    """Monic characteristic polynomial det(lambda*I - B) of the similar form,
    in exact arithmetic.  Coefficients descend from lambda^t; identical to the polynomial
    of the symmetric form by similarity.

    The Faddeev-LeVerrier recurrence runs on the integer matrix d*B, with d
    the lcm of the denominators of B, whose coefficients are integers; the
    k-th one is then divided by d^k."""
    for row in q.similar:
        for x in row:
            if not isinstance(x, (int, Fraction)) or isinstance(x, bool):
                raise TypeError(
                    "charpoly_exact needs rational parameters (int or Fraction)"
                )
    t = q.dimension
    d = lcm(*(Fraction(x).denominator for row in q.similar for x in row))
    b = np.array([[int(x * d) for x in row] for row in q.similar], dtype=object)
    ident = np.eye(t, dtype=object)
    coeffs = [1]
    m = b
    for k in range(1, t + 1):
        ck = -m.trace() // k  # exact: an integer matrix has integer coefficients
        coeffs.append(ck)
        if k < t:
            m = b @ (m + ck * ident)
    return [Fraction(c, d**k) for k, c in enumerate(coeffs)]


def _monic(f: list[Fraction]) -> list[Fraction]:
    return [c / f[0] for c in f]


def charpoly_roots(coeffs) -> list[float]:
    """Real roots (with multiplicity) of a real-rooted polynomial from exact
    coefficients (leading one nonzero), ascending.

    The exact remainder sequence of f and f' with monic members,
    f_{k-1} = (x - a_k) f_k - b_k f_{k+1}, ends in g = gcd(f, f').  f is
    real-rooted exactly when every b_k > 0 and every step lowers the degree
    by one; then f/g is the characteristic polynomial of the symmetric
    tridiagonal matrix with diagonal a_k and off-diagonal sqrt(b_k), whose
    eigenvalues (LAPACK ``eigvalsh``) are the distinct roots.  The roots of
    g are the repeated roots of f, each one time fewer, so the same step on
    g adds them.  A polynomial with a non-real root raises ``ValueError``."""
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


def normalized_laplacian_charpoly_at(js: JoinStructure, lam, complement: bool = False):
    """Characteristic polynomial of the normalized Laplacian of the graph of
    ``js`` (its complement under ``complement``) evaluated at ``lam``:
    det(U(H, (-1, 1-lam, 0, 0))) / prod(deg), by the H-join theorem.

    det U is the product of the block values over the blocks' local
    eigenvalues times det B of the quotient's similar form, which is
    (-1)^t times the constant term of ``charpoly_exact``.  The arithmetic
    is exact: an int or Fraction ``lam`` gives a Fraction, a float ``lam``
    is converted exactly and the value comes back as a float.  Isolated
    vertices are rejected.
    """
    exact = isinstance(lam, (int, Fraction)) and not isinstance(lam, bool)
    x = Fraction(lam)
    order = js.order
    p = UniversalParams(-1, 1 - x, 0, 0)
    if complement:
        p = complement_params(p, order)
    value = Fraction(1)
    denom = 1
    for b in js.blocks:
        deg = b.regularity + b.join_degree
        if complement:
            deg = order - 1 - deg
        if deg == 0:
            raise ValueError("graph has an isolated vertex; det(D) = 0")
        denom *= deg**b.size
        for loc, mult in b.local_eigenvalues():
            value *= (p.alpha * loc + p.beta * (b.regularity + b.join_degree) + p.gamma) ** mult
    value *= (-1) ** len(js.blocks) * charpoly_exact(quotient_matrix(js, p))[-1]
    value /= denom
    return value if exact else float(value)


# ---------------------------------------------------------------------------
# seeded parameter sampling (shared by the CLI battery and the tests)
# ---------------------------------------------------------------------------


def sample_params(rng: np.random.Generator, integer: bool = False) -> UniversalParams:
    """One random quadruple with alpha bounded away from zero."""
    if integer:
        alpha = int(rng.integers(1, 10)) * (1 if rng.integers(0, 2) else -1)
        beta, gamma, eta = (int(v) for v in rng.integers(-9, 10, size=3))
        return UniversalParams(alpha, beta, gamma, eta)
    alpha = float(rng.uniform(0.25, 3.0)) * (1.0 if rng.uniform() < 0.5 else -1.0)
    beta, gamma, eta = (float(v) for v in rng.uniform(-3.0, 3.0, size=3))
    return UniversalParams(alpha, beta, gamma, eta)
