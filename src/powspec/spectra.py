"""Universal adjacency matrices and their spectra.

The universal adjacency matrix of a graph H is

    U(H) = alpha*A(H) + beta*D(H) + gamma*I + eta*J,   alpha != 0,

which specializes to the adjacency, Laplacian, signless Laplacian and
Seidel matrices (and, after a parameter swap, the same matrices of the
complement).  Two independent routes to its spectrum live here:

* the structural route: for a validated join structure, per-block
  difference eigenpairs plus the eigenpairs of a small symmetric
  quotient matrix, lifted to block-constant vectors;
* the brute-force route: LAPACK's dense symmetric eigenvalue solver
  (``eigvalsh``) on U itself.

Everything downstream cross-validates the two against each other.

Exact answers take one determinant path: the characteristic polynomial of
the quotient's rational similar form, found modulo word-size primes and
recombined exactly.  The normalized-Laplacian value is the U determinant
at (-1, 1-X, 0, 0) over the degree product, so it too is block values
times that polynomial's constant term.  The polynomial's roots come from
its exact remainder sequence on integer vectors, which certifies
real-rootedness and multiplicities, through the same LAPACK eigensolver on
a tridiagonal matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isfinite, isqrt, lcm, prod, sqrt
from typing import NamedTuple

import numpy as np

from .groups import LabeledGraph
from .joinstruct import JoinStructure
from .numtheory import primes_below

__all__ = [
    "UniversalParams",
    "UndefinedUniversalMatrixError",
    "PRESETS",
    "Basis",
    "Eigenspace",
    "Spectrum",
    "VerificationReport",
    "universal_matrix",
    "complement_params",
    "quotient_matrix",
    "integer_form",
    "dense_eigen",
    "hjoin_spectrum",
    "verify_eigenpairs",
    "charpoly_exact",
    "charpoly_roots",
    "normalized_laplacian_charpoly_at",
    "multiset_gap",
    "sample_params",
]

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


class Basis:
    """The eigenvectors of one eigenspace, in compact form: ``segments``,
    an ordered list of (kind, data) runs of vectors, as the structural route
    and the closed forms make them.

    * ``(SET, (plus, minus))``: two int arrays of one shape (m, s), s >= 1.
      Vector r is the set difference 1_P - 1_M of the lists P = plus[r] and
      M = minus[r], whose 2s members are distinct vertices.  e_i - e_j is
      the case s = 1.
    * ``(LIFT, (coeffs, block_of))``: a float (m, b) array and an int array
      of shape (dimension,), the block of each vertex.  Vector r is
      block-constant, its entry at vertex v coeffs[r, block_of[v]].  A dense
      row is the lift over one block per vertex, ``block_of`` = 0..N-1
      (``of_rows``).

    The structural route makes its in-clique differences, and those of
    single-vertex cliques, as sets of size 1, the differences of wider
    clique indicators (Q_n's coset cliques) as sets of the clique size and
    its lifted quotient vectors as t block coefficients; the closed forms
    make their in-block differences as sets and the rest as dense rows.  A
    ``Basis`` still reads as a sequence of dense vectors of length
    ``dimension``: ``len``, indexing, iteration and ``np.array``."""

    SET, LIFT = 0, 1

    def __init__(self, dimension: int, segments=()):
        """Empty segments drop.  Raises ``ValueError`` for a segment of
        another kind, of the wrong shape, with a member or block index out
        of range, or with a vertex listed twice in one set difference."""
        self.dimension = dimension
        kept = []
        for kind, (a, b) in segments:
            if kind == self.SET:
                if a.ndim != 2 or a.shape != b.shape or a.shape[1] < 1:
                    raise ValueError("set members need two (m, s) arrays of one shape, s >= 1")
                members = np.sort(np.concatenate([a, b], axis=1), axis=1)
                if len(a) and not (
                    0 <= members[:, 0].min() and members[:, -1].max() < dimension
                ):
                    raise ValueError(f"a set member lies outside the vertices 0..{dimension - 1}")
                if (members[:, 1:] == members[:, :-1]).any():
                    raise ValueError("a vertex is listed twice in one set difference")
            elif kind == self.LIFT:
                if a.ndim != 2 or np.shape(b) != (dimension,) or (
                    len(a) and dimension and not 0 <= b.min() <= b.max() < a.shape[1]
                ):
                    raise ValueError("lift coefficients need one block index per vertex, in range")
            else:
                raise ValueError(f"a basis segment of kind {kind!r}, neither SET nor LIFT")
            if len(a):
                kept.append((kind, (a, b)))
        self.segments = kept

    @classmethod
    def of_rows(cls, rows) -> "Basis":
        """Dense rows, one vector per row: lifts over one block per vertex."""
        rows = np.array(rows, dtype=float) if len(rows) else np.zeros((0, 0))
        if rows.ndim != 2:
            raise ValueError("basis rows must be vectors of one length")
        return cls(rows.shape[1], [(cls.LIFT, (rows, np.arange(rows.shape[1])))])

    def __len__(self) -> int:
        return sum(len(a) for _, (a, _) in self.segments)

    def __getitem__(self, k) -> np.ndarray:
        return self.__array__()[k]

    def __iter__(self):
        return iter(self.__array__())

    def lifted(self) -> np.ndarray:
        """The lifts as dense rows."""
        rows = [c[:, block_of] for kind, (c, block_of) in self.segments if kind == self.LIFT]
        return np.concatenate(rows) if rows else np.zeros((0, self.dimension))

    def __array__(self, dtype=None, copy=None):
        """The dense vectors stacked as rows: O(m N), for readers of the
        dense form; the checks and the emitter read the segments."""
        out = np.zeros((len(self), self.dimension))
        at = 0
        for kind, (a, b) in self.segments:
            rows = out[at : at + len(a)]
            if kind == self.LIFT:
                rows[:] = a[:, b]
            else:
                vec = np.arange(len(a))[:, None]
                rows[vec, a] = 1.0
                rows[vec, b] = -1.0
            at += len(a)
        return out if dtype is None else out.astype(dtype)


class Eigenspace(NamedTuple):
    value: float  # a closed form keeps an int or Fraction value exact
    multiplicity: int
    provenance: str  # "BlockDiff" | "Quotient" | "BlockDiff+Quotient" | closed form
    basis: Basis | None = None  # one vector per multiplicity


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
        values = np.array([e.value for e in self.eigenspaces], dtype=float)
        return np.sort(np.repeat(values, [e.multiplicity for e in self.eigenspaces]))


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


def dense_eigen(m: np.ndarray) -> np.ndarray:
    """The eigenvalues of a symmetric matrix by LAPACK (``eigvalsh``), one
    per multiplicity, ascending, as LAPACK returns them.  The brute-force
    oracle: its readers compare multisets or sums of values, so it groups
    nothing, and eigenvectors come from the structural route and the closed
    forms."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("square matrix required")
    # m against m.T in 256 x 256 tiles, the transposed reads in cache; NaN equals nothing
    step = range(0, len(m), 256)
    if not all(
        np.array_equal(m[i : i + 256, j : j + 256], m[j : j + 256, i : i + 256].T)
        for i in step for j in step if j >= i
    ):
        raise ValueError("dense_eigen requires an exactly symmetric matrix")
    vals = np.linalg.eigvalsh(m) if len(m) else np.zeros(0)  # ascending
    return vals + 0.0  # no -0.0


# ---------------------------------------------------------------------------
# structural route
# ---------------------------------------------------------------------------


# int64 holds every entry and row sum of an integer matrix whose absolute
# row sums stay below this
_INT64_RADIUS = 2**62


def _over_common_denominator(p: UniversalParams) -> tuple[int, UniversalParams]:
    """(d, q) with p = q / d: for rational ``p``, d is the lcm of the four
    denominators and q holds the integer numerators over d; otherwise d = 1
    and q = p.  An expression linear in the parameters, evaluated on q and
    divided by d, is then one int/int division for rational ``p``, which
    rounds correctly, as ``float`` of the rational value does, and the
    expression on ``p`` itself otherwise."""
    if not p.is_rational:
        return 1, p
    values = (p.alpha, p.beta, p.gamma, p.eta)
    d = lcm(*(v.denominator for v in values))
    return d, UniversalParams(*(v.numerator * (d // v.denominator) for v in values))


def _kappa(js: JoinStructure, p: UniversalParams) -> list:
    """kappa_i = alpha*r_i + beta*deg_i + gamma + eta*n_i, the diagonal of
    the quotient, with deg_i the degree of block i's vertices; exact for
    exact ``p``."""
    return [
        p.alpha * (b.clique - 1) + p.beta * deg + p.gamma + p.eta * size
        for b, size, deg in zip(js.blocks, js.sizes, js.degrees)
    ]


def quotient_matrix(js: JoinStructure, p: UniversalParams) -> np.ndarray:
    """The symmetric quotient K of U over the block partition of ``js``:
    kappa_i = alpha*r_i + beta*deg_i + gamma + eta*n_i on the diagonal,
    theta_ij * sqrt(n_i*n_j) off it, with theta_ij = alpha+eta on template
    edges and eta elsewhere.  For rational ``p`` each kappa_i is an integer
    numerator over the common denominator of ``p``, made a float by one
    int/int division: ``float`` of the exact value, bit for bit, without a
    ``Fraction``."""
    d, scaled = _over_common_denominator(p)
    n = np.array(js.sizes, dtype=np.int64)
    sym = np.where(js.adj, float(p.alpha + p.eta), float(p.eta)) * np.sqrt(np.outer(n, n))
    np.fill_diagonal(sym, [k / d for k in _kappa(js, scaled)])
    return sym


def integer_form(js: JoinStructure, p: UniversalParams) -> tuple[np.ndarray, int] | None:
    """The quotient's similar form B = S^-1 K S, S = diag(sqrt n_i)
    (off-diagonal theta_ij * n_j), exactly: (A, d) with A = d*B an integer
    array over the least denominator d, int64 where it fits and Python ints
    otherwise; None for float parameters."""
    if not p.is_rational:
        return None
    d, q = _over_common_denominator(p)
    kappa = _kappa(js, q)
    edge, plain = q.alpha + q.eta, q.eta
    # |kappa_i| plus |theta| times the order bounds every absolute row
    # sum of A: below _INT64_RADIUS, int64 holds A and its row sums
    widest = max(map(abs, kappa), default=0) + max(abs(edge), abs(plain)) * js.order
    dtype = np.int64 if widest < _INT64_RADIUS else object
    a = np.where(js.adj, np.array(edge, dtype), np.array(plain, dtype))
    a = a * np.array(js.sizes, dtype)
    np.fill_diagonal(a, kappa)
    g = gcd(d, int(np.gcd.reduce(a, axis=None)))
    return (a // g, d // g) if g > 1 else (a, d)


def _block_value(p: UniversalParams, degree: int, lam):
    """alpha*lam + beta*degree + gamma: the eigenvalue of U on a vector
    that lives on one block, sums to zero there and is an eigenvector of
    the block's adjacency with eigenvalue ``lam``, where ``degree`` is the
    degree of every vertex of the block; exact for exact ``p`` and
    ``lam``."""
    return p.alpha * lam + p.beta * degree + p.gamma


def hjoin_spectrum(js: JoinStructure, p: UniversalParams, want_vectors: bool = False) -> Spectrum:
    """Spectrum of U over a validated join structure.

    Part one: every block is ``copies`` disjoint cliques of size c, its
    vertices of degree deg (``JoinStructure.degrees``), and each adjacency
    eigenvalue lam of the block orthogonal to its all-ones vector
    (``JoinBlock.local_eigenvalues``) gives alpha*lam + beta*deg + gamma.
    lam = -1 has multiplicity copies*(c-1), with the in-clique difference
    vectors (+1 at a clique's first vertex, -1 at its r-th) as eigenvectors;
    lam = c - 1 has multiplicity copies-1, with the differences of clique
    indicator vectors (first clique minus the r-th).  Part two: the
    eigenpairs of the symmetric quotient matrix, each lifted to a
    block-constant vector scaled by sqrt(n_last / n_block).  The candidate
    values, equal block values as one, are sorted once as parallel arrays
    and cut into eigenspaces where the enclosures of two neighbours do not
    overlap: a and b merge when b - a <= r_a + r_b.  A quotient value's
    radius is 4 t eps ||K||_inf, the backward error of ``eigh`` on the
    quotient K carried over by Weyl's inequality; a block value's is its
    float rounding, 4 eps (|alpha| max clique + |beta| max degree +
    |gamma|).  A space of one candidate takes its value, a merged space
    the multiplicity-weighted mean of its candidates.  For rational ``p``
    the block values and the quotient diagonal are integer numerators over
    the common denominator of ``p``, each made a float by one int/int
    division: ``float`` of the exact value, bit for bit, without a
    ``Fraction``.

    Under ``want_vectors`` each eigenspace carries a compact ``Basis``,
    its vectors in the order their candidate values sort: the in-clique
    differences as sets of size 1, the clique-indicator differences as sets
    of the clique size (a pair when the cliques are single vertices) and
    the lifted vectors as t block coefficients.  Nothing of size N is made
    per vector.  Block members are vertex positions of the underlying graph
    (element positions, see ``groups``), so the eigenvectors pair directly
    with ``universal_matrix`` of that graph.
    """
    blocks, sizes, total = js.blocks, js.sizes, js.order
    d, scaled = _over_common_denominator(p)

    # part 1, keyed by the float of the exact value: (block, lam, mult) parts
    parts: dict[float, list] = {}
    for i, (b, degree) in enumerate(zip(blocks, js.degrees)):
        for lam, mult in b.local_eigenvalues():
            if mult:
                value = float(_block_value(scaled, degree, lam) / d)
                parts.setdefault(value, []).append((i, lam, mult))
    sym = quotient_matrix(js, p)
    qvals, qvecs = np.linalg.eigh(sym)
    alpha, beta, gamma, _ = (abs(v) for v in p.as_floats())
    eps = np.finfo(float).eps
    block_radius = 4 * eps * (alpha * max(b.clique for b in blocks) + beta * max(js.degrees) + gamma)
    quotient_radius = 4 * len(qvals) * eps * float(np.abs(sym).sum(axis=1).max())

    # the candidates: block values, then quotient values k = index - len(parts)
    values = np.concatenate([list(parts), qvals])
    mults = np.array([sum(m for *_, m in ps) for ps in parts.values()] + [1] * len(qvals))
    radii = np.repeat([block_radius, quotient_radius], [len(parts), len(qvals)])
    order = np.argsort(values, kind="stable")
    values, mults, radii = values[order], mults[order], radii[order]
    lo = [0, *(np.flatnonzero(np.diff(values) > radii[:-1] + radii[1:]) + 1).tolist()]
    starts = lo + [len(values)]
    total_mult = np.add.reduceat(mults, lo).tolist()
    with np.errstate(over="ignore"):  # as silent as Python floats
        weighted = (values * mults).tolist()
    single = (values + 0.0).tolist()
    space_values = [
        single[a] if b - a == 1 else sum(weighted[a:b]) / m + 0.0
        for a, b, m in zip(lo, starts[1:], total_mult)
    ]
    block = order < len(parts)  # 1, 2 or 3: block values, quotient values or both
    provenance = (np.logical_or.reduceat(block, lo) + 2 * np.logical_or.reduceat(~block, lo)).tolist()

    if want_vectors:
        sources = [*parts.values(), *range(len(qvals))]
        # row k is quotient vector k, nu_l * sqrt(n_last / n_l) on block l
        weights = np.array([sqrt(sizes[-1] / size) for size in sizes])
        coeffs = (qvecs * weights[:, None]).T
        block_of = np.empty(total, dtype=np.int64)
        for l, b in enumerate(blocks):
            block_of[b.members] = l

    def segments(source):
        """(kind, data) segments of the basis vectors of a candidate: its
        block parts, or the index of its quotient eigenvector."""
        if isinstance(source, int):
            return [(Basis.LIFT, (coeffs[source : source + 1], block_of))]
        out = []
        for i, lam, _ in source:
            cliques = blocks[i].members.reshape(-1, blocks[i].clique)
            if lam == -1:  # in-clique differences: a clique's first vertex minus its r-th
                size = cliques.shape[1]
                plus, minus = np.repeat(cliques[:, :1], size - 1, axis=0), cliques[:, 1:].reshape(-1, 1)
            else:  # differences of clique indicators: the first clique minus the r-th
                plus, minus = np.repeat(cliques[:1], len(cliques) - 1, axis=0), cliques[1:]
            out.append((Basis.SET, (plus, minus)))
        return out

    names = (None, "BlockDiff", "Quotient", "BlockDiff+Quotient")
    spaces = []
    for g in sorted(range(len(space_values)), key=lambda g: -space_values[g]):
        basis = None
        if want_vectors:
            group = order[starts[g] : starts[g + 1]].tolist()
            basis = Basis(total, [seg for c in group for seg in segments(sources[c])])
        spaces.append(Eigenspace(space_values[g], total_mult[g], names[provenance[g]], basis))
    return Spectrum(tuple(spaces), total)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple  # (value, multiplicity, max_residual, bound)
    max_residual: float
    passed: bool
    scale: float  # max(1, ||U||_inf), the factor of every bound


# A basis counts as independent when the Cholesky factor of the Gram matrix
# of its max-normalised vectors has every pivot above this.
RANK_PIVOT_MIN = 1e-6


def _full_rank(vecs, multiplicity: int) -> bool:
    """Whether the nonzero ``vecs`` are ``multiplicity`` independent vectors."""
    if len(vecs) != multiplicity:
        return False
    x = np.ascontiguousarray(np.asarray(vecs, dtype=float).T)
    x = x / np.max(np.abs(x), axis=0)
    try:
        pivots = np.diag(np.linalg.cholesky(x.T @ x))
    except np.linalg.LinAlgError:
        return False
    return bool(np.min(pivots) > RANK_PIVOT_MIN)


def _set_residuals(
    u: np.ndarray, plus: np.ndarray, minus: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """||U x - lambda x||_inf of each set difference x = 1_P - 1_M, row r
    of the (m, s) arrays ``plus`` and ``minus`` with value ``values[r]``.
    U x is gathered from columns: the sum of U[:, p] over P, left to right,
    minus that over M.  For a finite U and sets of size 1 that is U x bit
    for bit, since every other term of U x is an exact zero; wider sets
    differ from a dot product in rounding only.  lambda x is then taken off
    on the coordinates x touches: -lambda on P and +lambda on M, its
    members being distinct.  The columns go in blocks of 128 KB."""
    size = plus.shape[1]
    res = np.empty(len(plus))
    step = max(1, 16384 // max(1, len(u) * size))
    for lo in range(0, len(plus), step):
        p, m = plus[lo : lo + step], minus[lo : lo + step]
        r, q = u[:, p[:, 0]], u[:, m[:, 0]]
        for j in range(1, size):
            r += u[:, p[:, j]]
            q += u[:, m[:, j]]
        r -= q
        lam, col = values[lo : lo + step], np.arange(r.shape[1])
        for j in range(size):
            r[p[:, j], col] -= lam
            r[m[:, j], col] += lam
        res[lo : lo + step] = np.max(np.abs(r), axis=0)
    return res


def _lone_coordinates(sets: list, dimension: int) -> np.ndarray:
    """For each vector of the set segments ``sets``, (owner, plus, minus)
    triples in order, whether one of its members is a coordinate that no
    other member of a vector of the same owner touches."""
    if not sets:
        return np.zeros(0, dtype=bool)
    keys = [k * dimension + np.concatenate([p, m], axis=1) for k, p, m in sets]
    _, inverse, counts = np.unique(
        np.concatenate([key.ravel() for key in keys]), return_inverse=True, return_counts=True
    )
    single = counts[inverse] == 1
    ends = np.cumsum([key.size for key in keys]).tolist()
    return np.concatenate([
        single[end - key.size : end].reshape(key.shape).any(axis=1) for key, end in zip(keys, ends)
    ])


def _block_balanced(basis: Basis) -> bool:
    """Whether every set difference of ``basis`` has as many members of P
    as of M in each block of every lift segment's block map: then it sums
    to zero on every block, and so is exactly orthogonal to every
    block-constant vector."""
    sets = [data for kind, data in basis.segments if kind == Basis.SET]
    maps = {id(b): b for kind, (_, b) in basis.segments if kind == Basis.LIFT}
    return all(
        np.array_equal(np.sort(block_of[plus], axis=1), np.sort(block_of[minus], axis=1))
        for block_of in maps.values()
        for plus, minus in sets
    )


def _independent(basis: Basis, multiplicity: int, lone: np.ndarray) -> bool:
    """The verdict of ``_full_rank`` on a basis of finite nonzero vectors,
    given ``_lone_coordinates`` of its sets.  A single vector, and sets
    that each have a coordinate of their own, pass without a Cholesky
    factor: that coordinate (a single vector's largest) keeps each
    max-normalised vector at distance at least 1/s from the span of the
    others, s its set size (1 for a single vector), so every pivot would
    be at least that, far above ``RANK_PIVOT_MIN``.  Beside such sets,
    lifts that ``_block_balanced`` proves orthogonal to them take the
    Cholesky test alone, a single lift none.  Any other basis runs
    ``_full_rank`` on all its vectors.  A dense row, the lift over one
    block per vertex, leaves every nonzero set difference unbalanced, so a
    basis that mixes dense rows with sets takes the full test."""
    if len(basis) != multiplicity:
        return False
    if len(basis) == 1:
        return True
    if not lone.all():
        return _full_rank(basis, multiplicity)
    lifts = multiplicity - len(lone)
    if lifts and len(lone) and not _block_balanced(basis):
        return _full_rank(basis, multiplicity)
    return lifts < 2 or _full_rank(basis.lifted(), lifts)


def verify_eigenpairs(u: np.ndarray, s: Spectrum, tol: float = 1e-8) -> VerificationReport:
    """Residual check ||U x - lambda x||_inf <= tol * max(1, ||U||_inf) * ||x||_inf
    for every eigenpair carried by ``s``.  A zero or non-finite vector
    fails, a U with a NaN or infinite entry fails, and so does an
    eigenspace whose basis has rank below its multiplicity.

    The work follows the basis segments: the set segments of all
    eigenspaces are gathered by set size, each size going through
    ``_set_residuals`` at O(N s) per vector, and each lift (a dense row
    among them), expanded to its N entries, takes one product U x.  The
    rank test of an eigenspace is ``_independent``: O(m) for m sets that
    each have a coordinate of their own, a Cholesky factor of the Gram
    matrix of its lifts alone where its sets are also exactly orthogonal to
    them, and of all its vectors only where neither holds."""
    u = np.asarray(u, dtype=float)
    if u.shape != (s.dimension, s.dimension):
        raise ValueError(
            f"matrix is {u.shape}, spectrum lives in dimension {s.dimension}"
        )
    norm = float(np.max(np.abs(u).sum(axis=1))) if u.size else 0.0
    scale = max(1.0, norm)
    spaces = s.eigenspaces
    if any(e.basis is None for e in spaces):
        raise ValueError("spectrum carries no eigenvector bases")
    values = [float(e.value) for e in spaces]
    # the set segments of every eigenspace, in order, with the index of their eigenspace
    sets = [
        (k, *data) for k, e in enumerate(spaces) for kind, data in e.basis.segments if kind == Basis.SET
    ]
    lone = _lone_coordinates(sets, s.dimension)
    residual, size, owner = [np.zeros(0)], [np.zeros(0)], [np.zeros(0, dtype=np.int64)]
    for width in sorted({p.shape[1] for _, p, _ in sets}):
        same = [(k, p, m) for k, p, m in sets if p.shape[1] == width]
        of = np.concatenate([np.full(len(p), k) for k, p, _ in same])
        plus = np.concatenate([p for _, p, _ in same])
        minus = np.concatenate([m for _, _, m in same])
        residual.append(_set_residuals(u, plus, minus, np.array(values)[of]))
        size.append(np.ones(len(of)))  # distinct members: every entry is 0 or +-1
        owner.append(of)
    # then the lifts of every eigenspace, one product U x each
    for k, (e, value) in enumerate(zip(spaces, values)):
        dense = e.basis.lifted()
        if len(dense):
            residual.append(np.array([np.max(np.abs(u @ x - value * x)) for x in dense]))
            size.append(np.max(np.abs(dense), axis=1))
            owner.append(np.full(len(dense), k))
    residual, size, owner = (np.concatenate(a) for a in (residual, size, owner))
    limit = tol * scale * size
    # a NaN residual fails, and so does a zero or non-finite vector
    passed = (isfinite(norm) or bool(np.isfinite(u).all())) and bool(
        np.all(residual <= limit) and np.all((size > 0.0) & (size < np.inf))
    )
    # the largest residual and bound of each eigenspace, 0 for one without vectors
    res, bound = np.zeros(len(spaces)), np.zeros(len(spaces))
    with np.errstate(invalid="ignore"):  # a NaN carries over, as the check above failed it
        np.maximum.at(res, owner, residual)
        np.maximum.at(bound, owner, limit)

    rows = []
    worst = 0.0
    start = 0
    for e, value, r, b in zip(spaces, values, res.tolist(), bound.tolist()):
        rows.append((value, e.multiplicity, r, b))
        worst = max(worst, r)
        count = sum(len(data[0]) for kind, data in e.basis.segments if kind == Basis.SET)
        # skipped once failed: a zero vector would divide by 0
        if passed and not _independent(e.basis, e.multiplicity, lone[start : start + count]):
            passed = False
        start += count
    return VerificationReport(tuple(rows), worst, passed, scale)


# ---------------------------------------------------------------------------
# exact characteristic polynomials and determinants
# ---------------------------------------------------------------------------


# A float64 product of two matrices with entries in [0, p) and [0, 2p) is
# exact while every sum t*p*2p stays below 2**53: p*p < 2**52 / t.
_FLOAT_EXACT = 2**52


def _charpoly_primes(t: int, bound: int) -> list[int]:
    """The fewest primes whose product exceeds 2*bound, each above t and
    with t*p*2p < 2**53.  t is rounded up to a power of two, so a few
    prime lists serve every dimension."""
    limit = isqrt((_FLOAT_EXACT - 1) // (1 << (t - 1).bit_length())) + 1
    primes, product = [], 1
    for p in primes_below(limit):
        if product > 2 * bound or p <= t:
            break
        primes.append(p)
        product *= p
    if product <= 2 * bound:
        raise ValueError(f"too few primes above t = {t} for the bound {bound}")
    return primes


def charpoly_exact(js: JoinStructure, p: UniversalParams) -> list[Fraction]:
    """Monic characteristic polynomial det(lambda*I - B) of the similar form,
    in exact arithmetic.  Coefficients descend from lambda^t; identical to
    the polynomial of the symmetric form by similarity.

    The quotient's ``integer_form`` A = d*B, d the lcm of the denominators
    of B, has the integer coefficients c_k of det(lambda*I - A), and the
    k-th coefficient of B is c_k / d^k.  Every eigenvalue of A lies within
    R, the largest absolute row sum of A (Gershgorin), so
    |c_k| <= C(t, k) * R^k.  The c_k are found modulo primes p whose
    product exceeds twice that bound, and recombined by the Chinese
    remainder theorem into symmetric residues, which are then the c_k.

    A is reduced modulo all primes at once: one int64 ``%`` while
    R < 2**62, as for one-digit parameters over small denominators at
    t = 240, and on Python ints only for wider entries.  Modulo p the
    Faddeev-LeVerrier recurrence M <- A (M + c_k I), c_k = -tr(M) / k,
    needs k invertible, so every p > t.  It runs for all primes at once,
    one stacked float64 matmul per k, whose products are reduced in
    float64 to symmetric residues, at most (p+1)/2 in absolute value:
    entries in [0, p) times entries below 2p in absolute value sum exactly
    while t*p*2p < 2**53, which fixes the size of p from t.  On a 2-core
    x86 host with one BLAS thread this takes about 1.9 ms at t = 24 and
    0.09 s at t = 60, for parameters of one-digit numerators."""
    form = integer_form(js, p)
    if form is None:
        raise TypeError("charpoly_exact needs rational parameters (int or Fraction)")
    a, d = form
    t = len(a)
    radius = int(np.abs(a).sum(axis=1).max(initial=0))
    bound = max(comb(t, k) * radius**k for k in range(t + 1))
    primes = _charpoly_primes(t, bound)
    mod = np.array(primes, dtype=np.int64)
    mod3 = mod[:, None, None]
    if radius < _INT64_RADIUS:
        a_mod = a.astype(np.int64) % mod3
    else:  # entries of A wider than int64: reduced as Python ints
        a_mod = a[None] % np.array(primes, dtype=object)[:, None, None]
    a_float = a_mod.astype(float)
    # inv[k] = k^-1 mod p, from p = (p // k) * k + p % k
    inv = np.ones((t + 1, len(primes)), dtype=np.int64)
    for k in range(2, t + 1):
        inv[k] = (mod - mod // k) * inv[mod % k, np.arange(len(primes))] % mod
    residues = np.zeros((t + 1, len(primes)), dtype=np.int64)
    residues[0] = 1
    mod_float = mod3.astype(float)
    inv_mod = 1.0 / mod_float
    # m and two buffers of its shape, reused: fresh temporaries of a few MB
    # at t = 60 cost more than the arithmetic
    m, step, multiple = a_float.copy(), np.empty_like(a_float), np.empty_like(a_float)
    diag = np.arange(t)
    for k in range(1, t + 1):
        trace = m.trace(axis1=1, axis2=2).astype(np.int64)
        ck = (mod - trace % mod) * inv[k] % mod
        residues[k] = ck
        if k < t:
            m[:, diag, diag] += ck[:, None]
            np.matmul(a_float, m, out=step)
            # step minus its nearest multiple of p, exact: that multiple,
            # give or take one p, stays below 2**53 as step does
            np.multiply(step, inv_mod, out=multiple)
            np.rint(multiple, out=multiple)
            multiple *= mod_float
            step -= multiple
            m, step = step, m
    product = prod(primes)
    weights = [(product // p) * pow(product // p, -1, p) for p in primes]
    coeffs = []
    for k, row in enumerate(residues.tolist()):
        c = sum(r * w for r, w in zip(row, weights)) % product
        if 2 * c > product:
            c -= product
        coeffs.append(Fraction(c, d**k))
    return coeffs


def _primitive(f: list[int]) -> list[int]:
    g = gcd(*f)
    return [c // g for c in f]


def _truncated(f: list[int], bits: int) -> list[int]:
    """f shifted right until its largest coefficient has ``bits`` bits."""
    shift = max(map(abs, f)).bit_length() - bits
    return [c >> shift for c in f] if shift > 0 else f


def _jacobi_matrices(f: list[int], bits: int | None = None) -> list[np.ndarray] | None:
    """The tridiagonal matrices of the remainder sequence of f and f' with
    monic members, f_{k-1} = (x - a_k) f_k - b_k f_{k+1}: diagonal a_k and
    off-diagonal sqrt(b_k), one matrix for f, then one for g = gcd(f, f'),
    one for gcd(g, g') and so on.

    P and C, multiples of f_{k-1} and f_k, give the pseudo-remainder
    C_0^2 P - (C_0 P_0 x + C_0 P_1 - P_0 C_1) C = -C_0^2 P_0 b_k f_{k+1}.
    The multiples cancel from a_k = C_1/C_0 - P_1/P_0 and from b_k, read
    off the leading coefficients, so these are the rationals of the monic
    sequence; each becomes a float as one correctly rounded quotient of
    integers, as ``float`` of the rational is.  Each pseudo-remainder is
    divided by its content, and a b_k <= 0 (b_k = 0: the degree fell by
    more than one) means a non-real root and raises ``ValueError``.

    Under ``bits`` each member is instead shifted right to keep that many
    bits (``_truncated``).  A scale cancels from a_k and b_k, so they stay
    near the exact ones while the integers stay that wide; the one matrix
    of f comes back, or None where the rounding leaves a zero leading
    coefficient, a b_k <= 0 or a sequence shorter than deg f."""
    reduce = _primitive if bits is None else lambda g: _truncated(g, bits)
    matrices = []
    while len(f) > 1:
        n = len(f) - 1
        prev, cur = f, reduce([c * (n - i) for i, c in enumerate(f[:-1])])
        diag, off = [], []
        while True:
            p0, p1 = prev[0], prev[1]
            c0, c1 = cur[0], (cur[1] if len(cur) > 1 else 0)
            diag.append((c1 * p0 - p1 * c0) / (c0 * p0))  # a_k
            # c0^2 prev - (c0 p0 x + c0 p1 - p0 c1) cur, past its two leading
            # terms, which cancel
            u, v, w = c0 * c0, c0 * p0, c0 * p1 - p0 * c1
            r = [u * p - v * c - w * e for p, c, e in zip(prev[2:], cur[2:] + [0], cur[1:])]
            if not any(r):
                break
            reduced = reduce(r)
            # b_k = -r_0 / (c0^2 p0); the reduced r_0 has the sign of r_0
            # unless truncation made it zero
            if reduced[0] * p0 >= 0:
                if bits is None:
                    raise ValueError("polynomial has non-real roots")
                return None
            off.append(sqrt(-r[0] / (u * p0)))
            prev, cur = cur, reduced
        if bits is not None and len(cur) > 1:
            return None
        matrices.append(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
        f = cur
    return matrices


# The largest prime below 2**15: residues and their products fit one 30-bit
# digit of a Python int.
_SQUAREFREE_PRIME = 32749


def _repeated_mod_prime(f: list[int]) -> bool:
    """Whether the remainder sequence of f and f' taken modulo the prime
    p = ``_SQUAREFREE_PRIME`` ends in zero before it reaches a constant.
    It does for every f with a repeated root whose sequence keeps its
    leading coefficients nonzero modulo p, and for a squarefree f only
    when p divides a whole remainder: a cheap guess that picks the
    sequence to run first, never a proof."""
    p, n = _SQUAREFREE_PRIME, len(f) - 1
    prev, cur = [c % p for c in f], [c * (n - i) % p for i, c in enumerate(f[:-1])]
    while len(cur) > 1 and cur[0]:
        p0, p1, c0, c1 = prev[0], prev[1], cur[0], cur[1]
        u, v, w = c0 * c0 % p, c0 * p0 % p, (c0 * p1 - p0 * c1) % p
        r = [(u * a - v * b - w * e) % p for a, b, e in zip(prev[2:], cur[2:] + [0], cur[1:])]
        if not any(r):
            return True
        prev, cur = cur, r
    return False


def _sign_at(f: list[int], x: float) -> int:
    """The sign of f at the float x, exactly: x = m / 2^s, and integer
    Horner gives f(x) * 2^(s deg f)."""
    m, d = x.as_integer_ratio()
    s = d.bit_length() - 1
    value = 0
    for k, c in enumerate(f):
        value = value * m + (c << (s * k))
    return (value > 0) - (value < 0)


def _isolated(f: list[int], x: list[float], radius: float) -> bool:
    """Whether the closed intervals [x_i - radius, x_i + radius], x
    ascending with one entry per degree of f, are finite and pairwise
    disjoint and f changes sign strictly across each one.  Then each holds
    a root of f (intermediate values), and as there are deg f intervals,
    exactly one: every root of f is real and simple and lies in the
    interval of its x_i."""
    lo = [v - radius for v in x]
    hi = [v + radius for v in x]
    return (
        len(x) == len(f) - 1
        and all(map(isfinite, lo + hi))
        and all(a < b for a, b in zip(hi, lo[1:]))
        and all(_sign_at(f, a) * _sign_at(f, b) < 0 for a, b in zip(lo, hi))
    )


def _primitive_form(coeffs) -> list[int]:
    """The primitive integer multiple of a polynomial with exact
    coefficients; a zero leading coefficient raises ``ValueError``.  Ints
    and Fractions are read as they are, anything else through
    ``Fraction``."""
    f = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
    if not f or f[0] == 0:
        raise ValueError("the leading coefficient must be nonzero")
    d = lcm(*(c.denominator for c in f))
    return _primitive([c.numerator * (d // c.denominator) for c in f])


def _certified_roots(f: list[int]) -> tuple[list[float], float] | None:
    """The roots of the primitive integer polynomial f from its remainder
    sequence at working precision, ascending, and their radius, once
    ``_isolated`` proves them; None where that sequence or the proof fails,
    or where f likely has a repeated root.  Never raises."""
    if _repeated_mod_prime(f):
        return None
    try:
        fast = _jacobi_matrices(f, 2 * max(map(abs, f)).bit_length() + 64)
    except OverflowError:  # an entry of J beyond the float range
        return None
    if not fast:
        return None
    (jacobi,) = fast
    roots = np.linalg.eigvalsh(jacobi).tolist()
    radius = 4 * len(roots) * np.finfo(float).eps * float(np.abs(jacobi).sum(axis=1).max())
    return (roots, radius) if _isolated(f, roots, radius) else None


def charpoly_roots(coeffs) -> list[float]:
    """Real roots (with multiplicity) of a real-rooted polynomial from exact
    coefficients, ascending.  A zero leading coefficient raises
    ``ValueError``, as does a non-real root.

    f is real-rooted exactly when every b_k of its remainder sequence with
    f' is positive and every step lowers the degree by one, down to
    g = gcd(f, f') (``_jacobi_matrices``).  Then f/g has the eigenvalues
    of the tridiagonal matrix J of that sequence as its distinct roots,
    and the roots of g, the repeated roots of f each one time fewer, come
    from the same step on g.  The roots are the LAPACK eigenvalues
    (``eigvalsh``) of these matrices.

    Working precision first.  The sequence runs with every member shifted
    to 2 bits(F) + 64 bits, F the primitive integer form of f, where the
    exact members grow to thousands of bits.  Its matrix J gives
    x_1 < ... < x_t, and the radius delta = 4 t eps ||J||_inf bounds the
    backward error of ``eigvalsh``, as for ``hjoin_spectrum``'s quotient
    values.  The x_i are proven roots when the intervals
    [x_i - delta, x_i + delta] are pairwise disjoint and F changes sign
    strictly across each one, F evaluated exactly at their float
    endpoints, which are dyadic rationals: each interval then holds one of
    the t roots, so every root is real and simple and lies in the
    interval of its x_i.

    The exact sequence, each member divided by its content, runs where
    that proof fails or has nothing to prove: for repeated roots, for
    roots closer than about 2 delta and for non-real ones.  A sequence
    modulo a prime (``_repeated_mod_prime``) spots most repeated roots
    first, so those skip the working-precision attempt."""
    f = _primitive_form(coeffs)
    certified = _certified_roots(f)
    if certified:
        return certified[0]
    roots = [x for m in _jacobi_matrices(f) for x in np.linalg.eigvalsh(m).tolist()]
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
    d, scaled = _over_common_denominator(p)
    num, count, denom = (-1) ** len(js.blocks), 0, 1
    for b, deg in zip(js.blocks, js.degrees):
        for loc, mult in b.local_eigenvalues():
            num *= _block_value(scaled, deg, loc) ** mult  # d times the block value
            count += mult
        if complement:
            deg = order - 1 - deg
        if deg == 0:
            raise ValueError("graph has an isolated vertex; det(D) = 0")
        denom *= deg**b.size
    det_b = charpoly_exact(js, p)[-1]
    value = Fraction(num * det_b.numerator, d**count * denom * det_b.denominator)
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
