"""Closed-form spectra for the special families where every eigenvalue has
an explicit expression.

These evaluators are deliberately independent of the join engine: block
memberships and quotient entries are written out from the formulas, so
they serve as a third leg of cross-validation next to the structural
route and the dense eigensolver.  Each evaluator refuses inputs outside
its hypotheses instead of extrapolating.  A spectrum comes back as a
``Spectrum`` of ``Eigenspace`` values whose provenance names the closed
form; int and Fraction parameters keep the values exact where the formula
is rational.  Eigenvectors come as the structural route's compact
``Basis``, made of its two kinds of segment: in-block differences as sets
of size 1 (e_i - e_j), indicator, bipartite and lifted vectors as dense
rows, each a lift over one block per vertex, so nothing of size N is made
per difference.
"""

from __future__ import annotations

from math import gcd, sqrt

import numpy as np

from .numtheory import is_prime, totient
from .spectra import Basis, Eigenspace, Spectrum, UniversalParams, dense_eigen

__all__ = [
    "cyclic_prime_power_spectrum",
    "cyclic_two_prime_quotient",
    "cyclic_two_prime_case2_charpoly",
    "cyclic_two_prime_complement_eta0",
    "dihedral_prime_power_proper",
    "dicyclic_repeated_eigenvalue",
    "quaternion8_complement_spectrum",
]


def _merged(total: int, provenance: str, entries) -> Spectrum:
    """The spectrum of (value, multiplicity, segments) entries in dimension
    ``total``: exactly-equal values merge, their basis segments joined in
    entry order into one ``Basis``, and zero multiplicities drop.  A
    values-only form passes ``None`` for segments."""
    merged: dict[float, list] = {}
    for value, multiplicity, segments in entries:
        if multiplicity == 0:
            continue
        hit = merged.setdefault(float(value), [value, 0, []])
        hit[1] += multiplicity
        hit[2] = None if hit[2] is None or segments is None else hit[2] + segments
    spaces = [
        Eigenspace(
            value,
            multiplicity,
            provenance,
            None if segments is None else Basis(total, segments),
        )
        for value, multiplicity, segments in merged.values()
    ]
    spaces.sort(key=lambda e: -float(e.value))
    return Spectrum(tuple(spaces), total)


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _diffs(support) -> tuple:
    """The in-block differences e_{support[0]} - e_s for each later s, as
    one segment of sets of size 1."""
    support = np.asarray(support, dtype=np.int64).reshape(-1, 1)
    return Basis.SET, (np.repeat(support[:1], len(support) - 1, axis=0), support[1:])


def _rows(*vectors) -> tuple:
    """Dense vectors as one segment of lifts over one block per vertex."""
    rows = np.array(vectors, dtype=float)
    return Basis.LIFT, (rows, np.arange(rows.shape[1]))


def _indicator(total: int, support: list[int], value: float = 1.0):
    x = np.zeros(total)
    x[support] = value
    return x


# ---------------------------------------------------------------------------
# cyclic groups
# ---------------------------------------------------------------------------


def cyclic_prime_power_spectrum(p: int, r: int, params: UniversalParams) -> Spectrum:
    """Full spectrum of U over the power graph of Z_{p^r} (a complete graph):
    one simple eigenvalue on the all-ones vector and one of multiplicity
    p^r - 1 on the difference vectors."""
    _require_prime(p)
    if r < 1:
        raise ValueError("exponent must be at least 1")
    n = p**r
    a, b, g, e = params.alpha, params.beta, params.gamma, params.eta
    top = a * (n - 1) + b * (n - 1) + e * n + g
    rest = -a + b * (n - 1) + g
    entries = [
        (top, 1, [_rows(np.ones(n))]),
        (rest, n - 1, [_diffs(range(n))]),
    ]
    return _merged(n, "prime-power", entries)


def _two_prime_blocks(p: int, q: int):
    """Block data for Z_{pq} in the order (pq, 1, q, p): sizes, join degrees,
    and the one non-adjacent pair (q, p)."""
    n = p * q
    sizes = (1, totient(n), totient(p), totient(q))
    rho = (
        n - 1,
        1 + totient(p) + totient(q),
        1 + totient(n),
        1 + totient(n),
    )
    edges = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)}
    return sizes, rho, edges


def _two_prime_quotient_matrix(p: int, q: int, params: UniversalParams) -> np.ndarray:
    a, b, g, e = params.alpha, params.beta, params.gamma, params.eta
    sizes, rho, edges = _two_prime_blocks(p, q)
    k = np.zeros((4, 4))
    for i in range(4):
        k[i, i] = float(a * (sizes[i] - 1) + b * (sizes[i] - 1 + rho[i]) + g + e * sizes[i])
        for j in range(i + 1, 4):
            theta = a + e if (i, j) in edges else e
            k[i, j] = k[j, i] = float(theta) * sqrt(sizes[i] * sizes[j])
    return k


def cyclic_two_prime_quotient(p: int, q: int, params: UniversalParams) -> Spectrum:
    """The four quotient eigenvalues of U over the power graph of Z_{pq},
    p != q prime.

    alpha + eta = 0 with eta != 0 splits the quotient into two fixed values
    beta*(pq-1) + gamma + eta plus an explicit radical pair; otherwise the
    stated 4x4 quotient matrix is built and solved.  alpha + eta = 0 with
    eta = 0 would force alpha = 0, which ``UniversalParams`` already rejects
    as an undefined universal matrix.
    """
    _require_prime(p)
    _require_prime(q)
    if p == q:
        raise ValueError("needs two distinct primes")
    a, b, g, e = params.alpha, params.beta, params.gamma, params.eta
    n = p * q
    if a + e == 0 and e != 0:
        lam12 = b * (n - 1) + g + e
        mean = b * (2 * n - p - q) + 2 * (e + g)
        rad = sqrt(float(b * b * (p - q) ** 2 + 4 * e * e * (p - 1) * (q - 1)))
        lam3 = (mean + rad) / 2
        lam4 = (mean - rad) / 2
        entries = [(lam12, 2, None), (lam3, 1, None), (lam4, 1, None)]
        return _merged(4, "two-prime-quotient-case1", entries)
    source = "two-prime-quotient-case2" if e == 0 else "two-prime-quotient-case4"
    values = dense_eigen(_two_prime_quotient_matrix(p, q, params)).tolist()
    return _merged(4, source, [(v, 1, None) for v in values])


def cyclic_two_prime_case2_charpoly(p: int, q: int, params: UniversalParams, lam):
    """det(K - lambda*I) for the eta = 0 quotient of Z_{pq}, as the scaled
    product-sum expression obtained by factoring sqrt(block size) out of
    every row and column:

        phi(1) phi(pq) phi(p) phi(q) * [ a1 a2 a3 a4
            - alpha^2 (a1 a3 + a1 a4 + a2 a3 + a2 a4 + a3 a4)
            + 2 alpha^3 (a3 + a4) ]

    with a_i = (kappa_ii - lambda) / n_i in the block order (pq, 1, q, p).
    Exact inputs give an exact value.  It evaluates a determinant rather
    than giving a spectrum, so it has no row among the CLI's closed-form
    checks; the tests compare it with ``charpoly_exact`` of the quotient.
    """
    _require_prime(p)
    _require_prime(q)
    if p == q:
        raise ValueError("needs two distinct primes")
    if params.eta != 0:
        raise ValueError("this form needs eta = 0")
    a, b, g = params.alpha, params.beta, params.gamma
    sizes, rho, _ = _two_prime_blocks(p, q)
    kappa = [
        a * (sizes[i] - 1) + b * (sizes[i] - 1 + rho[i]) + g for i in range(4)
    ]
    av = [(kappa[i] - lam) / sizes[i] for i in range(4)]
    a1, a2, a3, a4 = av
    body = (
        a1 * a2 * a3 * a4
        - a * a * (a1 * a3 + a1 * a4 + a2 * a3 + a2 * a4 + a3 * a4)
        + 2 * a**3 * (a3 + a4)
    )
    return sizes[0] * sizes[1] * sizes[2] * sizes[3] * body


def _two_prime_members(p: int, q: int):
    """Vertex index lists of the four blocks of Z_{pq} in natural vertex
    order 0..pq-1, keyed by the block order (pq, 1, q, p)."""
    n = p * q
    by_d: dict[int, list[int]] = {}
    for x in range(n):
        by_d.setdefault(gcd(x, n) if x else n, []).append(x)
    return [by_d[n], by_d[1], by_d[q], by_d[p]]


def cyclic_two_prime_complement_eta0(
    p: int, q: int, params: UniversalParams
) -> Spectrum:
    """Full spectrum of U (eta = 0) over the complement of the power graph
    of Z_{pq}.

    The complement is a complete bipartite graph between the gcd-q block
    (p-1 vertices of degree q-1) and the gcd-p block, plus pq-p-q+2
    isolated vertices, which yields gamma with multiplicity phi(pq)+1,
    beta(q-1)+gamma and beta(p-1)+gamma on the in-block differences, and an
    explicit radical pair on the bipartite part.

    The adjacency spectrum of the complement is the case (alpha, beta,
    gamma, eta) = (1, 0, 0, 0): 0 with multiplicity pq-2 and the pair
    +-sqrt((p-1)(q-1)).
    """
    _require_prime(p)
    _require_prime(q)
    if p == q:
        raise ValueError("needs two distinct primes")
    if params.eta != 0:
        raise ValueError("this form needs eta = 0")
    a, b, g = params.alpha, params.beta, params.gamma
    n = p * q
    zero_block, gens, q_block, p_block = _two_prime_members(p, q)

    gamma_basis = [
        _diffs(gens),
        _rows(_indicator(n, zero_block, sqrt(q - 1)), _indicator(n, gens, 1.0 / sqrt(p - 1))),
    ]

    rad = sqrt(float(b * b * (p - q) ** 2 + 4 * a * a * (p - 1) * (q - 1)))
    mean = b * (p + q - 2) + 2 * g
    lam_plus = (mean + rad) / 2
    lam_minus = (mean - rad) / 2

    def bipartite_vector(denom_sign: float):
        x = _indicator(
            n, q_block, 2 * float(a) * (q - 1) / (float(b * (p - q)) + denom_sign)
        )
        x[p_block] = 1.0
        return x

    entries = [
        (g, totient(n) + 1, gamma_basis),
        (b * (q - 1) + g, p - 2, [_diffs(q_block)]),
        (b * (p - 1) + g, q - 2, [_diffs(p_block)]),
        (lam_plus, 1, [_rows(bipartite_vector(rad))]),
        (lam_minus, 1, [_rows(bipartite_vector(-rad))]),
    ]
    return _merged(n, "two-prime-complement-eta0", entries)


# ---------------------------------------------------------------------------
# dihedral groups, proper variant, n = p^r
# ---------------------------------------------------------------------------


def _two_by_two_eigen(k11, k12, k22):
    """Eigenvalues (descending) and crude eigenvectors of [[k11,k12],[k12,k22]]."""
    mean = (k11 + k22) / 2
    rad = sqrt(float((k11 - k22) ** 2 + 4 * k12 * k12)) / 2
    lam1, lam2 = mean + rad, mean - rad
    if k12 == 0:
        vecs = ([1.0, 0.0], [0.0, 1.0]) if k11 >= k22 else ([0.0, 1.0], [1.0, 0.0])
    else:
        vecs = (
            [float(k12), float(lam1 - k11)],
            [float(k12), float(lam2 - k11)],
        )
    return (lam1, lam2), vecs


def dihedral_prime_power_proper(
    p: int, r: int, params: UniversalParams, complemented: bool = False
) -> Spectrum:
    """Full spectrum of U over the proper power graph of D_{p^r} (or its
    complement): the non-identity rotations form one clique, the p^r
    reflections an independent set, with no edges between the two in the
    proper graph, so a 2x2 quotient finishes the job."""
    _require_prime(p)
    if r < 1:
        raise ValueError("exponent must be at least 1")
    m = p**r
    total = 2 * m - 1
    a, b, g, e = params.alpha, params.beta, params.gamma, params.eta
    rotations = list(range(m - 1))
    reflections = list(range(m - 1, total))
    if not complemented:
        rot_val = -a + (m - 2) * b + g
        ref_val = g
        k11 = (m - 2) * a + (m - 2) * b + g + (m - 1) * e
        k22 = g + m * e
        k12 = e * sqrt(m * (m - 1))
    else:
        rot_val = m * b + g
        ref_val = -a + (2 * m - 2) * b + g
        k11 = m * b + g + (m - 1) * e
        k22 = (m - 1) * a + (2 * m - 2) * b + g + m * e
        k12 = (a + e) * sqrt(m * (m - 1))
    (lam1, lam2), (nu1, nu2) = _two_by_two_eigen(k11, k12, k22)

    def lift(nu):
        x = np.empty(total)
        x[rotations] = nu[0] * sqrt(m / (m - 1))
        x[reflections] = nu[1]
        return x

    entries = [
        (rot_val, m - 2, [_diffs(rotations)]),
        (ref_val, m - 1, [_diffs(reflections)]),
        (lam1, 1, [_rows(lift(nu1))]),
        (lam2, 1, [_rows(lift(nu2))]),
    ]
    return _merged(total, "dihedral-proper", entries)


# ---------------------------------------------------------------------------
# dicyclic groups
# ---------------------------------------------------------------------------


def dicyclic_repeated_eigenvalue(
    n: int,
    params: UniversalParams,
    proper: bool = False,
    complemented: bool = False,
):
    """The eigenvalue that U over the (proper) power graph of Q_n, or over
    its complement, carries at least n-1 times, with that count n-1.

    The b-coset elements form n pairs {a^k b, a^(n+k) b}, each pair a
    clique joined to e and a^n and to nothing else; the differences of the
    pairs' indicator vectors span an (n-1)-dimensional eigenspace with
    eigenvalue alpha + 3 beta + gamma on the power graph, alpha + 2 beta +
    gamma on the proper one, and -2 alpha + (4n-4) beta + gamma for either
    complement.  Only the formula is evaluated here; callers compare it
    with a computed spectrum.
    """
    if n < 2:
        raise ValueError("dicyclic groups need n >= 2")
    a, b, g = params.alpha, params.beta, params.gamma
    if complemented:
        value = -2 * a + (4 * n - 4) * b + g
    else:
        value = (a + 2 * b + g) if proper else (a + 3 * b + g)
    return value, n - 1


def quaternion8_complement_spectrum(params: UniversalParams) -> Spectrum:
    """All eight eigenvalues of U over the complement of the power graph of
    the quaternion group Q_2 (order 8), with explicit eigenvectors.

    Vertex order: e, a, a^2, a^3, b, ab, a^2 b, a^3 b.  The radical pair is
    2a + 2b + g + 4e +- 2*sqrt(a^2 + b^2 + 4e^2 + 2ab + 2ae + 2be); its
    printed eigenvectors need eta != 0.  With eta = 0 the quotient splits:
    g on the lift of (1, 0, 0, 0) and 4a + 4b + g on the lift of
    (0, 1, 1, 1), and the pair 2a + 2b + g +- 2|a + b| takes them in the
    order the sign of a + b gives; at a + b = 0 both values are g and the
    two vectors stay independent.
    """
    a, b, g, e = params.alpha, params.beta, params.gamma, params.eta
    blocks = [[0, 2], [1, 3], [4, 6], [5, 7]]
    total = 8
    radicand = a * a + b * b + 4 * e * e + 2 * a * b + 2 * a * e + 2 * b * e
    rad = 2 * sqrt(float(radicand))
    lam_plus = 2 * a + 2 * b + g + 4 * e + rad
    lam_minus = 2 * a + 2 * b + g + 4 * e - rad

    def lift(nu):
        x = np.empty(total)
        for l, block in enumerate(blocks):
            x[block] = nu[l]
        return x

    if e != 0:
        plus = lift([(rad / 2 - (a + b + e)) / e, 1.0, 1.0, 1.0])
        minus = lift([(-rad / 2 - (a + b + e)) / e, 1.0, 1.0, 1.0])
    else:
        low, high = lift([1.0, 0.0, 0.0, 0.0]), lift([0.0, 1.0, 1.0, 1.0])
        plus, minus = (high, low) if a + b >= 0 else (low, high)

    entries = [
        (g, 1, [_diffs(blocks[0])]),
        (4 * b + g, 3, [_diffs(block) for block in blocks[1:]]),
        (lam_plus, 1, [_rows(plus)]),
        (lam_minus, 1, [_rows(minus)]),
        (-2 * a + 4 * b + g, 2, [_rows(lift([0.0, 1.0, -1.0, 0.0]), lift([0.0, 1.0, 0.0, -1.0]))]),
    ]
    return _merged(total, "quaternion8-complement", entries)
