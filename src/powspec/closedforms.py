"""Closed-form spectra for the special families where every eigenvalue has
an explicit expression.

These evaluators are deliberately independent of the join engine: block
memberships and quotient entries are written out from the formulas, so
they serve as a third leg of cross-validation next to the structural
route and the dense eigensolver.  Each evaluator refuses inputs outside
its hypotheses instead of extrapolating.  A spectrum comes back as a
``Spectrum`` of ``Eigenspace`` values whose provenance names the closed
form; int and Fraction parameters keep the values exact where the formula
is rational.
"""

from __future__ import annotations

from math import gcd, sqrt

import numpy as np

from .numtheory import is_prime, totient
from .spectra import Eigenspace, Spectrum, UniversalParams, dense_eigen

__all__ = [
    "cyclic_prime_power_spectrum",
    "cyclic_two_prime_quotient",
    "cyclic_two_prime_case2_charpoly",
    "cyclic_two_prime_complement_adjacency",
    "cyclic_two_prime_complement_eta0",
    "dihedral_prime_power_proper",
    "dicyclic_repeated_eigenvalue",
    "quaternion8_complement_spectrum",
]


def _merged(entries) -> tuple:
    """Collapse exactly-equal values, drop zero multiplicities."""
    out: list[Eigenspace] = []
    for e in entries:
        if e.multiplicity == 0:
            continue
        hit = next((o for o in out if float(o.value) == float(e.value)), None)
        if hit is None:
            out.append(e)
        else:
            basis = None
            if hit.basis is not None and e.basis is not None:
                basis = tuple(hit.basis) + tuple(e.basis)
            out[out.index(hit)] = Eigenspace(
                hit.value,
                hit.multiplicity + e.multiplicity,
                hit.provenance
                if hit.provenance == e.provenance
                else f"{hit.provenance}+{e.provenance}",
                basis,
            )
    out.sort(key=lambda e: -float(e.value))
    return tuple(out)


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _diff_vectors(total: int, support: list[int]):
    """In-block difference vectors: +1 on the first supported coordinate,
    -1 on each later one."""
    out = []
    for j in support[1:]:
        x = np.zeros(total)
        x[support[0]] = 1.0
        x[j] = -1.0
        out.append(x)
    return out


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
    ones = _indicator(n, list(range(n)))
    diffs = tuple(_diff_vectors(n, list(range(n))))
    entries = [
        Eigenspace(top, 1, "prime-power", (ones,)),
        Eigenspace(rest, n - 1, "prime-power", diffs),
    ]
    return Spectrum(_merged(entries), n)


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
        entries = [
            Eigenspace(lam12, 2, "two-prime-quotient-case1"),
            Eigenspace(lam3, 1, "two-prime-quotient-case1"),
            Eigenspace(lam4, 1, "two-prime-quotient-case1"),
        ]
        return Spectrum(_merged(entries), 4)
    source = "two-prime-quotient-case2" if e == 0 else "two-prime-quotient-case4"
    spec = dense_eigen(_two_prime_quotient_matrix(p, q, params), vectors=False)
    entries = [
        Eigenspace(es.value, es.multiplicity, source) for es in spec.eigenspaces
    ]
    return Spectrum(_merged(entries), 4)


def cyclic_two_prime_case2_charpoly(p: int, q: int, params: UniversalParams, lam):
    """det(K - lambda*I) for the eta = 0 quotient of Z_{pq}, as the scaled
    product-sum expression obtained by factoring sqrt(block size) out of
    every row and column:

        phi(1) phi(pq) phi(p) phi(q) * [ a1 a2 a3 a4
            - alpha^2 (a1 a3 + a1 a4 + a2 a3 + a2 a4 + a3 a4)
            + 2 alpha^3 (a3 + a4) ]

    with a_i = (kappa_ii - lambda) / n_i in the block order (pq, 1, q, p).
    Exact inputs give an exact value.
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


def cyclic_two_prime_complement_adjacency(p: int, q: int) -> Spectrum:
    """Adjacency spectrum of the complement of the power graph of Z_{pq}:
    0 with multiplicity pq-2 and the pair +-sqrt((p-1)(q-1)) carried by the
    complete bipartite part between the gcd-q and gcd-p blocks."""
    _require_prime(p)
    _require_prime(q)
    if p == q:
        raise ValueError("needs two distinct primes")
    n = p * q
    zero_block, gens, q_block, p_block = _two_prime_members(p, q)
    zero_basis = []
    for block in (gens, q_block, p_block):
        zero_basis.extend(_diff_vectors(n, block))
    zero_basis.append(_indicator(n, zero_block, sqrt(q - 1)))
    zero_basis.append(_indicator(n, gens, 1.0 / sqrt(p - 1)))
    rad = sqrt((p - 1) * (q - 1))
    plus = _indicator(n, q_block, sqrt((q - 1) / (p - 1)))
    plus[p_block] = 1.0
    minus = plus.copy()
    minus[p_block] = -1.0
    entries = [
        Eigenspace(rad, 1, "two-prime-complement", (plus,)),
        Eigenspace(0, n - 2, "two-prime-complement", tuple(zero_basis)),
        Eigenspace(-rad, 1, "two-prime-complement", (minus,)),
    ]
    return Spectrum(_merged(entries), n)


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

    gamma_basis = _diff_vectors(n, gens)
    gamma_basis.append(_indicator(n, zero_block, sqrt(q - 1)))
    gamma_basis.append(_indicator(n, gens, 1.0 / sqrt(p - 1)))

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
        Eigenspace(g, totient(n) + 1, "two-prime-complement-eta0", tuple(gamma_basis)),
        Eigenspace(
            b * (q - 1) + g,
            p - 2,
            "two-prime-complement-eta0",
            tuple(_diff_vectors(n, q_block)),
        ),
        Eigenspace(
            b * (p - 1) + g,
            q - 2,
            "two-prime-complement-eta0",
            tuple(_diff_vectors(n, p_block)),
        ),
        Eigenspace(lam_plus, 1, "two-prime-complement-eta0", (bipartite_vector(rad),)),
        Eigenspace(lam_minus, 1, "two-prime-complement-eta0", (bipartite_vector(-rad),)),
    ]
    return Spectrum(_merged(entries), n)


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
        Eigenspace(
            rot_val,
            m - 2,
            "dihedral-proper",
            tuple(_diff_vectors(total, rotations)),
        ),
        Eigenspace(
            ref_val,
            m - 1,
            "dihedral-proper",
            tuple(_diff_vectors(total, reflections)),
        ),
        Eigenspace(lam1, 1, "dihedral-proper", (lift(nu1),)),
        Eigenspace(lam2, 1, "dihedral-proper", (lift(nu2),)),
    ]
    return Spectrum(_merged(entries), total)


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
    printed eigenvectors need eta != 0, so for eta = 0 the vectors are
    recovered from the dense eigensolver on the 4x4 quotient instead.
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
        nu_plus = [(rad / 2 - (a + b + e)) / e, 1.0, 1.0, 1.0]
        nu_minus = [(-rad / 2 - (a + b + e)) / e, 1.0, 1.0, 1.0]
        plus_basis = (lift(nu_plus),)
        minus_basis = (lift(nu_minus),)
    else:
        k = np.array(
            [
                [float(g + 2 * e), float(2 * e), float(2 * e), float(2 * e)],
                [float(2 * e), float(4 * b + g + 2 * e), float(2 * (a + e)), float(2 * (a + e))],
                [float(2 * e), float(2 * (a + e)), float(4 * b + g + 2 * e), float(2 * (a + e))],
                [float(2 * e), float(2 * (a + e)), float(2 * (a + e)), float(4 * b + g + 2 * e)],
            ]
        )
        dense = dense_eigen(k)
        gtol = 1e-7 * max(1.0, float(np.max(np.abs(k))))
        plus_space = dense.find(float(lam_plus), gtol)
        minus_space = dense.find(float(lam_minus), gtol)
        plus_basis = (lift(plus_space.basis[0]),)
        # lam_plus = lam_minus when the radicand is 0: one space holds both
        minus_basis = (lift(minus_space.basis[1 if minus_space is plus_space else 0]),)

    diff_basis = tuple(tuple(_diff_vectors(total, block)) for block in blocks)
    entries = [
        Eigenspace(g, 1, "quaternion8-complement", diff_basis[0]),
        Eigenspace(
            4 * b + g,
            3,
            "quaternion8-complement",
            diff_basis[1] + diff_basis[2] + diff_basis[3],
        ),
        Eigenspace(lam_plus, 1, "quaternion8-complement", plus_basis),
        Eigenspace(lam_minus, 1, "quaternion8-complement", minus_basis),
        Eigenspace(
            -2 * a + 4 * b + g,
            2,
            "quaternion8-complement",
            (lift([0.0, 1.0, -1.0, 0.0]), lift([0.0, 1.0, 0.0, -1.0])),
        ),
    ]
    return Spectrum(_merged(entries), total)
