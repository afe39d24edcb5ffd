"""Reference values computed without ``powspec``.

The power graphs are written down from their structure, not from group
products:

* Z_n: x ~ y (x != y) iff one of gcd(x, n), gcd(y, n) divides the other,
  with gcd(0, n) = n;
* D_n: the rotations r^k form Z_n; each reflection is joined to e only;
* Q_n: the powers a^k form Z_2n; each a^k b is joined to e, a^n and
  a^(n+k) b.

Vertices follow the order ``powspec`` uses for its eigenvectors: rotations
(a-powers) by exponent, then reflections (a^k b) by exponent.  From the
graph come the dense U, its eigenvalues, the quotient of U over the
gcd-class partition (exact, for the charpoly checks) and the
normalized-Laplacian eigenvalues.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

# The quotient charpoly is compared modulo this prime (2^61 - 1).
PRIME = (1 << 61) - 1


def _cyclic_adjacency(n: int) -> np.ndarray:
    g = np.array([gcd(x, n) for x in range(n)])  # gcd(0, n) == n
    divides = (g[None, :] % g[:, None]) == 0
    adj = divides | divides.T
    np.fill_diagonal(adj, False)
    return adj


def graph(family: str, n: int, proper: bool = False, complement: bool = False) -> np.ndarray:
    """Boolean adjacency of the (proper) power graph, or of its complement."""
    if family == "zn":
        adj = _cyclic_adjacency(n)
    elif family == "dn":
        adj = np.zeros((2 * n, 2 * n), dtype=bool)
        adj[:n, :n] = _cyclic_adjacency(n)
        adj[0, n:] = adj[n:, 0] = True
    elif family == "qn":
        m = 2 * n
        adj = np.zeros((2 * m, 2 * m), dtype=bool)
        adj[:m, :m] = _cyclic_adjacency(m)
        b = np.arange(m, 2 * m)
        partner = m + (np.arange(m) + n) % m
        for hub in (0, n):
            adj[hub, b] = adj[b, hub] = True
        adj[b, partner] = True
    else:
        raise ValueError(f"unknown family {family!r}")
    if proper:
        adj = adj[1:, 1:]
    if complement:
        adj = ~adj
        np.fill_diagonal(adj, False)
    return adj


def classes(family: str, n: int, proper: bool = False) -> list[np.ndarray]:
    """Vertex classes of the quotient of Z_n or D_n: rotations by their gcd
    with n, then (D_n) all reflections as one class."""
    if family not in ("zn", "dn"):
        raise ValueError(f"no fixed quotient partition for {family!r}")
    g = np.array([gcd(x, n) for x in range(n)])
    out = [np.nonzero(g == d)[0] for d in sorted(set(g.tolist()))]
    if family == "dn":
        out.append(np.arange(n, 2 * n))
    if proper:
        out = [c[c != 0] - 1 for c in out]
        out = [c for c in out if c.size]
    return out


def universal(adj: np.ndarray, params) -> np.ndarray:
    """Dense U = alpha*A + beta*D + gamma*I + eta*J."""
    alpha, beta, gamma, eta = (float(v) for v in params)
    u = alpha * adj.astype(float) + eta
    np.fill_diagonal(u, beta * adj.sum(axis=1) + gamma + eta)
    return u


def inf_norm(u: np.ndarray) -> float:
    return float(np.max(np.abs(u).sum(axis=1))) if u.size else 0.0


def exact_quotient(adj: np.ndarray, parts: list[np.ndarray], params) -> list[list[Fraction]]:
    """Row sums of U from one vertex of class i into class j, exactly.
    Raises when the partition is not equitable."""
    alpha, beta, gamma, eta = (Fraction(v) for v in params)
    indicator = np.zeros((adj.shape[0], len(parts)), dtype=np.int64)
    for j, part in enumerate(parts):
        indicator[part, j] = 1
    counts = adj.astype(np.int64) @ indicator
    deg = adj.sum(axis=1)
    rows = []
    for i, part in enumerate(parts):
        if not (counts[part] == counts[part[0]]).all():
            raise ValueError("partition is not equitable")
        u0 = int(part[0])
        row = [alpha * int(counts[u0, j]) + eta * len(parts[j]) for j in range(len(parts))]
        row[i] += beta * int(deg[u0]) + gamma
        rows.append(row)
    return rows


def denominator_lcm(rows: list[list[Fraction]]) -> int:
    lcm = 1
    for row in rows:
        for x in row:
            lcm = lcm * x.denominator // gcd(lcm, x.denominator)
    return lcm


def charpoly_mod(rows: list[list[Fraction]], prime: int = PRIME) -> list[int]:
    """det(x I - M) mod ``prime`` for the integer matrix M = L * rows, L the
    lcm of the denominators, coefficients descending from x^t.  The k-th
    coefficient equals c_k * L^k for the charpoly c of ``rows``.

    Hessenberg reduction and the Hessenberg recurrence over GF(prime)."""
    lcm = denominator_lcm(rows)
    t = len(rows)
    h = [[int(x * lcm) % prime for x in row] for row in rows]
    for j in range(t - 2):
        pivot = next((i for i in range(j + 1, t) if h[i][j]), None)
        if pivot is None:
            continue
        if pivot != j + 1:
            h[j + 1], h[pivot] = h[pivot], h[j + 1]
            for row in h:
                row[j + 1], row[pivot] = row[pivot], row[j + 1]
        inv = pow(h[j + 1][j], prime - 2, prime)
        for k in range(j + 2, t):
            f = h[k][j] * inv % prime
            if not f:
                continue
            h[k] = [(a - f * b) % prime for a, b in zip(h[k], h[j + 1])]
            for row in h:
                row[j + 1] = (row[j + 1] + f * row[k]) % prime
    # p[m] is the charpoly of the leading m x m block, ascending powers
    p = [[1]]
    for m in range(t):
        nxt = [0] + p[m]
        for d, c in enumerate(p[m]):
            nxt[d] = (nxt[d] - h[m][m] * c) % prime
        prod = 1
        for i in range(m - 1, -1, -1):
            prod = prod * h[i + 1][i] % prime
            f = h[i][m] * prod % prime
            for d, c in enumerate(p[i]):
                nxt[d] = (nxt[d] - f * c) % prime
        p.append(nxt)
    return p[t][::-1]


def scaled_mod(coeffs: list[Fraction], lcm: int, prime: int = PRIME) -> list:
    """The residues of c_k * L^k for printed coefficients c_k, to compare
    with ``charpoly_mod(rows)`` where L = denominator_lcm(rows); None where
    c_k * L^k is not an integer."""
    out = []
    for k, c in enumerate(coeffs):
        scaled = c * lcm**k
        if scaled.denominator != 1:
            out.append(None)
        else:
            out.append(int(scaled) % prime)
    return out


def normalized_laplacian_eigenvalues(adj: np.ndarray) -> np.ndarray:
    deg = adj.sum(axis=1).astype(float)
    s = 1.0 / np.sqrt(deg)
    lap = np.eye(adj.shape[0]) - s[:, None] * adj.astype(float) * s[None, :]
    return np.linalg.eigvalsh(lap)


def symmetric_quotient(rows: list[list[Fraction]], sizes) -> np.ndarray:
    """S B S^-1 with S = diag(sqrt(size)): symmetric because the partition
    is equitable, so its eigenvalues come from eigvalsh."""
    b = np.array([[float(x) for x in row] for row in rows])
    s = np.sqrt(np.asarray(sizes, dtype=float))
    sym = s[:, None] * b / s[None, :]
    return (sym + sym.T) / 2
