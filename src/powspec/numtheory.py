"""Integer factorization, Euler totient, and divisor utilities.

Deterministic trial division on desk-scale integers (n up to ~10**6).
Every block partition downstream keys off the ascending divisor order
produced here, so the ordering is part of the contract.  ``primes_below``
walks down the primes below a limit by a deterministic Miller-Rabin test,
for the multi-modular characteristic polynomial.
"""

from __future__ import annotations

__all__ = [
    "factorize",
    "totient",
    "divisors",
    "is_prime",
    "prime_power",
    "primes_below",
]


def _check_positive(n: int) -> None:
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError(f"expected a positive integer, got {n!r}")
    if n < 1:
        raise ValueError(f"expected a positive integer, got {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization as (prime, exponent) pairs with primes ascending.

    factorize(1) == [] (empty product).
    """
    _check_positive(n)
    out = []
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if m > 1:
        out.append((m, 1))
    return out


def totient(n: int) -> int:
    """Euler's phi: how many of 1..n are coprime to n.  totient(1) == 1."""
    _check_positive(n)
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n, sorted ascending."""
    _check_positive(n)
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    divs.sort()
    return divs


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    facs = factorize(n)
    return len(facs) == 1 and facs[0][1] == 1


def prime_power(n: int) -> tuple[int, int] | None:
    """(p, r) with n == p**r if n is a prime power, else None.  1 is not one."""
    if n < 2:
        return None
    facs = factorize(n)
    if len(facs) == 1:
        return facs[0]
    return None


# Miller-Rabin with these bases decides primality exactly below
# _WITNESS_LIMIT, the least strong pseudoprime to all of them.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17)
_WITNESS_LIMIT = 341_550_071_728_321


def _is_prime_below_witness_limit(n: int) -> bool:
    for p in _WITNESSES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


# limit -> the primes below it found so far, descending.  It holds only
# primes, so callers that share it cannot see each other's state.
_PRIMES_BELOW: dict[int, list[int]] = {}


def primes_below(limit: int):
    """The primes below ``limit`` (at most 3.4 * 10**14), descending, as an
    iterator.  Each prime is found on first demand and kept per limit, so a
    later walk over the same limit repeats no search."""
    if not 2 < limit <= _WITNESS_LIMIT:
        raise ValueError(f"primes_below needs 2 < limit <= {_WITNESS_LIMIT}, got {limit}")
    found = _PRIMES_BELOW.setdefault(limit, [])
    i = 0
    while True:
        if i == len(found):
            n = found[-1] if found else limit
            n -= 1
            while n > 1 and not _is_prime_below_witness_limit(n):
                n -= 1
            if n < 2:
                return
            found.append(n)
        yield found[i]
        i += 1
