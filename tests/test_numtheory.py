"""Arithmetic utilities: factorization, totient, divisor lists."""

import math
from itertools import islice

import pytest

from powspec.numtheory import (
    divisors,
    factorize,
    is_prime,
    prime_power,
    primes_below,
    totient,
)


def brute_totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def brute_divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(15) == [(3, 1), (5, 1)]
    assert factorize(97) == [(97, 1)]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        totient(0)
    with pytest.raises(ValueError):
        divisors(0)


def test_factorize_reconstructs():
    for n in range(1, 2000):
        prod = 1
        prev = 0
        for p, e in factorize(n):
            assert p > prev and e >= 1
            assert is_prime(p)
            prod *= p**e
            prev = p
        assert prod == n


def test_totient_examples():
    assert totient(1) == 1
    assert totient(15) == 8
    assert totient(12) == brute_totient(12) == 4


def test_divisors_examples():
    assert divisors(15) == [1, 3, 5, 15]
    assert divisors(1) == [1]
    assert len(divisors(36)) == 9
    assert divisors(36) == brute_divisors(36)


def test_divisor_count_matches_exponent_product():
    for n in range(1, 10001):
        expected = 1
        for _, e in factorize(n):
            expected *= e + 1
        assert len(divisors(n)) == expected


def test_totient_divisor_sum_identity():
    # sum of phi(d) over divisors d of n equals n
    for n in range(1, 10001):
        assert sum(totient(d) for d in divisors(n)) == n


def test_block_size_sum_identity():
    # sum of phi(n/d) over divisors d equals n: the block sizes partition Z_n
    for n in range(1, 10001):
        assert sum(totient(n // d) for d in divisors(n)) == n


def test_prime_power_detection():
    assert prime_power(8) == (2, 3)
    assert prime_power(7) == (7, 1)
    assert prime_power(1) is None
    assert prime_power(12) is None
    assert not is_prime(1)
    assert is_prime(2)


def test_primes_below_walks_down_the_primes():
    small = [n for n in range(1999, 1, -1) if is_prime(n)]
    for limit in [*range(3, 200), 1000, 1999]:
        assert list(primes_below(limit)) == [p for p in small if p < limit]
    # word-size limits, and a second walk over the same limit
    for limit in (2**23, 2**26 + 1):
        first = list(islice(primes_below(limit), 40))
        assert first == list(islice(primes_below(limit), 40))
        assert all(is_prime(p) for p in first)
        assert [n for n in range(first[-1], limit) if is_prime(n)] == first[::-1]
    # strong pseudoprimes to small bases are composite
    assert 3215031751 not in islice(primes_below(3215031752), 1)
    with pytest.raises(ValueError):
        next(primes_below(2))
