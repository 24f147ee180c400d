import random
import time
from math import isqrt, prod

import pytest

from qfe.arith import factorize, is_prime


def test_factorize_reassembles_into_ascending_primes():
    big = [2**21 - 1, 2**21, 2**21 + 1, 1_000_003, 999983**2, 10**12]
    for n in [*range(1, 3001), *big]:
        f = factorize(n)
        assert list(f) == sorted(f), n
        assert all(p > 1 and all(p % k for k in range(2, isqrt(p) + 1)) for p in f), n
        assert prod(p**e for p, e in f.items()) == n


def test_is_prime_agrees_with_trial_division():
    for n in range(-2, 10**5):
        assert is_prime(n) == (n > 1 and all(n % k for k in range(2, isqrt(n) + 1))), n


def test_is_prime_strong_pseudoprimes_are_composite():
    # Strong pseudoprimes to every prime base up to 7, up to 31 and up to 37.
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n), n


def test_is_prime_on_a_64_bit_prime_answers_at_once():
    start = time.perf_counter()
    assert is_prime(10**18 + 3)
    assert not is_prime((10**18 + 3) * 3)
    assert time.perf_counter() - start < 0.5


def test_is_prime_with_four_bases_agrees_with_factorize():
    # Below 3215031751 the bases 2, 3, 5 and 7 alone would decide; all 13 run.
    rng = random.Random(10)
    sample = [rng.randrange(2**31, 3215031751) for _ in range(300)]
    sample += range(2**31 + 1, 2**31 + 1000, 2)
    sample += range(3215031751 - 1000, 3215031751)
    for n in sample:
        assert is_prime(n) == (factorize(n) == {n: 1}), n


def test_is_prime_strong_pseudoprimes_to_bases_2_3_5_are_composite():
    # Base 7 exposes these; 3215031751 passes 2, 3, 5 and 7 and needs 11.
    for n in (25326001, 161304001, 960946321, 1157839381, 3215031751):
        assert not is_prime(n), n


def test_is_prime_refuses_past_the_deterministic_bound():
    bound = 3317044064679887385961981
    assert not is_prime(bound - 1)  # even
    start = time.perf_counter()
    for n in (bound, 4000000000000000000000027, 2**200):
        with pytest.raises(ValueError):
            is_prime(n)
    assert time.perf_counter() - start < 0.5
