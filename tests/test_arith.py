from math import isqrt, prod

from qfe.arith import factorize


def test_factorize_reassembles_into_ascending_primes():
    big = [2**21 - 1, 2**21, 2**21 + 1, 1_000_003, 999983**2, 10**12]
    for n in [*range(1, 3001), *big]:
        f = factorize(n)
        assert list(f) == sorted(f), n
        assert all(p > 1 and all(p % k for k in range(2, isqrt(p) + 1)) for p in f), n
        assert prod(p**e for p, e in f.items()) == n
