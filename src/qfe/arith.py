"""Small integer number theory: factorization, Moebius, Euler phi, divisors.

Everything but ``is_prime`` rests on ``factorize``: trial division by 2 and
the odd numbers up to the square root of what is left of n.
"""

from __future__ import annotations


def _index(value: object, least: int | None, message: str) -> int:
    """value itself if it is an int, not a bool, and at least least (any int
    when least is None); anything else raises ValueError(message.format(value)).
    The integer argument rule."""
    if isinstance(value, int) and not isinstance(value, bool) and (least is None or value >= least):
        return value
    try:
        text = message.format(value)
    except ValueError:  # the value has more digits than str() may write
        name = type(value).__name__
        if isinstance(value, int):
            name = f"{'negative ' if value < 0 else ''}{name} of {value.bit_length()} bits"
        text = message.replace("{!r}", f"<{name}>")
    raise ValueError(text)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of n >= 1 as {prime: exponent}, primes ascending."""
    _index(n, 1, "cannot factorize {!r}: positive integer required")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


# The first 13 primes as Miller-Rabin bases decide primality of every n below
# _MILLER_RABIN_EXACT (Sorenson and Webster, Math. Comp. 86 (2017)).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_EXACT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of n by deterministic Miller-Rabin; False for anything but an
    int, a bool included; ValueError from 3317044064679887385961981 up, where
    no test of bounded time is at hand."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 2:
        return False
    if n >= _MILLER_RABIN_EXACT:
        raise ValueError(f"primality of {n} is undecided at or above {_MILLER_RABIN_EXACT}")
    for a in _MILLER_RABIN_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d * 2**s with d odd
    for a in _MILLER_RABIN_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def moebius(k: int) -> int:
    """Moebius function: (-1)**(number of primes) on squarefree k, else 0."""
    _index(k, 1, "moebius({!r}): positive integer required")
    f = factorize(k)
    if any(e > 1 for e in f.values()):
        return 0
    return -1 if len(f) % 2 else 1


def euler_phi(n: int) -> int:
    """Euler totient of n >= 1."""
    out = 1
    for p, e in factorize(n).items():
        out *= (p - 1) * p ** (e - 1)
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    out = [1]
    for p, e in factorize(n).items():
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)
