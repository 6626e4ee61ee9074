"""Factorisation of rational integers; the only place where integers get factored.

``factorize(n)`` divides out a fixed table of small primes, recognises exact
perfect powers by integer k-th roots, and splits whatever is left with
Pollard's rho in Brent's form (Brent 1980).  Primality is decided by
deterministic Miller-Rabin over the first 13 prime bases, which is proven
below MILLER_RABIN_BOUND (Sorenson and Webster 2015).  A cofactor at or above
that bound which is not a perfect power is trial-divided by every prime up
to TRIAL_DIVISION_LIMIT; if what is left is still at or above the bound, it
can be neither proven prime nor split in bounded time, so it is refused with
ValueError.  Every n below the bound is factored, and so is every n whose
part free of the primes up to TRIAL_DIVISION_LIMIT is below the bound.

``factor_window(lo, hi)`` factors a whole interval with a segmented sieve,
one block of SIEVE_BLOCK integers at a time, so its memory does not grow
with the length of the interval or the size of hi.
"""

from __future__ import annotations

import math
from itertools import compress
from typing import Iterator

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least strong pseudoprime to all thirteen bases above (Sorenson and
# Webster 2015), 1287836182261 * 2575672364521; below it the test is proven.
MILLER_RABIN_BOUND = 3317044064679887385961981

# Integers the segmented sieve holds at once.
SIEVE_BLOCK = 1 << 14

# Largest prime the segmented sieve divides by; a cofactor at or above its
# square is handed to factorize.
SIEVE_PRIME_LIMIT = 1 << 16

# Largest trial divisor for a cofactor at or above MILLER_RABIN_BOUND.
TRIAL_DIVISION_LIMIT = 4_000_000

# Pollard-rho steps between two gcds.
_RHO_BATCH = 128


def _prime_flags(limit: int) -> bytearray:
    """flags[i] == 1 exactly when i <= limit is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return flags


def _primes_up_to(limit: int) -> list[int]:
    return list(compress(range(limit + 1), _prime_flags(limit)))


_TRIAL_PRIMES = tuple(_primes_up_to(1000))

# A cofactor free of the trial primes is prime when below this square.
_TRIAL_SQUARE = 1000 * 1000


def is_rational_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first 13 prime bases.

    Raises ValueError for n >= MILLER_RABIN_BOUND, where those bases no
    longer decide primality.
    """
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(
            f"primality is not decided at or above {MILLER_RABIN_BOUND}"
        )
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 0 and k >= 1, by Newton's iteration from above.

    No float is involved: a float seed loses the low digits of a large n and
    can leave Newton's method crawling down from far away.
    """
    if n < 2 or k == 1:
        return n
    x = 1 << -(-n.bit_length() // k)  # 2^ceil(bits/k) > n^(1/k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_power(m: int) -> tuple[int, int]:
    """(r, k) with m = r^k and k as large as possible, for m free of the trial primes.

    Every prime factor of m exceeds 2^9, so k < bits(m) / 9 bounds the
    exponents worth trying.
    """
    exponent = 1
    while True:
        for k in _TRIAL_PRIMES:
            if 9 * k > m.bit_length():
                return m, exponent
            r = integer_root(m, k)
            if r**k == m:
                m, exponent = r, exponent * k
                break
        else:
            return m, exponent


def _brent_rho(n: int) -> int:
    """A proper divisor of n, an odd composite that is not a perfect power.

    Brent's cycle finding on x -> x^2 + c, with the gcd taken once per
    batch of steps and the batch replayed one step at a time when it
    overshoots to n.  A c whose cycle gives only n is replaced by c + 1.
    """
    c = 1
    while True:
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += _RHO_BATCH
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g
        c += 1


def _trial_divide(m: int, factors: dict[int, int], k: int) -> int:
    """Divide the primes from 1000 to TRIAL_DIVISION_LIMIT out of m.

    Each prime found goes into ``factors`` with k times its exponent.  Stops
    early once m is below MILLER_RABIN_BOUND, and returns what is left.
    """
    flags = _prime_flags(TRIAL_DIVISION_LIMIT)
    for p in compress(range(1000, TRIAL_DIVISION_LIMIT + 1), flags[1000:]):
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = factors.get(p, 0) + k * e
            if m < MILLER_RABIN_BOUND:
                break
    return m


def factorize(n: int) -> dict[int, int]:
    """The prime factorisation of n >= 1 as {prime: exponent}, primes ascending.

    Raises ValueError when a cofactor at or above MILLER_RABIN_BOUND is no
    perfect power and stays at or above the bound after trial division up to
    TRIAL_DIVISION_LIMIT: its primality is not decided there.
    """
    if n < 1:
        raise ValueError(f"can only factor positive integers, got {n}")
    factors: dict[int, int] = {}
    m = n
    for p in _TRIAL_PRIMES:
        if p * p > m:
            break
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            factors[p] = e
    # What is left has no prime factor below 1000.  Each pending entry is
    # (cofactor, exponent, whether trial division up to the limit is done).
    pending = [(m, 1, False)] if m > 1 else []
    while pending:
        m, k, divided = pending.pop()
        if m == 1:
            continue
        if m < _TRIAL_SQUARE or (m < MILLER_RABIN_BOUND and is_rational_prime(m)):
            factors[m] = factors.get(m, 0) + k
            continue
        root, j = _perfect_power(m)
        if j > 1:
            pending.append((root, k * j, divided))
        elif m < MILLER_RABIN_BOUND:
            d = _brent_rho(m)
            pending += [(d, k, divided), (m // d, k, divided)]
        elif not divided:
            pending.append((_trial_divide(m, factors, k), k, True))
        else:
            raise ValueError(
                f"factoring {n} leaves {m}, which has no prime factor up to"
                f" {TRIAL_DIVISION_LIMIT}, is no perfect power and lies at or"
                f" above {MILLER_RABIN_BOUND}, where primality is not decided"
            )
    return dict(sorted(factors.items()))


def factor_window(lo: int, hi: int) -> Iterator[tuple[int, dict[int, int]]]:
    """Yield (n, factorize(n)) for n = lo..hi in order, from a segmented sieve.

    Each block of SIEVE_BLOCK integers is sieved by every prime power p^k
    <= its top with p <= min(isqrt(hi), SIEVE_PRIME_LIMIT), noting p once per
    power that divides n.  What is left of n is 1, one prime, or, only when
    hi >= SIEVE_PRIME_LIMIT^2, a cofactor at or above that square, which
    factorize splits (and may refuse with ValueError).  A block holds one
    short list of primes per integer, and the dict of an integer is built
    only when it is yielded.
    """
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    primes = _primes_up_to(min(math.isqrt(hi), SIEVE_PRIME_LIMIT))
    composite_from = SIEVE_PRIME_LIMIT * SIEVE_PRIME_LIMIT
    for start in range(lo, hi + 1, SIEVE_BLOCK):
        end = min(start + SIEVE_BLOCK - 1, hi)
        size = end - start + 1
        rest = list(range(start, end + 1))
        found: list[list[int]] = [[] for _ in range(size)]
        for p in primes:
            pk = p
            while pk <= end:
                for i in range(-start % pk, size, pk):
                    rest[i] //= p
                    found[i].append(p)
                pk *= p
        for i in range(size):
            factors: dict[int, int] = {}
            for p in found[i]:
                factors[p] = factors.get(p, 0) + 1
            if rest[i] >= composite_from:
                factors.update(factorize(rest[i]))
            elif rest[i] > 1:
                factors[rest[i]] = 1
            yield start + i, factors
