"""Factorisation of rational integers; the only place where integers get factored.

``factorize(n)`` divides out a fixed table of small primes, recognises exact
perfect powers by integer k-th roots, and splits whatever is left with
Pollard's rho in Brent's form (Brent 1980).  Primality is decided by
deterministic Miller-Rabin: n is tested to the first t prime bases, where
psi_t, the least strong pseudoprime to those t bases, is the first entry of
the table psi_1..psi_13 above n (OEIS A014233; Jaeschke 1993, Jiang and
Deng 2014, Sorenson and Webster 2015).  A prime in [10^11, 1.6*10^13) takes
5 to 7 bases.  psi_13 is MILLER_RABIN_BOUND, above which no entry decides n.
A cofactor at or above that bound which is not a perfect power is
trial-divided by every prime up to TRIAL_DIVISION_LIMIT; if what is left is
still at or above the bound, it can be neither proven prime nor split in
bounded time, so it is refused with ValueError.  Every n below the bound is
factored, and so is every n whose part free of the primes up to
TRIAL_DIVISION_LIMIT is below the bound.

``factor_window(lo, hi, modulus, residues)`` factors the integers of an
interval that lie in given residue classes, with a segmented sieve that
reaches only those classes, one block of SIEVE_BLOCK integers at a time, so
its memory does not grow with the length of the interval or the size of hi.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import compress
from typing import Collection, Iterator

_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# psi_t for t = 1..13: the least strong pseudoprime to the first t bases above
# (OEIS A014233; Jaeschke 1993 up to psi_8, Jiang and Deng 2014 for psi_9 to
# psi_11, Sorenson and Webster 2015 for psi_12 and psi_13).  Below psi_t the
# first t bases decide primality.
_PSEUDOPRIME_THRESHOLDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    341550071728321,
    3825123056546413051,
    3825123056546413051,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)

# psi_13 = 1287836182261 * 2575672364521; below it the test is proven.
MILLER_RABIN_BOUND = _PSEUDOPRIME_THRESHOLDS[-1]

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


# (limit, primes up to limit) for the largest limit sieved so far, in one
# tuple so that a reader never sees a limit with another limit's primes.
_SIEVED: tuple[int, list[int]] = (-1, [])


def primes_up_to(limit: int) -> list[int]:
    """The primes up to limit, ascending, in a new list.

    The longest list sieved so far is kept, and a smaller limit is answered
    by a slice of it, so a scan sieves its sieve primes once per process.
    Nothing is sieved past the largest limit asked for.
    """
    global _SIEVED
    top, primes = _SIEVED
    if limit > top:
        primes = list(compress(range(limit + 1), _prime_flags(limit)))
        _SIEVED = (limit, primes)
    return primes[: bisect_right(primes, limit)]


_TRIAL_PRIMES = tuple(primes_up_to(1000))

# A cofactor free of the trial primes is prime when below this square.
_TRIAL_SQUARE = 1000 * 1000


def is_rational_prime(n: int) -> bool:
    """Deterministic Miller-Rabin over the first t prime bases.

    t is the least index with n < psi_t in the pseudoprime threshold table,
    so t grows from 1 below 2047 to 13 below MILLER_RABIN_BOUND.  Raises
    ValueError for n >= MILLER_RABIN_BOUND, where no table entry decides
    primality.
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
    for b in _MILLER_RABIN_BASES[: bisect_right(_PSEUDOPRIME_THRESHOLDS, n) + 1]:
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


def factor_window(
    lo: int, hi: int, modulus: int = 1, residues: Collection[int] = (0,)
) -> Iterator[tuple[int, dict[int, int]]]:
    """Yield (n, factorize(n)) for the n in lo..hi with n % modulus in residues, in order.

    Each block of SIEVE_BLOCK integers is sieved by every prime power p^k
    <= its top with p <= min(isqrt(hi), SIEVE_PRIME_LIMIT), noting p once per
    power that divides n, at the members of the residue classes only.  A
    class meets the multiples of p^k in one progression of step
    lcm(modulus, p^k), whose start the Chinese remainder theorem gives (none
    when gcd(modulus, p^k) does not divide the class); a p^k so large that
    the block holds few multiples walks those instead and keeps the members.
    A full set of residues is walked as the plain progressions of step p^k.
    What is left of n is 1, one prime, or, only when hi >=
    SIEVE_PRIME_LIMIT^2, a cofactor at or above that square, which factorize
    splits (and may refuse with ValueError).  A block holds one short list
    of primes per integer, and the dict of an integer is built only when it
    is yielded.
    """
    if not 1 <= lo <= hi:
        raise ValueError("need 1 <= lo <= hi")
    if len({r % modulus for r in residues}) == modulus:
        modulus, residues = 1, (0,)
    primes = primes_up_to(min(math.isqrt(hi), SIEVE_PRIME_LIMIT))
    composite_from = SIEVE_PRIME_LIMIT * SIEVE_PRIME_LIMIT
    for start in range(lo, hi + 1, SIEVE_BLOCK):
        end = min(start + SIEVE_BLOCK - 1, hi)
        size = end - start + 1
        # Index i stands for n = start + i; the classes start at these offsets.
        offsets = {(r - start) % modulus for r in residues}
        member = bytearray(size)
        for off in offsets:
            member[off::modulus] = b"\x01" * len(range(off, size, modulus))
        rest = list(range(start, end + 1))
        found: list[list[int]] = [[] for _ in range(size)]
        for p in primes:
            pk = p
            while pk <= end:
                if pk * modulus > size:
                    for i in range(-start % pk, size, pk):
                        if member[i]:
                            rest[i] //= p
                            found[i].append(p)
                else:
                    g = math.gcd(modulus, pk)
                    step = pk // g
                    # n = start + off + modulus*t is 0 mod p^k exactly when
                    # t = -((start + off) / g) * (modulus / g)^-1 (mod p^k / g).
                    inv = pow(modulus // g, -1, step)
                    for off in offsets:
                        if (start + off) % g == 0:
                            t = -((start + off) // g) * inv % step
                            for i in range(off + modulus * t, size, modulus * step):
                                rest[i] //= p
                                found[i].append(p)
                pk *= p
        for i in compress(range(size), member):
            factors: dict[int, int] = {}
            for p in found[i]:
                factors[p] = factors.get(p, 0) + 1
            if rest[i] >= composite_from:
                factors.update(factorize(rest[i]))
            elif rest[i] > 1:
                factors[rest[i]] = 1
            yield start + i, factors
