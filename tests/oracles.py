"""Slow reference versions of the ring kernel, the fifth-root search, the
lambda-adic inverse, the residue enumeration and its fifth powers, the unit
image, the primality test and the scan.

These are the bodies the straight-line kernel in ``quintcap.cyclotomic``,
``quintcap.primes.fifth_roots_of_unity``, ``cyclotomic.lambda_inverse``, the
Teichmueller rule of ``cyclotomic.fifth_power_solvable_mod_lambda``, the
unit tables of ``quintcap.primes``, ``factor.is_rational_prime`` and the
scanner's restricted sieve replaced; the tests cross-check the fast code
against them.
"""

import functools
import itertools
import math

from quintcap.cyclotomic import (
    LAMBDA,
    ONE,
    ZETA,
    CycInt,
    lambda_expand,
    lambda_key,
    lambda_residue,
)
from quintcap.classify import NotFifthPowerFree, radicand_shape
from quintcap.factor import (
    MILLER_RABIN_BOUND,
    SIEVE_BLOCK,
    SIEVE_PRIME_LIMIT,
    factorize,
    primes_up_to,
)

# The offset grid of euclid_divmod, in its order, kept here so that the
# oracle pins the order; and the wider grid it used to try after that one.
_FALLBACK_OFFSETS = tuple(itertools.product((0, 1, -1), repeat=4))
_WIDE_OFFSETS = tuple(itertools.product((0, 1, -1, 2, -2), repeat=4))


def _reduce_power_vector(v):
    # v holds coefficients of 1, z, z^2, z^3, z^4; eliminate z^4.
    return CycInt(v[0] - v[4], v[1] - v[4], v[2] - v[4], v[3] - v[4])


def mul(x, y):
    """Schoolbook product into seven slots, then zeta^5 = 1 and zeta^4 elimination."""
    a, b = x.coords, y.coords
    v = [0, 0, 0, 0, 0, 0, 0]
    for i in range(4):
        for k in range(4):
            v[i + k] += a[i] * b[k]
    v[0] += v[5]
    v[1] += v[6]
    return _reduce_power_vector(v[:5])


def galois(x, j):
    """tau^j: send zeta^i to zeta^(e*i) with e = 2^j mod 5."""
    e = pow(2, j % 4, 5)
    v = [0, 0, 0, 0, 0]
    for i in range(4):
        v[(e * i) % 5] += x.coords[i]
    return _reduce_power_vector(v)


def norm(x):
    """The product of the four conjugates, checked to land in Z."""
    p = mul(mul(mul(x, galois(x, 1)), galois(x, 2)), galois(x, 3))
    c = p.coords
    assert not (c[1] or c[2] or c[3]), p
    return c[0]


def rounded_quotient(a, b):
    """Nearest-integer rounding, ties up, of a * conj(b) / norm(b); and norm(b)."""
    conj = mul(mul(galois(b, 1), galois(b, 2)), galois(b, 3))
    nb = mul(b, conj).coords[0]
    num = mul(a, conj)
    return tuple((2 * c + nb) // (2 * nb) for c in num.coords), nb


def euclid_divmod(a, b):
    """Rounded quotient, then the fallback grids in their fixed order."""
    q0, nb = rounded_quotient(a, b)
    for off in ((0, 0, 0, 0),) + _FALLBACK_OFFSETS + _WIDE_OFFSETS:
        q = CycInt(*(c + o for c, o in zip(q0, off)))
        r = a - mul(q, b)
        if norm(r) < nb:
            return q, r
    raise ArithmeticError(f"euclidean division failed for {a!r} / {b!r}")


def gcd(a, b):
    while not b.is_zero():
        a, b = b, euclid_divmod(a, b)[1]
    return a


def smallest_primitive_root(p):
    qs = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise ArithmeticError(f"no primitive root found for {p}")


def fifth_roots_by_primitive_root(p):
    """The powers of g^((p-1)/5) for the smallest primitive root g, ascending."""
    x = pow(smallest_primitive_root(p), (p - 1) // 5, p)
    return sorted(pow(x, i, p) for i in range(1, 5))


def _reduce_coords(x, m):
    c = x.coords
    return CycInt(c[0] % m, c[1] % m, c[2] % m, c[3] % m)


def lambda_inverse(x, k):
    """x^(4*5^(k-1) - 1), the order of (Z[zeta]/lambda^k)^* less one, by
    square-and-multiply with coordinates reduced mod 5^ceil(k/4)."""
    if lambda_residue(x) == 0:
        raise ValueError(f"{x!r} is not invertible modulo lambda")
    m = 5 ** ((k + 3) // 4)
    n = 4 * 5 ** (k - 1) - 1
    result = ONE
    base = _reduce_coords(x, m)
    while n:
        if n & 1:
            result = _reduce_coords(result * base, m)
        n >>= 1
        if n:
            base = _reduce_coords(base * base, m)
    return result


def iter_residues_mod_lambda_pow(k):
    """All 5^k residues modulo lambda^k, sum d_i lambda^i, in digit order."""
    powers = [ONE]
    for _ in range(k - 1):
        powers.append(powers[-1] * LAMBDA)
    for digs in itertools.product(range(5), repeat=k):
        x = CycInt(digs[0])
        for i in range(1, k):
            if digs[i]:
                x = x + powers[i] * digs[i]
        yield x


@functools.cache
def fifth_power_keys(k):
    """The lambda_key mod lambda^k of every unit's fifth power, by
    enumeration.  (a + lambda^m*y)^5 = a^5 (mod lambda^(m+4)), so x^5 mod
    lambda^k depends only on x mod lambda^max(1, k-4)."""
    return frozenset(
        lambda_key(x ** 5, k)
        for x in iter_residues_mod_lambda_pow(max(1, k - 4))
        if lambda_residue(x)
    )


@functools.cache
def unit_image(k):
    """The image of the unit group in (Z[zeta]/lambda^k)^*, by breadth-first
    closure from 1 under -1, zeta, 1+zeta and (1+zeta)^-1.  Keys are the
    digit tuples of ``lambda_expand``, values the representatives the digits
    reassemble to.  Shared between calls: do not mutate."""
    f = ONE + ZETA
    gens = (-ONE, ZETA, f, mul(mul(galois(f, 1), galois(f, 2)), galois(f, 3)))
    image = {lambda_expand(ONE, k).digits: ONE}
    frontier = [ONE]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                expansion = lambda_expand(mul(x, g), k)
                if expansion.digits not in image:
                    rep = expansion.reassemble()
                    image[expansion.digits] = rep
                    nxt.append(rep)
        frontier = nxt
    return image


MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_rational_prime(n):
    """Miller-Rabin to all thirteen bases, whatever the size of n."""
    if n >= MILLER_RABIN_BOUND:
        raise ValueError(f"primality is not decided at or above {MILLER_RABIN_BOUND}")
    if n < 2:
        return False
    for b in MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for b in MILLER_RABIN_BASES:
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


def factor_window(lo, hi):
    """Yield (n, factorize(n)) for every n = lo..hi, from a segmented sieve
    over every integer: each block is sieved by every prime power p^k <= its
    top with p <= min(isqrt(hi), SIEVE_PRIME_LIMIT)."""
    primes = primes_up_to(min(math.isqrt(hi), SIEVE_PRIME_LIMIT))
    for start in range(lo, hi + 1, SIEVE_BLOCK):
        end = min(start + SIEVE_BLOCK - 1, hi)
        size = end - start + 1
        rest = list(range(start, end + 1))
        found = [[] for _ in range(size)]
        for p in primes:
            pk = p
            while pk <= end:
                for i in range(-start % pk, size, pk):
                    rest[i] //= p
                    found[i].append(p)
                pk *= p
        for i in range(size):
            factors = {}
            for p in found[i]:
                factors[p] = factors.get(p, 0) + 1
            if rest[i] >= SIEVE_PRIME_LIMIT * SIEVE_PRIME_LIMIT:
                factors.update(factorize(rest[i]))
            elif rest[i] > 1:
                factors[rest[i]] = 1
            yield start + i, factors


def scan_all(lo, hi):
    """scan_range(lo, hi) with every n factored and classified: the full
    sieve, then radicand_shape on every n, skipping those it finds not
    fifth-power-free."""
    out = []
    for n, factors in factor_window(lo, hi):
        try:
            out.append((n, radicand_shape(n, factors)[0].value))
        except NotFifthPowerFree:
            pass
    return out
