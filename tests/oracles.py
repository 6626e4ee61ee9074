"""Slow reference versions of the ring kernel and the fifth-root search.

These are the bodies the straight-line kernel in ``quintcap.cyclotomic`` and
``quintcap.primes.fifth_roots_of_unity`` replaced; the tests cross-check the
fast code against them.
"""

from quintcap.cyclotomic import _FALLBACK_OFFSETS, _WIDE_OFFSETS, CycInt
from quintcap.factor import factorize


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
