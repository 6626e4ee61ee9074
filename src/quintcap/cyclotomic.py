"""Exact arithmetic in Z[zeta], the ring of integers of the fifth cyclotomic field.

Elements are stored in the power basis {1, zeta, zeta^2, zeta^3} with
zeta^4 = -(1 + zeta + zeta^2 + zeta^3), so every element has a unique
coordinate vector and equality is coordinate equality.  All coordinates are
arbitrary-precision integers; nothing in this module ever rounds through
floats.

The ring kernel is straight-line integer code.  A product is one closed
form reduced mod zeta^4 + zeta^3 + zeta^2 + zeta + 1, and each Galois
automorphism is a fixed permutation of the coordinates with a subtraction.
Norms go through the real subfield Q(eta), eta = zeta + zeta^4: for every x,
x * tau^2(x) = a + b*eta with integers a, b, and since eta and
tau(eta) = zeta^2 + zeta^3 have sum -1 and product -1,

    N(x) = (a + b*eta)(a + b*tau(eta)) = a^2 - a*b - b^2.

The same pair gives the conjugate product that Euclidean division needs:
tau(x) * tau^3(x) = tau(a + b*eta) = a + b*(zeta^2 + zeta^3), so
tau(x) * tau^2(x) * tau^3(x) = tau^2(x) * (a + b*zeta^2 + b*zeta^3).

Euclidean division is one private kernel, ``_divide``, on coordinate
tuples.  It takes the divisor's pair and norm and returns, with the quotient
and remainder, the remainder's pair and norm.  ``euclid_divmod`` computes
the divisor's pair once per call; ``gcd`` hands each remainder's pair and
norm to the next step, so a step of Euclid's algorithm computes one pair and
builds no CycInt.

The ramified prime above 5 is lambda = 1 - zeta; 5 itself is a unit times
lambda^4.  The lambda-adic layer reads one set of coordinates, the a_j with
x = sum a_j*lambda^j, j = 0..3: the residue mod lambda is a0 mod 5,
``lambda_key`` packs the a_j modulo powers of 5 and every lambda-adic decision
compares keys, and digits and valuations come from one step on the a_j.

Fifth powers need no search: for theta prime to lambda with residue d and
1 <= k <= 8, theta is a fifth power mod lambda^k exactly when
theta = d^5 (mod lambda^min(k, 6)), since (1 + lambda*y)^5 = 1 (mod lambda^6)
and (1 + lambda^2*y)^5 = 1 + 5*lambda^2*y (mod lambda^8) meets every class
that is 1 mod lambda^6; ``fifth_power_solvable_mod_lambda`` has the proof.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import Iterable, Union

from ._record import Record

IntoCycInt = Union["CycInt", int]
Coords = tuple[int, int, int, int]


def _mul(a: Coords, b: Coords) -> Coords:
    # Product of two coordinate vectors: zeta^5 = 1 folds the coefficients
    # of zeta^5 and zeta^6 onto 1 and zeta, and t, the coefficient of
    # zeta^4, is subtracted from every coordinate.
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    t = a1 * b3 + a2 * b2 + a3 * b1
    return (
        a0 * b0 + a2 * b3 + a3 * b2 - t,
        a0 * b1 + a1 * b0 + a3 * b3 - t,
        a0 * b2 + a1 * b1 + a2 * b0 - t,
        a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 - t,
    )


def _real_pair(c: Coords) -> tuple[int, int]:
    # (a, b) with x * tau^2(x) = a + b*(zeta + zeta^4): the coordinates 0
    # and 2 of that product are a - b and -b, written out in x's coordinates.
    c0, c1, c2, c3 = c
    return (
        c0 * c0 + c1 * c1 + c2 * c2 + c3 * c3 - c0 * (c2 + c3) - c1 * c3,
        c0 * (c1 - c2 - c3) + c1 * (c2 - c3) + c2 * c3,
    )


def _conj(c: Coords, s: int, t: int) -> Coords:
    # tau(x) * tau^2(x) * tau^3(x) = tau^2(x) * (s + t*zeta^2 + t*zeta^3)
    # for x's real pair (s, t), written out; x times it is N(x).
    c0, c1, c2, c3 = c
    return (
        (c0 - c1) * s + c2 * t,
        (c1 + c2 - c3) * t - c1 * s,
        (c3 - c1) * s + (c0 + c1 - c3) * t,
        (c2 - c1) * s + (c0 - c3) * t,
    )


def _norm(c: Coords) -> int:
    a, b = _real_pair(c)
    return a * a - a * b - b * b


class CycInt:
    """An element of Z[zeta] in canonical coordinates.

    Instances are immutable; every operation returns a new value, so values
    may be shared freely between threads or worker processes.
    """

    __slots__ = ("_c",)

    def __init__(self, c0: int, c1: int = 0, c2: int = 0, c3: int = 0) -> None:
        # Bitwise or raises TypeError for floats, fractions and other
        # non-integers, and costs far less on this hot path than four
        # isinstance checks.
        try:
            c0 | c1 | c2 | c3
        except TypeError:
            raise TypeError(
                f"CycInt coordinates must be integers, got {(c0, c1, c2, c3)!r}"
            ) from None
        self._c = (c0, c1, c2, c3)

    @classmethod
    def from_coords(cls, coords: "list[int] | tuple[int, ...]") -> "CycInt":
        """The element with these four integer coordinates; like the
        constructor, raises TypeError for a float or other non-integer."""
        if len(coords) != 4:
            raise ValueError("CycInt needs exactly 4 coordinates")
        return cls(*map(operator.index, coords))

    @property
    def coords(self) -> Coords:
        return self._c

    def __repr__(self) -> str:
        return f"CycInt{self._c}"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = CycInt(other)
        if isinstance(other, CycInt):
            return self._c == other._c
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._c)

    def __bool__(self) -> bool:
        return self._c != (0, 0, 0, 0)

    def is_zero(self) -> bool:
        return self._c == (0, 0, 0, 0)

    # Operands other than int and CycInt give NotImplemented, here and in
    # divmod, so Python raises TypeError instead of letting a float into the
    # coordinates.

    def __add__(self, other: IntoCycInt) -> "CycInt":
        if isinstance(other, int):
            other = CycInt(other)
        elif not isinstance(other, CycInt):
            return NotImplemented
        a, b = self._c, other._c
        return _new((a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3]))

    __radd__ = __add__

    def __sub__(self, other: IntoCycInt) -> "CycInt":
        if isinstance(other, int):
            other = CycInt(other)
        elif not isinstance(other, CycInt):
            return NotImplemented
        a, b = self._c, other._c
        return _new((a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3]))

    def __rsub__(self, other: IntoCycInt) -> "CycInt":
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __neg__(self) -> "CycInt":
        a = self._c
        return _new((-a[0], -a[1], -a[2], -a[3]))

    def __mul__(self, other: IntoCycInt) -> "CycInt":
        if isinstance(other, CycInt):
            return _new(_mul(self._c, other._c))
        if isinstance(other, int):
            a = self._c
            return _new((a[0] * other, a[1] * other, a[2] * other, a[3] * other))
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "CycInt":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[zeta]")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def galois(self, j: int) -> "CycInt":
        """Apply the automorphism tau^j, where tau sends zeta to zeta^2.

        tau has order 4; tau^2 is complex conjugation (zeta -> zeta^4).
        """
        try:
            j &= 3
        except TypeError:
            raise TypeError(f"galois exponent must be an integer, got {j!r}") from None
        if j == 0:
            return self
        c0, c1, c2, c3 = self._c
        if j == 1:
            return _new((c0 - c2, c3 - c2, c1 - c2, -c2))
        if j == 2:
            return _new((c0 - c1, -c1, c3 - c1, c2 - c1))
        return _new((c0 - c3, c2 - c3, -c3, c1 - c3))

    def norm(self) -> int:
        """Field norm to Z, the product of the four Galois conjugates.

        Computed as a^2 - a*b - b^2 from x * tau^2(x) = a + b*(zeta + zeta^4).
        The field is totally imaginary, so the norm of a nonzero element is
        a positive rational integer.
        """
        return _norm(self._c)

    def __divmod__(self, other: IntoCycInt) -> tuple["CycInt", "CycInt"]:
        if isinstance(other, int):
            other = CycInt(other)
        elif not isinstance(other, CycInt):
            return NotImplemented
        return euclid_divmod(self, other)

    def __floordiv__(self, other: IntoCycInt) -> "CycInt":
        return divmod(self, other)[0]

    def __mod__(self, other: IntoCycInt) -> "CycInt":
        return divmod(self, other)[1]


def _new(c: Coords) -> CycInt:
    # Wrap coordinates computed from already validated integers, skipping
    # the type check of CycInt.__init__.
    x = object.__new__(CycInt)
    x._c = c
    return x


ZERO = CycInt(0)
ONE = CycInt(1)
ZETA = CycInt(0, 1)
LAMBDA = CycInt(1, -1)


_FALLBACK_OFFSETS = tuple(itertools.product((0, 1, -1), repeat=4))


def _divide(
    ac: Coords, bc: Coords, s: int, t: int, nb: int
) -> tuple[Coords, Coords, int, int, int]:
    # One Euclidean step a = q*b + r on coordinates, given b's real pair
    # (s, t) and nb = N(b) > 0.  Returns q, r, r's real pair and N(r), so a
    # gcd hands the remainder's pair and norm on to the next step.
    a0, a1, a2, a3 = ac
    b0, b1, b2, b3 = bc
    k0, k1, k2, k3 = _conj(bc, s, t)
    # Nearest-integer rounding, ties up, of a * conj(b) / nb, as _mul(a, k).
    u = a1 * k3 + a2 * k2 + a3 * k1
    den = 2 * nb
    q0 = (2 * (a0 * k0 + a2 * k3 + a3 * k2 - u) + nb) // den
    q1 = (2 * (a0 * k1 + a1 * k0 + a3 * k3 - u) + nb) // den
    q2 = (2 * (a0 * k2 + a1 * k1 + a2 * k0 - u) + nb) // den
    q3 = (2 * (a0 * k3 + a1 * k2 + a2 * k1 + a3 * k0 - u) + nb) // den
    # The grid starts with the zero offset, the rounded quotient itself.
    for o0, o1, o2, o3 in _FALLBACK_OFFSETS:
        x0, x1, x2, x3 = q0 + o0, q1 + o1, q2 + o2, q3 + o3
        # r = a - _mul(x, b), then r's real pair as in _real_pair.
        u = x1 * b3 + x2 * b2 + x3 * b1
        r0 = a0 - x0 * b0 - x2 * b3 - x3 * b2 + u
        r1 = a1 - x0 * b1 - x1 * b0 - x3 * b3 + u
        r2 = a2 - x0 * b2 - x1 * b1 - x2 * b0 + u
        r3 = a3 - x0 * b3 - x1 * b2 - x2 * b1 - x3 * b0 + u
        sr = r0 * r0 + r1 * r1 + r2 * r2 + r3 * r3 - r0 * (r2 + r3) - r1 * r3
        tr = r0 * (r1 - r2 - r3) + r1 * (r2 - r3) + r2 * r3
        nr = sr * sr - sr * tr - tr * tr
        if nr < nb:
            return (x0, x1, x2, x3), (r0, r1, r2, r3), sr, tr, nr
    raise ArithmeticError(
        f"euclidean division failed for {_new(ac)!r} / {_new(bc)!r}"
    )


def euclid_divmod(a: CycInt, b: CycInt) -> tuple[CycInt, CycInt]:
    """Division with remainder: a = q*b + r with norm(r) < norm(b).

    The quotient starts from nearest-integer rounding, ties rounding up, of
    the exact field quotient a * conj(b) / norm(b), where conj(b) =
    tau^2(b) * (s + t*zeta^2 + t*zeta^3) and norm(b) = s^2 - s*t - t^2 for
    b * tau^2(b) = s + t*(zeta + zeta^4).  Z[zeta] is norm-Euclidean but
    rounding alone carries no proof, so if the remainder is not small enough
    the quotient is perturbed over the offset grid {0, +-1}^4 until it is,
    and a division that no offset rescues raises ArithmeticError.

    The step is the private kernel ``_divide`` on coordinate tuples: it
    takes b's pair (s, t) and norm, computed here once, and returns the
    remainder's pair and norm along with q and r, which ``gcd`` reuses.
    """
    bc = b._c
    if bc == (0, 0, 0, 0):
        raise ZeroDivisionError("division by zero in Z[zeta]")
    s, t = _real_pair(bc)
    q, r = _divide(a._c, bc, s, t, s * s - s * t - t * t)[:2]
    return _new(q), _new(r)


def gcd(a: CycInt, b: CycInt) -> CycInt:
    """Greatest common divisor, defined up to a unit.

    Euclid's algorithm on coordinate tuples with the kernel of
    ``euclid_divmod``: each step returns the remainder's real pair and norm,
    which are the divisor's pair and norm in the next step, so every step
    computes one pair.  The loop ends at the remainder of norm 0, which is 0.
    The result is not unit-normalised; callers that need a particular
    associate must fix one themselves.
    """
    ac, bc = a._c, b._c
    if bc == (0, 0, 0, 0):
        if ac == (0, 0, 0, 0):
            raise ValueError("gcd(0, 0) is undefined")
        return a
    s, t = _real_pair(bc)
    nb = s * s - s * t - t * t
    while nb:
        _, r, s, t, nr = _divide(ac, bc, s, t, nb)
        ac, bc, nb = bc, r, nr
    return _new(ac)


def lambda_residue(x: CycInt) -> int:
    """Image of x in the five-element residue field Z[zeta]/(lambda).

    The reduction map sends zeta to 1, so the image is the coordinate sum
    mod 5.
    """
    c = x.coords
    return (c[0] + c[1] + c[2] + c[3]) % 5


def _lambda_coords(x: CycInt) -> Coords:
    """The integers a_j with x = a0 + a1*lambda + a2*lambda^2 + a3*lambda^3."""
    c0, c1, c2, c3 = x._c
    return (c0 + c1 + c2 + c3, -(c1 + 2 * c2 + 3 * c3), c2 + 3 * c3, -c3)


def _lambda_step(a: Coords) -> tuple[int, Coords]:
    """The digit d = a0 mod 5 of x and the lambda-coordinates of (x - d)/lambda.

    With a0 = d + 5m, (x - d)/lambda = a1 + a2*lambda + a3*lambda^2 +
    m*(5/lambda), and Phi_5(1 - lambda) = 0 solved for 5 gives
    5/lambda = 10 - 10*lambda + 5*lambda^2 - lambda^3.
    """
    m, d = divmod(a[0], 5)
    return d, (a[1] + 10 * m, a[2] - 10 * m, a[3] + 5 * m, -m)


def lambda_valuation(x: CycInt) -> int:
    """The exponent of lambda in x (x nonzero): its count of leading zero digits."""
    if lambda_residue(x):
        return 0
    if x.is_zero():
        raise ValueError("valuation of zero is undefined")
    a, v = _lambda_coords(x), 0
    while a[0] % 5 == 0:
        a = _lambda_step(a)[1]
        v += 1
    return v


class LambdaExpansion(Record):
    """Digits d_i in {0..4} with x = sum d_i lambda^i modulo lambda^len."""

    __slots__ = ("digits",)

    def __init__(self, digits: tuple[int, ...]) -> None:
        self._set(digits)

    def __len__(self) -> int:
        return len(self.digits)

    def is_zero(self) -> bool:
        return all(d == 0 for d in self.digits)

    def reassemble(self) -> CycInt:
        acc = ZERO
        power = ONE
        for d in self.digits:
            if d:
                acc = acc + power * d
            power = power * LAMBDA
        return acc


def lambda_expand(x: CycInt, k: int) -> LambdaExpansion:
    """The length-k lambda-adic expansion of x, digits in {0..4}, by ``_lambda_step``."""
    if k < 1:
        raise ValueError("expansion length must be at least 1")
    a = _lambda_coords(x)
    digits = []
    for _ in range(k):
        d, a = _lambda_step(a)
        digits.append(d)
    return LambdaExpansion(tuple(digits))


@functools.cache
def _key_moduli(k: int) -> Coords:
    """The moduli m_j = 5^ceil((k-j)/4), j = 0..3, of the digits of ``lambda_key``."""
    if k < 1:
        raise ValueError("expansion length must be at least 1")
    return tuple(5 ** ((k - j + 3) // 4) for j in range(4))


def lambda_key(x: CycInt, k: int) -> int:
    """An integer in range(5^k) labelling the class of x modulo lambda^k.

    For x = sum a_j*lambda^j (``_lambda_coords``): lambda^j * 5^e has
    valuation 4e + j, distinct mod 4, so x lies in (lambda^k) exactly when
    each a_j is divisible by 5^ceil((k-j)/4).  The key packs the a_j modulo
    those powers, whose product is 5^k, in mixed radix; key 0 is the class of 0.
    """
    (a0, a1, a2, a3), (m0, m1, m2, m3) = _lambda_coords(x), _key_moduli(k)
    return a0 % m0 + m0 * (a1 % m1 + m1 * (a2 % m2 + m2 * (a3 % m3)))


def lambda_multiple_keys(x: CycInt, k: int, scalars: Iterable[int]) -> list[int]:
    """lambda_key(c*x, k) for each integer c in scalars, without a ring product.

    The a_j of ``lambda_key`` are Z-linear in the coordinates, so c*x has
    the digits c*a_j, taken modulo the same powers of 5.
    """
    (a0, a1, a2, a3), (m0, m1, m2, m3) = _lambda_coords(x), _key_moduli(k)
    return [
        c * a0 % m0 + m0 * (c * a1 % m1 + m1 * (c * a2 % m2 + m2 * (c * a3 % m3)))
        for c in scalars
    ]


def congruent_mod_lambda_pow(x: CycInt, y: CycInt, k: int) -> bool:
    """True iff x and y agree modulo the ideal (lambda^k): their keys are equal."""
    return lambda_key(x - y, k) == 0


def lambda_inverse(x: CycInt, k: int) -> CycInt:
    """An inverse of x modulo lambda^k, for x coprime to lambda.

    x * conj(x) = N(x), where conj(x) = tau^2(x) * (s + t*zeta^2 + t*zeta^3)
    and N(x) = s^2 - s*t - t^2 for x * tau^2(x) = s + t*(zeta + zeta^4), as
    in ``euclid_divmod``.  N(x) is prime to 5 exactly when x is prime to
    lambda, so conj(x) * N(x)^-1 inverts x modulo any power of 5.  It is
    taken modulo m = 5^ceil(k/4), which lies in (lambda^k); the coordinates
    of the result are in range(m).  Only the class modulo lambda^k is
    meaningful, not the representative.
    """
    if k < 1:
        raise ValueError("expansion length must be at least 1")
    if lambda_residue(x) == 0:
        raise ValueError(f"{x!r} is not invertible modulo lambda")
    m = _key_moduli(k)[0]
    c = tuple(v % m for v in x._c)
    s, t = _real_pair(c)
    inv = pow(s * s - s * t - t * t, -1, m)
    return _new(tuple(v * inv % m for v in _conj(c, s, t)))


# omega = d^5 mod 25 for each residue d mod lambda.
_TEICHMULLER = tuple(d**5 % 25 for d in range(5))


def fifth_power_solvable_mod_lambda(theta: CycInt, k: int) -> bool:
    """Decide x^5 = theta (mod lambda^k) by the Teichmueller rule.

    Requires lambda coprime to theta and 1 <= k <= 8.  With d theta's
    residue mod lambda and omega = d^5 mod 25, theta is a fifth power mod
    lambda^k exactly when theta = omega (mod lambda^min(k, 6)).  Proof:
    5 = -lambda^4 * (1 mod lambda) and y^5 = y (mod lambda), so
    (1 + lambda*y)^5 = 1 (mod lambda^6) and x^5 = omega (mod lambda^6);
    and (1 + lambda^2*y)^5 = 1 + 5*lambda^2*y (mod lambda^8) meets every
    class that is 1 mod lambda^6.  The key of the integer omega mod lambda^j
    is omega mod 5^ceil(j/4), so the test is one key comparison.
    """
    if k < 1:
        raise ValueError("modulus exponent must be at least 1")
    if k > 8:
        raise ValueError("modulus exponent beyond supported bound 8")
    d = lambda_residue(theta)
    if d == 0:
        raise ValueError("theta must be coprime to lambda")
    j = min(k, 6)
    return lambda_key(theta, j) == _TEICHMULLER[d] % _key_moduli(j)[0]
