"""Exact arithmetic in Z[zeta], the ring of integers of the fifth cyclotomic field.

Elements are stored in the power basis {1, zeta, zeta^2, zeta^3} with
zeta^4 = -(1 + zeta + zeta^2 + zeta^3), so every element has a unique
coordinate vector and equality is coordinate equality.  All coordinates are
arbitrary-precision integers; nothing in this module ever rounds through
floats.

The ramified prime above 5 is lambda = 1 - zeta; 5 itself is a unit times
lambda^4.  The residue field Z[zeta]/(lambda) has five elements, realised by
the evaluation zeta -> 1.  A class modulo lambda^k is labelled by one integer,
``lambda_key``, and every lambda-adic decision compares such labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Union

IntoCycInt = Union["CycInt", int]


def _reduce_power_vector(v: list[int]) -> tuple[int, int, int, int]:
    # v holds coefficients of 1, z, z^2, z^3, z^4; eliminate z^4.
    return (v[0] - v[4], v[1] - v[4], v[2] - v[4], v[3] - v[4])


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
        if len(coords) != 4:
            raise ValueError("CycInt needs exactly 4 coordinates")
        return cls(*(int(c) for c in coords))

    @property
    def coords(self) -> tuple[int, int, int, int]:
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
        return CycInt(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])

    __radd__ = __add__

    def __sub__(self, other: IntoCycInt) -> "CycInt":
        if isinstance(other, int):
            other = CycInt(other)
        elif not isinstance(other, CycInt):
            return NotImplemented
        a, b = self._c, other._c
        return CycInt(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])

    def __rsub__(self, other: IntoCycInt) -> "CycInt":
        if not isinstance(other, int):
            return NotImplemented
        return (-self) + other

    def __neg__(self) -> "CycInt":
        a = self._c
        return CycInt(-a[0], -a[1], -a[2], -a[3])

    def __mul__(self, other: IntoCycInt) -> "CycInt":
        if isinstance(other, int):
            a = self._c
            return CycInt(a[0] * other, a[1] * other, a[2] * other, a[3] * other)
        if not isinstance(other, CycInt):
            return NotImplemented
        a, b = self._c, other._c
        v = [0, 0, 0, 0, 0, 0, 0]
        for i in range(4):
            ai = a[i]
            if ai:
                v[i] += ai * b[0]
                v[i + 1] += ai * b[1]
                v[i + 2] += ai * b[2]
                v[i + 3] += ai * b[3]
        # zeta^5 = 1 and zeta^6 = zeta
        v[0] += v[5]
        v[1] += v[6]
        return CycInt(*_reduce_power_vector(v[:5]))

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
        e = pow(2, j % 4, 5)
        if e == 1:
            return self
        v = [0, 0, 0, 0, 0]
        for i in range(4):
            v[(e * i) % 5] += self._c[i]
        return CycInt(*_reduce_power_vector(v))

    def norm(self) -> int:
        """Field norm to Z, the product of the four Galois conjugates.

        The field is totally imaginary, so the norm of a nonzero element is
        a positive rational integer.
        """
        p = self * self.galois(1) * self.galois(2) * self.galois(3)
        c = p._c
        if c[1] or c[2] or c[3]:
            raise AssertionError(f"norm did not land in Z: {p!r}")
        return c[0]

    def is_unit(self) -> bool:
        return not self.is_zero() and self.norm() == 1

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


ZERO = CycInt(0)
ONE = CycInt(1)
ZETA = CycInt(0, 1)
LAMBDA = CycInt(1, -1)

# Powers of zeta, reduced: zeta^4 = -(1+zeta+zeta^2+zeta^3).
ZETA_POWERS = (ONE, ZETA, CycInt(0, 0, 1), CycInt(0, 0, 0, 1), CycInt(-1, -1, -1, -1))

# (1-zeta^2)(1-zeta^3)(1-zeta^4) = 5/lambda; used for exact division by lambda.
_FIVE_OVER_LAMBDA = (ONE - ZETA_POWERS[2]) * (ONE - ZETA_POWERS[3]) * (ONE - ZETA_POWERS[4])


def _round_ratio(num: int, den: int) -> int:
    # Nearest integer to num/den for den > 0, ties rounding up.
    return (2 * num + den) // (2 * den)


_FALLBACK_OFFSETS = tuple(itertools.product((0, 1, -1), repeat=4))
_WIDE_OFFSETS = tuple(itertools.product((0, 1, -1, 2, -2), repeat=4))


def euclid_divmod(a: CycInt, b: CycInt) -> tuple[CycInt, CycInt]:
    """Division with remainder: a = q*b + r with norm(r) < norm(b).

    The quotient starts from nearest-integer rounding of the exact field
    quotient a * conj(b) / norm(b).  Z[zeta] is norm-Euclidean but rounding
    alone carries no proof, so if the remainder is not small enough the
    quotient is perturbed over a small offset grid until it is.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero in Z[zeta]")
    conj = b.galois(1) * b.galois(2) * b.galois(3)
    nb = (b * conj).coords[0]
    num = a * conj
    q0 = tuple(_round_ratio(c, nb) for c in num.coords)
    q = CycInt(*q0)
    r = a - q * b
    if r.norm() < nb:
        return q, r
    for offsets in (_FALLBACK_OFFSETS, _WIDE_OFFSETS):
        for off in offsets:
            qq = CycInt(q0[0] + off[0], q0[1] + off[1], q0[2] + off[2], q0[3] + off[3])
            rr = a - qq * b
            if rr.norm() < nb:
                return qq, rr
    raise ArithmeticError(f"euclidean division failed for {a!r} / {b!r}")


def gcd(a: CycInt, b: CycInt) -> CycInt:
    """Greatest common divisor, defined up to a unit.

    The result is not unit-normalised; callers that need a particular
    associate must fix one themselves.
    """
    if a.is_zero() and b.is_zero():
        raise ValueError("gcd(0, 0) is undefined")
    while not b.is_zero():
        a, b = b, euclid_divmod(a, b)[1]
    return a


def lambda_residue(x: CycInt) -> int:
    """Image of x in the five-element residue field Z[zeta]/(lambda).

    The reduction map sends zeta to 1, so the image is the coordinate sum
    mod 5.
    """
    c = x.coords
    return (c[0] + c[1] + c[2] + c[3]) % 5


def div_lambda_exact(x: CycInt) -> CycInt:
    """Exact division by lambda; raises if lambda does not divide x."""
    y = x * _FIVE_OVER_LAMBDA
    c = y.coords
    if any(v % 5 for v in c):
        raise ValueError(f"{x!r} is not divisible by lambda")
    return CycInt(c[0] // 5, c[1] // 5, c[2] // 5, c[3] // 5)


def lambda_valuation(x: CycInt) -> int:
    """The exponent of lambda in x (x nonzero)."""
    if x.is_zero():
        raise ValueError("valuation of zero is undefined")
    v = 0
    while lambda_residue(x) == 0:
        x = div_lambda_exact(x)
        v += 1
    return v


@dataclass(frozen=True)
class LambdaExpansion:
    """Digits d_i in {0..4} with x = sum d_i lambda^i modulo lambda^len."""

    digits: tuple[int, ...]

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
    """The unique length-k lambda-adic expansion of x with digits in {0..4}.

    Each digit is the residue-field image of the running cofactor; the
    cofactor is then advanced by one exact division by lambda.
    """
    if k < 1:
        raise ValueError("expansion length must be at least 1")
    digits = []
    for _ in range(k):
        d = lambda_residue(x)
        digits.append(d)
        x = div_lambda_exact(x - d)
    return LambdaExpansion(tuple(digits))


def lambda_key(x: CycInt, k: int) -> int:
    """An integer in range(5^k) labelling the class of x modulo lambda^k.

    With zeta = 1 - lambda, x = a0 + a1*lambda + a2*lambda^2 + a3*lambda^3
    for integers a_j, and lambda^j * 5^e has valuation 4e + j.  These
    valuations differ mod 4, so x lies in (lambda^k) exactly when each a_j is
    divisible by 5^ceil((k-j)/4).  The key packs the a_j modulo those powers,
    whose product is 5^k, in mixed radix; key 0 is the class of 0.
    """
    if k < 1:
        raise ValueError("expansion length must be at least 1")
    c0, c1, c2, c3 = x.coords
    m0, m1, m2, m3 = (5 ** ((k - j + 3) // 4) for j in range(4))
    a0 = (c0 + c1 + c2 + c3) % m0
    a1 = -(c1 + 2 * c2 + 3 * c3) % m1
    a2 = (c2 + 3 * c3) % m2
    a3 = -c3 % m3
    return a0 + m0 * (a1 + m1 * (a2 + m2 * a3))


def congruent_mod_lambda_pow(x: CycInt, y: CycInt, k: int) -> bool:
    """True iff x and y agree modulo the ideal (lambda^k): their keys are equal."""
    return lambda_key(x - y, k) == 0


def _reduce_coords(x: CycInt, m: int) -> CycInt:
    c = x.coords
    return CycInt(c[0] % m, c[1] % m, c[2] % m, c[3] % m)


def lambda_inverse(x: CycInt, k: int) -> CycInt:
    """An inverse of x modulo lambda^k, for x coprime to lambda.

    (Z[zeta]/lambda^k)^* has order 4*5^(k-1), so x^(4*5^(k-1) - 1) inverts
    x.  The power is taken with coordinates reduced mod 5^ceil(k/4), which
    lies in (lambda^k), so the result stays small.
    """
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


def _lambda_power_basis(k: int) -> list[CycInt]:
    powers = [ONE]
    for _ in range(k - 1):
        powers.append(powers[-1] * LAMBDA)
    return powers


def iter_residues_mod_lambda_pow(k: int) -> Iterator[CycInt]:
    """All 5^k residues modulo lambda^k in digit order."""
    powers = _lambda_power_basis(k)
    for digs in itertools.product(range(5), repeat=k):
        x = CycInt(digs[0])
        for i in range(1, k):
            if digs[i]:
                x = x + powers[i] * digs[i]
        yield x


# Keys of the fifth powers of units modulo lambda^k, filled per k on first use.
_FIFTH_POWER_KEYS: dict[int, frozenset[int]] = {}


def fifth_power_solvable_mod_lambda(theta: CycInt, k: int) -> bool:
    """Decide x^5 = theta (mod lambda^k) by looking up theta's key.

    Requires lambda coprime to theta and k <= 8.  Since
    (a + lambda^m*y)^5 = a^5 (mod lambda^(m+4)), x^5 mod lambda^k depends
    only on x mod lambda^max(1, k-4); the keys of those at most 500 fifth
    powers are computed once per k.
    """
    if k < 1:
        raise ValueError("modulus exponent must be at least 1")
    if k > 8:
        raise ValueError("modulus exponent beyond supported bound 8")
    if lambda_residue(theta) == 0:
        raise ValueError("theta must be coprime to lambda")
    keys = _FIFTH_POWER_KEYS.get(k)
    if keys is None:
        keys = frozenset(
            lambda_key(x ** 5, k)
            for x in iter_residues_mod_lambda_pow(max(1, k - 4))
            if lambda_residue(x)
        )
        _FIFTH_POWER_KEYS[k] = keys
    return lambda_key(theta, k) in keys
