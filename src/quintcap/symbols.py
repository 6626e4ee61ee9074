"""Quintic power residue symbol and the split/inert/ramified trichotomy."""

from __future__ import annotations

from enum import Enum

from .cyclotomic import CycInt, _fifth_power_level, euclid_divmod, lambda_valuation
from .primes import PrimeElement, PrimeKind, UnsupportedPrimeError, residue_field_reduce


class UndefinedSymbolError(ValueError):
    """The symbol argument is divisible by the prime."""


class DecompositionType(Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def quintic_symbol(a: CycInt, pi: PrimeElement) -> int:
    """The exponent j with (a/pi) = zeta^j, for a split prime pi.

    Computed as a^((p-1)/5) in the residue field; the result is matched
    against the images of zeta^0..zeta^4, i.e. the powers of the stored
    root.  Exponent 0 means X^5 = a (mod pi) is solvable.
    """
    if pi.kind is not PrimeKind.SPLIT:
        raise UnsupportedPrimeError(
            "the quintic symbol is evaluated at split primes only"
        )
    p = pi.rational_below
    image = residue_field_reduce(a, pi)
    if image == 0:
        raise UndefinedSymbolError("symbol undefined: prime divides the argument")
    s = pow(image, (p - 1) // 5, p)
    root = pi.root
    assert root is not None
    for j in range(5):
        if pow(root, j, p) == s:
            return j
    raise ArithmeticError(f"residue {s} is not a fifth root of unity mod {p}")


def prime_valuation(x: CycInt, pi: PrimeElement) -> tuple[int, CycInt]:
    """Exponent of the split prime pi in x, plus the coprime cofactor."""
    if x.is_zero():
        raise ValueError("valuation of zero is undefined")
    v = 0
    while residue_field_reduce(x, pi) == 0:
        q, r = euclid_divmod(x, pi.value)
        if not r.is_zero():
            raise ArithmeticError("inexact division during valuation")
        x = q
        v += 1
    return v, x


def decomposition_type(theta: CycInt, at: PrimeElement) -> DecompositionType:
    """How ``at`` decomposes in the degree-5 Kummer extension generated by theta.

    Split prime: ramified when the valuation of theta is nonzero mod 5,
    otherwise split exactly when the symbol of the coprime part vanishes.
    Lambda: split iff theta is a fifth power mod lambda^6, inert iff mod
    lambda^5 but not lambda^6, else ramified.  By the Teichmueller rule
    (``fifth_power_solvable_mod_lambda``, with its proof), theta is a fifth
    power mod lambda^k, k <= 6, iff theta = d^5 (mod lambda^k) for its
    residue d mod lambda, as (1 + lambda*y)^5 = 1 (mod lambda^6).  So one
    fifth-power level decides, min(6, v(theta - omega)) for omega = d^5 mod
    25, read off the lambda-coordinates b_j of theta - omega as
    min_j(4*v_5(b_j) + j) (``_fifth_power_level``): 6 is split, 5 inert,
    1 to 4 ramified, and 0, lambda dividing theta, goes by the valuation.
    Inert primes are out of scope.
    """
    if theta.is_zero():
        raise ValueError("theta must be nonzero")
    if at.kind is PrimeKind.SPLIT:
        v, cofactor = prime_valuation(theta, at)
        if v >= 5:
            raise ValueError("theta must be fifth-power-free at the prime")
        if v % 5 != 0:
            return DecompositionType.RAMIFIED
        if quintic_symbol(cofactor, at) == 0:
            return DecompositionType.SPLIT
        return DecompositionType.INERT
    if at.kind is PrimeKind.LAMBDA:
        level = _fifth_power_level(theta)
        if level == 6:
            return DecompositionType.SPLIT
        if level == 5:
            return DecompositionType.INERT
        if level == 0 and lambda_valuation(theta) >= 5:
            raise ValueError("theta must be fifth-power-free at lambda")
        return DecompositionType.RAMIFIED
    raise UnsupportedPrimeError("decomposition at inert primes is out of scope")
