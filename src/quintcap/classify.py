"""Classification of radicands into the three admissible shapes.

A fifth-power-free n > 1 is admissible when it matches one of:

  p^e        with p = 1 (mod 25) and n in {+-1, +-7} (mod 25)
  p^e * q    with p = 1 (mod 5), p != 1 (mod 25), q = +-2 (mod 5),
             q != +-7 (mod 25), and n in {+-1, +-7} (mod 25)
  5^e * p    with p = 1 (mod 5), p != 1 (mod 25), and n not in {+-1, +-7}

with 1 <= e <= 4 throughout.  These are exactly the shapes for which the
downstream capitulation tables apply; everything else is NO_MATCH.  The
rules fix n mod 25 to SHAPE_RESIDUES = {0, 1, 5, 7, 18}, so a
fifth-power-free n in any other class is NO_MATCH before it is factored;
the scanner factors only members of those five classes, and only those
whose small primes fit the shape of their class.

n is factored by ``factor.factorize`` (Miller-Rabin and Brent's rho), so
every n below ``factor.MILLER_RABIN_BOUND`` is classified.  So is a larger
n whose part free of the primes up to TRIAL_DIVISION_LIMIT = 4*10^6 is below
that bound, or is a perfect power of a number below it: every n that
``trial_factor`` answers is among them.  FactorizationLimitExceeded is
raised for the rest.  ``radicand_shape`` applies the shape rules to a
factorisation already at hand, such as one from the scanner's sieve.
``trial_factor`` is the plain trial-division factoriser, kept as a
reference.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from enum import Enum

# TRIAL_DIVISION_LIMIT is also the default largest divisor of trial_factor,
# which raises rather than go past it.
from .factor import TRIAL_DIVISION_LIMIT, factorize

ADMISSIBLE_RESIDUES = frozenset({1, 7, 18, 24})

# n mod 25 of every n that can have a shape.  p^e needs p = 1 (mod 25), so
# n = 1.  p^e*q needs n in ADMISSIBLE_RESIDUES, and n = p^e*q = q = +-2
# (mod 5) leaves 7 and 18 of those.  5^e*p needs p = 1 (mod 5), so
# 5p = 5 (mod 25): n = 5 (mod 25) when e = 1 and n = 0 when e >= 2.  Class
# 24 of ADMISSIBLE_RESIDUES holds no shape.  A fifth-power-free n in any
# class outside these five is NO_MATCH.
SHAPE_RESIDUES = frozenset({0, 1, 5, 7, 18})

# q = +-7 (mod 25) is excluded in the p^e*q shape.
_EXCLUDED_Q_RESIDUES = frozenset({7, 18})


class ClassificationError(ValueError):
    pass


class NotFifthPowerFree(ClassificationError):
    pass


class FactorizationLimitExceeded(ClassificationError):
    pass


class RadicandForm(Enum):
    PRIME_POWER = "p^e"
    PRIME_POWER_TIMES_Q = "p^e*q"
    FIVE_POWER_TIMES_P = "5^e*p"
    NO_MATCH = "no_match"


@dataclass(frozen=True)
class RadicandClass:
    n: int
    form: RadicandForm
    p: int | None
    q: int | None
    e: int
    residue_mod_25: int

    def reconstruct(self) -> int:
        if self.form is RadicandForm.PRIME_POWER:
            assert self.p is not None
            return self.p ** self.e
        if self.form is RadicandForm.PRIME_POWER_TIMES_Q:
            assert self.p is not None and self.q is not None
            return self.p ** self.e * self.q
        if self.form is RadicandForm.FIVE_POWER_TIMES_P:
            assert self.p is not None
            return 5 ** self.e * self.p
        return self.n


def trial_factor(n: int, limit: int = TRIAL_DIVISION_LIMIT) -> dict[int, int]:
    """Factor n by trial division, raising once divisors would exceed ``limit``."""
    factors: dict[int, int] = {}
    m = n
    d = 2
    while d * d <= m:
        if d > limit:
            raise FactorizationLimitExceeded(
                f"factoring {n} needs trial divisors beyond {limit}"
            )
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors[d] = e
        d += 1 if d == 2 else 2
    if m > 1:
        factors[m] = factors.get(m, 0) + 1
    return factors


Shape = tuple[RadicandForm, int | None, int | None, int]

_NO_MATCH: Shape = (RadicandForm.NO_MATCH, None, None, 0)


def classify_radicand(n: int) -> RadicandClass:
    """Decide which admissible shape n has, or NO_MATCH.

    Raises NotFifthPowerFree when some prime divides n at least five times,
    and FactorizationLimitExceeded when factorize refuses n: a cofactor
    at or above MILLER_RABIN_BOUND stays there after trial division up to
    TRIAL_DIVISION_LIMIT and is no perfect power.  Raises TypeError for an
    n that is not an integer, such as a float, str or Fraction.
    """
    n = operator.index(n)
    if n <= 1:
        raise ClassificationError(f"radicand must exceed 1, got {n}")
    try:
        factors = factorize(n)
    except ValueError as exc:
        raise FactorizationLimitExceeded(str(exc)) from None
    form, p, q, e = radicand_shape(n, factors)
    return RadicandClass(n, form, p, q, e, n % 25)


def radicand_shape(n: int, factors: dict[int, int]) -> Shape:
    """(form, p, q, e) of n > 1 from its factorisation {prime: exponent}.

    These are the fields of classify_radicand(n); NO_MATCH comes with
    (None, None, 0).  Raises NotFifthPowerFree like classify_radicand.
    """
    if max(factors.values()) >= 5:
        raise NotFifthPowerFree(f"{n} is divisible by a fifth power")
    residue = n % 25

    if len(factors) == 1:
        (p, e), = factors.items()
        if p != 5 and p % 25 == 1 and residue in ADMISSIBLE_RESIDUES:
            return RadicandForm.PRIME_POWER, p, None, e
        return _NO_MATCH

    if len(factors) == 2:
        if 5 in factors:
            e5 = factors[5]
            (p, ep), = ((f, e) for f, e in factors.items() if f != 5)
            if (
                ep == 1
                and p % 5 == 1
                and p % 25 != 1
                and residue not in ADMISSIBLE_RESIDUES
            ):
                return RadicandForm.FIVE_POWER_TIMES_P, p, None, e5
            return _NO_MATCH
        split = [f for f in factors if f % 5 == 1]
        inert = [f for f in factors if f % 5 in (2, 3)]
        if len(split) == 1 and len(inert) == 1:
            p, q = split[0], inert[0]
            if (
                factors[q] == 1
                and p % 25 != 1
                and q % 25 not in _EXCLUDED_Q_RESIDUES
                and residue in ADMISSIBLE_RESIDUES
            ):
                return RadicandForm.PRIME_POWER_TIMES_Q, p, q, factors[p]
        return _NO_MATCH

    return _NO_MATCH
