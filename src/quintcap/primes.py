"""Factorisation of rational primes in Z[zeta] and associate normalisation.

A rational prime p behaves in one of three ways here: p = 5 ramifies as the
fourth power of lambda; p = 1 (mod 5) splits into four conjugate primes
pi_1..pi_4 with pi_{1+j} = tau^j(pi_1); p = +-2 (mod 5) stays inert.  Primes
p = 4 (mod 5) split into two degree-2 factors, which no caller here needs,
so they are rejected outright.

Conventions fixed by this module (recorded in reports):
  - pi_1 is cut out by the smallest root r of X^4+X^3+X^2+X+1 mod p, via
    gcd(p, zeta - r); then pi_3 = tau^2(pi_1) and the pairing used by the
    capitulation tables holds exactly, not just up to units.  The roots are
    the powers x, x^2, x^3, x^4 of x = h^((p-1)/5) for the first h = 2, 3, ...
    with x != 1: such an x has order 5, so it generates all four, and no
    primitive root (nor a factorisation of p - 1) is needed.
  - the unit group of Z[zeta] is (+-zeta^a) * (1+zeta)^t; 1+zeta has norm 1
    and generates the units modulo torsion.  The scan takes a in 0..4, t in
    -UNIT_BOUND..UNIT_BOUND, both signs; one table per k maps each class mod
    lambda^k that it meets to the first scanned unit in it.  The keys are
    classes of units, 1 among them, and the table is checked, when built, to
    be closed under multiplication by -1, zeta and 1+zeta: so it is the
    subgroup they generate, the whole unit image mod lambda^k, and a miss is
    a proof.  u*b = t (mod lambda^k) holds exactly when u lies in the class
    of t * b^-1, so a search over the scan is one lookup per target.

Rational integers are factored, and tested for primality, only in
``factor``; ``is_rational_prime`` is re-exported here under its old name.
"""

from __future__ import annotations

import operator
from enum import Enum
from typing import Iterator, Sequence

from ._record import Record
from .cyclotomic import (
    CycInt,
    LAMBDA,
    ONE,
    ZETA,
    gcd,
    lambda_inverse,
    lambda_key,
    lambda_multiple_keys,
)
from .factor import is_rational_prime


class UnsupportedPrimeError(ValueError):
    """Raised for primes whose splitting type is outside the supported cases."""


class AssociateNotFound(Exception):
    """No associate meets the congruence: the unit scan, which covers the
    full image of the unit group modulo lambda^k, has no hit."""


class PrimeKind(Enum):
    SPLIT = "split"
    INERT = "inert"
    LAMBDA = "lambda"


class PrimeElement(Record):
    """A prime of Z[zeta] with its Galois label.

    ``label`` is 1..4 for the split conjugates, 5 for an inert prime and 0
    for lambda.  ``root`` is the residue-field image of zeta (split only).
    """

    __slots__ = ("value", "kind", "label", "rational_below", "root")

    def __init__(
        self,
        value: CycInt,
        kind: PrimeKind,
        label: int,
        rational_below: int,
        root: int | None = None,
    ) -> None:
        self._set(value, kind, label, rational_below, root)


class SplittingData(Record):
    __slots__ = ("prime", "factors", "root")

    def __init__(self, prime: int, factors: tuple[PrimeElement, ...], root: int | None) -> None:
        self._set(prime, factors, root)


def fifth_roots_of_unity(p: int) -> list[int]:
    """The four primitive fifth roots of unity in F_p, ascending (p prime, 1 mod 5)."""
    if p % 5 != 1:
        raise ValueError(f"F_{p} has no primitive fifth root of unity: p != 1 (mod 5)")
    e = (p - 1) // 5
    for h in range(2, p):
        x = pow(h, e, p)
        if x != 1:
            return sorted(pow(x, i, p) for i in range(1, 5))
    raise ArithmeticError(f"no element of order 5 found modulo {p}")


def factor_rational_prime(p: int) -> SplittingData:
    """Factor p in Z[zeta] and label the factors.

    Split case: pi_1 = gcd(p, zeta - r) for the smallest root r, and
    pi_{1+j} = tau^j(pi_1).  The stored residue root of pi_{1+j} is
    r^(inverse of 2^j mod 5), so each factor carries its own evaluation map.
    Raises ValueError when p is not prime.
    """
    if not is_rational_prime(p):
        raise ValueError(f"{p} is not a rational prime")
    return _split_prime(p)


def _split_prime(p: int) -> SplittingData:
    """factor_rational_prime(p) for a p already proven prime, such as the p
    and q of a classification: p is not tested again."""
    if p == 5:
        lam = PrimeElement(LAMBDA, PrimeKind.LAMBDA, 0, 5)
        return SplittingData(5, (lam,), None)
    m = p % 5
    if m in (2, 3):
        inert = PrimeElement(CycInt(p), PrimeKind.INERT, 5, p)
        return SplittingData(p, (inert,), None)
    if m == 4:
        raise UnsupportedPrimeError(
            f"p = {p} = 4 (mod 5) splits into degree-2 factors; unsupported"
        )
    r = fifth_roots_of_unity(p)[0]
    pi1 = gcd(CycInt(p), ZETA - CycInt(r))
    if pi1.norm() != p:
        raise ArithmeticError(f"gcd did not produce a degree-1 prime above {p}")
    factors = []
    for j in range(4):
        inv = pow(pow(2, j, 5), -1, 5)
        factors.append(
            PrimeElement(pi1.galois(j), PrimeKind.SPLIT, j + 1, p, pow(r, inv, p))
        )
    return SplittingData(p, tuple(factors), r)


def residue_field_reduce(x: CycInt, pi: PrimeElement) -> int:
    """Evaluate x under zeta -> root in F_p; the kernel is exactly (pi)."""
    if pi.kind is not PrimeKind.SPLIT or pi.root is None:
        raise UnsupportedPrimeError("residue reduction needs a split prime with a root")
    p = pi.rational_below
    r = pi.root
    c = x.coords
    return (c[0] + c[1] * r + c[2] * r * r + c[3] * r * r * r) % p


# --- unit search ---------------------------------------------------------

ONE_PLUS_ZETA = ONE + ZETA
_INV_ONE_PLUS_ZETA = (
    ONE_PLUS_ZETA.galois(1) * ONE_PLUS_ZETA.galois(2) * ONE_PLUS_ZETA.galois(3)
)

UNIT_BOUND = 8
# How reports describe the scan order of ``iter_units``.
UNIT_SCAN = f"sign * zeta^a * (1+zeta)^t; a ascending 0..4, t by |t| <= {UNIT_BOUND}, sign +,-"


class UnitWord(Record):
    """A unit written as sign * zeta^zeta_exp * (1+zeta)^fund_exp."""

    __slots__ = ("zeta_exp", "fund_exp", "sign")

    def __init__(self, zeta_exp: int, fund_exp: int, sign: int) -> None:
        self._set(zeta_exp, fund_exp, sign)

    def render(self) -> str:
        parts = [] if self.sign > 0 else ["-1"]
        if self.zeta_exp:
            parts.append(f"zeta^{self.zeta_exp}" if self.zeta_exp > 1 else "zeta")
        if self.fund_exp:
            parts.append(f"(1+zeta)^{self.fund_exp}")
        return "*".join(parts) if parts else "1"


def iter_units() -> Iterator[tuple[UnitWord, CycInt]]:
    """Scan units +-zeta^a (1+zeta)^t: a ascending, t by |t| <= UNIT_BOUND, then sign."""
    t_order = [0]
    for t in range(1, UNIT_BOUND + 1):
        t_order.append(t)
        t_order.append(-t)
    fund_powers = {0: ONE}
    pos = neg = ONE
    for t in range(1, UNIT_BOUND + 1):
        pos = pos * ONE_PLUS_ZETA
        neg = neg * _INV_ONE_PLUS_ZETA
        fund_powers[t] = pos
        fund_powers[-t] = neg
    for a in range(5):
        za = ZETA ** a
        for t in t_order:
            base = za * fund_powers[t]
            for sign in (1, -1):
                yield UnitWord(a, t, sign), (base if sign > 0 else -base)


# Per k, lambda_key class -> (scan index, word, unit) of the first scanned
# unit in that class; filled on first use and never rebuilt.
_UNIT_TABLES: dict[int, dict[int, tuple[int, UnitWord, CycInt]]] = {}


def _unit_table(k: int) -> dict[int, tuple[int, UnitWord, CycInt]]:
    table = _UNIT_TABLES.get(k)
    if table is None:
        table = {}
        for index, (word, u) in enumerate(iter_units()):
            table.setdefault(lambda_key(u, k), (index, word, u))
        # Keys closed under the generators, 1 among them: the whole image.
        for _, _, u in table.values():
            for g in (-ONE, ZETA, ONE_PLUS_ZETA):
                if lambda_key(u * g, k) not in table:
                    raise ArithmeticError(
                        f"the unit scan misses part of the unit image mod lambda^{k}"
                    )
        _UNIT_TABLES[k] = table
    return table


def unit_residues_mod_lambda_pow(k: int) -> dict[int, CycInt]:
    """The image of the unit group in (Z[zeta]/lambda^k)^*, as a copy of the
    unit table: lambda_key of each class -> the first scanned unit in it."""
    return {key: u for key, (_, _, u) in _unit_table(k).items()}


def first_unit_hit(
    b: CycInt, k: int, rows: Sequence[Sequence[int]]
) -> tuple[UnitWord, CycInt, int, int] | None:
    """(word, u, r, i) for the first row rows[r] that some unit meets: u is
    the earliest unit of ``iter_units()`` with u*b = t (mod lambda^k) for a
    target t of that row, and rows[r][i] the first such target.

    b is coprime to lambda and inverted once.  Each lookup is the class of
    t * b^-1, by ``lambda_multiple_keys``: the targets are integers, and any
    other target raises TypeError.  The table holds the whole unit image,
    so None proves that no unit meets any target.
    """
    x = lambda_inverse(b, k)
    table = _unit_table(k)
    for r, targets in enumerate(rows):
        keys = lambda_multiple_keys(x, k, map(operator.index, targets))
        hits = [(table[key][0], i) for i, key in enumerate(keys) if key in table]
        if hits:
            _, i = min(hits)
            _, word, u = table[keys[i]]
            return word, u, r, i
    return None


class AssociateNormalization(Record):
    __slots__ = ("unit", "unit_word", "normalized", "residue")

    def __init__(
        self, unit: CycInt, unit_word: UnitWord, normalized: CycInt, residue: CycInt
    ) -> None:
        self._set(unit, unit_word, normalized, residue)


def normalize_associate(
    pi: PrimeElement, k: int, targets: Sequence[int]
) -> AssociateNormalization:
    """Find a unit u with u*pi congruent to one of ``targets`` mod lambda^k.

    Returns the first hit of the unit scan in its fixed order, found by
    looking up t * pi^-1 for each target t.  The scan covers the full unit
    image mod lambda^k, so a miss proves that no associate of pi meets the
    congruence, and AssociateNotFound is raised.  A target that is not an
    integer raises TypeError.
    """
    if pi.kind is not PrimeKind.SPLIT:
        raise UnsupportedPrimeError("associate normalisation is defined for split primes")
    if not 1 <= k <= 5:
        raise ValueError("modulus exponent must be in 1..5")
    targets = list(targets)
    if not targets:
        raise ValueError("empty target set")
    hit = first_unit_hit(pi.value, k, [targets])
    if hit is None:
        raise AssociateNotFound(
            f"no associate of the prime above {pi.rational_below} meets the congruence"
            f" mod lambda^{k}; the full unit image was exhausted"
        )
    word, u, _, i = hit
    return AssociateNormalization(u, word, u * pi.value, CycInt(targets[i]))
