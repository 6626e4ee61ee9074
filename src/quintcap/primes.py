"""Factorisation of rational primes in Z[zeta] and associate normalisation.

A rational prime p behaves in one of three ways here: p = 5 ramifies as the
fourth power of lambda; p = 1 (mod 5) splits into four conjugate primes
pi_1..pi_4 with pi_{1+j} = tau^j(pi_1); p = +-2 (mod 5) stays inert.  Primes
p = 4 (mod 5) split into two degree-2 factors, which no caller here needs,
so they are rejected outright.

Conventions fixed by this module (recorded in reports):
  - pi_1 is cut out by the smallest root r of X^4+X^3+X^2+X+1 mod p, via
    gcd(p, zeta - r); then pi_3 = tau^2(pi_1) and the pairing used by the
    capitulation tables holds exactly, not just up to units.
  - the unit group of Z[zeta] is (+-zeta^a) * (1+zeta)^t; 1+zeta has norm 1
    and generates the units modulo torsion, so scanning a in 0..4, t in
    -B..B, both signs, covers every associate class the search bound allows.
    Searches over that scan are table lookups: u*b = t (mod lambda^k) holds
    exactly when u lies in the class of t * b^-1, and each class remembers
    the first unit of the scan that lies in it.

Rational integers are factored, and tested for primality, only in
``factor``; ``is_rational_prime`` and ``MILLER_RABIN_BOUND`` are re-exported
here under their old names.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .cyclotomic import (
    CycInt,
    LAMBDA,
    ONE,
    ZETA,
    gcd,
    lambda_expand,
    lambda_inverse,
    lambda_key,
)
from .factor import MILLER_RABIN_BOUND, factorize, is_rational_prime


class UnsupportedPrimeError(ValueError):
    """Raised for primes whose splitting type is outside the supported cases."""


class AssociateNotFound(Exception):
    """The bounded associate search failed.

    ``proven_impossible`` distinguishes a finished decision procedure (no
    element of the full image of the unit group modulo lambda^k works) from
    exhaustion of the scan bound.
    """

    def __init__(self, message: str, *, proven_impossible: bool) -> None:
        super().__init__(message)
        self.proven_impossible = proven_impossible


class PrimeKind(Enum):
    SPLIT = "split"
    INERT = "inert"
    LAMBDA = "lambda"


@dataclass(frozen=True)
class PrimeElement:
    """A prime of Z[zeta] with its Galois label.

    ``label`` is 1..4 for the split conjugates, 5 for an inert prime and 0
    for lambda.  ``root`` is the residue-field image of zeta (split only).
    """

    value: CycInt
    kind: PrimeKind
    label: int
    rational_below: int
    root: int | None = None


@dataclass(frozen=True)
class SplittingData:
    prime: int
    factors: tuple[PrimeElement, ...]
    root: int | None


def smallest_primitive_root(p: int) -> int:
    qs = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
    raise ArithmeticError(f"no primitive root found for {p}")


def fifth_roots_of_unity(p: int) -> list[int]:
    """The four primitive fifth roots of unity in F_p, ascending (p = 1 mod 5)."""
    g = smallest_primitive_root(p)
    x = pow(g, (p - 1) // 5, p)
    return sorted(pow(x, i, p) for i in range(1, 5))


def factor_rational_prime(p: int) -> SplittingData:
    """Factor p in Z[zeta] and label the factors.

    Split case: pi_1 = gcd(p, zeta - r) for the smallest root r, and
    pi_{1+j} = tau^j(pi_1).  The stored residue root of pi_{1+j} is
    r^(inverse of 2^j mod 5), so each factor carries its own evaluation map.
    """
    if not is_rational_prime(p):
        raise ValueError(f"{p} is not a rational prime")
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

DEFAULT_UNIT_BOUND = 8


@dataclass(frozen=True)
class UnitWord:
    """A unit written as sign * zeta^zeta_exp * (1+zeta)^fund_exp."""

    zeta_exp: int
    fund_exp: int
    sign: int

    def value(self) -> CycInt:
        base = _INV_ONE_PLUS_ZETA if self.fund_exp < 0 else ONE_PLUS_ZETA
        u = ONE
        for _ in range(abs(self.fund_exp)):
            u = u * base
        u = u * (ZETA ** self.zeta_exp)
        return u if self.sign > 0 else -u

    def render(self) -> str:
        parts = [] if self.sign > 0 else ["-1"]
        if self.zeta_exp:
            parts.append(f"zeta^{self.zeta_exp}" if self.zeta_exp > 1 else "zeta")
        if self.fund_exp:
            parts.append(f"(1+zeta)^{self.fund_exp}")
        return "*".join(parts) if parts else "1"


def iter_units(bound: int = DEFAULT_UNIT_BOUND) -> Iterator[tuple[UnitWord, CycInt]]:
    """Scan units +-zeta^a (1+zeta)^t: a ascending, t by absolute value, then sign."""
    t_order = [0]
    for t in range(1, bound + 1):
        t_order.append(t)
        t_order.append(-t)
    fund_powers = {0: ONE}
    pos = neg = ONE
    for t in range(1, bound + 1):
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


# Lookup tables, filled on first use and never rebuilt.  Keys are lambda_key
# labels unless stated otherwise.
_UNIT_IMAGE: dict[int, dict[tuple[int, ...], CycInt]] = {}  # digit-tuple keys
_UNIT_IMAGE_KEYS: dict[int, frozenset[int]] = {}
_FIRST_UNITS: dict[tuple[int, int], dict[int, tuple[int, UnitWord, CycInt]]] = {}


def unit_residues_mod_lambda_pow(k: int) -> dict[tuple[int, ...], CycInt]:
    """The full image of the unit group in (Z[zeta]/lambda^k)^*.

    Computed once per k by closure under the generators and returned as a
    copy; the keys are canonical digit tuples, the values small
    representatives.  Used to turn a failed bounded search into a finished
    impossibility proof.
    """
    image = _UNIT_IMAGE.get(k)
    if image is None:
        gens = (-ONE, ZETA, ONE_PLUS_ZETA, _INV_ONE_PLUS_ZETA)
        seed = lambda_expand(ONE, k)
        image = {seed.digits: ONE}
        frontier = [ONE]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = x * g
                    key = lambda_expand(y, k).digits
                    if key not in image:
                        rep = lambda_expand(y, k).reassemble()
                        image[key] = rep
                        nxt.append(rep)
            frontier = nxt
        _UNIT_IMAGE[k] = image
    return dict(image)


def first_unit_hit(
    inverse: CycInt, k: int, targets: Sequence[CycInt], bound: int
) -> tuple[UnitWord, CycInt, int] | None:
    """The first unit u of ``iter_units(bound)`` with u*b = t (mod lambda^k).

    ``inverse`` is b^-1 mod lambda^k.  Returns (word, unit, i) for the
    earliest unit and, among its targets, the first ``targets[i]`` it meets;
    None if no scanned unit meets any target.
    """
    table = _FIRST_UNITS.get((k, bound))
    if table is None:
        table = {}
        for index, (word, u) in enumerate(iter_units(bound)):
            table.setdefault(lambda_key(u, k), (index, word, u))
        _FIRST_UNITS[(k, bound)] = table
    hits = []
    for i, t in enumerate(targets):
        entry = table.get(lambda_key(t * inverse, k))
        if entry is not None:
            index, word, u = entry
            hits.append((index, i, word, u))
    if not hits:
        return None
    _, i, word, u = min(hits, key=lambda hit: hit[:2])
    return word, u, i


def unit_image_hits(inverse: CycInt, k: int, targets: Sequence[CycInt]) -> bool:
    """True iff some unit u, unbounded, has u*b = t (mod lambda^k) for a target t."""
    keys = _UNIT_IMAGE_KEYS.get(k)
    if keys is None:
        keys = frozenset(lambda_key(u, k) for u in unit_residues_mod_lambda_pow(k).values())
        _UNIT_IMAGE_KEYS[k] = keys
    return any(lambda_key(t * inverse, k) in keys for t in targets)


def _coerce_targets(targets: Iterable[int | CycInt]) -> list[CycInt]:
    out = []
    for t in targets:
        out.append(t if isinstance(t, CycInt) else CycInt(t))
    if not out:
        raise ValueError("empty target set")
    return out


@dataclass(frozen=True)
class AssociateNormalization:
    unit: CycInt
    unit_word: UnitWord
    normalized: CycInt
    residue: CycInt


def normalize_associate(
    pi: PrimeElement,
    k: int,
    targets: Sequence[int | CycInt],
    bound: int = DEFAULT_UNIT_BOUND,
) -> AssociateNormalization:
    """Find a unit u with u*pi congruent to one of ``targets`` mod lambda^k.

    Returns the first hit of the bounded unit family in the fixed scan
    order, found by looking up t * pi^-1 for each target t.  On failure the
    full unit-image subgroup mod lambda^k is consulted: if no subgroup
    element works either, the congruence is impossible for every associate,
    and AssociateNotFound carries proven_impossible=True.
    """
    if pi.kind is not PrimeKind.SPLIT:
        raise UnsupportedPrimeError("associate normalisation is defined for split primes")
    if not 1 <= k <= 5:
        raise ValueError("modulus exponent must be in 1..5")
    target_vals = _coerce_targets(targets)
    inverse = lambda_inverse(pi.value, k)
    hit = first_unit_hit(inverse, k, target_vals, bound)
    if hit is not None:
        word, u, i = hit
        return AssociateNormalization(u, word, u * pi.value, target_vals[i])
    if unit_image_hits(inverse, k, target_vals):
        raise AssociateNotFound(
            f"a unit exists mod lambda^{k} but lies outside the scan bound {bound}",
            proven_impossible=False,
        )
    raise AssociateNotFound(
        f"no associate of the prime above {pi.rational_below} meets the congruence"
        f" mod lambda^{k}; the full unit image was exhausted",
        proven_impossible=True,
    )
