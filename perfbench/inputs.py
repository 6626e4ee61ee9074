"""Seeded inputs for the quintcap benchmark, built without calling quintcap.

Every generator takes the workload seed and yields rounds: lists of
operations whose mix is the same in every round, so a run that stops on a
round boundary always measures the same proportions.  Radicands come from
this module's own prime test and the shape rules stated in the docstring of
``quintcap.classify``; ring elements come from this module's own arithmetic
in Z[zeta].
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator

ADMISSIBLE_RESIDUES = frozenset({1, 7, 18, 24})
EXCLUDED_Q_RESIDUES = frozenset({7, 18})

# The seed classifier refuses once a trial divisor would pass this bound.
TRIAL_DIVISION_CEILING = 4_000_000

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, proven for n < 3.3e24 with these bases."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def primes_up_to(limit: int) -> list[int]:
    sieve = bytearray([1]) * (limit + 1)
    sieve[:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return [p for p in range(limit + 1) if sieve[p]]


# --- shape rules ------------------------------------------------------------

PE, PEQ, FIVE_EP, NO_MATCH = "p^e", "p^e*q", "5^e*p", "no_match"


@dataclass(frozen=True)
class Shape:
    form: str
    p: int | None
    q: int | None
    e: int


def shape_of(factors: dict[int, int]) -> Shape | None:
    """The shape of a factored radicand, or None when a fifth power divides it.

    The rules are those of the ``quintcap.classify`` docstring:
    ``p^e`` with p = 1 (mod 25); ``p^e*q`` with p = 1 (mod 5), p != 1
    (mod 25), q = +-2 (mod 5), q != +-7 (mod 25); both with n in
    {+-1, +-7} (mod 25); ``5^e*p`` with p = 1 (mod 5), p != 1 (mod 25) and
    n outside that set.
    """
    if any(e >= 5 for e in factors.values()):
        return None
    n = math.prod(p**e for p, e in factors.items())
    r = n % 25
    if len(factors) == 1:
        ((p, e),) = factors.items()
        if p % 25 == 1 and r in ADMISSIBLE_RESIDUES:
            return Shape(PE, p, None, e)
    elif len(factors) == 2 and 5 in factors:
        ((p, ep),) = ((f, e) for f, e in factors.items() if f != 5)
        if ep == 1 and p % 5 == 1 and p % 25 != 1 and r not in ADMISSIBLE_RESIDUES:
            return Shape(FIVE_EP, p, None, factors[5])
    elif len(factors) == 2:
        split = [f for f in factors if f % 5 == 1]
        inert = [f for f in factors if f % 5 in (2, 3)]
        if len(split) == 1 and len(inert) == 1:
            p, q = split[0], inert[0]
            if (
                factors[q] == 1
                and p % 25 != 1
                and q % 25 not in EXCLUDED_Q_RESIDUES
                and r in ADMISSIBLE_RESIDUES
            ):
                return Shape(PEQ, p, q, factors[p])
    return Shape(NO_MATCH, None, None, 0)


def beyond_ceiling(factors: dict[int, int]) -> bool:
    """Whether trial division up to the seed ceiling leaves work undone.

    Once every prime up to the ceiling is divided out, the seed classifier
    still has a trial divisor d above the ceiling to try exactly when
    d * d does not exceed the cofactor.
    """
    cofactor = math.prod(
        p**e for p, e in factors.items() if p > TRIAL_DIVISION_CEILING
    )
    return (TRIAL_DIVISION_CEILING + 1) ** 2 <= cofactor


# --- report workloads -------------------------------------------------------


@dataclass(frozen=True)
class Radicand:
    n: int
    factors: tuple[tuple[int, int], ...]
    shape: Shape
    beyond_ceiling: bool


# Operation i of a report workload has shape SHAPE_ORDER[i % 3].
SHAPE_ORDER = (PEQ, FIVE_EP, PE)
REPORT_ROUND = 8
REPORT_RANGES = {
    "report-small": (10**2, 10**6),
    "report-large": (10**11, 16 * 10**12),
}
SMALL_INERT_PRIMES = tuple(
    q
    for q in primes_up_to(200)
    if q % 5 in (2, 3) and q % 25 not in EXCLUDED_Q_RESIDUES
)


def _draw_prime(rng: random.Random, lo: int, hi: int, stratum: int, residue_ok) -> int:
    """A prime in [lo, hi) whose residue mod 25 passes the test, log-uniform
    within the given one of REPORT_ROUND equal strata of log p."""
    span = math.log(hi / lo) / REPORT_ROUND
    while True:
        c = int(lo * math.exp((stratum + rng.random()) * span))
        if lo <= c < hi and residue_ok(c % 25) and is_prime(c):
            return c


def _make_radicand(
    rng: random.Random, form: str, lo: int, hi: int, stratum: int, e: int
) -> Radicand:
    if form == PE:
        p = _draw_prime(rng, lo, hi, stratum, lambda r: r == 1)
        factors = {p: e}
    elif form == PEQ:
        p = _draw_prime(rng, lo, hi, stratum, lambda r: r % 5 == 1 and r != 1)
        pe = pow(p, e, 25)
        q = rng.choice([q for q in SMALL_INERT_PRIMES if pe * q % 25 in ADMISSIBLE_RESIDUES])
        factors = {p: e, q: 1}
    else:
        p = _draw_prime(rng, lo, hi, stratum, lambda r: r % 5 == 1 and r != 1)
        factors = {5: e, p: 1}
    shape = shape_of(factors)
    if shape is None or shape.form != form:
        raise RuntimeError(f"generated {factors} does not have shape {form}")
    return Radicand(
        math.prod(f**k for f, k in factors.items()),
        tuple(sorted(factors.items())),
        shape,
        beyond_ceiling(factors),
    )


def report_rounds(workload: str, seed: int) -> Iterator[list[Radicand]]:
    """Rounds of eight radicands, shapes in rotation, whose p fall one in
    each eighth of [lo, hi) on a log scale, so every round pays about the
    same for trial division.

    report-small draws every exponent from 1..4.  report-large keeps p's
    exponent at 1 except for one radicand per round (never the first of the
    run), a p^e or p^e*q with e >= 2, which lies beyond the seed's
    trial-division ceiling.
    """
    lo, hi = REPORT_RANGES[workload]
    large = workload == "report-large"
    rng = random.Random(f"{workload}/{seed}")
    i = 0
    while True:
        forms = [SHAPE_ORDER[(i + j) % 3] for j in range(REPORT_ROUND)]
        refused = None
        if large:
            refused = rng.choice(
                [j for j, f in enumerate(forms) if f != FIVE_EP and i + j > 0]
            )
        strata = rng.sample(range(REPORT_ROUND), REPORT_ROUND)
        out = []
        for j, form in enumerate(forms):
            if j == refused:
                e = rng.randint(2, 4)
            elif large and form != FIVE_EP:
                e = 1
            else:
                e = rng.randint(1, 4)
            r = _make_radicand(rng, form, lo, hi, strata[j], e)
            if r.beyond_ceiling != (j == refused):
                raise RuntimeError(f"radicand {r.n} misplaced around the ceiling")
            out.append(r)
        yield out
        i += REPORT_ROUND


# --- kummer-lambda ----------------------------------------------------------

Coords = tuple[int, int, int, int]


def cyc_mul(a: Coords, b: Coords) -> Coords:
    """Product in Z[zeta], power basis 1, zeta, zeta^2, zeta^3."""
    v = [0] * 7
    for i in range(4):
        for j in range(4):
            v[i + j] += a[i] * b[j]
    v[0] += v[5]
    v[1] += v[6]
    return (v[0] - v[4], v[1] - v[4], v[2] - v[4], v[3] - v[4])


def cyc_pow5(a: Coords) -> Coords:
    a2 = cyc_mul(a, a)
    return cyc_mul(cyc_mul(a2, a2), a)


def lambda_residue(a: Coords) -> int:
    """Image in Z[zeta]/(lambda) = F_5, where zeta maps to 1."""
    return sum(a) % 5


def _with_residue(rng: random.Random, r: int) -> Coords:
    c = [rng.randint(-9, 9) for _ in range(4)]
    c[0] += (r - sum(c)) % 5
    return (c[0], c[1], c[2], c[3])


@dataclass(frozen=True)
class KummerOp:
    theta: Coords
    fifth_power: bool
    # Operations with the same pair id differ by a factor y^5, y coprime
    # to lambda; the second of a pair must get the first's answer.
    pair: int


def kummer_rounds(seed: int) -> Iterator[list[KummerOp]]:
    """Rounds of four pairs (theta, theta * y^5): three with a random theta
    coprime to lambda, one with a known fifth power x^5.

    The enumeration that answers x^5 stops early, after a share of the
    residues that grows with x's residue mod lambda; the two fifth roots of
    a round (x and x*z) have residues {1, 4} or {2, 3}, so every round pays
    the same, and random thetas, which pay the full enumeration, are the
    majority, so the median is theirs.
    """
    rng = random.Random(f"kummer-lambda/{seed}")
    pair = 0
    while True:
        thetas = []
        for _ in range(3):
            theta = _with_residue(rng, rng.randint(1, 4))
            y = _with_residue(rng, rng.randint(1, 4))
            thetas.append((theta, cyc_mul(theta, cyc_pow5(y))))
        r_x, r_xz = rng.choice(((1, 4), (4, 1), (2, 3), (3, 2)))
        x5 = cyc_pow5(_with_residue(rng, r_x))
        z5 = cyc_pow5(_with_residue(rng, r_xz * pow(r_x, -1, 5) % 5))  # x*z reduces to r_xz
        (a, a2), (b, b2), (c, c2) = thetas
        yield [
            KummerOp(a, False, pair),
            KummerOp(x5, True, pair + 1),
            KummerOp(a2, False, pair),
            KummerOp(cyc_mul(x5, z5), True, pair + 1),
            KummerOp(b, False, pair + 2),
            KummerOp(c, False, pair + 3),
            KummerOp(b2, False, pair + 2),
            KummerOp(c2, False, pair + 3),
        ]
        pair += 4


# --- scan-window ------------------------------------------------------------

SCAN_LO, SCAN_HI = 10**6, 10**7
SCAN_STRATA = 4
SCAN_WINDOW = 20_000


@dataclass(frozen=True)
class Window:
    lo: int
    hi: int


def scan_rounds(seed: int) -> Iterator[list[Window]]:
    """Rounds of one sub-window per quarter of [10^6, 10^7), top quarter
    first: the scan rate varies least there, so the cold first window costs
    about the same for every seed."""
    rng = random.Random(f"scan-window/{seed}")
    stratum = (SCAN_HI - SCAN_LO) // SCAN_STRATA
    while True:
        out = []
        for k in reversed(range(SCAN_STRATA)):
            lo = SCAN_LO + k * stratum + rng.randrange(stratum - SCAN_WINDOW + 1)
            out.append(Window(lo, lo + SCAN_WINDOW - 1))
        yield out


def factor_window(lo: int, hi: int) -> list[dict[int, int]]:
    """Factorisations of lo..hi by a segmented sieve."""
    size = hi - lo + 1
    rest = list(range(lo, hi + 1))
    factors: list[dict[int, int]] = [{} for _ in range(size)]
    for p in primes_up_to(math.isqrt(hi)):
        for i in range((-lo) % p, size, p):
            m, e = rest[i], 0
            while m % p == 0:
                m //= p
                e += 1
            rest[i] = m
            factors[i][p] = e
    for i, m in enumerate(rest):
        if m > 1:
            factors[i][m] = 1
    return factors


def count_fifth_power_divisible(lo: int, hi: int) -> int:
    """How many of lo..hi some p^5 divides, counted by marking multiples."""
    marked = bytearray(hi - lo + 1)
    for p in primes_up_to(math.isqrt(math.isqrt(hi)) + 1):
        q = p**5
        for m in range(-(-lo // q) * q, hi + 1, q):
            marked[m - lo] = 1
    return sum(marked)
