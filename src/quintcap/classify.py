"""Classification of radicands into the three admissible shapes.

A fifth-power-free n > 1 is admissible when it matches one of:

  p^e        with p = 1 (mod 25) and n in {+-1, +-7} (mod 25)
  p^e * q    with p = 1 (mod 5), p != 1 (mod 25), q = +-2 (mod 5),
             q != +-7 (mod 25), and n in {+-1, +-7} (mod 25)
  5^e * p    with p = 1 (mod 5), p != 1 (mod 25), and n not in {+-1, +-7}

with 1 <= e <= 4 throughout.  These are exactly the shapes for which the
downstream capitulation tables apply; everything else is NO_MATCH.  The
rules fix n mod 25 to SHAPE_RESIDUES = {0, 1, 5, 7, 18}, so a
fifth-power-free n in any other class is NO_MATCH before it is factored.

The rules are stated once, in ``_role``: the role a prime of each residue
mod 25 fills in the shape of each class, the p of the shape or its other
prime (the q of p^e*q, or the 5 of 5^e*p), and whether the shape allows
the prime's square.  The state tables are built from it.  A state byte
holds n's class and the roles already filled, or 0 once n is proved
no_match.  Each prime of n moves it by the table of its residue, and by
its square table when it divides n more than once, and the form is read
off the final state: the form of n's class once every role of its shape
is filled, no_match in every other state.  ``classify_radicand`` moves the
state by every prime of n's factorisation.  The tests compare it with
``radicand_shape`` in their oracles, which applies the same rules to a
whole factorisation.

``sieve_rows``, the scanner's kernel, moves the same states for a block of
integers.  The multiples of p^5 are marked for every prime p with p^5 <= hi
and skipped; the marks prove the unmarked n fifth-power-free at any
height.  Only the classes of SHAPE_RESIDUES start alive.  Every prime p up
to min(isqrt(hi), SIEVE_PRIME_LIMIT) moves the state of its multiples by
its table, and of the multiples of p^2 by its square table; a prime that
fills no role in any class zeroes its multiples with one slice.  The
primes that fill each n's roles are recorded, and a survivor is divided by
them.  If it has a prime of each role and a cofactor above 1 is left,
that cofactor holds a third prime, so n is no_match.  Otherwise the cofactor
moves the state once more, as a sieve prime would: a cofactor below
SIEVE_PRIME_LIMIT^2 is prime, and a larger one next to one sieve prime must
be a prime power r^j, by a perfect-power and a primality test, or n has
three primes.  A survivor with no sieve prime, or whose cofactor is too
large for the primality test, goes to ``classify_radicand``, so a refusal
names n with its message.  So the sieve proves no_match, without factoring,
an n that ``classify_radicand`` refuses when one of its sieve primes fits
no shape of its class: 41*(2^89 - 1) is class 1, and 41 is not 1 mod 25.

n is factored by ``factor.factorize`` (Miller-Rabin and Brent's rho), so
every n below ``factor.MILLER_RABIN_BOUND`` is classified.  So is a larger
n whose part free of the primes up to TRIAL_DIVISION_LIMIT = 4*10^6 is below
that bound, or is a perfect power of a number below it: every n that
``trial_factor`` answers is among them.  FactorizationLimitExceeded is
raised for the rest.  ``trial_factor`` is the plain trial-division
factoriser, kept as a reference.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from enum import Enum
from itertools import compress

# TRIAL_DIVISION_LIMIT is also the default largest divisor of trial_factor,
# which raises rather than go past it.
from .factor import (
    MILLER_RABIN_BOUND,
    TRIAL_DIVISION_LIMIT,
    _perfect_power,
    factorize,
    integer_root,
    is_rational_prime,
    primes_up_to,
)

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


# The roles a prime can fill in a shape: its p, and its other prime, the q
# of p^e*q or the 5 of 5^e*p.
_P, _Q = 1, 2


def _role(c: int, r: int) -> tuple[int, bool]:
    """The role a prime of residue r mod 25 fills in the shape of an n of
    class c in SHAPE_RESIDUES, and whether that shape allows its square:
    (0, False) when it fills none, so no n of class c with that prime has
    a shape.

    This is the package's one statement of the shape rules, one prime at a
    time: the state tables are built from it, and classify_radicand and the
    sieve decide by those.  The tests hold it to radicand_shape in their
    oracles, the same rules applied to a whole factorisation."""
    split = r % 5 == 1 and r != 1
    if c not in ADMISSIBLE_RESIDUES:  # 5^e*p: 5 to any power, p to the first
        if r == 5:
            return _Q, True
        return (_P, False) if split else (0, False)
    if c % 5 == 1:  # p^e, as p^e*q = q (mod 5) is not 1
        return (_P, True) if r == 1 else (0, False)
    if split:  # p^e*q, and n = q (mod 5)
        return _P, True
    if r % 5 == c % 5 and r not in _EXCLUDED_Q_RESIDUES:
        return _Q, False
    return 0, False


# A state byte per n: 0 when n is proved no_match, else 4*(c + 1) plus the
# roles already filled, for n of class c mod 25.  _CLASS_STATE[c] is the
# state of an n of class c before any of its primes is seen.
_CLASS_STATE = bytes(4 * (c + 1) if c in SHAPE_RESIDUES else 0 for c in range(25))


def _step(r: int) -> tuple[bytes, bytes, int]:
    """(table, square table, role) of a prime of residue r mod 25.

    The table moves the state of each multiple of the prime, and the square
    table the state of each multiple of its square: a shape that does not
    allow the square dies.  The role is the one the prime fills in every
    class where it fills one; with a role of 0 every multiple dies."""
    table, square, role = bytearray(256), bytearray(256), 0
    for c in SHAPE_RESIDUES:
        fill, powers = _role(c, r)
        role |= fill
        for state in range(4 * (c + 1), 4 * (c + 2)):
            if fill and not state & fill:
                table[state] = state | fill
            if powers:
                square[state] = state
    return bytes(table), bytes(square), role


_STEPS = [_step(r) for r in range(25)]


def _move(state: int, r: int, j: int) -> int:
    """The state of n once the prime r is found to divide it exactly j
    times: moved by r's table, and by its square table when j > 1."""
    table, square, _ = _STEPS[r % 25]
    state = table[state]
    return square[state] if j > 1 else state


_NO_MATCH = RadicandForm.NO_MATCH.value


def _form_table() -> list[str]:
    """The form of n by its final state, as the value of a RadicandForm:
    the form of n's class once every role of its shape is filled, no_match
    in every other state."""
    forms = [_NO_MATCH] * 256
    for c in SHAPE_RESIDUES:
        roles = 0
        for r in range(25):
            roles |= _role(c, r)[0]
        if c not in ADMISSIBLE_RESIDUES:
            form = RadicandForm.FIVE_POWER_TIMES_P
        elif roles & _Q:
            form = RadicandForm.PRIME_POWER_TIMES_Q
        else:
            form = RadicandForm.PRIME_POWER
        forms[4 * (c + 1) | roles] = form.value
    return forms


_FORM = _form_table()


def classify_radicand(n: int) -> RadicandClass:
    """Decide which admissible shape n has, or NO_MATCH.

    n is factored whole, then each of its primes moves the state of n's
    class by its tables, as a sieve prime moves it in ``sieve_rows``.
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
    if max(factors.values()) >= 5:
        raise NotFifthPowerFree(f"{n} is divisible by a fifth power")
    residue = n % 25
    state, p, q = _CLASS_STATE[residue], None, None
    for r, j in factors.items():
        if not state:  # no_match, whatever primes are left
            break
        state = _move(state, r, j)
        if _STEPS[r % 25][2] == _P:
            p = r
        else:
            q = r
    value = _FORM[state]
    if value == _NO_MATCH:
        return RadicandClass(n, RadicandForm.NO_MATCH, None, None, 0, residue)
    form = RadicandForm(value)
    if form is RadicandForm.FIVE_POWER_TIMES_P:  # whose other prime is 5
        return RadicandClass(n, form, p, None, factors[5], residue)
    return RadicandClass(n, form, p, q, factors[p], residue)


# Bound on the primes the sieve divides by; a cofactor free of them and
# below its square, _COMPOSITE_FROM, is prime.
SIEVE_PRIME_LIMIT = 1 << 16
_COMPOSITE_FROM = SIEVE_PRIME_LIMIT * SIEVE_PRIME_LIMIT


def _decide(lo: int, state: bytearray, ps: list[int], qs: list[int]) -> list[str]:
    """The form of each n = lo + i from its state after the sieve, with
    ps[i] and qs[i] the primes of its two roles, or 0: no_match where the
    state is 0.

    Every prime up to min(isqrt(n), SIEVE_PRIME_LIMIT) that divides a
    survivor fills one of its roles, so a cofactor below _COMPOSITE_FROM
    is prime, and a larger one is a prime power or holds two primes."""
    forms = [_NO_MATCH] * len(state)
    for i in compress(range(len(state)), state):
        n = m = lo + i
        p, q = ps[i], qs[i]
        if p:
            while m % p == 0:
                m //= p
        if q:
            while m % q == 0:
                m //= q
        s = state[i]
        if m > 1:
            if p and q:  # a third prime, and no shape has three
                continue
            # The cofactor moves the state once more, as a sieve prime would.
            if m < _COMPOSITE_FROM:
                s = _move(s, m, 1)
            elif (p or q) and m < MILLER_RABIN_BOUND:
                # m is a prime power, or n has three primes.
                r, j = _perfect_power(m)
                if not is_rational_prime(r):
                    continue
                s = _move(s, r, j)
            else:
                forms[i] = classify_radicand(n).form.value
                continue
        forms[i] = _FORM[s]
    return forms


def sieve_rows(bounds: tuple[int, int]) -> list[tuple[int, str]]:
    """The rows of lo..hi by the shape sieve: (n, form) for every
    fifth-power-free n, ascending, with each form a RadicandForm value."""
    lo, hi = bounds
    size = hi - lo + 1
    keep = bytearray(b"\x01") * size
    # The state of each n before its primes are seen, by its class mod 25.
    c = lo % 25
    state = bytearray((_CLASS_STATE[c:] + _CLASS_STATE[:c]) * (size // 25 + 1))[:size]
    for p in primes_up_to(integer_root(hi, 5)):
        q = p**5
        s = -lo % q
        zeros = bytes(len(range(s, size, q)))
        keep[s::q] = zeros
        state[s::q] = zeros
    # ps[i] and qs[i] are the primes that fill the two roles of n = lo + i,
    # or 0 before one is seen.
    ps = [0] * size
    qs = [0] * size
    for p in primes_up_to(min(math.isqrt(hi), SIEVE_PRIME_LIMIT)):
        s = -lo % p
        if s >= size:
            continue
        table, square, role = _STEPS[p % 25]
        k = len(range(s, size, p))
        if not role:
            state[s::p] = bytes(k)
            continue
        state[s::p] = state[s::p].translate(table)
        (ps if role == _P else qs)[s::p] = [p] * k
        pp = p * p
        s = -lo % pp
        if s < size:
            state[s::pp] = state[s::pp].translate(square)
    forms = _decide(lo, state, ps, qs)
    return list(compress(zip(range(lo, hi + 1), forms), keep))
