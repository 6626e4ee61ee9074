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

``sieve_block``, the scanner's kernel, moves the same states for a block
of integers.  The multiples of p^5 are marked for every prime p with
p^5 <= hi and skipped; the marks prove the unmarked n fifth-power-free at
any height.  Only the classes of SHAPE_RESIDUES start alive.  Every prime p up
to min(isqrt(hi), SIEVE_PRIME_LIMIT) moves the state of its multiples by
its table, and of the multiples of p^2 by its square table; a prime that
fills no role in any class zeroes its multiples with one slice.  The
primes that fill each n's roles are recorded in two arrays of C integers,
one slot per n.  The survivors, the n whose state is not 0, about 580 in
20 000 integers at 5*10^6, are found by a bytes search, one C-level find
each, and divided by their role primes.  If one has a prime of each role
and a cofactor above 1 is left, that cofactor holds a third prime, so n is
no_match.  Otherwise the cofactor moves the state once more, as a sieve
prime would: a cofactor below SIEVE_PRIME_LIMIT^2 is prime, and a larger
one next to one sieve prime must be a prime power r^j, by a perfect-power
and a primality test, or n has three primes.  A survivor with no sieve
prime, or whose cofactor is too large for the primality test, goes to
``classify_radicand``, so a refusal names n with its message.  So the
sieve proves no_match, without factoring, an n that ``classify_radicand``
refuses when one of its sieve primes fits no shape of its class:
41*(2^89 - 1) is class 1, and 41 is not 1 mod 25.  Only the survivors with
a shape, about 300 of them, come back from this loop, as a sparse list of
(index, form) pairs.  The kernel returns the block compactly, as that list
and the p^5-mark bytes, about one byte per integer, which is all a worker
of the scanner's pool sends back.  ``block_rows`` lays the rows of a block
down from it: every unmarked n as no_match, and those few written over, so
the rows are the only Python list of the block's length, and the only one
the cyclic garbage collector walks.  ``sieve_rows`` is the two in one.

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
from enum import Enum
from itertools import compress, repeat
from typing import Sequence

from ._record import Record

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


class RadicandClass(Record):
    __slots__ = ("n", "form", "p", "q", "e", "residue_mod_25")

    def __init__(
        self, n: int, form: RadicandForm, p: int | None, q: int | None, e: int, residue_mod_25: int
    ) -> None:
        self._set(n, form, p, q, e, residue_mod_25)

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
    class by its tables, as a sieve prime moves it in ``sieve_block``.
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
# Maps a state byte to 1 when n is alive, to 0 when it is proved no_match.
_LIVE = bytes(1) + b"\x01" * 255


def _decide(
    lo: int, state: bytearray, ps: Sequence[int], qs: Sequence[int]
) -> list[tuple[int, str]]:
    """The sparse list of the shaped survivors: (i, form), ascending in i,
    for each n = lo + i whose state after the sieve is not 0 and whose form
    is not no_match.  ps[i] and qs[i] are the primes of n's two roles, or
    0.  Every n left out is no_match.

    Every prime up to min(isqrt(n), SIEVE_PRIME_LIMIT) that divides a
    survivor fills one of its roles, so a cofactor below _COMPOSITE_FROM
    is prime, and a larger one is a prime power or holds two primes.  A
    prime cofactor moves the state by one read of its table, as _move(s,
    m, 1) would, without the call: this loop runs once per survivor, found
    by one find of the next 1 in the states mapped by _LIVE.  ps[i] and
    qs[i] divide n, so each is divided out once before it is tested."""
    shaped = []
    live, i = state.translate(_LIVE), -1
    while (i := live.find(1, i + 1)) >= 0:
        n = m = lo + i
        p, q = ps[i], qs[i]
        if p:
            m //= p
            while m % p == 0:
                m //= p
        if q:
            m //= q
            while m % q == 0:
                m //= q
        s = state[i]
        if m > 1:
            if p and q:  # a third prime, and no shape has three
                continue
            # The cofactor moves the state once more, as a sieve prime would.
            if m < _COMPOSITE_FROM:
                s = _STEPS[m % 25][0][s]
            elif (p or q) and m < MILLER_RABIN_BOUND:
                # m is a prime power, or n has three primes.
                r, j = _perfect_power(m)
                if not is_rational_prime(r):
                    continue
                s = _move(s, r, j)
            else:
                form = classify_radicand(n).form.value
                if form != _NO_MATCH:
                    shaped.append((i, form))
                continue
        form = _FORM[s]
        if form != _NO_MATCH:
            shaped.append((i, form))
    return shaped


# A block of the shape sieve: lo, the p^5-mark bytes (0 where some p^5
# divides n = lo + i, 1 elsewhere), and _decide's sparse list.
Block = tuple[int, bytearray, list[tuple[int, str]]]


def sieve_block(bounds: tuple[int, int]) -> Block:
    """The block of lo..hi by the shape sieve, from which block_rows lays
    down its rows.

    The role primes are kept in two arrays of C integers, which the cyclic
    garbage collector does not walk, and ``array`` is imported here, off
    the import path of the package."""
    from array import array

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
    # or 0 before one is seen.  "I" holds every prime up to
    # SIEVE_PRIME_LIMIT; a larger one would raise OverflowError.
    ps = array("I", (0,)) * size
    qs = array("I", (0,)) * size
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
        (ps if role == _P else qs)[s::p] = array("I", (p,)) * k
        pp = p * p
        s = -lo % pp
        if s < size:
            state[s::pp] = state[s::pp].translate(square)
    return lo, keep, _decide(lo, state, ps, qs)


def block_rows(block: Block) -> list[tuple[int, str]]:
    """The rows of a block: (n, form) for every fifth-power-free n,
    ascending, with each form a RadicandForm value.

    Every row is laid down as no_match, and each pair of the sparse list
    is written over its row: the row of n = lo + i is the count of
    fifth-power-free n below it, counted on from the previous shaped n."""
    lo, keep, shaped = block
    rows = list(compress(zip(range(lo, lo + len(keep)), repeat(_NO_MATCH)), keep))
    row = start = 0
    for i, form in shaped:
        row += keep.count(1, start, i)
        start = i
        rows[row] = (lo + i, form)
    return rows


def sieve_rows(bounds: tuple[int, int]) -> list[tuple[int, str]]:
    """The rows of lo..hi by the shape sieve: block_rows(sieve_block(bounds))."""
    return block_rows(sieve_block(bounds))
