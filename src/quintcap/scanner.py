"""Range scanner: classify every fifth-power-free n in an interval.

Every chunk is scanned by one shape sieve.  The multiples of p^5 are
marked for every prime p with p^5 <= hi and skipped; the marks prove the
unmarked n fifth-power-free at any height.  Each n carries a state byte of
``classify``'s tables: its class mod 25 and the roles of its shape, p and
q, already filled, or 0 once n is proved no_match.  Only the classes of
``classify.SHAPE_RESIDUES`` start alive.  Every sieve prime p up to
min(isqrt(hi), SIEVE_PRIME_LIMIT) other than 5, which divides exactly
classes 0 and 5, moves the state of its multiples by the translate table
of p mod 25, and the state of the multiples of p^2 by its square table.  A
prime that fills no role in any class zeroes its multiples with one slice.
The p and q of each n are written to two lists, with 5 as the q of
classes 0 and 5.

A survivor is divided by its p and q.  If it has both and a cofactor above
1 is left, that cofactor holds a third prime, so it is no_match.  Otherwise
the cofactor moves the state once more, as a sieve prime would: a cofactor
below SIEVE_PRIME_LIMIT^2 is prime, and a larger one next to one sieve
prime must be a prime power r^j, by a perfect-power and a primality test,
or n has three primes.  The form is then read off the final state.  A
survivor with no sieve prime, or whose cofactor is too large for the
primality test, goes to ``classify_radicand``, so a refusal names n with
its message.  The shape rules are stated once, in ``classify._role``: the
tables are built from it, and ``classify_radicand`` moves the same states
by the primes of n's whole factorisation.  So the scan proves no_match,
without factoring, an n that ``classify_radicand`` refuses when one of its
sieve primes fits no shape of its class: 41*(2^89 - 1) is class 1, and 41
is not 1 mod 25.  A window whose p^5 marks would need primes beyond
``factor.TRIAL_DIVISION_LIMIT``, hi from about 1.02*10^33 on, is refused
before any of it is scanned: those primes would not fit in memory.

Output order is by n regardless of worker count; chunks are contiguous and
reassembled in submission order, so the parallel path is bit-identical to
the sequential one.  With one job a chunk is one sieve block of
SIEVE_BLOCK = 32 768 integers: every chunk repeats the slice work of each
sieve prime, and a longer one spreads it over more integers.  The pool has
at most one worker per CPU, however many jobs are asked for.  With more
than one job a chunk holds a quarter of a worker's share of the window,
kept between MIN_CHUNK and MAX_CHUNK integers (the last may be shorter),
and at most two chunks per worker are in flight, so a worker's result
list, and the memory of a long parallel scan, stay small.
``concurrent.futures`` is imported only when a pool is started, that is,
with two or more workers.
"""

from __future__ import annotations

import math
import os
from collections import deque
from itertools import chain, compress
from typing import Iterator

from .classify import (
    _CLASS_STATE,
    _FIVES,
    _FORM,
    _NO_MATCH,
    _P,
    _STEPS,
    FactorizationLimitExceeded,
    _move,
    classify_radicand,
)
from .factor import (
    MILLER_RABIN_BOUND,
    TRIAL_DIVISION_LIMIT,
    _perfect_power,
    integer_root,
    is_rational_prime,
    primes_up_to,
)

# Integers one chunk holds with one job.
SIEVE_BLOCK = 1 << 15

# Bound on the primes the shape sieve divides by; a cofactor free of them
# and below its square is prime.
SIEVE_PRIME_LIMIT = 1 << 16

# Largest chunk given to one worker, a multiple of SIEVE_BLOCK.  Above
# 2 500, so a 20 000-integer window at jobs=2 is still cut into the jobs*4
# chunks of an uncapped scan.
MAX_CHUNK = 1 << 16

# Smallest chunk, unless MAX_CHUNK is lower: every chunk repeats the slice
# work of each sieve prime.  A 20 000-integer window at jobs=2 is 8 of them.
MIN_CHUNK = 2_500


def _tile(pattern, lo: int, size: int):
    """pattern[(lo + i) % 25] for i in range(size), of a 25-long pattern."""
    r = lo % 25
    return ((pattern[r:] + pattern[:r]) * (size // 25 + 1))[:size]


# A survivor's cofactor below this square of SIEVE_PRIME_LIMIT is prime.
_COMPOSITE_FROM = SIEVE_PRIME_LIMIT * SIEVE_PRIME_LIMIT


def _decide(lo: int, state: bytearray, ps: list[int], qs: list[int]) -> list[str]:
    """The form of each n = lo + i from its state after the sieve, with
    ps[i] and qs[i] its p and q, or 0: no_match where the state is 0.

    Every prime up to min(isqrt(n), SIEVE_PRIME_LIMIT) that divides a
    survivor is its p or q, so a cofactor below SIEVE_PRIME_LIMIT^2 is
    prime, and a larger one is a prime power or holds two primes."""
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


def _scan_chunk(bounds: tuple[int, int]) -> list[tuple[int, str]]:
    """The rows of lo..hi by the shape sieve: (n, form) for every
    fifth-power-free n, ascending."""
    lo, hi = bounds
    size = hi - lo + 1
    keep = bytearray(b"\x01") * size
    state = bytearray(_tile(_CLASS_STATE, lo, size))
    for p in primes_up_to(integer_root(hi, 5)):
        q = p**5
        s = -lo % q
        zeros = bytes(len(range(s, size, q)))
        keep[s::q] = zeros
        state[s::q] = zeros
    # ps[i] and qs[i] are the p and q of n = lo + i, or 0 before one is seen;
    # qs holds 5 in classes 0 and 5.
    ps = [0] * size
    qs = _tile(_FIVES, lo, size)
    for p in primes_up_to(min(math.isqrt(hi), SIEVE_PRIME_LIMIT)):
        s = -lo % p
        if s >= size or p == 5:  # 5 divides exactly classes 0 and 5
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


def iter_scan(lo: int, hi: int, jobs: int = 1) -> Iterator[list[tuple[int, str]]]:
    """The results of scan_range(lo, hi, jobs), one contiguous piece at a time.

    With one job a piece is one sieve block of SIEVE_BLOCK = 32 768
    integers, so a caller that writes each piece out holds no more than a
    block's results at once.  Raises
    ValueError for jobs < 1, and FactorizationLimitExceeded when the fifth
    root of hi exceeds TRIAL_DIVISION_LIMIT.  The pool has no more workers
    than jobs, chunks or CPUs, and is not started for one worker.  The chunk
    size depends on jobs, not on the CPU count.
    """
    if not 1 < lo <= hi:
        raise ValueError("need 1 < lo <= hi")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    root = integer_root(hi, 5)
    if root > TRIAL_DIVISION_LIMIT:
        raise FactorizationLimitExceeded(
            f"scanning up to {hi} needs the primes up to {root} for its"
            f" fifth-power marks, beyond {TRIAL_DIVISION_LIMIT}"
        )
    if jobs == 1:
        chunk = SIEVE_BLOCK
    else:
        chunk = min(max((hi - lo + 1) // (jobs * 4), MIN_CHUNK), MAX_CHUNK)
    starts = range(lo, hi + 1, chunk)
    bounds = ((start, min(start + chunk - 1, hi)) for start in starts)
    # Counted, not len(starts): a range longer than sys.maxsize has no len.
    workers = min(jobs, (hi - lo) // chunk + 1, os.cpu_count() or 1)
    if workers == 1:
        yield from map(_scan_chunk, bounds)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for b in bounds:
            pending.append(pool.submit(_scan_chunk, b))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def scan_range(lo: int, hi: int, jobs: int = 1) -> list[tuple[int, str]]:
    return list(chain.from_iterable(iter_scan(lo, hi, jobs)))


def render_scan(results: list[tuple[int, str]]) -> str:
    return "\n".join(f"{n}\t{form}" for n, form in results)
