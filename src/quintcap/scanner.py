"""Range scanner: classify every fifth-power-free n in an interval.

Only an n whose residue mod 25 lies in ``classify.SHAPE_RESIDUES`` can have
a shape, and every shape has at most two distinct primes, so every chunk is
scanned by one shape sieve.  The multiples of p^5 are marked for every prime
p with p^5 <= hi and skipped; the marks prove the unmarked n fifth-power-free
at any height.  Then, for every sieve prime p up to min(isqrt(hi),
SIEVE_PRIME_LIMIT), three slice operations note p at its multiples: a count
of distinct sieve primes that stops at 3, the largest sieve prime (written
for p ascending) and the smallest (written for p descending).  A member of
SHAPE_RESIDUES that is unmarked and counts at most two sieve primes
survives; every other unmarked n is no_match.  A survivor is divided by its
recorded primes.  If it has two and a cofactor above 1 is left, that
cofactor holds a third prime, so it is no_match too.  A cofactor below
SIEVE_PRIME_LIMIT^2 is prime; a larger one next to one sieve prime must be
a prime power r^j, by a perfect-power and a primality test, or n has three
primes.  A survivor with no sieve prime, or whose cofactor is too large for
the primality test, goes to ``classify_radicand``, so a refusal names n with
its message.  ``radicand_shape``, the shape rules of ``classify_radicand``,
decides every other survivor.  A window whose p^5 marks would need primes
beyond ``factor.TRIAL_DIVISION_LIMIT``, hi from about 1.02*10^33 on, is
refused before any of it is scanned: those primes would not fit in memory.

Output order is by n regardless of worker count; chunks are contiguous and
reassembled in submission order, so the parallel path is bit-identical to
the sequential one.  The pool has at most one worker per CPU, however many
jobs are asked for.  A chunk holds a quarter of a worker's share of the
window, kept between MIN_CHUNK and MAX_CHUNK integers (the last may be
shorter), and at most two chunks per worker are in flight, so a worker's
result list, and the memory of a long parallel scan, stay small.
``concurrent.futures`` is imported only when a pool is started, that is,
with two or more workers.
"""

from __future__ import annotations

import math
import os
from collections import deque
from itertools import compress
from typing import Iterator

from .classify import (
    SHAPE_RESIDUES,
    FactorizationLimitExceeded,
    RadicandForm,
    classify_radicand,
    radicand_shape,
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
SIEVE_BLOCK = 1 << 14

# Bound on the primes the shape sieve divides by; a cofactor free of them
# and below its square is prime.
SIEVE_PRIME_LIMIT = 1 << 16

# Largest chunk given to one worker.  Above 2 500, so a 20 000-integer
# window at jobs=2 is still cut into the jobs*4 chunks of an uncapped scan.
MAX_CHUNK = 4 * SIEVE_BLOCK

# Smallest chunk, unless MAX_CHUNK is lower: every chunk repeats the slice
# work of each sieve prime.  A 20 000-integer window at jobs=2 is 8 of them.
MIN_CHUNK = 2_500

_NO_MATCH = RadicandForm.NO_MATCH.value

# Byte tables for bytes.translate: one more sieve prime, stopping at 3; and
# 1 where fewer than three.
_COUNT_UP = bytes(min(c + 1, 3) for c in range(256))
_SURVIVES = bytes(c < 3 for c in range(256))


def _scan_chunk(bounds: tuple[int, int]) -> list[tuple[int, str]]:
    """The rows of lo..hi by the shape sieve: (n, form) for every
    fifth-power-free n, ascending."""
    lo, hi = bounds
    size = hi - lo + 1
    keep = bytearray(b"\x01") * size
    forms = [_NO_MATCH] * size
    # count[i] is 3 for every n that cannot have a shape: outside
    # SHAPE_RESIDUES, a multiple of some p^5, or with three sieve primes.
    count = bytearray(b"\x03") * size
    for r in SHAPE_RESIDUES:
        off = (r - lo) % 25
        count[off::25] = bytes(len(range(off, size, 25)))
    for p in primes_up_to(integer_root(hi, 5)):
        q = p**5
        s = -lo % q
        k = len(range(s, size, q))
        keep[s::q] = bytes(k)
        count[s::q] = b"\x03" * k
    primes = primes_up_to(min(math.isqrt(hi), SIEVE_PRIME_LIMIT))
    largest = [0] * size
    smallest = [0] * size
    for p in primes:
        s = -lo % p
        if s >= size:  # no multiple of p in lo..hi
            continue
        count[s::p] = count[s::p].translate(_COUNT_UP)
        largest[s::p] = [p] * len(range(s, size, p))
    for p in reversed(primes):
        s = -lo % p
        if s >= size:
            continue
        smallest[s::p] = [p] * len(range(s, size, p))
    composite_from = SIEVE_PRIME_LIMIT * SIEVE_PRIME_LIMIT
    for i in compress(range(size), count.translate(_SURVIVES)):
        n = m = lo + i
        factors: dict[int, int] = {}
        if count[i]:
            for p in {smallest[i], largest[i]}:
                e = 0
                while m % p == 0:
                    m //= p
                    e += 1
                factors[p] = e
        if m > 1:
            if count[i] == 2:  # a third prime, and no shape has three
                continue
            if m < composite_from:
                factors[m] = 1
            elif count[i] and m < MILLER_RABIN_BOUND:
                # m is a prime power, or n has three primes.
                r, j = _perfect_power(m)
                if not is_rational_prime(r):
                    continue
                factors[r] = j
            else:
                forms[i] = classify_radicand(n).form.value
                continue
        forms[i] = radicand_shape(n, factors)[0].value
    return list(compress(zip(range(lo, hi + 1), forms), keep))


def iter_scan(lo: int, hi: int, jobs: int = 1) -> Iterator[list[tuple[int, str]]]:
    """The results of scan_range(lo, hi, jobs), one contiguous piece at a time.

    With one job a piece is one sieve block, so a caller that writes each
    piece out holds no more than a block's results at once.  Raises
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
    return [row for piece in iter_scan(lo, hi, jobs) for row in piece]


def render_scan(results: list[tuple[int, str]]) -> str:
    return "\n".join(f"{n}\t{form}" for n, form in results)
