"""Range scanner: classify every fifth-power-free n in an interval.

Only an n whose residue mod 25 lies in ``classify.SHAPE_RESIDUES`` can have
a shape, so only those five classes of 25 are factored, by the segmented
sieve of ``factor.factor_window``, and classified by ``radicand_shape``, the
shape rules of ``classify_radicand``.  Every other n is written as no_match
unless some p^5 divides it: the multiples of p^5 are marked for every sieve
prime p with p^5 <= hi and skipped.  The marks prove the unmarked n
fifth-power-free only while every prime p with p^5 <= hi is a sieve prime,
that is below CERTIFIED_BELOW = SIEVE_PRIME_LIMIT^5 = 2^80; a chunk that
reaches it factors and classifies every n.

Output order is by n regardless of worker count; chunks are contiguous and
reassembled in submission order, so the parallel path is bit-identical to
the sequential one.  The pool has at most one worker per CPU, however many
jobs are asked for.  A chunk holds at most MAX_CHUNK integers and at most
two chunks per worker are in flight, so a worker's result list, and the
memory of a long parallel scan, stay small.  ``concurrent.futures`` is
imported only when a scan runs with jobs > 1.
"""

from __future__ import annotations

import os
from collections import deque
from itertools import compress
from typing import Collection, Iterator

# classify_radicand is not called here, but stays bound in this namespace:
# perfbench's tracer tests look it up on every module that imported it.
from .classify import (
    SHAPE_RESIDUES,
    FactorizationLimitExceeded,
    NotFifthPowerFree,
    RadicandForm,
    classify_radicand,
    radicand_shape,
)
from .factor import (
    SIEVE_BLOCK,
    SIEVE_PRIME_LIMIT,
    factor_window,
    integer_root,
    primes_up_to,
)

# Largest chunk given to one worker.  Above 2 500, so a 20 000-integer
# window at jobs=2 is still cut into the jobs*4 chunks of an uncapped scan.
MAX_CHUNK = 4 * SIEVE_BLOCK

# Every prime p with p^5 below this bound is a sieve prime.
CERTIFIED_BELOW = SIEVE_PRIME_LIMIT**5

_NO_MATCH = RadicandForm.NO_MATCH.value


def _scan_chunk(bounds: tuple[int, int]) -> list[tuple[int, str]]:
    lo, hi = bounds
    keep = bytearray(b"\x01") * (hi - lo + 1)
    residues: Collection[int] = range(25)
    if hi < CERTIFIED_BELOW:
        # An unmarked n outside SHAPE_RESIDUES is fifth-power-free, so no_match.
        residues = SHAPE_RESIDUES
        for p in primes_up_to(integer_root(hi, 5)):
            q = p**5
            keep[-lo % q :: q] = bytes(len(range(-lo % q, len(keep), q)))
    shapes: dict[int, str] = {}
    try:
        for n, factors in factor_window(lo, hi, 25, residues):
            try:
                form = radicand_shape(n, factors)[0]
            except NotFifthPowerFree:
                keep[n - lo] = 0
                continue
            if form is not RadicandForm.NO_MATCH:
                shapes[n] = form.value
    except ValueError as exc:  # a cofactor that factorize refuses
        raise FactorizationLimitExceeded(str(exc)) from None
    return [(n, shapes.get(n, _NO_MATCH)) for n in compress(range(lo, hi + 1), keep)]


def iter_scan(lo: int, hi: int, jobs: int = 1) -> Iterator[list[tuple[int, str]]]:
    """The results of scan_range(lo, hi, jobs), one contiguous piece at a time.

    With one job a piece is one sieve block, so a caller that writes each
    piece out holds no more than a block's results at once.  Raises
    ValueError for jobs < 1; the pool has no more workers than jobs, chunks
    or CPUs.  The chunk size depends on jobs, not on the CPU count.
    """
    if not 1 < lo <= hi:
        raise ValueError("need 1 < lo <= hi")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs == 1:
        for start in range(lo, hi + 1, SIEVE_BLOCK):
            yield _scan_chunk((start, min(start + SIEVE_BLOCK - 1, hi)))
        return
    from concurrent.futures import ProcessPoolExecutor

    chunk = max(1, min((hi - lo + 1) // (jobs * 4), MAX_CHUNK))
    starts = range(lo, hi + 1, chunk)
    workers = min(jobs, len(starts), os.cpu_count() or 1)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for start in starts:
            pending.append(pool.submit(_scan_chunk, (start, min(start + chunk - 1, hi))))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


def scan_range(lo: int, hi: int, jobs: int = 1) -> list[tuple[int, str]]:
    return [row for piece in iter_scan(lo, hi, jobs) for row in piece]


def render_scan(results: list[tuple[int, str]]) -> str:
    return "\n".join(f"{n}\t{form}" for n, form in results)
