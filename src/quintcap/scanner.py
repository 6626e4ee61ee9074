"""Range scanner: classify every fifth-power-free n in an interval.

The window is cut into contiguous chunks of SIEVE_BLOCK = 32 768 integers
(the last may be shorter), whatever the job count, and each chunk is one
block of the shape sieve that ``classify``'s docstring describes: it gives
every fifth-power-free n of the chunk its form, and leaves out the rest.
Every chunk repeats the slice work of each sieve prime, and a longer one
spreads it over more integers.  A window whose p^5 marks would need
primes beyond ``factor.TRIAL_DIVISION_LIMIT``, hi from about 1.02*10^33
on, is refused before any of it is scanned: those primes would not fit in
memory.

The pool has at most one worker per chunk and per CPU, however many jobs
are asked for, so a window of one block starts no pool; with one job
``os.cpu_count()`` is not read.  A worker runs only ``sieve_block`` and
sends back the compact block, about one byte per integer, and this
process lays the rows down from it with ``block_rows``, as
``sieve_rows`` does with one worker.  Chunks are reassembled in
submission order, at most two per worker in flight, so the output is
bit-identical at every job count and a long parallel scan holds little.
``concurrent.futures`` is imported only when a pool is started.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Iterator

# The sieve hands classify_radicand what it cannot decide, so a scan's
# refusals are its own.  It stays bound here, where perfbench/tracing.py
# wraps it among the scanner's names.
from .classify import (  # noqa: F401
    FactorizationLimitExceeded,
    block_rows,
    classify_radicand,
    sieve_block,
    sieve_rows,
)
from .factor import TRIAL_DIVISION_LIMIT, integer_root

# Integers in one chunk.
SIEVE_BLOCK = 1 << 15


def iter_scan(lo: int, hi: int, jobs: int = 1) -> Iterator[list[tuple[int, str]]]:
    """The results of scan_range(lo, hi, jobs), one chunk of SIEVE_BLOCK
    integers at a time, so a caller that writes each piece out holds the
    rows of no more than one block at once.

    Raises ValueError for jobs < 1, and FactorizationLimitExceeded when
    the fifth root of hi exceeds TRIAL_DIVISION_LIMIT.  The pool has no
    more workers than jobs, chunks or CPUs, and is not started for one
    worker, so neither one job nor a window of one block starts it or
    reads the CPU count.  Each piece is a new list.
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
    bounds = ((start, min(start + SIEVE_BLOCK - 1, hi)) for start in range(lo, hi + 1, SIEVE_BLOCK))
    # Counted, not by len(): a range longer than sys.maxsize has no len.
    workers = min(jobs, (hi - lo) // SIEVE_BLOCK + 1)
    if workers > 1:
        workers = min(workers, os.cpu_count() or 1)
    if workers == 1:
        yield from map(sieve_rows, bounds)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for b in bounds:
            pending.append(pool.submit(sieve_block, b))
            if len(pending) == 2 * workers:
                yield block_rows(pending.popleft().result())
        while pending:
            yield block_rows(pending.popleft().result())


def scan_range(lo: int, hi: int, jobs: int = 1) -> list[tuple[int, str]]:
    """(n, form) for every fifth-power-free n in lo..hi, ascending, with each
    form a RadicandForm value; raises as iter_scan does.

    The first piece of iter_scan is the result, extended in place by the
    others: a window of one block is returned as the sieve built it."""
    pieces = iter_scan(lo, hi, jobs)
    rows = next(pieces)
    for piece in pieces:
        rows.extend(piece)
    return rows


def render_scan(results: list[tuple[int, str]]) -> str:
    return "\n".join(f"{n}\t{form}" for n, form in results)
