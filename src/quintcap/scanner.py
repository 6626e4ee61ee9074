"""Range scanner: classify every fifth-power-free n in an interval.

The window is cut into contiguous chunks, and each chunk is scanned by
``classify.sieve_rows``, the shape sieve that ``classify``'s docstring
describes: it gives every fifth-power-free n of the chunk its form, and
leaves out the rest.  A window whose p^5 marks would need primes beyond
``factor.TRIAL_DIVISION_LIMIT``, hi from about 1.02*10^33 on, is refused
before any of it is scanned: those primes would not fit in memory.

Output order is by n regardless of worker count; chunks are contiguous and
reassembled in submission order, so the parallel path is bit-identical to
the sequential one.  With one job a chunk is one sieve block of
SIEVE_BLOCK = 32 768 integers: every chunk repeats the slice work of each
sieve prime, and a longer one spreads it over more integers; no pool is
started and ``os.cpu_count()`` is not read.  ``scan_range`` returns the
first block's rows, extended in place by the others, so a window of one
block is not copied.  The pool has at most one worker per CPU, however
many jobs are asked for.  With more than one job a chunk holds a quarter
of a worker's share of the window, kept between MIN_CHUNK and MAX_CHUNK
integers (the last may be shorter), and at most two chunks per worker are
in flight, so a worker's result list, and the memory of a long parallel
scan, stay small.
``concurrent.futures`` is imported only when a pool is started, that is,
with two or more workers.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Iterator

# The sieve hands classify_radicand what it cannot decide, so a scan's
# refusals are its own.  It stays bound here, where perfbench/tracing.py
# wraps it among the scanner's names.
from .classify import FactorizationLimitExceeded, classify_radicand, sieve_rows  # noqa: F401
from .factor import TRIAL_DIVISION_LIMIT, integer_root

# Integers one chunk holds with one job.
SIEVE_BLOCK = 1 << 15

# Largest chunk given to one worker, a multiple of SIEVE_BLOCK.  Above
# 2 500, so a 20 000-integer window at jobs=2 is still cut into the jobs*4
# chunks of an uncapped scan.
MAX_CHUNK = 1 << 16

# Smallest chunk, unless MAX_CHUNK is lower: every chunk repeats the slice
# work of each sieve prime.  A 20 000-integer window at jobs=2 is 8 of them.
MIN_CHUNK = 2_500


def iter_scan(lo: int, hi: int, jobs: int = 1) -> Iterator[list[tuple[int, str]]]:
    """The results of scan_range(lo, hi, jobs), one contiguous piece at a time.

    With one job a piece is one sieve block of SIEVE_BLOCK = 32 768
    integers, so a caller that writes each piece out holds no more than a
    block's results at once.  Raises
    ValueError for jobs < 1, and FactorizationLimitExceeded when the fifth
    root of hi exceeds TRIAL_DIVISION_LIMIT.  The pool has no more workers
    than jobs, chunks or CPUs, and is not started for one worker.  The chunk
    size depends on jobs, not on the CPU count, and with one job the CPU
    count is not read.  Each piece is a new list.
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
        chunk, workers = SIEVE_BLOCK, 1
    else:
        chunk = min(max((hi - lo + 1) // (jobs * 4), MIN_CHUNK), MAX_CHUNK)
        # Counted, not by len(): a range longer than sys.maxsize has no len.
        workers = min(jobs, (hi - lo) // chunk + 1, os.cpu_count() or 1)
    bounds = ((start, min(start + chunk - 1, hi)) for start in range(lo, hi + 1, chunk))
    if workers == 1:
        yield from map(sieve_rows, bounds)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        for b in bounds:
            pending.append(pool.submit(sieve_rows, b))
            if len(pending) == 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()


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
