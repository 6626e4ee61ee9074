"""Range scanner: classify every fifth-power-free n in an interval.

The interval is factored by the segmented sieve of ``factor.factor_window``
and each n is classified by ``radicand_shape``, the shape rules of
``classify_radicand``.  Output order is by n regardless of worker count;
chunks are contiguous and reassembled in submission order, so the parallel
path is bit-identical to the sequential one.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Iterator

# classify_radicand is not called here, but stays bound in this namespace:
# perfbench's tracer tests look it up on every module that imported it.
from .classify import (
    FactorizationLimitExceeded,
    NotFifthPowerFree,
    classify_radicand,
    radicand_shape,
)
from .factor import SIEVE_BLOCK, factor_window


def _scan_chunk(bounds: tuple[int, int]) -> list[tuple[int, str]]:
    lo, hi = bounds
    out = []
    try:
        for n, factors in factor_window(lo, hi):
            try:
                form = radicand_shape(n, factors)[0]
            except NotFifthPowerFree:
                continue
            out.append((n, form.value))
    except ValueError as exc:  # a cofactor that factorize refuses
        raise FactorizationLimitExceeded(str(exc)) from None
    return out


def iter_scan(lo: int, hi: int, jobs: int = 1) -> Iterator[list[tuple[int, str]]]:
    """The results of scan_range(lo, hi, jobs), one contiguous piece at a time.

    With one job a piece is one sieve block, so a caller that writes each
    piece out holds no more than a block's results at once.
    """
    if not 1 < lo <= hi:
        raise ValueError("need 1 < lo <= hi")
    if jobs <= 1:
        for start in range(lo, hi + 1, SIEVE_BLOCK):
            yield _scan_chunk((start, min(start + SIEVE_BLOCK - 1, hi)))
        return
    span = hi - lo + 1
    chunk = max(1, span // (jobs * 4))
    bounds = []
    start = lo
    while start <= hi:
        end = min(start + chunk - 1, hi)
        bounds.append((start, end))
        start = end + 1
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        yield from pool.map(_scan_chunk, bounds)


def scan_range(lo: int, hi: int, jobs: int = 1) -> list[tuple[int, str]]:
    return [row for piece in iter_scan(lo, hi, jobs) for row in piece]


def render_scan(results: list[tuple[int, str]]) -> str:
    return "\n".join(f"{n}\t{form}" for n, form in results)
