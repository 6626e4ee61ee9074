import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from quintcap import factor, scanner
from quintcap.classify import (
    SHAPE_RESIDUES,
    FactorizationLimitExceeded,
    NotFifthPowerFree,
    classify_radicand,
    radicand_shape,
)
from quintcap.cli import main
from quintcap.factor import SIEVE_BLOCK, SIEVE_PRIME_LIMIT, integer_root
from quintcap.scanner import iter_scan, render_scan, scan_range

import oracles

# sha256 of render_scan(scan_range(lo, hi)) per window, written by
# data/make_scan_digests.py before the scanner factored only the classes
# mod 25 that can have a shape.
SCAN_DIGESTS = json.loads((Path(__file__).parent / "data" / "scan_digests.json").read_text())


def test_scan_contains_known_rows():
    results = dict(scan_range(2, 100))
    assert results[55] == "5^e*p"
    assert results[93] == "p^e*q"
    assert results[2] == "no_match"


def test_scan_finds_case1():
    results = dict(scan_range(150, 152))
    assert results[151] == "p^e"


def test_scan_single_value():
    assert scan_range(2, 2) == [(2, "no_match")]


def test_scan_skips_fifth_powers():
    results = dict(scan_range(30, 40))
    assert 32 not in results
    assert 33 in results


def test_scan_validates_bounds():
    with pytest.raises(ValueError):
        scan_range(1, 10)
    with pytest.raises(ValueError):
        scan_range(50, 10)


def test_scan_parallel_matches_sequential():
    seq = scan_range(2, 4000, jobs=1)
    par = scan_range(2, 4000, jobs=3)
    assert seq == par
    assert render_scan(seq) == render_scan(par)


def test_scan_capped_chunks_match_sequential(monkeypatch):
    # The real cap is a multiple of the sieve block above the 2 500-integer
    # chunks of a 20 000-integer window at jobs=2.  Lowering it here makes a
    # short range span many capped chunks, more than the 2*jobs in flight.
    assert scanner.MAX_CHUNK % SIEVE_BLOCK == 0 and scanner.MAX_CHUNK > 2500
    lo, hi = 1000, 31000
    want = scan_range(lo, hi, jobs=1)
    monkeypatch.setattr(scanner, "MAX_CHUNK", 1024)
    for jobs in (2, 3):
        pieces = list(iter_scan(lo, hi, jobs))
        assert len(pieces) == 30, jobs
        assert [row for piece in pieces for row in piece] == want, jobs


def test_scan_rejects_jobs_below_one(capsys):
    for jobs in (0, -5):
        with pytest.raises(ValueError, match="jobs"):
            next(iter_scan(2, 10, jobs))
        assert main(["scan", "2", "10", "--jobs", str(jobs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "jobs must be at least 1" in captured.err


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: runs each chunk in this process and
    records the pool size asked for, so no worker is ever started."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


def test_scan_pool_has_no_more_workers_than_chunks(monkeypatch):
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4096)
    # 10 integers at 1000 jobs make 10 one-integer chunks.
    assert scan_range(2, 11, jobs=1000) == scan_range(2, 11)
    assert scan_range(2, 4000, jobs=3) == scan_range(2, 4000)
    assert _InProcessPool.sizes == [10, 3]
    # Nor more workers than CPUs, one when os.cpu_count() cannot tell.
    _InProcessPool.sizes.clear()
    for cpus in (2, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert scan_range(2, 11, jobs=1000) == scan_range(2, 11)
        assert scan_range(2, 4000, jobs=3) == scan_range(2, 4000)
    assert _InProcessPool.sizes == [2, 2, 1, 1]


def test_scan_sieves_its_primes_once_per_process(monkeypatch):
    # Every block of a scan needs the primes up to hi^(1/5) for the p^5
    # marks and up to SIEVE_PRIME_LIMIT for the sieve; each list is sieved
    # once, however many blocks the scan has.
    limits = []

    def counted(limit):
        limits.append(limit)
        return sieve(limit)

    sieve = factor._prime_flags
    monkeypatch.setattr(factor, "_SIEVED", (-1, []))
    monkeypatch.setattr(factor, "_prime_flags", counted)
    lo, hi = 2**32, 2**32 + 3 * SIEVE_BLOCK
    rows = scan_range(lo, hi)
    assert len(list(iter_scan(lo, hi))) == 4
    assert limits == [integer_root(hi, 5), SIEVE_PRIME_LIMIT]
    assert rows == oracles.scan_all(lo, hi)


def test_import_leaves_out_process_pools():
    # A scan with jobs > 1 imports concurrent.futures itself; a plain import
    # of quintcap must not pay for it and for multiprocessing.
    code = "import sys, quintcap; print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_scan_never_raises_on_desk_range():
    results = scan_range(2, 20000)
    assert all(form in {"p^e", "p^e*q", "5^e*p", "no_match"} for _, form in results)
    ns = [n for n, _ in results]
    assert ns == sorted(ns)


def _classify_each(lo, hi):
    out = []
    for n in range(lo, hi + 1):
        try:
            out.append((n, classify_radicand(n).form.value))
        except NotFifthPowerFree:
            pass
    return out


@pytest.mark.parametrize(
    "lo,hi",
    [
        (2, 40_000),  # three sieve blocks; 2^5, 3^5, 7^5 multiples; prime squares
        (1_018_081 - 9_000, 1_018_081 + SIEVE_BLOCK),  # 1009^2, two blocks
        (9_985_162 - 4_000, 9_985_162 + 4_000),  # 11^5 * 62
        (10**7 - SIEVE_BLOCK, 10**7 + 6_000),  # 10^7 and 3163^2 = 10004569
    ],
)
def test_sieve_scan_matches_classify_each(lo, hi):
    want = _classify_each(lo, hi)
    for jobs in (1, 2, 3):
        assert scan_range(lo, hi, jobs) == want, jobs


def test_iter_scan_pieces_join_to_scan_range():
    pieces = list(iter_scan(2, 2 * SIEVE_BLOCK + 10))
    assert len(pieces) == 3
    assert [row for piece in pieces for row in piece] == scan_range(2, 2 * SIEVE_BLOCK + 10)


def test_scan_short_window_near_1e20():
    # The sieve primes stop at SIEVE_PRIME_LIMIT, so a short window costs
    # little however large its integers are.
    lo, hi = 10**20, 10**20 + 30
    want = _classify_each(lo, hi)
    for jobs in (1, 2):
        assert scan_range(lo, hi, jobs) == want, jobs
    assert main(["scan", str(lo), str(lo + 10)]) == 0


def test_scan_refuses_undecided_cofactor(capsys):
    m89 = 2**89 - 1  # prime, above MILLER_RABIN_BOUND
    with pytest.raises(FactorizationLimitExceeded):
        scan_range(m89 - 1, m89)
    assert main(["scan", str(m89), str(m89)]) == 2
    assert "not decided" in capsys.readouterr().err


@pytest.mark.parametrize("row", SCAN_DIGESTS, ids=lambda row: f"{row['lo']}-{row['hi']}")
def test_scan_output_matches_digest(row):
    for jobs in (1, 2):
        text = render_scan(scan_range(row["lo"], row["hi"], jobs))
        assert hashlib.sha256(text.encode()).hexdigest() == row["sha256"], jobs


@pytest.mark.parametrize(
    "lo,hi",
    [
        (2, 6 * SIEVE_BLOCK),  # block edges; multiples of 2^5, 3^5, 5^5, 5^7 = 78125
        (610 * SIEVE_BLOCK - 700, 610 * SIEVE_BLOCK + 700),  # a block edge near 10^7
        (9_985_162 - 2_000, 9_985_162 + 2_000),  # 11^5 * 62
        (2**32 - 2_000, 2**32 + 2_000),
        (3 * 10**12, 3 * 10**12 + 2_000),
    ],
)
def test_scan_matches_full_sieve_oracle(lo, hi):
    want = oracles.scan_all(lo, hi)
    for jobs in (1, 2):
        assert scan_range(lo, hi, jobs) == want, jobs


def test_every_class_is_classified_from_the_certification_bound(monkeypatch):
    # Below SIEVE_PRIME_LIMIT^5 = 2^80 the p^5 marks prove the unmarked n
    # fifth-power-free, so only SHAPE_RESIDUES are classified; a chunk that
    # reaches 2^80 classifies every n.
    bound = SIEVE_PRIME_LIMIT**5
    assert scanner.CERTIFIED_BELOW == bound == 2**80
    classified = []

    def counted(n, factors):
        classified.append(n)
        return radicand_shape(n, factors)

    monkeypatch.setattr(scanner, "radicand_shape", counted)
    lo = bound - 10
    below = scan_range(lo, bound - 1)
    assert classified == [n for n in range(lo, bound) if n % 25 in SHAPE_RESIDUES]
    assert below == oracles.scan_all(lo, bound - 1)
    classified.clear()
    # 2^80 = (2^16)^5 is skipped, so the row list does not change.
    assert scan_range(lo, bound) == below
    assert classified == list(range(lo, bound + 1))
