import concurrent.futures
import hashlib
import json
import math
import os
import random
import subprocess
import sys
from multiprocessing.reduction import ForkingPickler
from pathlib import Path

import pytest

from quintcap import classify, factor, scanner
from quintcap.classify import (
    SHAPE_RESIDUES,
    SIEVE_PRIME_LIMIT,
    FactorizationLimitExceeded,
    NotFifthPowerFree,
    classify_radicand,
)
from quintcap.cli import main
from quintcap.factor import integer_root
from quintcap.scanner import SIEVE_BLOCK, iter_scan, render_scan, scan_range

import oracles
from oracles import radicand_shape

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


def test_scan_parallel_matches_sequential(monkeypatch):
    # Blocks of 512 integers cut the window into eight chunks, which a pool
    # of three runs in this process.
    seq = scan_range(2, 4000, jobs=1)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4096)
    monkeypatch.setattr(scanner, "SIEVE_BLOCK", 512)
    par = scan_range(2, 4000, jobs=3)
    assert _InProcessPool.sizes == [3]
    assert seq == par
    assert render_scan(seq) == render_scan(par)


def test_scan_capped_chunks_match_sequential(monkeypatch):
    # Every chunk is one sieve block at every job count.  Lowering the block
    # here makes a short range span many chunks, more than the 2*jobs in
    # flight.
    lo, hi = 1000, 31000
    want = scan_range(lo, hi, jobs=1)
    monkeypatch.setattr(scanner, "SIEVE_BLOCK", 1024)
    for jobs in (1, 2, 3):
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


class _PicklingPool(_InProcessPool):
    """An _InProcessPool that also records, for each chunk, its bounds and
    the length of its result as a worker would pickle it to send back."""

    sent: list = []

    def submit(self, fn, *args):
        future = super().submit(fn, *args)
        self.sent.append((args[0], len(ForkingPickler.dumps(future.result()))))
        return future


class _Decisions(list):
    """Stands in for classify._FORM: gives the same form for each final state,
    and records the n whose form each lookup decides, read from the frame of
    the function that looks it up: in decided for the sieve's survivor loop,
    _decide, and in handed for classify_radicand, to which the loop hands a
    survivor it cannot settle itself."""

    def __init__(self):
        super().__init__(classify._FORM)
        self.decided, self.handed = [], []

    def __getitem__(self, state):
        frame = sys._getframe(1)
        lookups = {"_decide": self.decided, "classify_radicand": self.handed}
        lookups[frame.f_code.co_name].append(frame.f_locals["n"])
        return super().__getitem__(state)


def test_scan_pool_has_no_more_workers_than_chunks(monkeypatch):
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4096)
    # With one-integer blocks, 10 integers at 1000 jobs make 10 chunks.
    monkeypatch.setattr(scanner, "SIEVE_BLOCK", 1)
    assert scan_range(2, 11, jobs=1000) == scan_range(2, 11)
    assert scan_range(2, 4000, jobs=3) == scan_range(2, 4000)
    assert _InProcessPool.sizes == [10, 3]
    # Nor more workers than CPUs; with one, or when os.cpu_count() cannot
    # tell, no pool is started.
    _InProcessPool.sizes.clear()
    for cpus in (2, 1, None):
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert scan_range(2, 11, jobs=1000) == scan_range(2, 11)
        assert scan_range(2, 4000, jobs=3) == scan_range(2, 4000)
    assert _InProcessPool.sizes == [2, 2]


def test_scan_with_one_worker_starts_no_pool(monkeypatch):
    # One chunk, or one CPU, makes one worker: the chunks run in this
    # process.
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4096)
    lo = 10**6
    assert len(list(iter_scan(lo, lo + 1_999, 2))) == 1
    assert scan_range(lo, lo + 1_999, 2) == scan_range(lo, lo + 1_999)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    hi = lo + 3 * SIEVE_BLOCK - 1
    pieces = list(iter_scan(lo, hi, 2))
    assert len(pieces) == 3
    assert [row for piece in pieces for row in piece] == scan_range(lo, hi)


def test_a_one_block_window_starts_no_pool(monkeypatch):
    # A window of one sieve block is one chunk, so one worker, at any job
    # count and however many CPUs: the benchmark's 20 000-integer window at
    # 10^6 among them.
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    windows = [(10**6, 10**6 + 19_999), (2, 1 + SIEVE_BLOCK), (5 * 10**6, 5 * 10**6)]
    want = [scan_range(lo, hi) for lo, hi in windows]
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4096)
    for (lo, hi), rows in zip(windows, want):
        for jobs in (2, 3, 1000):
            assert scan_range(lo, hi, jobs) == rows, (lo, jobs)


def test_workers_return_compact_blocks(monkeypatch):
    # A worker sends back a block's p^5-mark bytes and the sparse list of
    # its shaped n, under 2 bytes an integer, not the block's rows; this
    # process lays the rows down.
    monkeypatch.setattr(_PicklingPool, "sizes", [])
    monkeypatch.setattr(_PicklingPool, "sent", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _PicklingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4096)
    lo, hi = 2 * 10**6, 2 * 10**6 + 3 * SIEVE_BLOCK - 1
    assert scan_range(lo, hi, 2) == oracles.scan_all(lo, hi)
    assert _PicklingPool.sizes == [2]
    blocks = [(start, start + SIEVE_BLOCK - 1) for start in range(lo, hi, SIEVE_BLOCK)]
    assert [bounds for bounds, _ in _PicklingPool.sent] == blocks
    for (a, b), size in _PicklingPool.sent:
        assert size < 2 * (b - a + 1), (a, size)


def test_one_job_scan_reads_no_cpu_count(monkeypatch):
    # One job starts no pool, so the CPU count is never read: not on the
    # benchmark's 20 000-integer window at 10^6, nor on three sieve blocks.
    def no_count():
        raise AssertionError("os.cpu_count() read with one job")

    windows = [(10**6, 10**6 + 19_999), (2 * 10**6, 2 * 10**6 + 3 * SIEVE_BLOCK - 1)]
    want = [scan_range(lo, hi) for lo, hi in windows]
    monkeypatch.setattr(os, "cpu_count", no_count)
    for (lo, hi), rows in zip(windows, want):
        assert scan_range(lo, hi) == rows
        pieces = list(iter_scan(lo, hi, 1))
        assert len(pieces) == -(-(hi - lo + 1) // SIEVE_BLOCK)
        assert [row for piece in pieces for row in piece] == rows


def test_scan_of_a_window_longer_than_maxsize_streams(monkeypatch):
    # 10**24 integers make more chunks than len() of a range can count.
    first = next(iter_scan(2, 10**24))
    assert first == scan_range(2, 1 + SIEVE_BLOCK)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4096)
    pieces = iter_scan(2, 10**24, 2)
    assert next(pieces) == first
    pieces.close()
    assert _InProcessPool.sizes == [2]


@pytest.mark.parametrize("method", ["fork", "forkserver", "spawn"])
def test_scan_pool_under_start_method(method):
    # Workers forked from this process, or started afresh, give the same
    # rows on a two-block window.  Two CPUs are claimed, so the pool is
    # started.
    code = (
        "import multiprocessing, os, sys\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "os.cpu_count = lambda: 2\n"
        "from quintcap.scanner import scan_range\n"
        "sys.exit(scan_range(2, 40000, 2) != scan_range(2, 40000, 1))\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120)


def test_chunks_are_sieve_blocks_at_every_job_count(monkeypatch):
    # With each chunk's scan replaced by its bounds, scan_range returns the
    # chunks in order.  Every chunk but the last holds SIEVE_BLOCK integers
    # whatever the job count, so each n has the same sieve primes at every
    # job count, and the pool has one worker per chunk up to the job count.
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4096)
    monkeypatch.setattr(scanner, "sieve_rows", lambda bounds: [bounds])
    monkeypatch.setattr(scanner, "sieve_block", lambda bounds: bounds)
    monkeypatch.setattr(scanner, "block_rows", lambda bounds: [bounds])

    def chunks(lo, hi):
        plans = []
        for jobs in (1, 2, 3, 1000):
            found = scan_range(lo, hi, jobs)
            assert found[0][0] == lo and found[-1][1] == hi
            assert all(b[0] == a[1] + 1 for a, b in zip(found, found[1:]))
            plans.append([b - a + 1 for a, b in found])
        assert all(plan == plans[0] for plan in plans), (lo, hi)
        return plans[0]

    lo = 3 * 10**12
    assert chunks(lo, lo + 1_999) == [2_000]
    # The benchmark's windows: 20 000 integers are one chunk.
    assert chunks(10**6, 10**6 + 19_999) == [20_000]
    assert chunks(lo, lo + SIEVE_BLOCK) == [SIEVE_BLOCK, 1]
    assert chunks(lo, lo + 99_999) == [SIEVE_BLOCK] * 3 + [100_000 - 3 * SIEVE_BLOCK]
    assert chunks(2, 10**6 + 1) == [SIEVE_BLOCK] * 30 + [10**6 - 30 * SIEVE_BLOCK]
    assert _InProcessPool.sizes == [2, 2, 2, 2, 3, 4, 2, 3, 31]


def test_one_sieve_prime_and_a_large_cofactor_need_no_rho(monkeypatch):
    # n = p*r^2 and p*r*s with a sieve prime p and primes r, s > 2^16: the
    # cofactor is a prime power or holds two more primes, which a
    # perfect-power and a primality test tell apart, so classify_radicand,
    # which factors n whole, is never called.  Each n is a member of
    # SHAPE_RESIDUES.
    def refused(m):
        raise AssertionError(f"classify_radicand({m}) called")

    monkeypatch.setattr(classify, "classify_radicand", refused)
    large = [r for r in range(SIEVE_PRIME_LIMIT, SIEVE_PRIME_LIMIT + 400) if factor.is_rational_prime(r)]
    small = [2, 3, 5, 7, 11, 13, 17, 19, 23, 31, 41, 61]
    squares = [p * r * r for p in small for r in large]
    products = [p * r * s for p in small for r, s in zip(large, large[5:])]
    products += [p * (r * s) ** 2 for p in small for r, s in zip(large[:4], large[1:5])]
    forms = set()
    for n in squares + products:
        if n % 25 not in SHAPE_RESIDUES:
            continue
        want = classify_radicand(n).form.value
        assert scan_range(n, n) == [(n, want)], n
        if n not in squares:
            assert want == "no_match", n
        forms.add(want)
    assert forms == {"no_match", "p^e*q"}


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
    # A scan that starts a pool imports concurrent.futures itself; a plain import
    # of quintcap must not pay for it and for multiprocessing.
    code = "import sys, quintcap; print(sorted(m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_scanner_takes_no_private_name_of_classify_or_factor():
    # classify owns the shape-state machine: the scanner binds none of the
    # private tables or helpers of classify or factor, and takes from
    # classify only the sieve's three entry points, classify_radicand and
    # the refusal's error.
    for module in (classify, factor):
        private = {name for name in vars(module) if name.startswith("_") and not name.startswith("__")}
        assert not private & set(vars(scanner)), module.__name__
    taken = {name for name, value in vars(scanner).items() if getattr(value, "__module__", None) == classify.__name__}
    assert taken == {
        "FactorizationLimitExceeded",
        "block_rows",
        "classify_radicand",
        "sieve_block",
        "sieve_rows",
    }


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
        (2, 2 * SIEVE_BLOCK + 7_000),  # three sieve blocks; 2^5, 3^5, 7^5 multiples; prime squares
        (1_018_081 - 9_000, 1_018_081 + SIEVE_BLOCK),  # 1009^2, two blocks
        (9_985_162 - 4_000, 9_985_162 + 4_000),  # 11^5 * 62
        (10**7 - 16_384, 10**7 + 6_000),  # 10^7 and 3163^2 = 10004569
    ],
)
def test_sieve_scan_matches_classify_each(lo, hi):
    want = _classify_each(lo, hi)
    for jobs in (1, 2, 3):
        assert scan_range(lo, hi, jobs) == want, jobs


def test_iter_scan_pieces_join_to_scan_range():
    # scan_range extends the first piece in place, so each call must still
    # return a list of its own: emptying one result changes no later one.
    hi = 3 * SIEVE_BLOCK + 10
    pieces = list(iter_scan(2, hi))
    assert len(pieces) == 4
    first = scan_range(2, hi)
    assert first == [row for piece in pieces for row in piece]
    # Four pieces, and one: the last 20 000 integers are one block.
    for lo in (2, hi - 19_999):
        rows, again = scan_range(lo, hi), scan_range(lo, hi)
        assert rows is not again
        rows.clear()
        assert again == scan_range(lo, hi) == [row for row in first if row[0] >= lo]


def test_scan_short_window_near_1e20():
    # The sieve primes stop at SIEVE_PRIME_LIMIT, so a short window costs
    # little however large its integers are.
    lo, hi = 10**20, 10**20 + 30
    want = _classify_each(lo, hi)
    for jobs in (1, 2):
        assert scan_range(lo, hi, jobs) == want, jobs
    assert main(["scan", str(lo), str(lo + 10)]) == 0


def test_scan_refuses_undecided_cofactor(capsys):
    # 2^89 - 2 and 2^89 - 1, a prime above MILLER_RABIN_BOUND, are classes 10
    # and 11 mod 25: the sieve proves them no_match without factoring them.
    # 13*(2^89 - 1) and 37*(2^89 - 1) are classes 18 and 7, their one sieve
    # prime can be the q of p^e*q, and it leaves a cofactor whose primality
    # is not decided.
    m89 = 2**89 - 1
    assert scan_range(m89 - 1, m89) == [(m89 - 1, "no_match"), (m89, "no_match")]
    assert main(["scan", str(m89), str(m89)]) == 0
    assert capsys.readouterr().out == f"{m89}\tno_match\n"
    for n in (13 * m89, 37 * m89):
        assert n % 25 in SHAPE_RESIDUES
        with pytest.raises(FactorizationLimitExceeded, match="not decided"):
            scan_range(n, n)
        assert main(["scan", str(n), str(n)]) == 2
        assert "not decided" in capsys.readouterr().err


def test_scan_refusal_names_the_integer_refused(capsys):
    # 3*(2^89 - 1) is class 8 mod 25, so the scan proves it no_match, while
    # classify_radicand, which factors every n, refuses it.  So does
    # 41*(2^89 - 1) of class 1, whose p must be 1 mod 25: 41 is not.
    m89 = 2**89 - 1
    for n in (3 * m89, 41 * m89):
        assert scan_range(n, n) == [(n, "no_match")]
        with pytest.raises(FactorizationLimitExceeded):
            classify_radicand(n)
    # 13*(2^89 - 1) is class 18.  The refused cofactor is 2^89 - 1, but the
    # message names the scanned n, as classify_radicand's does.
    n = 13 * m89
    with pytest.raises(FactorizationLimitExceeded) as refused:
        classify_radicand(n)
    message = str(refused.value)
    assert str(n) in message
    for jobs in (1, 2):
        with pytest.raises(FactorizationLimitExceeded) as scanned:
            scan_range(n, n, jobs)
        assert str(scanned.value) == message, jobs
    assert main(["scan", str(n), str(n)]) == 2
    assert capsys.readouterr().err == f"input error: {message}\n"


def test_sieve_tables_follow_the_shape_rules():
    # The table of a prime p, with its square table for p^2 | n, keeps the
    # state of an n of class c with p^e exactly when radicand_shape gives a
    # shape to some n of class c that is p^e times at most one more prime:
    # the shape's other prime, or 5.  Two primes of each residue mod 25
    # stand for all the others, as the rules read only residues mod 25.
    by_residue: dict = {}
    for r in factor.primes_up_to(1000):
        by_residue.setdefault(r % 25, []).append(r)
    others = [r for rs in by_residue.values() for r in rs[:2]]
    for p in factor.primes_up_to(300):
        table, square, role = classify._STEPS[p % 25]
        assert (role == 0) == (table == bytes(256)), p
        for e in range(1, 5):
            shaped = set()
            for r, f in [(p, 0)] + [(r, f) for r in others if r != p for f in range(1, 5)]:
                n = p**e * r**f
                if radicand_shape(n, {p: e, r: f} if f else {p: e})[0].value != "no_match":
                    shaped.add(n % 25)
            for c in SHAPE_RESIDUES:
                if p == 5 and (c == 0) != (e > 1):
                    continue  # 5 divides an n of class 0 twice or more, of class 5 once
                state = table[classify._CLASS_STATE[c]]
                if e > 1:
                    state = square[state]
                assert (state != 0) == (c in shaped), (p, e, c)


def test_survivor_decision_follows_the_shape_rules(monkeypatch):
    # A survivor's state after its sieve primes, moved once more by its
    # cofactor, gives the form of radicand_shape through the form table.  Two
    # sieve primes of each residue mod 25 with e = 1..4, and a cofactor prime
    # of each residue, to the first power and as r^2..r^4, stand for all the
    # others, as the rules read only residues mod 25.  5^a and pairs of sieve
    # primes reach every class of SHAPE_RESIDUES and the n with three primes,
    # whose forms no table lookup decides.
    by_residue: dict = {}
    for r in factor.primes_up_to(1000):
        if r != 5:
            by_residue.setdefault(r % 25, []).append(r)
    sieve_primes = [r for rs in by_residue.values() for r in rs[:2]]
    parts = [{}] + [{p: e} for p in sieve_primes for e in range(1, 5)]
    firsts = [rs[0] for rs in by_residue.values()]
    pairs = [{p: 1, q: 1} for i, p in enumerate(firsts) for q in firsts[i + 1 :]]
    # The first prime of each residue above SIEVE_PRIME_LIMIT, whose square
    # is above SIEVE_PRIME_LIMIT^2, and above that square.
    cofactors: list = [None]
    for start in (SIEVE_PRIME_LIMIT, SIEVE_PRIME_LIMIT**2):
        seen: dict = {}
        r = start
        while len(seen) < 20:
            if r % 5 and r % 25 not in seen and factor.is_rational_prime(r):
                seen[r % 25] = r
            r += 1
        powers = range(1, 5) if start == SIEVE_PRIME_LIMIT else (1,)
        cofactors += [(r, f) for r in seen.values() for f in powers]

    def sieved(n, primes):
        # The state of n, with the primes of its two roles, after the sieve.
        state, p, q = classify._CLASS_STATE[n % 25], 0, 0
        for prime, e in primes.items():
            table, square, role = classify._STEPS[prime % 25]
            state = table[state] if e == 1 else square[table[state]]
            if role == classify._P:
                p = prime
            elif role:
                q = prime
        return state, p, q

    decisions = _Decisions()
    monkeypatch.setattr(classify, "_FORM", decisions)
    classes, forms = set(), set()
    combos = [(a, part) for a in range(5) for part in parts] + [(0, pair) for pair in pairs]
    for fives, primes in combos:
        for cofactor in cofactors:
            factors = dict(primes)
            if fives:
                factors[5] = fives
            if cofactor:
                factors[cofactor[0]] = cofactor[1]
            n = math.prod(r**f for r, f in factors.items())
            if n == 1 or n % 25 not in SHAPE_RESIDUES:
                continue
            state, p, q = sieved(n, {**primes, 5: fives} if fives else primes)
            decisions.decided.clear()
            decisions.handed.clear()
            # _decide returns only the n with a shape, so every other n, and
            # an n with a third prime, reads as no_match.
            shaped = dict(classify._decide(n, bytearray([state]), [p], [q]))
            assert shaped.keys() <= {0}, factors
            form = shaped.get(0, "no_match")
            assert form == radicand_shape(n, factors)[0].value, factors
            assert len(factors) < 3 or not decisions.decided + decisions.handed, factors
            classes.add(n % 25)
            forms.add(form)
    assert classes == SHAPE_RESIDUES
    assert forms == {"p^e", "p^e*q", "5^e*p", "no_match"}


def test_survivor_forms_on_windows_match_the_shape_rules(monkeypatch):
    # Every survivor whose form a table lookup decides has at most two
    # primes, and gets the form radicand_shape gives its factorisation.
    decisions = _Decisions()
    monkeypatch.setattr(classify, "_FORM", decisions)
    windows = [(lo, lo + 4_000) for lo in (10**6, 4 * 10**6, 10**7 - 4_001)]
    windows += [(2**32 - 2_000, 2**32 + 2_000), (10**10, 10**10 + 4_000), (10**12, 10**12 + 4_000)]
    forms = set()
    for lo, hi in windows:
        decisions.decided.clear()
        rows = dict(scan_range(lo, hi))
        assert decisions.decided, lo
        for n in decisions.decided:
            factors = factor.factorize(n)
            assert len(factors) <= 2, n
            assert rows[n] == radicand_shape(n, factors)[0].value, n
            forms.add(rows[n])
    assert forms == {"p^e", "p^e*q", "5^e*p", "no_match"}


def _shaped_windows():
    # Short windows whose first and last n both have a shape: one n, two
    # shaped neighbours, and a run of three, at heights where the survivor
    # loop takes each of its cofactor branches.
    windows = []
    for start in (2, 10**6, 2**32 - 300, 10**10, 10**12):
        shaped = []
        n = start
        while len(shaped) < 4:
            try:
                if classify_radicand(n).form.value != "no_match":
                    shaped.append(n)
            except NotFifthPowerFree:
                pass
            n += 1
        windows += [(shaped[0], shaped[0]), (shaped[0], shaped[1]), (shaped[1], shaped[3])]
    return windows


@pytest.mark.parametrize("lo,hi", _shaped_windows())
def test_sieve_block_decides_the_first_and_last_n_of_a_window(lo, hi):
    _, keep, shaped = classify.sieve_block((lo, hi))
    assert len(keep) == hi - lo + 1
    assert shaped[0][0] == 0 and shaped[-1][0] == hi - lo
    assert shaped == [(n - lo, form) for n, form in _classify_each(lo, hi) if form != "no_match"]


def test_survivor_search_finds_live_states_at_both_ends(monkeypatch):
    # The states of a window whose first and last n have a shape, with every
    # state between them zeroed: _decide finds exactly those two.
    lo, hi = next((lo, hi) for lo, hi in _shaped_windows() if hi - lo > 1)
    seen = []
    real = classify._decide
    monkeypatch.setattr(classify, "_decide", lambda *args: seen.append(args) or real(*args))
    classify.sieve_block((lo, hi))
    _, state, ps, qs = seen[0]
    ends = bytearray(len(state))
    ends[0], ends[-1] = state[0], state[-1]
    want = [(i, classify_radicand(lo + i).form.value) for i in (0, len(state) - 1)]
    assert real(lo, ends, ps, qs) == want
    assert real(lo, bytearray(len(state)), ps, qs) == []


def test_scan_refuses_a_window_past_the_factoriser_reach(monkeypatch, capsys):
    # From (TRIAL_DIVISION_LIMIT + 1)^5, about 1.02*10^33, on, the p^5 marks
    # would need primes beyond TRIAL_DIVISION_LIMIT.  Such a window is
    # refused, naming hi, before any prime is sieved for it.
    def bounded(limit):
        if limit > factor.TRIAL_DIVISION_LIMIT:
            raise AssertionError(f"primes sieved up to {limit}")
        return sieve(limit)

    sieve = factor._prime_flags
    monkeypatch.setattr(factor, "_prime_flags", bounded)
    lo, hi = 10**40, 10**40 + 10
    for jobs in (1, 2):
        with pytest.raises(FactorizationLimitExceeded, match=str(hi)):
            scan_range(lo, hi, jobs)
    assert main(["scan", str(lo), str(hi)]) == 2
    assert str(hi) in capsys.readouterr().err
    # The ceiling is exact: with each chunk's scan replaced by its bounds,
    # the last integer below it is scanned.
    top = (factor.TRIAL_DIVISION_LIMIT + 1) ** 5
    monkeypatch.setattr(scanner, "sieve_rows", lambda bounds: [bounds])
    assert scan_range(top - 1, top - 1) == [(top - 1, top - 1)]
    with pytest.raises(FactorizationLimitExceeded, match=str(top)):
        scan_range(top - 1, top)


def test_scan_from_the_certification_bound_matches_full_sieve_oracle():
    # Across 2^80 = SIEVE_PRIME_LIMIT^5, above which a prime p with p^5 <= hi
    # can exceed the sieve primes, the p^5 marks still take in every such p.
    # A prime in (1000, SIEVE_PRIME_LIMIT) divides some n of the window.
    lo, hi = 2**80 - 20, 2**80 + 39
    want = oracles.scan_all(lo, hi)
    for jobs in (1, 2):
        assert scan_range(lo, hi, jobs) == want, jobs
    middle = [p for p in factor.primes_up_to(SIEVE_PRIME_LIMIT) if p > 1000]
    assert any(n % p == 0 for n in range(lo, hi + 1) for p in middle)


@pytest.mark.parametrize("row", SCAN_DIGESTS, ids=lambda row: f"{row['lo']}-{row['hi']}")
def test_scan_output_matches_digest(row):
    for jobs in (1, 2):
        text = render_scan(scan_range(row["lo"], row["hi"], jobs))
        assert hashlib.sha256(text.encode()).hexdigest() == row["sha256"], jobs


@pytest.mark.parametrize(
    "lo,hi",
    [
        (2, 3 * SIEVE_BLOCK),  # block edges; multiples of 2^5, 3^5, 5^5, 5^7 = 78125
        (10**7 - SIEVE_BLOCK - 700, 10**7 + 700),  # two blocks, their edge near 10^7
        (9_985_162 - 2_000, 9_985_162 + 2_000),  # 11^5 * 62
        (2**32 - 2_000, 2**32 + 2_000),
        (3 * 10**12, 3 * 10**12 + 2_000),
    ],
)
def test_scan_matches_full_sieve_oracle(lo, hi):
    want = oracles.scan_all(lo, hi)
    for jobs in (1, 2):
        assert scan_range(lo, hi, jobs) == want, jobs
    # With one job the pieces are sieve blocks from lo on, so only a window
    # longer than SIEVE_BLOCK crosses a block edge.
    assert len(list(iter_scan(lo, hi))) == -(-(hi - lo + 1) // SIEVE_BLOCK)


def test_shaped_rows_are_written_at_their_index(monkeypatch):
    # sieve_rows lays every fifth-power-free n down as no_match and writes
    # each shaped n over the row at the count of kept n below it.  These
    # windows put a shaped n at lo and at hi, right after a p^5-marked n,
    # alone in a one-integer window, on both sides of a block edge, and
    # after classify_radicand has decided it.
    windows = [
        (993, 1_025),  # shaped at lo and at hi; 1 024 = 2^10 is marked
        (1_024, 1_025),
        (9_985_162, 9_985_601),  # lo = 11^5 * 62; 9 985 600 = 2^6 * 156 025
        (937_499, 937_502),  # 937 500 = 12 * 5^7
        (937_501, 937_501),
        (1_024, 1_024),
        (1_026, 1_026),
        (1_002_775, 1_002_775 + SIEVE_BLOCK),  # hi is the first n of the second block
        (10**20 + 55, 10**20 + 151),  # hi is prime, with no sieve prime
    ]
    decisions = _Decisions()
    monkeypatch.setattr(classify, "_FORM", decisions)
    rows = {}
    for lo, hi in windows:
        want = oracles.scan_all(lo, hi)
        for jobs in (1, 2):
            assert scan_range(lo, hi, jobs) == want, (lo, hi, jobs)
        rows.update(want)
    # The windows hold what they are chosen for.
    shaped = {n for n, form in rows.items() if form != "no_match"}
    for lo, hi in (windows[0], windows[7], windows[8]):
        assert {lo, hi} <= shaped, (lo, hi)
    marked = {1_024, 9_985_162, 9_985_600, 937_500}
    assert not marked & rows.keys()
    assert {1_025, 9_985_601, 937_501} <= shaped and rows[1_026] == "no_match"
    assert len(list(iter_scan(1_002_775, 1_002_775 + SIEVE_BLOCK))) == 2
    assert 10**20 + 151 in decisions.handed


def test_shape_sieve_matches_restricted_sieve_oracle(monkeypatch):
    # The shape sieve decides by its tables only the members of
    # SHAPE_RESIDUES with at most two sieve primes, and rejects one whose two
    # primes leave a cofactor; the restricted sieve classified every member.
    # The jobs=2 chunks run in this process: with blocks of 250 integers, a
    # 2 000-integer window is cut into eight.
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4096)
    rng = random.Random(18)
    windows = [(lo, lo + 1_999) for lo in (rng.randrange(2, 10**13 - 2_000) for _ in range(3))]
    windows += [
        (2, SIEVE_BLOCK + 2_000),  # a block edge; n that are sieve primes
        (9_985_162 - 1_000, 9_985_162 + 1_000),  # 11^5 * 62
        (2**32 - 2_000, 2**32 + 2_000),
        (3 * 10**12, 3 * 10**12 + 2_000),
        (10**20, 10**20 + 300),
    ]
    counts = []
    rejected = 0
    for lo, hi in windows:
        want = oracles.restricted_scan(lo, hi)
        with monkeypatch.context() as patched:
            decisions = _Decisions()
            patched.setattr(classify, "_FORM", decisions)
            assert scan_range(lo, hi) == want, (lo, hi)
        with monkeypatch.context() as patched:
            patched.setattr(scanner, "SIEVE_BLOCK", 250)
            assert scan_range(lo, hi, 2) == want, (lo, hi)
        for n in decisions.decided:
            # At jobs=1 the sieve primes of n are those up to the square root
            # of the top of its block, and at most SIEVE_PRIME_LIMIT.
            top = min(n - (n - lo) % SIEVE_BLOCK + SIEVE_BLOCK - 1, hi)
            limit = min(math.isqrt(top), SIEVE_PRIME_LIMIT)
            counts.append(sum(p <= limit for p in factor.factorize(n)))
        rejected += sum(n % 25 in SHAPE_RESIDUES for n, _ in want) - len(decisions.decided)
    assert {0, 1, 2} <= set(counts) and max(counts) == 2 and rejected > 0
    assert _InProcessPool.sizes == [2] * len(windows)


def test_every_class_is_classified_from_the_certification_bound(monkeypatch):
    # On both sides of SIEVE_PRIME_LIMIT^5 = 2^80 the p^5 marks prove the
    # unmarked n fifth-power-free, so only members of SHAPE_RESIDUES with
    # fewer than three sieve primes are decided by the state tables.
    bound = SIEVE_PRIME_LIMIT**5
    decisions = _Decisions()
    monkeypatch.setattr(classify, "_FORM", decisions)
    # Each window holds a classified n, 2^80 - 369 and 2^80 + 49, and no n
    # whose factorisation costs the oracles a long rho run.  (2^80 - 19 =
    # 3*r is class 7, where a q must be 2 mod 5, so the sieve proves it
    # no_match.)
    seen = []
    for lo, hi in ((bound - 371, bound - 368), (bound - 8, bound + 58)):
        decisions.decided.clear()
        rows = scan_range(lo, hi)
        sieve_primes = {
            n: sum(p < SIEVE_PRIME_LIMIT for p in factors)
            for n, factors in oracles.factor_window(lo, hi)
        }
        assert all(n % 25 in SHAPE_RESIDUES and sieve_primes[n] < 3 for n in decisions.decided)
        assert rows == oracles.scan_all(lo, hi)
        seen += decisions.decided
    assert min(seen) < bound < max(seen)
