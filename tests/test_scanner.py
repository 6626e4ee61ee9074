import pytest

from quintcap.classify import (
    FactorizationLimitExceeded,
    NotFifthPowerFree,
    classify_radicand,
)
from quintcap.cli import main
from quintcap.factor import SIEVE_BLOCK
from quintcap.scanner import iter_scan, render_scan, scan_range


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
