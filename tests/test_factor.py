import math
import random
import subprocess
import sys
import time

import pytest

from quintcap import factor
from quintcap.classify import (
    FactorizationLimitExceeded,
    classify_radicand,
    trial_factor,
)
from quintcap.cli import main
from quintcap.factor import (
    MILLER_RABIN_BOUND,
    factorize,
    integer_root,
    is_rational_prime,
    primes_up_to,
)

import oracles
from conftest import ABOVE_BOUND_BY_TRIAL_DIVISION

# Trial division up to this divisor is the oracle wherever it finishes quickly.
ORACLE_LIMIT = 10**7

# The Mersenne prime 2^89 - 1, above MILLER_RABIN_BOUND.
M89 = 2**89 - 1


def _random_prime(rng, lo, hi):
    while True:
        c = rng.randrange(lo, hi)
        if is_rational_prime(c):
            return c


def test_factorize_matches_trial_division_below_2e5():
    assert factorize(1) == {}
    for n in range(2, 200_000):
        assert factorize(n) == trial_factor(n, limit=ORACLE_LIMIT), n


def test_factorize_returns_primes_ascending():
    assert list(factorize(1_000_003 * 997**2 * 7)) == [7, 997, 1_000_003]
    assert list(factorize(1_000_033 * 1_000_003**3 * 2)) == [2, 1_000_003, 1_000_033]


def test_factorize_rejects_non_positive():
    for n in (0, -1, -12):
        with pytest.raises(ValueError):
            factorize(n)


def test_factorize_random_products_against_trial_division():
    # 1-3 primes with exponents 1..4.  The largest is below 10^10 and to the
    # first power, so trial division proves it prime in a few ms.
    rng = random.Random(11)
    for _ in range(150):
        small = [_random_prime(rng, 2, 2**16) for _ in range(rng.randint(0, 2))]
        n = math.prod(p ** rng.randint(1, 4) for p in small)
        n *= _random_prime(rng, 2, 10**10)
        if n < 10**24:
            assert factorize(n) == trial_factor(n, limit=ORACLE_LIMIT), n


def test_factorize_random_products_up_to_1e24():
    # The construction is the oracle: trial division to 10^7 cannot finish
    # these.  Primes up to 2^36 keep Brent's rho under a second.
    rng = random.Random(12)
    for _ in range(60):
        want: dict[int, int] = {}
        n = 1
        for _ in range(rng.randint(1, 3)):
            p = _random_prime(rng, 2, 2 ** rng.randint(2, 36))
            e = rng.randint(1, 4)
            if n * p**e >= 10**24:
                break
            want[p] = want.get(p, 0) + e
            n *= p**e
        assert factorize(n) == want, n


def test_factorize_large_prime_powers():
    # p > 4*10^6, beyond the seed's trial-division ceiling
    p = 4_000_037
    assert factorize(p**2 * 3) == trial_factor(p**2 * 3, limit=ORACLE_LIMIT) == {3: 1, p: 2}
    assert factorize(p**4) == {p: 4}
    rng = random.Random(13)
    for _ in range(20):
        p = _random_prime(rng, 4 * 10**6, 10**13)
        q = _random_prime(rng, 2, 1000)  # divided out before the power test
        k = rng.randint(2, 4)
        assert factorize(p**k) == {p: k}
        assert factorize(p**k * q) == {p: k, q: 1}
    # beyond the Miller-Rabin bound, but a power of a decided prime
    p = 10**12 + 39
    assert factorize(p**3 * 7) == {7: 1, p: 3}
    for k in (5, 6, 7, 10, 35):
        assert factorize(p**k * 2) == {2: 1, p: k}
    assert factorize(p**2 * (10**12 + 61) ** 2) == {p: 2, 10**12 + 61: 2}


CARMICHAEL = (561, 41041, 825265, 321197185, 5394826801, 232250619601, 9746347772161)

# psi_1, ..., psi_12, the least strong pseudoprimes to the first 1, 2, ..., 12
# prime bases, factored; psi_7 = psi_8 and psi_9 = psi_10 = psi_11.  Each is
# composite, so is_rational_prime must reject it: reading its base-count
# table one row off would test psi_t to only the t bases it fools.
STRONG_PSEUDOPRIMES = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
    318665857834031151167461: (399165290221, 798330580441),
}


def test_factorize_carmichael_numbers():
    for n in CARMICHAEL:
        assert factorize(n) == trial_factor(n, limit=ORACLE_LIMIT), n
    # Chernick's (6k+1)(12k+1)(18k+1), with all three factors prime
    for k in (100_291, 5_000_341):
        ps = (6 * k + 1, 12 * k + 1, 18 * k + 1)
        assert all(is_rational_prime(p) for p in ps)
        assert factorize(math.prod(ps)) == dict.fromkeys(ps, 1)
    n = 601_747 * 1_203_493 * 1_805_239
    assert factorize(n) == trial_factor(n, limit=ORACLE_LIMIT)


def test_factorize_strong_pseudoprimes():
    for n, ps in STRONG_PSEUDOPRIMES.items():
        assert math.prod(ps) == n
        assert not is_rational_prime(n)
        assert factorize(n) == dict.fromkeys(ps, 1), n
        if ps[-2] < 10**6:
            assert factorize(n) == trial_factor(n, limit=ORACLE_LIMIT), n


def test_miller_rabin_matches_thirteen_base_oracle():
    for n in range(-3, 200_000):
        assert is_rational_prime(n) == oracles.is_rational_prime(n), n
    # 1000 odd n in [psi_t/2, 2*psi_t) for each threshold psi_t, where the
    # number of bases changes; the last window stops below psi_13.
    rng = random.Random(20251018)
    for psi in sorted(STRONG_PSEUDOPRIMES) + [MILLER_RABIN_BOUND]:
        hi = min(2 * psi, MILLER_RABIN_BOUND)
        for _ in range(1000):
            n = 2 * rng.randrange(psi // 4, hi // 2) + 1
            assert is_rational_prime(n) == oracles.is_rational_prime(n), n


def test_factorize_worst_case_semiprime_is_bounded():
    # Two primes near sqrt(MILLER_RABIN_BOUND): the longest rho walk below it.
    p, q = 1_800_000_000_047, 1_800_000_001_087
    assert is_rational_prime(p) and is_rational_prime(q)
    t0 = time.perf_counter()
    assert factorize(p * q) == {p: 1, q: 1}
    assert time.perf_counter() - t0 < 5.0


def test_factorize_refuses_undecided_cofactors():
    assert is_rational_prime(2**61 - 1)
    # MILLER_RABIN_BOUND = 1287836182261 * 2575672364521
    above = (M89, 3 * M89, M89**2, MILLER_RABIN_BOUND, 5 * MILLER_RABIN_BOUND)
    for n in above + (1009 * M89, 3_999_971**3 * M89):
        with pytest.raises(ValueError, match="not decided"):
            factorize(n)


def test_factorize_trial_divides_above_the_bound():
    # The part free of the primes below 1000 is at or above the bound and no
    # perfect power, but what is left after trial division to 4*10^6 is below.
    p = 10**12 + 39
    assert factorize(p**2 * 1009 * 1013) == {1009: 1, 1013: 1, p: 2}
    assert factorize(p**2 * 3_999_971**3 * 7) == {7: 1, 3_999_971: 3, p: 2}
    assert factorize(p**3 * 1009 * 1013) == {1009: 1, 1013: 1, p: 3}
    # past the bound again after trial division, but then a perfect power
    assert factorize(p**5 * 1009) == {1009: 1, p: 5}
    for n in ABOVE_BOUND_BY_TRIAL_DIVISION:
        assert n >= MILLER_RABIN_BOUND
        assert factorize(n) == trial_factor(n)


def test_classify_refuses_prime_above_bound(capsys):
    with pytest.raises(FactorizationLimitExceeded):
        classify_radicand(M89)
    assert main(["classify", str(M89)]) == 2
    assert "not decided" in capsys.readouterr().err


def test_integer_root():
    rng = random.Random(14)
    for _ in range(500):
        n = rng.randrange(0, 10 ** rng.randint(1, 120))
        k = rng.randint(1, 9)
        r = integer_root(n, k)
        assert r**k <= n < (r + 1) ** k, (n, k)
    for r in (2, 1009, 10**12 + 39, 3**200):
        for k in (2, 3, 4, 5, 7):
            assert integer_root(r**k, k) == r
            assert integer_root(r**k - 1, k) == r - 1
            assert integer_root(r**k + 1, k) == r


def test_primes_up_to_sieves_only_past_the_longest_list(monkeypatch):
    limits = []

    def counted(limit):
        limits.append(limit)
        return sieve(limit)

    sieve = factor._prime_flags
    monkeypatch.setattr(factor, "_SIEVED", (-1, []))
    monkeypatch.setattr(factor, "_prime_flags", counted)
    for limit in (100, 50, 2, 1, 0, 1000, 101, 997, 998, 1000):
        got = primes_up_to(limit)
        assert got == [n for n in range(limit + 1) if is_rational_prime(n)], limit
        got.append(-1)  # the caller's list is its own
    assert limits == [100, 1000]


def test_trial_division_sieves_its_flags_once(monkeypatch):
    limits = []

    def counted(limit):
        limits.append(limit)
        return sieve(limit)

    sieve = factor._prime_flags
    monkeypatch.setattr(factor, "_TRIAL_FLAGS", None)
    monkeypatch.setattr(factor, "_prime_flags", counted)
    primes = (1009, 1013, 1019, 1021, 1031, 1033, 1039, 1049, 1051)
    n = math.prod(primes)
    assert n >= MILLER_RABIN_BOUND
    for _ in range(2):
        assert factorize(n) == dict.fromkeys(primes, 1)
    assert limits == [factor.TRIAL_DIVISION_LIMIT]


def test_trial_division_flags_are_not_sieved_at_import():
    code = "import quintcap, quintcap.factor as f; print(f._TRIAL_FLAGS, f._TRIAL_PRODUCTS)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert out.stdout == "None []\n", out.stderr


def test_trial_divide_matches_per_prime_oracle(monkeypatch):
    # The examples that took 141 ms and 56 ms with one division per prime,
    # and cofactors whose primes lie in different blocks of trial divisors:
    # the first and last primes, the two sides of a block edge, a prime at
    # the end of its block, and several primes of one block.  With M89 the
    # cofactor never falls below the bound, so every prime is divided out;
    # with r it falls below after 1009, so 1013 and 3 999 971 stay in what
    # is left.  A walk builds the products of the blocks it reaches, and no
    # others.
    monkeypatch.setattr(factor, "_TRIAL_PRODUCTS", [])
    big = 10**12 + 39
    assert factorize(big**2 * 1009 * 1013) == {1009: 1, 1013: 1, big: 2}
    assert len(factor._TRIAL_PRODUCTS) == 1

    def block_primes(i):
        first = 1000 + i * factor._TRIAL_WIDTH
        return [p for p in range(first, first + factor._TRIAL_WIDTH) if is_rational_prime(p)]

    edge = block_primes(40)[-1], block_primes(41)[0]
    # A prime that is the last integer of its block.
    ends = range(999 + factor._TRIAL_WIDTH, factor.TRIAL_DIVISION_LIMIT, factor._TRIAL_WIDTH)
    last = next(p for p in ends if is_rational_prime(p))
    r = _random_prime(
        random.Random(9),
        MILLER_RABIN_BOUND // (1009 * 1013 * 3_999_971) + 1,
        MILLER_RABIN_BOUND // (1013 * 3_999_971),
    )
    cases = [
        3_999_971**2 * 10_000_000_000_273,
        1_350_061**4 * 1123,
        1009 * 3_999_971 * M89,
        edge[0] ** 3 * edge[1] * M89,
        last * M89,
        math.prod(block_primes(7)[::60]) * block_primes(500)[0] ** 2 * M89,
        1009 * 1013 * 3_999_971 * r,
        M89,
    ]
    for k, m in enumerate(cases, 1):
        got, want = {}, {}
        assert factor._trial_divide(m, got, k) == oracles.trial_divide(m, want, k), m
        assert got == want, m
    blocks = range(1000, factor.TRIAL_DIVISION_LIMIT + 1, factor._TRIAL_WIDTH)
    assert len(factor._TRIAL_PRODUCTS) == len(blocks)
    assert factorize(3_999_971**2 * 10_000_000_000_273) == {3_999_971: 2, 10_000_000_000_273: 1}
    assert factorize(1_350_061**4 * 1123) == {1123: 1, 1_350_061: 4}

