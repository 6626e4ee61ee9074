"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 5 (h1 witnesses) is implemented exactly as stated and is expected
to fail: the required congruence u * pi_1 * w^h1 = +-1, +-7 (mod lambda^5)
has no solution for any of the listed radicands, proven by exhausting the
full image of the unit group modulo lambda^5 (and by a valuation argument
for the 5^e*p rows).  See the *Known limitation* section of README.md for the
analysis; the test is intentionally not weakened.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager

from quintcap.capitulation import (
    RadicalWord,
    correspondence,
    find_h1,
    possible_types,
    satisfies_pair_parity,
    tau2_orbit,
)
from quintcap.classify import classify_radicand
from quintcap.cyclotomic import (
    CycInt,
    euclid_divmod,
    lambda_expand,
    lambda_valuation,
)
from quintcap.fixtures import packaged_data_path, verify_fixtures
from quintcap.primes import factor_rational_prime, residue_field_reduce
from quintcap.symbols import quintic_symbol


@contextmanager
def criterion(name):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance] {name}: FAIL ({time.time() - start:.1f}s)")
        raise
    print(f"[acceptance] {name}: PASS ({time.time() - start:.1f}s)")


def _random_cyc(rng, lo=-50, hi=50):
    return CycInt(*(rng.randint(lo, hi) for _ in range(4)))


def _primes_below(bound):
    sieve = [True] * bound
    sieve[0:2] = [False, False]
    for i in range(2, int(bound ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(sieve[i * i :: i])
    return [i for i, flag in enumerate(sieve) if flag]


def test_table1_corpus():
    with criterion("table1 corpus 24 pass / 2 anomalies / 0 fail in < 5s"):
        start = time.time()
        summary = verify_fixtures(packaged_data_path("table1.json"))
        elapsed = time.time() - start
        assert summary.counts() == (24, 2, 0)
        anomalies = {r["n"] for r in summary.rows if r["status"] == "anomaly"}
        assert anomalies == {2111, 2131 ** 2}
        assert len(summary.rows) == 26
        assert elapsed < 5.0


def test_symbol_oracle_equivalence():
    with criterion("residue-symbol oracle equivalence, split p < 500, < 10s"):
        start = time.time()
        rng = random.Random(5)
        split_ps = [p for p in _primes_below(500) if p % 5 == 1]
        assert split_ps[0] == 11 and len(split_ps) >= 20
        mismatches = 0
        for p in split_ps:
            pi = factor_rational_prime(p).factors[0]
            powers = {pow(x, 5, p) for x in range(1, p)}
            checked = 0
            while checked < 50:
                a = _random_cyc(rng)
                image = residue_field_reduce(a, pi)
                if image == 0:
                    continue
                checked += 1
                if (quintic_symbol(a, pi) == 0) != (image in powers):
                    mismatches += 1
        assert mismatches == 0
        assert time.time() - start < 10.0


def test_splitting_correctness():
    with criterion("splitting correctness for all p = 1 (mod 5) below 2000, < 30s"):
        start = time.time()
        split_ps = [p for p in _primes_below(2000) if p % 5 == 1]
        for p in split_ps:
            data = factor_rational_prime(p)
            product = CycInt(1)
            for f in data.factors:
                assert f.value.norm() == p
                product = product * f.value
            q, r = euclid_divmod(product, CycInt(p))
            assert r.is_zero() and q.norm() == 1
        assert time.time() - start < 30.0


def test_kernel_property_suite():
    with criterion("kernel properties, 1000 random cases each, zero failures"):
        rng = random.Random(7)
        for _ in range(1000):
            a, b = _random_cyc(rng), _random_cyc(rng)
            assert (a * b).norm() == a.norm() * b.norm()
        for _ in range(1000):
            a, b = _random_cyc(rng), _random_cyc(rng)
            if b.is_zero():
                b = CycInt(1, 1)
            q, r = euclid_divmod(a, b)
            assert (a - q * b - r).is_zero()
            assert r.norm() < b.norm()
        for i in range(1000):
            a, b = _random_cyc(rng), _random_cyc(rng)
            j = i % 4
            assert (a + b).galois(j) == a.galois(j) + b.galois(j)
            assert (a * b).galois(j) == a.galois(j) * b.galois(j)
            assert a.galois(j).norm() == a.norm()
        for _ in range(1000):
            x = _random_cyc(rng)
            k = rng.randint(1, 8)
            diff = x - lambda_expand(x, k).reassemble()
            assert diff.is_zero() or lambda_valuation(diff) >= k


H1_ROWS = (55, 93, 382, 943, 1457, 6943, 8507, 12707)


def test_h1_witnesses():
    with criterion("h1 witnesses for the eight corpus rows, zero NotFound"):
        for n in H1_ROWS:
            rc = classify_radicand(n)
            pi1 = factor_rational_prime(rc.p).factors[0]
            w_prime = factor_rational_prime(rc.q if rc.q else 5).factors[0]
            witness = find_h1(pi1, w_prime, e=rc.e)
            assert witness.residue in (1, 7, 18, 24)
            assert 1 <= witness.h1 <= 4
            recomputed = witness.unit * pi1.value * w_prime.value ** witness.h1
            assert recomputed == witness.product
            assert witness.verify()


CASES = {
    "case1": (classify_radicand(151), 0, None),
    "case2": (classify_radicand(93), None, 4),
    "case3": (classify_radicand(55), None, 1),
}


def test_capitulation_type_lists():
    with criterion("capitulation type lists match the published tables"):
        rc1, _, _ = CASES["case1"]
        base1 = [t.entries for t in possible_types(rc1, 0, RadicalWord(1, 4, 0))]
        assert len(base1) == 12
        assert (1, 2, 3, 4, 5, 0) in base1
        assert (0, 0, 0, 0, 0, 0) in base1

        rc2, _, h2 = CASES["case2"]
        base2 = [t.entries for t in possible_types(rc2, None, RadicalWord(1, 4, 0), h2)]
        assert (1, 5, 4, 3, 2, 0) in base2

        rc3, _, h3 = CASES["case3"]
        for k6 in (RadicalWord(1, 4, 0), RadicalWord(1, 1, 2 * h3)):
            a = [t.entries for t in possible_types(rc2, None, k6, h3)]
            b = [t.entries for t in possible_types(rc3, None, k6, h3)]
            assert a == b

        all_lists = [
            possible_types(rc1, 0, RadicalWord(1, 4, 0)),
            possible_types(rc1, 0, RadicalWord(1, 1, 0)),
            possible_types(rc1, 2, RadicalWord(1, 4, 0)),
            possible_types(rc1, 2, RadicalWord(1, 1, 0)),
            possible_types(rc2, None, RadicalWord(1, 4, 0), h2),
            possible_types(rc2, None, RadicalWord(1, 1, 2 * h2), h2),
            possible_types(rc3, None, RadicalWord(1, 4, 0), h3),
            possible_types(rc3, None, RadicalWord(1, 1, 2 * h3), h3),
        ]
        for types in all_lists:
            for t in types:
                assert satisfies_pair_parity(t)
                assert all(0 <= i <= 6 for i in t.entries)


def test_tau2_structure():
    with criterion("tau^2 induces (K2 K5)(K3 K4) and fixes K1, K6 in all cases"):
        for name, (rc, symbol, h1) in CASES.items():
            exts = correspondence(rc, symbol if symbol is not None else 1, h1)
            perm = {}
            for ext in exts:
                image = tau2_orbit(ext.primary())
                matches = [e.index for e in exts if e.primary() == image]
                assert len(matches) == 1, f"{name}: ambiguous image for K{ext.index}"
                perm[ext.index] = matches[0]
            assert perm == {1: 1, 2: 5, 3: 4, 4: 3, 5: 2, 6: 6}, name


def test_scan_determinism():
    with criterion("scan 2..100000 identical across --jobs 1 and --jobs 8, < 60s"):
        base_cmd = [sys.executable, "-m", "quintcap", "scan", "2", "100000"]
        start = time.time()
        seq = subprocess.run(
            base_cmd + ["--jobs", "1"], capture_output=True, timeout=120
        )
        sequential_elapsed = time.time() - start
        par = subprocess.run(
            base_cmd + ["--jobs", "8"], capture_output=True, timeout=120
        )
        assert seq.returncode == 0 and par.returncode == 0
        assert seq.stdout == par.stdout
        assert len(seq.stdout.splitlines()) > 90000
        assert sequential_elapsed < 60.0
