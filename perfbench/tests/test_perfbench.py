"""Tests of the benchmark itself: inputs, independent checks and tracing.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import quintcap  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from schema import validate  # noqa: E402

SCHEMA_PATH = ROOT / "src" / "quintcap" / "data" / "report.schema.json"


def first_ops(name: str, seed: int, count: int) -> list:
    wl = workloads.make(name, ROOT / "src")
    return list(itertools.islice(itertools.chain.from_iterable(wl.rounds(seed)), count))


@pytest.mark.parametrize("name", run.NAMES)
def test_same_seed_same_inputs(name):
    assert first_ops(name, 7, 16) == first_ops(name, 7, 16)


@pytest.mark.parametrize("name", run.NAMES)
def test_different_seeds_different_inputs(name):
    assert first_ops(name, 7, 16) != first_ops(name, 8, 16)


@pytest.mark.parametrize("name", ["report-small", "report-large"])
def test_radicands_have_their_intended_shape(name):
    lo, hi = inputs.REPORT_RANGES[name]
    ops = first_ops(name, 3, 48)
    for i, op in enumerate(ops):
        assert op.shape.form == inputs.SHAPE_ORDER[i % 3]
        assert op.n == math.prod(p**e for p, e in op.factors)
        assert all(inputs.is_prime(p) for p, _ in op.factors)
        assert lo <= op.shape.p < hi
        assert inputs.shape_of(dict(op.factors)) == op.shape
    width = math.log(hi / lo) / inputs.REPORT_ROUND
    for k in range(0, len(ops), inputs.REPORT_ROUND):
        strata = sorted(int(math.log(op.shape.p / lo) / width) for op in ops[k : k + inputs.REPORT_ROUND])
        assert strata == list(range(inputs.REPORT_ROUND))
    refused = [i for i, op in enumerate(ops) if op.beyond_ceiling]
    if name == "report-small":
        assert refused == []
    else:
        assert [i // inputs.REPORT_ROUND for i in refused] == list(range(len(ops) // inputs.REPORT_ROUND))
        assert 0 not in refused
        assert all(ops[i].shape.e >= 2 and ops[i].shape.form != inputs.FIVE_EP for i in refused)


def test_small_radicands_classify_as_generated():
    for op in first_ops("report-small", 5, 24):
        rc = quintcap.classify_radicand(op.n)
        assert (rc.form.value, rc.p, rc.q, rc.e) == (op.shape.form, op.shape.p, op.shape.q, op.shape.e)


def test_shape_rules_agree_with_classify():
    window = inputs.factor_window(2, 20_000)
    for n, factors in zip(range(2, 20_001), window):
        shape = inputs.shape_of(factors)
        try:
            rc = quintcap.classify_radicand(n)
        except quintcap.NotFifthPowerFree:
            assert shape is None
            continue
        assert shape is not None and (shape.form, shape.p, shape.q, shape.e) == (
            rc.form.value, rc.p, rc.q, rc.e
        )


def test_ceiling_rule_matches_the_seed_classifier():
    p = 4_000_037  # the first prime past the ceiling
    assert inputs.is_prime(p)
    for factors, refused in (({p: 1}, False), ({p: 2}, True), ({p: 2, 3: 1}, True), ({p: 1, 5: 2}, False)):
        assert inputs.beyond_ceiling(factors) is refused
        n = math.prod(f**e for f, e in factors.items())
        if refused:
            with pytest.raises(quintcap.FactorizationLimitExceeded):
                quintcap.classify_radicand(n)


def test_prime_test_against_trial_division():
    for n in range(1, 5000):
        assert inputs.is_prime(n) == (n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1)))


def test_fifth_power_count_and_sieve_against_brute_force():
    lo, hi = 3_999_000, 4_003_000
    brute = sum(any(n % p**5 == 0 for p in range(2, 26)) for n in range(lo, hi + 1))
    assert inputs.count_fifth_power_divisible(lo, hi) == brute
    for n, factors in zip(range(lo, lo + 500), inputs.factor_window(lo, lo + 500)):
        assert math.prod(p**e for p, e in factors.items()) == n
        assert all(inputs.is_prime(p) for p in factors)


def test_scan_windows_cover_each_stratum():
    ops = first_ops("scan-window", 2, 8)
    stratum = (inputs.SCAN_HI - inputs.SCAN_LO) // inputs.SCAN_STRATA
    for i, w in enumerate(ops):
        assert w.hi - w.lo + 1 == inputs.SCAN_WINDOW
        k = inputs.SCAN_STRATA - 1 - i % inputs.SCAN_STRATA
        assert inputs.SCAN_LO + k * stratum <= w.lo and w.hi < inputs.SCAN_LO + (k + 1) * stratum


def test_ring_arithmetic_matches_cycint():
    rng = random.Random(1)
    for _ in range(200):
        a = tuple(rng.randint(-50, 50) for _ in range(4))
        b = tuple(rng.randint(-50, 50) for _ in range(4))
        assert inputs.cyc_mul(a, b) == (quintcap.CycInt(*a) * quintcap.CycInt(*b)).coords
        assert inputs.cyc_pow5(a) == (quintcap.CycInt(*a) ** 5).coords
        assert inputs.lambda_residue(a) == quintcap.lambda_residue(quintcap.CycInt(*a))


def test_kummer_rounds():
    ops = first_ops("kummer-lambda", 4, 16)
    assert all(inputs.lambda_residue(op.theta) for op in ops)
    assert [op.fifth_power for op in ops[:4]] == [False, True, False, True]
    for pair in {op.pair for op in ops}:
        assert len([op for op in ops if op.pair == pair]) == 2


def test_schema_checker_accepts_reports_and_rejects_changes():
    schema = json.loads(SCHEMA_PATH.read_text())
    doc = json.loads(quintcap.run_report(151, "json"))
    assert validate(doc, schema) == []
    for broken in (
        {**doc, "extra": 1},
        {**doc, "symbol": 7},
        {**doc, "classification": {**doc["classification"], "form": "p"}},
        {k: v for k, v in doc.items() if k != "n"},
    ):
        assert validate(broken, schema)
    with pytest.raises(ValueError):
        validate(doc, {"type": "object", "unknownKeyword": 1})


def test_schema_checker_agrees_with_jsonschema():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(SCHEMA_PATH.read_text())
    for n in (93, 151, 55, 2111):
        doc = json.loads(quintcap.run_report(n, "json"))
        broken = {**doc, "n": 1}
        for d in (doc, broken):
            ok = jsonschema.Draft7Validator(schema).is_valid(d)
            assert ok == (validate(d, schema) == [])


def test_tracer_restores_every_wrapped_name():
    before = tracing.snapshot()
    original = quintcap.classify.classify_radicand
    tracer = tracing.Tracer()
    with tracer:
        assert tracing.snapshot() != before
        for namespace in (quintcap, quintcap.classify, quintcap.report, quintcap.scanner):
            assert namespace.classify_radicand is not original
        quintcap.run_report(93, "json")
    assert tracing.snapshot() == before
    assert quintcap.report.classify_radicand is original
    spans = len(tracer.spans)
    muls = tracer.counts["cyclotomic.cycint_mul.calls"][0]
    quintcap.run_report(93, "json")
    assert len(tracer.spans) == spans
    assert tracer.counts["cyclotomic.cycint_mul.calls"][0] == muls


def test_tracer_restores_after_an_exception():
    before = tracing.snapshot()
    with pytest.raises(quintcap.ClassificationError):
        with tracing.Tracer():
            quintcap.run_report(1, "json")
    assert tracing.snapshot() == before


def test_spans_nest_and_count():
    with tracing.Tracer() as tracer:
        quintcap.run_report(93, "json")
    names = tracer.names
    top = [s for s in tracer.spans if s[0] < 0]
    assert [names[s[2]] for s in top] == ["report.run_report"]
    by_name = {names[s[2]] for s in tracer.spans if s[0] >= 0 and names[tracer.spans[s[0]][2]] == "report.run_report"}
    assert "classify.classify_radicand" in by_name
    metrics = tracer.layer_metrics()
    assert metrics["report.run_report.self_ms"] <= metrics["report.run_report.ms"]
    assert metrics["primes.iter_units.yielded"] > 0
    assert metrics["cyclotomic.cycint_mul.calls"] > 0


def test_traced_counts_repeat_for_a_seed():
    wl = workloads.make("report-small", ROOT / "src")
    ops = first_ops("report-small", 9, 3)
    counts = []
    for _ in range(2):
        with tracing.Tracer() as tracer:
            for op in ops:
                wl.call(op, parallel=False)
        m = tracer.layer_metrics()
        counts.append({k: v for k, v in m.items() if tracing.PER_LAYER.get(k) == "count"})
    assert counts[0] == counts[1]


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.PER_LAYER
    assert spec["paths"] == [BENCH.name]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns(".out", "__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "report-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
