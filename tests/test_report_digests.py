"""Report output pinned byte for byte.

data/report_digests.json holds the sha256 of ``run_report(n, "json")`` and
of ``run_report(n, "text", explain=True)`` for the corpus rows, 843, 7157
and 60 seeded random admissible radicands (data/make_report_digests.py
wrote it before the formal tables were shared between reports).  The
report's fixed-layout writer is checked against the stdlib encoder of
``oracles.report_dict`` on those rows and on 300 seeded radicands of every
kind, and ``_render`` on edge values directly.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from quintcap.classify import RadicandForm, classify_radicand
from quintcap.factor import is_rational_prime
from quintcap.report import Report, _render, build_report, run_report

from oracles import report_dict

ROWS = json.loads((Path(__file__).parent / "data" / "report_digests.json").read_text())


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_digest_rows_cover_every_shape():
    forms = {build_report(row["n"]).classification.form.value for row in ROWS}
    assert forms == {"p^e", "p^e*q", "5^e*p", "no_match"}
    assert len(ROWS) == 88


@pytest.mark.parametrize("row", ROWS, ids=lambda row: str(row["n"]))
def test_report_output_matches_digest(row):
    assert _sha(run_report(row["n"], "json")) == row["json"]
    assert _sha(run_report(row["n"], "text", explain=True)) == row["text_explain"]


def _next_prime(m, residues):
    while not (m % 5 in residues and is_rational_prime(m)):
        m += 1
    return m


def generated_radicands(seed=20261019, per_shape=95, no_match=15):
    """per_shape radicands of each shape, with p log-uniform in about
    [10^2, 1.6*10^13), e in 1..4 and q < 200, then no_match integers."""
    rng = random.Random(seed)
    out = []
    for form in (
        RadicandForm.PRIME_POWER,
        RadicandForm.PRIME_POWER_TIMES_Q,
        RadicandForm.FIVE_POWER_TIMES_P,
    ):
        found = []
        while len(found) < per_shape:
            p = _next_prime(int(10 ** rng.uniform(2, 13.2)), (1,))
            n = p ** rng.randint(1, 4)
            if form is RadicandForm.PRIME_POWER_TIMES_Q:
                n *= _next_prime(rng.randrange(2, 200), (2, 3))
            elif form is RadicandForm.FIVE_POWER_TIMES_P:
                n *= 5 ** rng.randint(1, 4)
            if n not in found and classify_radicand(n).form is form:
                found.append(n)
        out += found
    while len(out) < 3 * per_shape + no_match:
        n = rng.randrange(2, 10**9)
        if n % 5 and classify_radicand(n).form is RadicandForm.NO_MATCH:
            out.append(n)
    return out


def _oracle_json(report):
    return json.dumps(report_dict(report), sort_keys=True, indent=2)


@pytest.mark.parametrize("row", ROWS, ids=lambda row: str(row["n"]))
def test_to_json_matches_stdlib_oracle_on_digest_rows(row):
    report = build_report(row["n"])
    assert report.to_json() == _oracle_json(report)


def test_to_json_matches_stdlib_oracle():
    seen = set()
    for n in generated_radicands():
        report = build_report(n)
        assert report.to_json() == _oracle_json(report), n
        seen.add(
            (
                report.classification.form,
                report.h1 and report.h1["source"],
                report.normalization and report.normalization["achieved"],
                bool(report.notes),
            )
        )
    # every shape, h1 source and normalization outcome, notes or none
    assert seen == {
        (RadicandForm.PRIME_POWER, None, True, False),
        (RadicandForm.PRIME_POWER, None, False, True),
        (RadicandForm.PRIME_POWER_TIMES_Q, "search", None, False),
        (RadicandForm.PRIME_POWER_TIMES_Q, "norm_condition", None, True),
        (RadicandForm.FIVE_POWER_TIMES_P, "norm_condition", None, True),
        (RadicandForm.NO_MATCH, None, None, False),
    }
    # a report of 93 with empty lists and variable sections
    full = build_report(93)
    report = Report(
        93, full.classification, False, [], None, full.normalization, {},
        full.symbol_exponent, [], full.formal,
    )
    assert report.to_json() == _oracle_json(report)


WRITER_CASES = [
    {},
    [],
    (),
    {"a": {}, "b": [], "c": [{}, [[]], {"d": []}]},
    ["", '"', "\\", 'say "hi"\\n', "\x00\x1f\t\n\r\x7f", "é ü ζ λ 𝔽 \u2028"],
    {"\n": "x", '"quoted"': 1, "ζ": 2, "B": 3, "a": 4, "": 5},
    [True, 1, False, 0, None, [True, False]],
    [-1, -(2**63), 2**64, 2**64 + 1, -(2**100), 0],
    (1, (2, (3,)), [4, (5,)]),
    {"t": (1, "x", (None,)), "n": None, "b": False},
    "top-level string",
    17,
    None,
]


@pytest.mark.parametrize("value", WRITER_CASES)
def test_writer_matches_stdlib_oracle(value):
    oracle = json.dumps(value, sort_keys=True, indent=2)
    assert _render(value, "") == oracle
    assert _render(value, "  ") == oracle.replace("\n", "\n  ")


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        float("nan"),
        {1, 2},
        b"bytes",
        {1: "int key"},
        {"a": 1, None: 2},
        [object()],
        {"x": [0.0]},
    ],
)
def test_writer_refuses_values_outside_a_report(value):
    with pytest.raises(TypeError):
        _render(value, "")
