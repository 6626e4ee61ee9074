"""Report output pinned byte for byte.

data/report_digests.json holds the sha256 of ``run_report(n, "json")`` and
of ``run_report(n, "text", explain=True)`` for the corpus rows, 843, 7157
and 60 seeded random admissible radicands (data/make_report_digests.py
wrote it before the formal tables were shared between reports).  The
report's JSON writer is also checked against the stdlib encoder on edge
values directly.
"""

import hashlib
import json
from pathlib import Path

import pytest

from quintcap.report import _render, build_report, run_report

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


def test_to_json_matches_stdlib_oracle():
    for row in ROWS:
        report = build_report(row["n"])
        oracle = json.dumps(report.to_json_dict(), sort_keys=True, indent=2)
        assert report.to_json() == oracle, row["n"]


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
