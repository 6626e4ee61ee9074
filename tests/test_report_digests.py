"""Report output pinned byte for byte.

data/report_digests.json holds the sha256 of ``run_report(n, "json")`` and
of ``run_report(n, "text", explain=True)`` for the corpus rows, 843, 7157
and 60 seeded random admissible radicands (data/make_report_digests.py
wrote it before the formal tables were shared between reports).
"""

import hashlib
import json
from pathlib import Path

import pytest

from quintcap.report import build_report, run_report

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
