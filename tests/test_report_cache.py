"""The formal tables of a report are built once per (form, h1, symbol) and shared."""

import json

import pytest

from quintcap.classify import RadicandForm
from quintcap.report import _FORMAL_TABLES, build_report
from quintcap.scanner import scan_range

from oracles import report_dict

FORMAL_KEYS = (
    "genus_generators",
    "extensions",
    "subgroups",
    "guaranteed_capitulations",
    "possible_types",
)


@pytest.fixture(scope="module")
def reports():
    """Reports on every admissible radicand below 12 000, all three shapes."""
    ns = [n for n, form in scan_range(2, 12000) if form != "no_match"]
    return [build_report(n) for n in ns]


def _key(report):
    h1 = report.h1["value"] if report.h1 else None
    return (report.classification.form, h1, report.symbol_exponent)


def test_cache_is_bounded(reports):
    assert len(reports) >= 200
    forms = {r.classification.form for r in reports}
    assert forms == {
        RadicandForm.PRIME_POWER,
        RadicandForm.PRIME_POWER_TIMES_Q,
        RadicandForm.FIVE_POWER_TIMES_P,
    }
    assert len(_FORMAL_TABLES) <= 75
    for form, h1, symbol in _FORMAL_TABLES:
        assert form is not RadicandForm.NO_MATCH
        assert (h1 is None) == (form is RadicandForm.PRIME_POWER)
        assert h1 is None or 1 <= h1 <= 4
        assert 0 <= symbol <= 4
    for report in reports:
        assert _FORMAL_TABLES[_key(report)] is report.formal


def test_no_match_report_adds_no_entry():
    before = dict(_FORMAL_TABLES)
    report = build_report(2111)
    assert report.no_match and report.formal is None
    assert _FORMAL_TABLES == before


def test_reports_with_one_key_share_equal_formal_sections(reports):
    by_key = {}
    for report in reports:
        by_key.setdefault(_key(report), []).append(report)
    shared = [group for group in by_key.values() if len(group) > 1]
    assert shared
    for a, b, *_ in shared:
        assert a.formal is b.formal
        da, db = report_dict(a), report_dict(b)
        for key in FORMAL_KEYS:
            assert da[key] == db[key]


def test_changing_one_report_leaves_another_intact(reports):
    by_key = {}
    for report in reports:
        by_key.setdefault(_key(report), []).append(report)
    for form in {r.classification.form for r in reports}:
        group = next(g for k, g in by_key.items() if k[0] is form and len(g) > 1)
        a, b = build_report(group[0].n), build_report(group[1].n)
        json_b, text_b = b.to_json(), b.to_text(explain=True)
        # The shared tables cannot be changed in place.
        with pytest.raises(AttributeError):
            a.formal.extensions = ()
        with pytest.raises(TypeError):
            a.formal.extensions[0] = a.formal.extensions[1]
        with pytest.raises(TypeError):
            a.formal.type_lists[0][1][0] = (0,) * 6
        # What report_dict returns is the caller's to change.
        d = report_dict(a)
        for key in FORMAL_KEYS:
            d[key].clear()
        d["conventions"]["notes"].append("changed")
        # The per-radicand lists and dicts are the report's own; its
        # fields cannot be reassigned.
        a.notes.append("changed")
        a.primes.pop()
        (a.normalization or a.h1)["note"] = "changed"
        with pytest.raises(AttributeError):
            a.symbol_exponent = (a.symbol_exponent + 1) % 5
        assert b.to_json() == json_b
        assert b.to_text(explain=True) == text_b
        assert a.to_json() == json.dumps(report_dict(a), sort_keys=True, indent=2)
        assert json.loads(a.to_json())["conventions"]["notes"][-1] == "changed"
