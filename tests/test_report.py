import json

import pytest

from quintcap import factor, primes
from quintcap.classify import RadicandForm
from quintcap.fixtures import packaged_data_path
from quintcap.report import REPORT_SCHEMA_ID, build_report, run_report

from conftest import ABOVE_BOUND_BY_TRIAL_DIVISION, BEYOND_OLD_CEILING, outcome
from oracles import report_dict

try:
    import jsonschema
except ImportError:
    jsonschema = None


@pytest.fixture(scope="module")
def schema():
    # Only the tests that validate against the schema need jsonschema.
    if jsonschema is None:
        pytest.skip("jsonschema is not installed")
    with open(packaged_data_path("report.schema.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


REPORT_NS = [55, 93, 151, 1775, 382]


@pytest.fixture(scope="module")
def reports():
    return {n: build_report(n) for n in REPORT_NS}


@pytest.mark.parametrize(
    "n,proofs",
    [
        (93, []),  # 3 * 31: both below 1000^2, proven by trial division
        (151, []),
        (100000000801, [100000000801]),  # prime = 1 (mod 25), proven once
    ],
)
def test_report_proves_each_prime_once(monkeypatch, n, proofs):
    # classify_radicand proves p and q prime; splitting them in Z[zeta]
    # does not prove them again.
    calls = []

    def counted(m, original=factor.is_rational_prime):
        calls.append(m)
        return original(m)

    monkeypatch.setattr(factor, "is_rational_prime", counted)
    monkeypatch.setattr(primes, "is_rational_prime", counted)
    build_report(n)
    assert calls == proofs


def test_schema_validates_reports(schema, reports):
    for n, report in reports.items():
        jsonschema.validate(json.loads(report.to_json()), schema)


def test_schema_validates_no_match(schema):
    report = build_report(2111)
    assert report.classification.form is RadicandForm.NO_MATCH
    jsonschema.validate(json.loads(report.to_json()), schema)


def test_report_json_roundtrip(reports):
    for report in reports.values():
        assert json.loads(report.to_json()) == report_dict(report)


def test_report_deterministic():
    assert run_report(93, fmt="json") == run_report(93, fmt="json")
    assert run_report(55, fmt="text") == run_report(55, fmt="text")


def test_report_151_structure(reports):
    d = report_dict(reports[151])
    assert d["classification"]["form"] == "p^e"
    assert d["conventions"]["root"] == 8
    assert d["symbol"] in range(5)
    assert len(d["extensions"]) == 6
    assert len(d["subgroups"]) == 6
    assert len(d["guaranteed_capitulations"]) == 6
    assert [e["label"] for e in d["extensions"]] == [f"K{i}" for i in range(1, 7)]
    # normalization of pi1 to 1 mod lambda^5 is impossible and reported as such
    assert d["normalization"]["achieved"] is False
    assert d["normalization"]["proven_impossible"] is True
    # K2/K5 are resolved by the symbol for the p^e shape
    by_label = {e["label"]: e for e in d["extensions"]}
    assert by_label["K2"]["resolved"] and by_label["K5"]["resolved"]
    assert not by_label["K1"]["resolved"]


def test_report_93_h1_section(reports):
    d = report_dict(reports[93])
    assert d["classification"]["form"] == "p^e*q"
    assert d["h1"]["value"] == 4
    assert d["h1"]["source"] == "norm_condition"
    assert d["h1"]["verified"] is False
    assert d["w_symbol"] == "pi5"
    labels = [p["label"] for p in d["primes"]]
    assert labels == ["pi1", "pi2", "pi3", "pi4", "pi5"]


def test_report_55_lambda_shape(reports):
    d = report_dict(reports[55])
    assert d["classification"]["form"] == "5^e*p"
    assert d["w_symbol"] == "lambda"
    assert d["h1"]["value"] == 1
    assert [p["label"] for p in d["primes"]][-1] == "lambda"
    # both K6 choices carry a type list
    assert len(d["possible_types"]) == 2
    sizes = sorted(len(entry["types"]) for entry in d["possible_types"])
    assert sizes == [18, 36]


def test_report_case1_type_lists(reports):
    d = report_dict(reports[151])
    sizes = sorted(len(entry["types"]) for entry in d["possible_types"])
    assert sizes == [12, 24]
    for entry in d["possible_types"]:
        for t in entry["types"]:
            assert len(t) == 6


def test_report_text_contains_sections(reports):
    text = reports[93].to_text()
    for fragment in ("classification:", "primes:", "subgroups:", "possible capitulation"):
        assert fragment in text
    explained = reports[93].to_text(explain=True)
    assert len(explained) > len(text)


def test_report_rejects_bad_input():
    with pytest.raises(Exception):
        run_report(1)
    with pytest.raises(Exception):
        run_report(32)


@pytest.mark.parametrize("fmt", ["xml", "JSON", ""])
def test_run_report_refuses_an_unknown_format(fmt):
    assert outcome(run_report, 93, fmt)[:3] == ("raised", ValueError, f"unknown format {fmt!r}")


def test_report_rejects_non_integer_radicand():
    with pytest.raises(TypeError):
        build_report(151.0)
    with pytest.raises(TypeError):
        run_report(93.0, fmt="json")


def test_schema_id_stable(reports):
    for report in reports.values():
        assert json.loads(report.to_json())["schema"] == REPORT_SCHEMA_ID


def test_full_corpus_reports(schema):
    # every corpus row yields a schema-valid report or a flagged no-match
    from quintcap.fixtures import load_anomalies, load_fixtures

    anomalies = load_anomalies()
    for entry in load_fixtures(packaged_data_path("table1.json")):
        report = build_report(entry.n)
        payload = json.loads(report.to_json())
        jsonschema.validate(payload, schema)
        assert payload == report_dict(report)
        if entry.n in anomalies:
            assert payload["no_match"]
            continue
        assert not payload["no_match"]
        form = payload["classification"]["form"]
        sizes = sorted(len(e["types"]) for e in payload["possible_types"])
        if form == "p^e":
            assert payload["h1"] is None
            assert sizes == [12, 24]
        else:
            assert payload["h1"]["value"] in (1, 2, 3, 4)
            assert sizes == [18, 36]
            if form == "5^e*p":
                # norm-condition fallback pins h1 to the exponent of 5
                assert payload["h1"]["value"] == payload["classification"]["e"]


def test_reports_beyond_old_ceiling(schema):
    radicands = BEYOND_OLD_CEILING | ABOVE_BOUND_BY_TRIAL_DIVISION
    for n, (form, p, q, e) in radicands.items():
        payload = json.loads(run_report(n, "json"))
        jsonschema.validate(payload, schema)
        assert payload["n"] == n
        assert payload["no_match"] is (form == "no_match")
        if form != "no_match":
            got = payload["classification"]
            assert (got["form"], got["p"], got["q"], got["e"]) == (form, p, q, e)
