import json
import subprocess
import sys
import time

import pytest

from quintcap.cas import CasProtocolError, CasTimeoutError, cas_adapter_check
from quintcap.cli import main
from quintcap.fixtures import (
    FixtureEntry,
    FixtureFormatError,
    load_anomalies,
    load_fixtures,
    packaged_data_path,
    verify_fixtures,
)

FAKE = [sys.executable, "-m", "quintcap.cas_fake"]


def test_fake_adapter_table_row():
    entry = cas_adapter_check(55, FAKE)
    assert entry.h_k5 == 25
    assert entry.group_type == (5, 5)
    assert entry.rank_ambiguous == 2


def test_fake_adapter_string_command():
    cmd = " ".join([sys.executable, "-m", "quintcap.cas_fake"])
    entry = cas_adapter_check(151, cmd)
    assert entry.group_type == (5, 5)


def test_adapter_garbage_response():
    adapter = [sys.executable, "-c", "print('this is not json')"]
    with pytest.raises(CasProtocolError, match="not JSON"):
        cas_adapter_check(55, adapter)


@pytest.mark.parametrize(
    "response",
    [
        {"h_k5": 25, "type": [5], "rank_ambiguous": 2},
        {"h_k5": "25", "type": [5, 5], "rank_ambiguous": 2},
        {"type": [5, 5], "rank_ambiguous": 2},
        # JSON true loads as a bool, which Python counts as an int.
        {"h_k5": True, "type": [5, 5], "rank_ambiguous": 2},
        {"h_k5": 25, "type": [True, 5], "rank_ambiguous": 2},
        {"h_k5": 25, "type": [5, 5], "rank_ambiguous": True},
    ],
)
def test_adapter_json_response_of_wrong_shape(response):
    line = json.dumps(response)
    adapter = [sys.executable, "-c", f"print({line!r})"]
    with pytest.raises(CasProtocolError, match="bad shape") as exc:
        cas_adapter_check(55, adapter)
    assert line in str(exc.value)


@pytest.mark.parametrize(
    "code, message",
    [
        ("pass", "adapter produced no response for n = 55"),
        ("print('[1]')", "adapter response must be an object: '[1]'"),
    ],
    ids=["silent", "array"],
)
def test_adapter_reply_that_is_empty_or_no_object(code, message):
    with pytest.raises(CasProtocolError) as exc:
        cas_adapter_check(55, [sys.executable, "-c", code])
    assert str(exc.value) == message


def test_adapter_unknown_n():
    with pytest.raises(CasProtocolError):
        cas_adapter_check(56, FAKE)


def test_adapter_timeout():
    adapter = [sys.executable, "-c", "import time; time.sleep(5)"]
    with pytest.raises(CasTimeoutError) as exc:
        cas_adapter_check(55, adapter, timeout=0.4)
    assert exc.value.n == 55


def test_adapter_timeout_ends_the_processes_the_adapter_started():
    # Killing only sh would leave sleep holding the pipes open for 30 s.
    start = time.monotonic()
    with pytest.raises(CasTimeoutError):
        cas_adapter_check(55, ["sh", "-c", "sleep 30; true"], timeout=0.5)
    assert time.monotonic() - start < 5


def test_adapter_interrupt_ends_the_processes_the_adapter_started(monkeypatch):
    # The adapter's own session misses the terminal's Ctrl-C: the interrupt
    # in this process must end the adapter's processes itself.
    communicate = subprocess.Popen.communicate
    calls = []

    def interrupted(self, input=None, timeout=None):
        calls.append(input)
        if len(calls) == 1:
            # Ctrl-C comes while sleep holds the adapter's pipes open.
            with pytest.raises(subprocess.TimeoutExpired):
                communicate(self, input, timeout=0.5)
            raise KeyboardInterrupt
        return communicate(self, input, timeout=timeout)

    monkeypatch.setattr(subprocess.Popen, "communicate", interrupted)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cas_adapter_check(55, ["sh", "-c", "sleep 30; true"], timeout=60)
    assert time.monotonic() - start < 5 and len(calls) == 2


@pytest.mark.parametrize("timeout", [0, -1, 0.0, float("nan"), float("inf"), -float("inf")])
def test_adapter_refuses_bad_timeout_before_spawning(timeout):
    # A spawned command would raise CasProtocolError: nothing is spawned.
    with pytest.raises(ValueError, match="positive finite"):
        cas_adapter_check(55, ["/nonexistent/adapter"], timeout=timeout)


def test_adapter_unspawnable_command():
    with pytest.raises(CasProtocolError):
        cas_adapter_check(55, ["/nonexistent/adapter"])


@pytest.mark.parametrize("command", ["", "   ", []])
def test_adapter_refuses_empty_command(command):
    with pytest.raises(ValueError, match="CAS command is empty"):
        cas_adapter_check(55, command)


# --- fixtures verification ----------------------------------------------------

def test_shipped_table_loads():
    entries = load_fixtures(packaged_data_path("table1.json"))
    assert len(entries) == 26
    assert all(e.h_k5 == 25 and e.group_type == (5, 5) for e in entries)


def test_verify_shipped_table():
    summary = verify_fixtures(packaged_data_path("table1.json"))
    assert summary.counts() == (24, 2, 0)
    anomalies = {r["n"] for r in summary.rows if r["status"] == "anomaly"}
    assert anomalies == {2111, 2131 ** 2}


def test_verify_empty_fixture(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("[]")
    assert verify_fixtures(path).counts() == (0, 0, 0)


def test_verify_negative_control(tmp_path):
    path = tmp_path / "wrong.json"
    rows = [{"n": 56, "h_k5": 25, "type": [5, 5], "rank_ambiguous": 2}]
    path.write_text(json.dumps(rows))
    summary = verify_fixtures(path)
    assert summary.counts() == (0, 0, 1)
    assert summary.rows[0]["status"] == "fail"


def test_malformed_fixture_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"n": "55"}]))
    with pytest.raises(FixtureFormatError):
        load_fixtures(path)
    path.write_text(json.dumps({"not": "a list"}))
    with pytest.raises(FixtureFormatError):
        load_fixtures(path)


def test_fixture_row_that_is_no_object_rejected(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[5]")
    with pytest.raises(FixtureFormatError) as exc:
        load_fixtures(path)
    assert str(exc.value) == "fixture row must be an object, got int"


def test_fixture_row_ignores_keys_beyond_the_four(tmp_path):
    # A row is read by its four keys: label, or any other, is not checked.
    path = tmp_path / "extra.json"
    row = {"n": 55, "h_k5": 25, "type": [5, 5], "rank_ambiguous": 2}
    path.write_text(json.dumps([dict(row, label=7), dict(row, label="x", note=None)]))
    assert load_fixtures(path) == [FixtureEntry(55, 25, (5, 5), 2)] * 2


@pytest.mark.parametrize(
    "n, anomalies, detail",
    [
        (32, [], "classification error: 32 is divisible by a fifth power"),
        (55, [55], "expected no_match per the discrepancy list"),
        (56, [], "expected an admissible shape, got no_match"),
    ],
)
def test_verify_failing_row_says_why(tmp_path, n, anomalies, detail):
    fixtures_path = tmp_path / "rows.json"
    row = {"n": n, "h_k5": 25, "type": [5, 5], "rank_ambiguous": 2}
    fixtures_path.write_text(json.dumps([row]))
    anomalies_path = tmp_path / "anomalies.json"
    anomalies_path.write_text(json.dumps({"no_match_expected": anomalies}))
    summary = verify_fixtures(fixtures_path, anomalies_path)
    assert summary.counts() == (0, 0, 1)
    assert summary.rows[0]["status"] == "fail" and summary.rows[0]["detail"] == detail


@pytest.mark.parametrize(
    "payload",
    [
        {"no_match_expected": 5},
        {"other": [2111]},
        [2111, 4541161],
        {"no_match_expected": [2111, "4541161"]},
        {"no_match_expected": [True]},
    ],
)
def test_anomalies_file_of_the_wrong_shape_rejected(tmp_path, capsys, payload):
    path = tmp_path / "anomalies.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(FixtureFormatError, match="no_match_expected is a list of ints"):
        load_anomalies(path)
    assert main(["verify", "--anomalies", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("input error:") and "Traceback" not in captured.err


def test_anomalies_file_override(tmp_path, capsys):
    path = tmp_path / "anomalies.json"
    path.write_text(json.dumps({"no_match_expected": [2111, 2131 ** 2]}))
    assert load_anomalies(path) == load_anomalies() == {2111, 2131 ** 2}
    assert main(["verify", "--anomalies", str(path)]) == 0
    path.write_text(json.dumps({"no_match_expected": []}))
    assert load_anomalies(path) == frozenset()
    assert main(["verify", "--anomalies", str(path)]) == 1
    assert "summary: 24 pass, 0 known anomalies, 2 fail" in capsys.readouterr().out


@pytest.mark.parametrize(
    "field, value",
    [("n", True), ("h_k5", True), ("rank_ambiguous", True), ("type", [True, 5]), ("type", [5, False])],
)
def test_fixture_rejects_json_booleans(tmp_path, capsys, field, value):
    path = tmp_path / "bools.json"
    row = {"n": 93, "h_k5": 25, "type": [5, 5], "rank_ambiguous": 2}
    path.write_text(json.dumps([dict(row, **{field: value})]))
    with pytest.raises(FixtureFormatError, match="malformed fixture row"):
        load_fixtures(path)
    assert main(["verify", "--fixtures", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "malformed fixture row" in captured.err
