import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from quintcap import cli, fixtures, report
from quintcap.capitulation import H1SearchExhausted
from quintcap.cli import build_parser, main
from quintcap.fixtures import packaged_data_path


def test_classify_command(capsys):
    assert main(["classify", "93"]) == 0
    out = capsys.readouterr().out
    assert "form=p^e*q" in out and "p=31" in out and "q=3" in out


def test_classify_no_match_is_success(capsys):
    assert main(["classify", "2111"]) == 0
    assert "no_match" in capsys.readouterr().out


def test_classify_fifth_power_is_input_error(capsys):
    assert main(["classify", "32"]) == 2
    assert "fifth power" in capsys.readouterr().err


def test_report_text(capsys):
    assert main(["report", "55"]) == 0
    out = capsys.readouterr().out
    assert "genus field generators" in out
    assert "lambda" in out


def test_report_json_is_valid(capsys):
    assert main(["report", "151", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 151
    assert payload["schema"] == "quintcap-report/1"


def test_report_explain(capsys):
    assert main(["report", "93", "--explain"]) == 0
    out = capsys.readouterr().out
    assert "|" in out


def test_report_input_error(capsys):
    assert main(["report", "1"]) == 2


def test_report_no_match_exits_zero(capsys):
    assert main(["report", "2111"]) == 0
    out = capsys.readouterr().out
    assert "no admissible shape" in out


def test_report_no_match_json_flag(capsys):
    assert main(["report", "2111", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["no_match"] is True


def test_report_without_any_h1_exits_one(capsys, monkeypatch):
    # A search that proves no h1 exists, with no norm-level exponent to
    # stand in for it, leaves the report nothing to write: exit code 1 and
    # one error line, with nothing on stdout.
    def exhausted(*args, **kwargs):
        raise H1SearchExhausted("no unit meets the congruence", norm_condition_h1=None)

    monkeypatch.setattr(report, "find_h1", exhausted)
    assert main(["report", "93"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: no h1 available for n = 93: no unit meets the congruence\n"


def test_scan_command(capsys):
    assert main(["scan", "50", "100"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert "55\t5^e*p" in lines
    assert "93\tp^e*q" in lines


def test_verify_command(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "summary: 24 pass, 2 known anomalies, 0 fail" in out


def test_verify_explicit_fixtures(capsys):
    path = str(packaged_data_path("table1.json"))
    assert main(["verify", "--fixtures", path]) == 0


def test_verify_with_fake_cas(capsys):
    cmd = " ".join([sys.executable, "-m", "quintcap.cas_fake"])
    assert main(["verify", "--cas-cmd", cmd]) == 0
    out = capsys.readouterr().out
    assert "cas summary: 0 failures" in out


@pytest.mark.parametrize("command", ["", " "])
def test_verify_refuses_empty_cas_command(command, tmp_path, capsys):
    # Refused before any row is checked, for the shipped corpus and for an
    # empty one, which has no row to reach the adapter.
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    for fixtures in ([], ["--fixtures", str(empty)]):
        assert main(["verify", *fixtures, "--cas-cmd", command]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: the CAS command is empty: {command!r}\n"


def test_verify_failing_fixture(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text(json.dumps([{"n": 56, "h_k5": 25, "type": [5, 5], "rank_ambiguous": 2}]))
    assert main(["verify", "--fixtures", str(path)]) == 1


def _verify_93(tmp_path, *adapter):
    path = tmp_path / "93.json"
    path.write_text(json.dumps([{"n": 93, "h_k5": 25, "type": [5, 5], "rank_ambiguous": 2}]))
    return main(["verify", "--fixtures", str(path), "--cas-cmd", shlex.join(adapter)])


def test_verify_reports_a_cas_mismatch(tmp_path, capsys):
    reply = json.dumps({"h_k5": 125, "type": [5, 25], "rank_ambiguous": 2})
    assert _verify_93(tmp_path, sys.executable, "-c", f"print({reply!r})") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "93\tp^e*q\tpass",
        "summary: 1 pass, 0 known anomalies, 0 fail",
        "cas 93: MISMATCH",
        "cas summary: 1 failures",
    ]


@pytest.mark.parametrize(
    "code",
    [
        "import sys; sys.stdout.buffer.write(b'\\xff\\n')",
        "print('{\"h_k5\": ' + '1' * 5000 + ', \"type\": [5, 5], \"rank_ambiguous\": 2}')",
    ],
    ids=["not-utf8", "int-past-digit-limit"],
)
def test_verify_cas_reply_that_is_not_json_fails_its_row(code, tmp_path, capsys):
    assert _verify_93(tmp_path, sys.executable, "-c", code) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["93\tp^e*q\tpass", "summary: 1 pass, 0 known anomalies, 0 fail"]
    assert lines[2].startswith("cas 93: error (adapter response is not JSON: ")
    assert lines[3:] == ["cas summary: 1 failures"]


@pytest.mark.parametrize(
    "code",
    [
        "print('9' * 5000)",
        "import sys; sys.stderr.write('9' * 5000); sys.exit(3)",
    ],
    ids=["reply", "stderr"],
)
def test_verify_cas_error_row_quotes_a_bounded_part_of_the_adapter(code, tmp_path, capsys):
    # A 5 000-digit reply line or stderr is cut in the row, with its length.
    assert _verify_93(tmp_path, sys.executable, "-c", code) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[2].startswith("cas 93: error (adapter ")
    assert lines[2].endswith("... (5000 characters))")
    assert len(lines[2]) < 400
    assert lines[3:] == ["cas summary: 1 failures"]


def test_verify_reads_each_file_once(tmp_path, capsys, monkeypatch):
    reads = []
    read_json = fixtures._read_json

    def counting_read(path):
        reads.append(Path(path).name)
        return read_json(path)

    monkeypatch.setattr(fixtures, "_read_json", counting_read)
    assert _verify_93(tmp_path, sys.executable, "-m", "quintcap.cas_fake") == 0
    assert capsys.readouterr().out.endswith("cas 93: match\ncas summary: 0 failures\n")
    assert reads == ["93.json", "anomalies.json"]


@pytest.mark.parametrize("value", ["-1", "0", "nan", "inf", "-inf", "soon"])
def test_verify_refuses_bad_cas_timeout_before_any_work(value, capsys, monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("work started")

    monkeypatch.setattr(cli, "verify_fixtures", no_work)
    monkeypatch.setattr(cli, "cas_adapter_check", no_work)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--cas-cmd", "true", f"--cas-timeout={value}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cas-timeout" in captured.err


def test_verify_accepts_positive_cas_timeout():
    assert build_parser().parse_args(["verify", "--cas-timeout", "2.5"]).cas_timeout == 2.5
    assert build_parser().parse_args(["verify"]).cas_timeout == 600.0


@pytest.mark.parametrize("option", ["--fixtures", "--anomalies"])
def test_verify_missing_file_is_input_error(option, tmp_path, capsys):
    # A file that is missing, truncated, not UTF-8 or empty is named in the
    # one line of the message.
    truncated = tmp_path / "truncated.json"
    truncated.write_text('[{"n": 55, ')
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"no_match_expected": [], "note": "\xe9"}')
    for path in (tmp_path / "missing.json", truncated, latin1, os.devnull):
        assert main(["verify", option, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err
        assert err.startswith("input error:") and str(path) in err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_verify_missing_fixtures_from_the_shell(tmp_path):
    missing = tmp_path / "missing.json"
    proc = subprocess.run(
        [sys.executable, "-m", "quintcap", "verify", "--fixtures", str(missing)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    message = f"input error: cannot read {missing}: No such file or directory"
    assert proc.stderr.splitlines() == [message]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_into_a_closed_pipe_exits_quietly(jobs):
    # A reader such as `head -n 1` closes the pipe after one line.
    proc = subprocess.Popen(
        [sys.executable, "-m", "quintcap", "scan", "2", "10000000", "--jobs", jobs],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    try:
        assert proc.stdout.readline() == b"2\tno_match\n"
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 1
    assert err == b""
