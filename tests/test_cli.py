import json
import subprocess
import sys

import pytest

from quintcap import cli
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
    missing = tmp_path / "missing.json"
    assert main(["verify", option, str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and str(missing) in err
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
