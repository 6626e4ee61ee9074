"""Command-line front end.

    quintcap classify <n>
    quintcap report <n> [--format text|json] [--explain]
    quintcap scan <lo> <hi> [--jobs N]
    quintcap verify --fixtures <path> [--cas-cmd <cmd>] [--cas-timeout S]

Exit codes: 0 on success (a NO_MATCH classification is still success, the
output carries the flag), 2 for input errors, 1 for anything unexpected and
for an output pipe closed by its reader, such as ``| head``.  ``verify``
checks its options, an empty ``--cas-cmd`` included, before any row.  Only
``verify`` imports ``cas`` and ``fixtures``, so the other commands start
without them and without ``subprocess``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .classify import classify_radicand
from .report import ReportError, run_report
from .scanner import iter_scan, render_scan


def _cmd_classify(args: argparse.Namespace) -> int:
    rc = classify_radicand(args.n)
    fields = [f"form={rc.form.value}"]
    if rc.p:
        fields.append(f"p={rc.p}")
    if rc.q:
        fields.append(f"q={rc.q}")
    if rc.e:
        fields.append(f"e={rc.e}")
    fields.append(f"residue_mod_25={rc.residue_mod_25}")
    print(f"{rc.n}: " + " ".join(fields))
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    print(run_report(args.n, fmt=args.format, explain=args.explain))
    return 0


def _cmd_scan(args: argparse.Namespace) -> int:
    # Written piece by piece, so a long range never sits in memory whole.
    for piece in iter_scan(args.lo, args.hi, jobs=args.jobs):
        if piece:
            print(render_scan(piece))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .cas import (
        DEFAULT_TIMEOUT,
        CasProtocolError,
        CasTimeoutError,
        cas_adapter_check,
        cas_argv,
    )
    from .fixtures import packaged_data_path, verify_fixtures

    # An empty adapter command is refused before any row is checked.
    cas_cmd = None if args.cas_cmd is None else cas_argv(args.cas_cmd)
    timeout = DEFAULT_TIMEOUT if args.cas_timeout is None else args.cas_timeout
    summary = verify_fixtures(args.fixtures or packaged_data_path("table1.json"), args.anomalies)
    for row in summary.rows:
        detail = f"  ({row['detail']})" if "detail" in row else ""
        form = row.get("form", "-")
        print(f"{row['n']}\t{form}\t{row['status']}{detail}")
    passed, anomalies, failed = summary.counts()
    print(f"summary: {passed} pass, {anomalies} known anomalies, {failed} fail")
    cas_failures = 0
    if cas_cmd is not None:
        for entry in summary.entries:
            try:
                got = cas_adapter_check(entry.n, cas_cmd, timeout=timeout)
            except (CasProtocolError, CasTimeoutError) as exc:
                print(f"cas {entry.n}: error ({exc})")
                cas_failures += 1
                continue
            # The adapter's reply is parsed as a fixture row for the same n.
            ok = got == entry
            if not ok:
                cas_failures += 1
            print(f"cas {entry.n}: {'match' if ok else 'MISMATCH'}")
        print(f"cas summary: {cas_failures} failures")
    return 0 if failed == 0 and cas_failures == 0 else 1


def _seconds(text: str) -> float:
    value = float(text)
    if not (value > 0 and math.isfinite(value)):
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number of seconds, got {text}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quintcap",
        description=(
            "exact-arithmetic analysis of pure quintic radicands: admissible"
            " shapes, genus-field generators, the six unramified quintic"
            " extensions and their possible capitulation types"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one radicand")
    p_classify.add_argument("n", type=int)
    p_classify.set_defaults(func=_cmd_classify)

    p_report = sub.add_parser("report", help="full analysis for one radicand")
    p_report.add_argument("n", type=int)
    p_report.add_argument("--format", choices=("text", "json"), default="text")
    p_report.add_argument(
        "--explain", action="store_true", help="append reasoning notes per section"
    )
    p_report.set_defaults(func=_cmd_report)

    p_scan = sub.add_parser("scan", help="classify a whole range")
    p_scan.add_argument("lo", type=int)
    p_scan.add_argument("hi", type=int)
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.set_defaults(func=_cmd_scan)

    p_verify = sub.add_parser("verify", help="check a fixtures corpus")
    p_verify.add_argument("--fixtures", default=None, help="fixtures JSON path")
    p_verify.add_argument("--anomalies", default=None, help="override anomaly list")
    p_verify.add_argument("--cas-cmd", default=None, help="external adapter command")
    # None stands for cas.DEFAULT_TIMEOUT, which is read only when verify runs.
    p_verify.add_argument("--cas-timeout", type=_seconds, default=None)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # The reader is gone.  Python flushes stdout again at exit, so point
        # it at devnull, or that flush fails too ("Note on SIGPIPE" in the
        # signal module's documentation).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
