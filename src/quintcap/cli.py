"""Command-line front end.

    quintcap classify <n>
    quintcap report <n> [--format text|json] [--explain]
    quintcap scan <lo> <hi> [--jobs N]
    quintcap verify --fixtures <path> [--cas-cmd <cmd>] [--cas-timeout S]

Exit codes: 0 on success (a NO_MATCH classification is still success, the
output carries the flag), 2 for input errors, 1 for anything unexpected.
"""

from __future__ import annotations

import argparse
import sys

from .cas import CasProtocolError, CasTimeoutError, cas_adapter_check
from .classify import ClassificationError, classify_radicand
from .fixtures import packaged_data_path, load_fixtures, verify_fixtures
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
    path = args.fixtures or packaged_data_path("table1.json")
    summary = verify_fixtures(path, args.anomalies)
    for row in summary.rows:
        detail = f"  ({row['detail']})" if "detail" in row else ""
        form = row.get("form", "-")
        print(f"{row['n']}\t{form}\t{row['status']}{detail}")
    passed, anomalies, failed = summary.counts()
    print(f"summary: {passed} pass, {anomalies} known anomalies, {failed} fail")
    cas_failures = 0
    if args.cas_cmd:
        for entry in load_fixtures(path):
            try:
                got = cas_adapter_check(entry.n, args.cas_cmd, timeout=args.cas_timeout)
            except (CasProtocolError, CasTimeoutError) as exc:
                print(f"cas {entry.n}: error ({exc})")
                cas_failures += 1
                continue
            ok = (
                got.h_k5 == entry.h_k5
                and got.group_type == entry.group_type
                and got.rank_ambiguous == entry.rank_ambiguous
            )
            if not ok:
                cas_failures += 1
            print(f"cas {entry.n}: {'match' if ok else 'MISMATCH'}")
        print(f"cas summary: {cas_failures} failures")
    return 0 if failed == 0 and cas_failures == 0 else 1


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
    p_verify.add_argument("--cas-timeout", type=float, default=600.0)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ClassificationError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ReportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
