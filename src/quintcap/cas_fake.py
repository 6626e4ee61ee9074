"""Fixtures-backed fake CAS adapter.

Speaks the one-line request/response protocol of quintcap.cas, answering
from a fixtures file, the shipped table1.json by default, instead of
computing anything.  Used by the tests and as the reference implementation
of the adapter contract.

    python -m quintcap.cas_fake [--fixtures PATH]
"""

from __future__ import annotations

import argparse
import json
import sys

from .fixtures import load_fixtures, packaged_data_path


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="quintcap-fake-cas")
    parser.add_argument("--fixtures", default=None, help="fixtures JSON path")
    args = parser.parse_args(argv)
    path = args.fixtures or packaged_data_path("table1.json")
    table = {entry.n: entry for entry in load_fixtures(path)}
    line = sys.stdin.readline()
    if not line:
        return 1
    try:
        n = json.loads(line)["n"]
    except (json.JSONDecodeError, KeyError, TypeError):
        print(json.dumps({"error": "bad request"}))
        return 1
    entry = table.get(n)
    if entry is None:
        print(json.dumps({"error": f"unknown n {n}"}))
        return 1
    print(
        json.dumps(
            {
                "h_k5": entry.h_k5,
                "type": list(entry.group_type),
                "rank_ambiguous": entry.rank_ambiguous,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
