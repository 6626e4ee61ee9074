"""Write scan_digests.json: sha256 digests of scan output, one row per window.

Usage: PYTHONPATH=src python3 tests/data/make_scan_digests.py [--check]

The windows cover the first sieve blocks from 2, the block edges around
10^7 and 3163^2, both sides of 2^32, a window of 12-digit and one of
21-digit integers, both sides of 2^80 = SIEVE_PRIME_LIMIT^5, above which a
prime with p^5 <= hi can exceed the sieve primes, 2 000 integers from
2^80 + 10^6, a window of 15-digit integers, and three sieve blocks from
2*10^6, the height of the benchmark's windows, once for blocks of 2^14 and
once for blocks of 2^15.  The two rows at 2^80 were first written by a
scanner that factored every n there with ``factor.factorize``; the shape
sieve, which marks p^5 for every such prime, gives the same rows.  The rows
at 10^14 and 2*10^6 + 3*2^14 were written before the sieve moved a state
byte per n, and the last row before survivors were decided by the state
tables in blocks of 2^15.  Each row holds the digest of
``render_scan(scan_range(lo, hi))``.  tests/test_scanner.py compares the
current output at jobs 1 and 2 against the file, so rerun this only when a
change alters scan output on purpose.  With --check it recomputes every
row, writes nothing, and exits with 1 if any row differs from the file.
"""

import argparse
import hashlib
import json
from pathlib import Path

from make_report_digests import check
from quintcap.scanner import render_scan, scan_range

WINDOWS = (
    (2, 10**5),
    (10**7 - 2**14, 10**7 + 6000),
    (2**32 - 3000, 2**32 + 3000),
    (10**12, 10**12 + 20000),
    (10**20, 10**20 + 300),
    (2**80 - 6, 2**80 + 3),
    (2**80 + 10**6, 2**80 + 10**6 + 1999),
    (10**14, 10**14 + 20_000),
    (2_000_000, 2_000_000 + 3 * 2**14),
    (2_000_000, 2_000_000 + 3 * 2**15),
)


def digest(lo: int, hi: int) -> str:
    return hashlib.sha256(render_scan(scan_range(lo, hi)).encode()).hexdigest()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare, write nothing")
    args = parser.parse_args(argv)
    rows = [{"lo": lo, "hi": hi, "sha256": digest(lo, hi)} for lo, hi in WINDOWS]
    path = Path(__file__).with_name("scan_digests.json")
    if args.check:
        return check(rows, json.loads(path.read_text()), path.name)
    path.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
