"""Write report_digests.json: sha256 digests of report output, one row per radicand.

Usage: PYTHONPATH=src python3 tests/data/make_report_digests.py [--check]

The radicands are the classified corpus rows, 843, 7157 and 60 seeded
random admissible radicands, 20 of each shape.  Each row holds the digest
of ``run_report(n, "json")`` and of ``run_report(n, "text", explain=True)``.
tests/test_report_digests.py compares the current output against the file,
so rerun this only when a change alters report output on purpose.
With --check it recomputes every row, writes nothing, and exits with 1 if
any row differs from the file.
"""

import argparse
import hashlib
import json
import random
from pathlib import Path

from quintcap import RadicandForm, classify_radicand, run_report
from quintcap.fixtures import packaged_data_path
from quintcap.primes import is_rational_prime

SEED = 20261018
PER_SHAPE = 20


def _random_prime(rng: random.Random, mod5_one: bool, max_digits: int) -> int:
    while True:
        p = rng.randrange(10 ** rng.randint(2, max_digits))
        if p > 5 and (p % 5 == 1) == mod5_one and is_rational_prime(p):
            return p


def _candidate(rng: random.Random, form: RadicandForm) -> int:
    p = _random_prime(rng, True, 12)
    e = rng.randint(1, 4)
    if form is RadicandForm.PRIME_POWER:
        return p**e
    if form is RadicandForm.PRIME_POWER_TIMES_Q:
        return p**e * _random_prime(rng, False, 4)
    return 5**e * p


def random_admissible(seed: int = SEED, per_shape: int = PER_SHAPE) -> list[int]:
    rng = random.Random(seed)
    out = []
    for form in (
        RadicandForm.PRIME_POWER,
        RadicandForm.PRIME_POWER_TIMES_Q,
        RadicandForm.FIVE_POWER_TIMES_P,
    ):
        found: list[int] = []
        while len(found) < per_shape:
            n = _candidate(rng, form)
            if n not in found and classify_radicand(n).form is form:
                found.append(n)
        out += found
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true", help="compare, write nothing")
    args = parser.parse_args(argv)
    corpus = [row["n"] for row in json.loads(packaged_data_path("table1.json").read_text())]
    rows = [
        {
            "n": n,
            "json": _sha(run_report(n, "json")),
            "text_explain": _sha(run_report(n, "text", explain=True)),
        }
        for n in corpus + [843, 7157] + random_admissible()
    ]
    path = Path(__file__).with_name("report_digests.json")
    if args.check:
        return check(rows, json.loads(path.read_text()), path.name)
    path.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


def check(rows: list[dict], pinned: list[dict], name: str) -> int:
    """Print each row that differs from the pinned file; 1 if any does."""
    bad = [(i, a, b) for i, (a, b) in enumerate(zip(rows, pinned)) if a != b]
    for i, got, want in bad:
        print(f"{name} row {i}: computed {got}, pinned {want}")
    if len(rows) != len(pinned):
        print(f"{name}: computed {len(rows)} rows, pinned {len(pinned)}")
    ok = not bad and len(rows) == len(pinned)
    print(f"{name}: {len(rows)} rows computed, {'all match' if ok else 'DIFFERENT'}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
