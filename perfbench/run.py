"""quintcap benchmark: closed-loop runs of four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload report-small --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

One caller issues operations back to back, each after the previous one
returns.  ``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs a
fixed, seed-determined set of operations first plain and then traced, and
reports the per-layer metrics.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"
SETUP_REPEATS = 3
NAMES = ("report-small", "report-large", "scan-window", "kummer-lambda")

# End-to-end metrics of every workload, with their units.
END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "ops_per_s": "1/s"}

# The speed of a shared host drifts by up to a third within minutes, and a
# fixed pure-Python loop timed next to the measured calls drifts with it.
# Gated timings are therefore scaled to a reference host on which that loop
# takes REFERENCE_SECONDS; the wall-clock figures are printed beside them.
REFERENCE_SECONDS = 0.01


def reference_seconds() -> float:
    """Wall time of a fixed integer loop, the yardstick for the host's speed."""
    t0 = time.perf_counter()
    a, b, c, d = 1, 2, 3, 4
    for i in range(20_000):
        a, b, c, d = (
            (3 * a + b - i) % 1_000_003,
            (5 * b + c) % 1_000_003,
            (7 * c + d) % 1_000_003,
            (d + a + i) % 1_000_003,
        )
    return time.perf_counter() - t0


def closed_loop(wl, seed: int, seconds: float):
    """Run whole rounds of operations until the round boundary nearest to
    ``seconds``, and at least ``wl.min_ops`` operations.  The reference loop
    runs before every operation."""
    ops, outs, refs = [], [], []
    start = time.perf_counter()
    for rnd in wl.rounds(seed):
        for op in rnd:
            refs.append(reference_seconds())
            out = wl.call(op)
            wl.check(op, out)
            if len(outs) >= wl.trace_ops:
                out.output = b""  # only the digested prefix is kept
            ops.append(op)
            outs.append(out)
        elapsed = time.perf_counter() - start
        per_round = elapsed * len(rnd) / len(ops)
        if len(ops) >= wl.min_ops and elapsed + per_round / 2 >= seconds:
            return ops, outs, refs


def cold_start_seconds(spec: dict) -> float:
    """Wall time for a fresh interpreter to import quintcap and run one operation."""
    cmd = [sys.executable, str(HERE / "cold.py"), str(SRC), json.dumps(spec)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150)
    seconds = time.perf_counter() - t0
    if proc.returncode:
        raise RuntimeError(f"cold start failed: {proc.stderr.strip()[-400:]}")
    return seconds


def outputs_digest(outs, count: int) -> str:
    h = hashlib.sha256()
    for out in outs[:count]:
        h.update(out.output)
    return h.hexdigest()


def environment(name: str, seed: int, outs, digest_ops: int) -> dict:
    return {
        "workload": name,
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "digest_ops": digest_ops,
        "outputs_sha256": outputs_digest(outs, digest_ops),
    }


def measured_run(wl, seed: int, seconds: float):
    t0 = time.perf_counter()
    ops, outs, refs = closed_loop(wl, seed, seconds)
    wall = time.perf_counter() - t0
    # Children so far: the workload's pool workers, at most wl.workers alive
    # at once (and whatever ran in this process before python was exec'd).
    own_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    cold, cold_refs = [], []
    for _ in range(SETUP_REPEATS):
        cold_refs.append(reference_seconds())
        cold.append(cold_start_seconds(wl.cold_spec(ops[0])))
    named = wl.summary(ops, outs)
    named["fail_ratio"] = (sum(o.failure is not None for o in outs) / len(outs), "ratio")
    named["setup_wall_s"] = (statistics.median(cold), "s")
    named["reference_ms"] = (1000 * statistics.fmean(refs), "ms")
    metrics = {
        "setup_s": statistics.median(cold) * REFERENCE_SECONDS / statistics.fmean(cold_refs),
        "peak_rss_mb": (own_kb + wl.workers * child_kb) / 1024,
        "ops_per_s": named[wl.throughput][0] * statistics.fmean(refs) / REFERENCE_SECONDS,
    }
    header = f"{wl.name}  seed {seed}  {len(outs)} operations in {wall:.1f} s"
    rows = [(k, v, END_TO_END[k]) for k, v in metrics.items()]
    rows += [(k, v, unit) for k, (v, unit) in named.items()]
    return outs, metrics, header, rows, environment(wl.name, seed, outs, wl.trace_ops)


def traced_run(wl, seed: int):
    ops = list(itertools.islice(itertools.chain.from_iterable(wl.rounds(seed)), wl.trace_ops))
    plain = []
    for op in ops:
        plain.append(wl.call(op))
        wl.check(op, plain[-1])
    before = tracing.snapshot()
    tracer = tracing.Tracer()
    traced = []
    with tracer:
        for i, op in enumerate(ops):
            tracer.op = i
            traced.append(wl.call(op, parallel=False))
    restored = tracing.snapshot() == before
    for a, b in zip(plain, traced):
        if b.failure is None and a.output != b.output:
            b.failure = "traced output differs from the plain run's"
    metrics = dict.fromkeys(tracing.PER_LAYER, 0.0)
    metrics.update((k, v) for k, v in tracer.layer_metrics().items() if k in metrics)
    metrics.update(wl.layer_summary(ops, plain))
    metrics["tracing.overhead_ratio"] = sum(o.seconds for o in traced) / sum(o.seconds for o in plain)
    env = environment(wl.name, seed, plain, wl.trace_ops)
    path = OUT / f"trace-{wl.name}-seed{seed}.json"
    tracer.dump(path, env)
    header = f"{wl.name}  seed {seed}  {len(ops)} operations, plain then traced; spans in {path}"
    rows = [(k, v, tracing.PER_LAYER[k]) for k, v in metrics.items()]
    return plain + traced, metrics, header, rows, env, restored


def run_one(args) -> int:
    if not (SRC / "quintcap" / "__init__.py").is_file():
        print(f"perfbench: no quintcap source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quintcap

    if Path(quintcap.__file__).resolve().parent != SRC / "quintcap":
        print(f"perfbench: imported quintcap from {quintcap.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.make(args.workload, SRC)
    restored = True
    if args.trace:
        outs, metrics, header, rows, env, restored = traced_run(wl, args.seed)
        units = tracing.PER_LAYER
    else:
        outs, metrics, header, rows, env = measured_run(wl, args.seed, args.seconds)
        units = END_TO_END
    print(header)
    for name, value, unit in rows:
        print(f"  {name:<48} {value:>14.6g} {unit}")
    print("record " + json.dumps(env))
    failures = [o.failure for o in outs if o.failure and not o.expected]
    for reason in failures[:5]:
        print(f"perfbench: unexpected failure: {reason}", file=sys.stderr)
    if not restored:
        print("perfbench: the tracer left a quintcap name patched", file=sys.stderr)
    result = {
        "correct": restored and not failures,
        "attempted": len(outs),
        "failed": sum(o.failure is not None for o in outs),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, then one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        if proc.returncode:
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        combined["metrics"].update((f"{name}/{k}", v) for k, v in last["metrics"].items())
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
