"""The four benchmark workloads: how each operation is called, timed and checked.

``call`` times one operation through quintcap's public functions and keeps
its output; ``check`` compares that output with what the benchmark knows
independently.  Functions are looked up on the ``quintcap`` package at call
time, so a traced run sees the wrapped names.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

import quintcap

import inputs
from schema import validate

# Worker count of the parallel scan.
SCAN_JOBS = 2


@dataclass
class Outcome:
    seconds: float  # time inside the measured call
    output: bytes  # the call's output as fed to the outputs digest
    failure: str | None = None  # why the operation failed, if it did
    expected: bool = False  # the failure is one the workload is built to provoke
    value: Any = None  # the raw result, kept until it is checked
    extra: dict[str, Any] = field(default_factory=dict)


def _fail(t0: float, exc: Exception) -> Outcome:
    return Outcome(time.perf_counter() - t0, f"{type(exc).__name__}\n".encode(), repr(exc))


def p90(values: list[float]) -> float:
    """Nearest-rank 90th percentile."""
    return sorted(values)[math.ceil(0.9 * len(values)) - 1]


class ReportWorkload:
    """run_report(n, "json") on generated radicands of the three shapes."""

    min_ops = 104  # leaves at least ten reports beyond the 90th percentile
    workers = 0
    throughput = "reports_per_s"

    def __init__(self, name: str, schema_path: Path) -> None:
        self.name = name
        self.trace_ops = 24 if name == "report-small" else 16
        self.schema = json.loads(schema_path.read_text())

    def rounds(self, seed: int) -> Iterator[list[inputs.Radicand]]:
        return inputs.report_rounds(self.name, seed)

    def cold_spec(self, op: inputs.Radicand) -> dict[str, Any]:
        return {"kind": "report", "n": op.n}

    def call(self, op: inputs.Radicand, parallel: bool = True) -> Outcome:
        t0 = time.perf_counter()
        try:
            text = quintcap.run_report(op.n, "json")
        except quintcap.FactorizationLimitExceeded as exc:
            out = _fail(t0, exc)
            out.expected = op.beyond_ceiling
            return out
        except Exception as exc:  # counted as a failed operation
            return _fail(t0, exc)
        return Outcome(time.perf_counter() - t0, text.encode() + b"\n")

    def check(self, op: inputs.Radicand, out: Outcome) -> None:
        if out.failure:
            return
        doc = json.loads(out.output)
        errors = validate(doc, self.schema)
        got = doc.get("classification", {})
        got = (got.get("form"), got.get("p"), got.get("q"), got.get("e"))
        want = (op.shape.form, op.shape.p, op.shape.q, op.shape.e)
        if errors:
            out.failure = f"report for {op.n} breaks the schema: {errors[0]}"
        elif doc["n"] != op.n or got != want:
            out.failure = f"{op.n} classified as {got}, generated as {want}"

    def summary(self, ops: list[inputs.Radicand], outs: list[Outcome]) -> dict[str, tuple[float, str]]:
        times = [o.seconds for o in outs]
        return {
            "reports_per_s": (len(times) / sum(times), "1/s"),
            "report_p50_ms": (1000 * statistics.median(times), "ms"),
            "report_p90_ms": (1000 * p90(times), "ms"),
        }

    def layer_summary(self, ops: list[inputs.Radicand], outs: list[Outcome]) -> dict[str, float]:
        by_shape = {"shape_pe": inputs.PE, "shape_peq": inputs.PEQ, "shape_5ep": inputs.FIVE_EP}
        return {
            f"report.p50_ms.{key}": 1000 * statistics.median(
                o.seconds for op, o in zip(ops, outs) if op.shape.form == form
            )
            for key, form in by_shape.items()
        }


class KummerWorkload:
    """decomposition_type(theta, lambda) on theta coprime to lambda."""

    name = "kummer-lambda"
    min_ops = 24
    trace_ops = 4
    workers = 0
    throughput = "decomps_per_s"

    def __init__(self) -> None:
        self.lam = quintcap.factor_rational_prime(5).factors[0]
        self._first_of_pair: dict[int, str | None] = {}

    def rounds(self, seed: int) -> Iterator[list[inputs.KummerOp]]:
        return inputs.kummer_rounds(seed)

    def cold_spec(self, op: inputs.KummerOp) -> dict[str, Any]:
        return {"kind": "decomp", "theta": list(op.theta)}

    def call(self, op: inputs.KummerOp, parallel: bool = True) -> Outcome:
        theta = quintcap.CycInt(*op.theta)
        t0 = time.perf_counter()
        try:
            kind = quintcap.decomposition_type(theta, self.lam).value
        except Exception as exc:  # counted as a failed operation
            return _fail(t0, exc)
        return Outcome(time.perf_counter() - t0, kind.encode() + b"\n", value=kind)

    def check(self, op: inputs.KummerOp, out: Outcome) -> None:
        if op.fifth_power and not out.failure and out.value != "split":
            out.failure = f"{op.theta} is a fifth power but came back {out.value}"
        if op.pair not in self._first_of_pair:
            self._first_of_pair[op.pair] = None if out.failure else out.value
            return
        first = self._first_of_pair.pop(op.pair)
        if first is not None and not out.failure and out.value != first:
            out.failure = f"{op.theta} came back {out.value}, its y^5 partner {first}"

    def summary(self, ops: list[inputs.KummerOp], outs: list[Outcome]) -> dict[str, tuple[float, str]]:
        times = [o.seconds for o in outs]
        return {
            "decomps_per_s": (len(times) / sum(times), "1/s"),
            "decomp_p50_ms": (1000 * statistics.median(times), "ms"),
        }

    def layer_summary(self, ops: list[inputs.KummerOp], outs: list[Outcome]) -> dict[str, float]:
        return {}


class ScanWorkload:
    """scan_range over sub-windows of [10^6, 10^7), at jobs=1 and jobs=2."""

    name = "scan-window"
    min_ops = 2 * inputs.SCAN_STRATA
    trace_ops = inputs.SCAN_STRATA
    workers = SCAN_JOBS
    throughput = "scan_ints_per_s_j1"

    def rounds(self, seed: int) -> Iterator[list[inputs.Window]]:
        return inputs.scan_rounds(seed)

    def cold_spec(self, op: inputs.Window) -> dict[str, Any]:
        return {"kind": "scan", "lo": op.lo, "hi": op.hi}

    def call(self, op: inputs.Window, parallel: bool = True) -> Outcome:
        t0 = time.perf_counter()
        try:
            result = quintcap.scan_range(op.lo, op.hi, 1)
        except Exception as exc:  # counted as a failed operation
            out = _fail(t0, exc)
            out.extra = {"skipped": 0, "j2_seconds": 0.0}
            return out
        out = Outcome(
            time.perf_counter() - t0,
            "".join(f"{n}\t{form}\n" for n, form in result).encode(),
            value=result,
            extra={"skipped": op.hi - op.lo + 1 - len(result)},
        )
        if parallel:
            t0 = time.perf_counter()
            try:
                parallel_result = quintcap.scan_range(op.lo, op.hi, SCAN_JOBS)
            except Exception as exc:  # counted as a failed operation
                parallel_result, out.failure = None, f"jobs={SCAN_JOBS}: {exc!r}"
            out.extra["j2_seconds"] = time.perf_counter() - t0
            if parallel_result is not None and parallel_result != result:
                out.failure = f"[{op.lo}, {op.hi}]: jobs=1 and jobs={SCAN_JOBS} outputs differ"
        return out

    def check(self, op: inputs.Window, out: Outcome) -> None:
        result, out.value = out.value, None
        if out.failure:
            return
        expected = []
        for n, factors in zip(range(op.lo, op.hi + 1), inputs.factor_window(op.lo, op.hi)):
            shape = inputs.shape_of(factors)
            if shape is not None:
                expected.append((n, shape.form))
        skipped = out.extra["skipped"]
        if result != expected:
            out.failure = f"[{op.lo}, {op.hi}]: scan output differs from the sieve's shapes"
        elif skipped != inputs.count_fifth_power_divisible(op.lo, op.hi):
            out.failure = f"[{op.lo}, {op.hi}]: {skipped} skipped, not the p^5-divisible count"
        else:
            # A no_match class reconstructs to n by definition; the shapes are checked.
            bad = [
                n for n, form in result
                if form != inputs.NO_MATCH and quintcap.classify_radicand(n).reconstruct() != n
            ]
            if bad:
                out.failure = f"{bad[0]} does not round-trip through reconstruct()"

    def summary(self, ops: list[inputs.Window], outs: list[Outcome]) -> dict[str, tuple[float, str]]:
        ints = sum(w.hi - w.lo + 1 for w in ops)
        return {
            "scan_ints_per_s_j1": (ints / sum(o.seconds for o in outs), "1/s"),
            "scan_ints_per_s_j2": (ints / sum(o.extra["j2_seconds"] for o in outs), "1/s"),
            "window_p50_ms_j1": (1000 * statistics.median(o.seconds for o in outs), "ms"),
        }

    def layer_summary(self, ops: list[inputs.Window], outs: list[Outcome]) -> dict[str, float]:
        j1 = sum(o.seconds for o in outs)
        j2 = sum(o.extra["j2_seconds"] for o in outs)
        return {
            "scanner.scaling_eff": j1 / (SCAN_JOBS * j2),
            "scanner.skipped": sum(o.extra["skipped"] for o in outs),
        }


def make(name: str, src: Path):
    if name in inputs.REPORT_RANGES:
        return ReportWorkload(name, src / "quintcap" / "data" / "report.schema.json")
    if name == KummerWorkload.name:
        return KummerWorkload()
    if name == ScanWorkload.name:
        return ScanWorkload()
    raise ValueError(f"unknown workload {name}")
