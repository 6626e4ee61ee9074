"""Per-layer tracing of quintcap, applied from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
quintcap module namespace that bound it (``from .x import f`` copies the
binding, so patching only the defining module would miss callers), and
``restore`` puts every original back.  Spans stay in memory until ``dump``
writes them out.  A span records its parent span, so self time is the
span's duration minus its children's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

# Functions recorded as spans, as (module, function).
SPANNED = (
    ("cyclotomic", "lambda_expand"),
    ("cyclotomic", "euclid_divmod"),
    ("cyclotomic", "fifth_power_solvable_mod_lambda"),
    ("primes", "normalize_associate"),
    ("primes", "unit_residues_mod_lambda_pow"),
    ("primes", "factor_rational_prime"),
    ("classify", "classify_radicand"),
    ("classify", "trial_factor"),
    ("capitulation", "find_h1"),
    ("capitulation", "correspondence"),
    ("capitulation", "subgroup_table"),
    ("capitulation", "guaranteed_capitulations"),
    ("capitulation", "possible_types"),
    ("symbols", "quintic_symbol"),
    ("symbols", "decomposition_type"),
    ("report", "run_report"),
    ("scanner", "scan_range"),
)
TABLES = frozenset(
    f"capitulation.{f}"
    for f in ("correspondence", "subgroup_table", "guaranteed_capitulations", "possible_types")
)

# Per-layer metrics with their units; a layer the workload does not reach reads 0.
PER_LAYER = {
    "cyclotomic.cycint_mul.calls": "count",
    "cyclotomic.lambda_expand.calls": "count",
    "cyclotomic.lambda_expand.ms": "ms",
    "cyclotomic.euclid_divmod.calls": "count",
    "cyclotomic.euclid_divmod.ms": "ms",
    "cyclotomic.fifth_power_solvable_mod_lambda.calls": "count",
    "cyclotomic.fifth_power_solvable_mod_lambda.ms": "ms",
    "primes.normalize_associate.calls": "count",
    "primes.normalize_associate.ms": "ms",
    "primes.normalize_associate.hit_ratio": "ratio",
    "primes.iter_units.yielded": "count",
    "primes.unit_residues_mod_lambda_pow.calls": "count",
    "primes.unit_residues_mod_lambda_pow.ms": "ms",
    "primes.factor_rational_prime.ms": "ms",
    "classify.classify_radicand.calls": "count",
    "classify.classify_radicand.self_ms": "ms",
    "classify.trial_factor.ms": "ms",
    "capitulation.find_h1.calls": "count",
    "capitulation.find_h1.self_ms": "ms",
    "capitulation.find_h1.witness_ratio": "ratio",
    "capitulation.tables.ms": "ms",
    "symbols.quintic_symbol.calls": "count",
    "symbols.quintic_symbol.ms": "ms",
    "symbols.decomposition_type.calls": "count",
    "symbols.decomposition_type.self_ms": "ms",
    "report.run_report.self_ms": "ms",
    "report.p50_ms.shape_pe": "ms",
    "report.p50_ms.shape_peq": "ms",
    "report.p50_ms.shape_5ep": "ms",
    "scanner.scaling_eff": "ratio",
    "scanner.skipped": "count",
    "tracing.overhead_ratio": "ratio",
}


def _bindings(obj: Any) -> list[tuple[Any, str]]:
    """Every (namespace, name) among the loaded quintcap modules bound to obj."""
    out = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "quintcap" or mod_name.startswith("quintcap."):
            out += [(mod, k) for k, v in vars(mod).items() if v is obj]
    return out


def snapshot() -> dict[tuple[str, str], int]:
    """Identity of every name bound in the loaded quintcap modules and CycInt."""
    spaces = {n: vars(m) for n, m in sys.modules.items() if n == "quintcap" or n.startswith("quintcap.")}
    spaces["CycInt"] = vars(sys.modules["quintcap.cyclotomic"].CycInt)
    return {(n, k): id(v) for n, space in spaces.items() for k, v in space.items()}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        # One tuple per span, indexed by span id:
        # (parent id or -1, operation id, name index, start ns, duration ns, returned).
        self.spans: list[tuple[int, int, int, int, int, bool] | None] = []
        self.counts = {"cyclotomic.cycint_mul.calls": [0], "primes.iter_units.yielded": [0]}
        self.op = 0  # operation id given to new spans
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # -- patching ----------------------------------------------------------

    def _patch(self, original: Any, wrapper: Any, places: list[tuple[Any, str]]) -> None:
        for target, name in places:
            self._patched.append((target, name, original))
            setattr(target, name, wrapper)

    def install(self) -> None:
        for mod, fn_name in SPANNED:
            original = getattr(sys.modules[f"quintcap.{mod}"], fn_name)
            self._patch(original, self._spanned(f"{mod}.{fn_name}", original), _bindings(original))
        cycint = sys.modules["quintcap.cyclotomic"].CycInt
        mul = vars(cycint)["__mul__"]
        places = [(cycint, k) for k, v in vars(cycint).items() if v is mul]  # __mul__, __rmul__
        self._patch(mul, self._counted(mul, self.counts["cyclotomic.cycint_mul.calls"]), places)
        units = sys.modules["quintcap.primes"].iter_units
        self._patch(units, self._yield_counted(units, self.counts["primes.iter_units.yielded"]), _bindings(units))

    def restore(self) -> None:
        while self._patched:
            target, name, original = self._patched.pop()
            setattr(target, name, original)

    def __enter__(self) -> "Tracer":
        try:
            self.install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()

    # -- wrappers ----------------------------------------------------------

    def _spanned(self, name: str, fn: Callable) -> Callable:
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            returned = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                returned = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (parent, self.op, index, t0, t1 - t0, returned)

        return wrapper

    @staticmethod
    def _counted(fn: Callable, cell: list[int]) -> Callable:
        @functools.wraps(fn)
        def wrapper(a, b):
            cell[0] += 1
            return fn(a, b)

        return wrapper

    @staticmethod
    def _yield_counted(fn: Callable, cell: list[int]) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                cell[0] += 1
                yield item

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """The span- and count-derived per-layer metrics."""
        child_ns = [0] * len(self.spans)
        for parent, _, _, _, dur, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += dur
        calls = dict.fromkeys(self.names, 0)
        returned = dict.fromkeys(self.names, 0)
        total = dict.fromkeys(self.names, 0)
        own = dict.fromkeys(self.names, 0)
        tables = 0
        for sid, (parent, _, index, _, dur, ok) in enumerate(self.spans):
            name = self.names[index]
            calls[name] += 1
            returned[name] += ok
            total[name] += dur
            own[name] += dur - child_ns[sid]
            if name in TABLES and (parent < 0 or self.names[self.spans[parent][2]] not in TABLES):
                tables += dur
        out: dict[str, float] = {k: cell[0] for k, cell in self.counts.items()}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.ms"] = total[name] / 1e6
            out[f"{name}.self_ms"] = own[name] / 1e6
        out["primes.normalize_associate.hit_ratio"] = _ratio(
            returned["primes.normalize_associate"], calls["primes.normalize_associate"]
        )
        out["capitulation.find_h1.witness_ratio"] = _ratio(
            returned["capitulation.find_h1"], calls["capitulation.find_h1"]
        )
        out["capitulation.tables.ms"] = tables / 1e6
        return out

    def dump(self, path: Path, meta: dict[str, Any]) -> None:
        """Write the spans and counts as one JSON document."""
        base = min((s[3] for s in self.spans), default=0)
        doc = {
            **meta,
            "span_fields": ["id", "parent", "op", "name", "start_ns", "duration_ns", "returned"],
            "names": self.names,
            "spans": [
                [sid, parent, op, index, start - base, dur, int(ok)]
                for sid, (parent, op, index, start, dur, ok) in enumerate(self.spans)
            ],
            "counts": {k: cell[0] for k, cell in self.counts.items()},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc, separators=(",", ":")))


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0
