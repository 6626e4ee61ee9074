"""Verification corpus: load fixture rows and check them against the classifier.

The shipped corpus (data/table1.json) lists radicands whose 5-class group is
known to be (5,5) with a fully ambiguous Galois action, together with the
class-number data an external CAS can re-check.  Rows on the shipped
discrepancy list (data/anomalies.json) are expected to classify as NO_MATCH;
they are counted as known anomalies, not failures.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any

from .classify import ClassificationError, RadicandForm, classify_radicand


class FixtureFormatError(ValueError):
    pass


@dataclass(frozen=True)
class FixtureEntry:
    n: int
    h_k5: int
    group_type: tuple[int, int]
    rank_ambiguous: int
    label: str | None = None


@dataclass
class VerifySummary:
    entries: list[FixtureEntry]
    rows: list[dict[str, Any]] = field(default_factory=list)

    def counts(self) -> tuple[int, int, int]:
        """The numbers of rows that pass, are known anomalies and fail."""
        statuses = [row["status"] for row in self.rows]
        return (statuses.count("pass"), statuses.count("anomaly"), statuses.count("fail"))


def packaged_data_path(name: str) -> Path:
    return Path(str(resources.files("quintcap") / "data" / name))


def _parse_entry(raw: Any) -> FixtureEntry:
    if not isinstance(raw, dict):
        raise FixtureFormatError(f"fixture row must be an object, got {type(raw).__name__}")
    try:
        n = raw["n"]
        h = raw["h_k5"]
        gtype = raw["type"]
        rank = raw["rank_ambiguous"]
    except KeyError as exc:
        raise FixtureFormatError(f"fixture row missing key {exc}") from exc
    # type(v) is int: JSON true and false load as bool, a subclass of int.
    if (
        not isinstance(gtype, list)
        or len(gtype) != 2
        or not all(type(v) is int for v in (n, h, rank, *gtype))
    ):
        raise FixtureFormatError(f"malformed fixture row for n={raw.get('n')!r}")
    label = raw.get("label")
    if label is not None and not isinstance(label, str):
        raise FixtureFormatError("fixture label must be a string")
    return FixtureEntry(n, h, (gtype[0], gtype[1]), rank, label)


def _read_json(path: "str | Path") -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FixtureFormatError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        # Malformed JSON, bytes that are not UTF-8, an integer past the digit limit.
        raise FixtureFormatError(f"cannot parse {path}: {exc}") from exc


def load_fixtures(path: "str | Path") -> list[FixtureEntry]:
    data = _read_json(path)
    if not isinstance(data, list):
        raise FixtureFormatError("fixtures file must hold a JSON array")
    return [_parse_entry(row) for row in data]


def load_anomalies(path: "str | Path | None" = None) -> frozenset[int]:
    data = _read_json(path if path is not None else packaged_data_path("anomalies.json"))
    values = data.get("no_match_expected") if isinstance(data, dict) else None
    if not isinstance(values, list) or not all(type(v) is int for v in values):
        raise FixtureFormatError(
            "anomalies file must hold an object whose no_match_expected is a list of ints"
        )
    return frozenset(values)


def verify_fixtures(
    path: "str | Path", anomalies_path: "str | Path | None" = None
) -> VerifySummary:
    entries = load_fixtures(path)
    anomalies = load_anomalies(anomalies_path)
    summary = VerifySummary(entries)
    for entry in entries:
        row: dict[str, Any] = {"n": entry.n}
        try:
            form = classify_radicand(entry.n).form
        except ClassificationError as exc:
            row.update(status="fail", detail=f"classification error: {exc}")
        else:
            row["form"] = form.value
            no_match = form is RadicandForm.NO_MATCH
            if no_match == (entry.n in anomalies):
                row["status"] = "anomaly" if no_match else "pass"
            elif no_match:
                row.update(status="fail", detail="expected an admissible shape, got no_match")
            else:
                row.update(status="fail", detail="expected no_match per the discrepancy list")
        summary.rows.append(row)
    return summary
