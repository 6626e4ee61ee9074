"""Full analysis pipeline for one radicand, with text and JSON rendering.

A report has two parts.  The per-radicand part (classification, primes,
normalization, h1, symbol, conventions) is computed for every n.  The
formal part (genus generators, extensions K1..K6, subgroups H1..H6,
guaranteed capitulations, possible capitulation types) depends only on the
radicand's shape, h1 and the quintic symbol.  It is built, and its JSON
rendered, once per process for each such key, in a FormalTables that every
report with that key shares read-only.

``Report.to_json`` writes the document in one pass, byte for byte what
``json.dumps(..., sort_keys=True, indent=2)`` gives: one ``  "key": value``
line per key, sorted and joined.  classification, conventions, n,
no_match, schema, symbol, w_symbol and each entry of primes are filled into
f-string templates, and the formal tables' stored fragments are lines of
the same kind.  Only the values whose keys vary (h1, normalization and the
notes) and the formal tables go through ``_render``, a direct writer for
the few kinds of value a report holds.  With ``indent`` set, the stdlib
encoder falls back to its pure-Python generator, which took about a third
of a warm report's time; the report as a dict (``report_dict`` in
tests/oracles.py) and that encoder remain the oracle the tests compare the
writer against.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _encode_str
from typing import Any

from ._record import Record
from .capitulation import (
    ClassWord,
    ExtensionDescriptor,
    H1SearchExhausted,
    H1Witness,
    RadicalWord,
    SubgroupDescriptor,
    WSymbol,
    correspondence,
    find_h1,
    guaranteed_capitulations,
    hilbert_class_field_generators,
    possible_types,
    subgroup_table,
    w_symbol_for,
)
from .classify import RadicandClass, RadicandForm, classify_radicand
from .cyclotomic import CycInt
from .primes import (
    UNIT_SCAN,
    AssociateNotFound,
    PrimeElement,
    PrimeKind,
    SplittingData,
    _split_prime,
    normalize_associate,
)
from .symbols import quintic_symbol

REPORT_SCHEMA_ID = "quintcap-report/1"
_UNIT_SCAN_JSON = _encode_str(UNIT_SCAN)


class ReportError(RuntimeError):
    pass


def _word_json(w: RadicalWord | ClassWord, ws: WSymbol | None) -> dict[str, Any]:
    return dict(zip(w.KEYS, (w.e1, w.e3, w.ew)), text=w.render(ws))


def _render(value: Any, pad: str) -> str:
    """json.dumps(value, sort_keys=True, indent=2) with pad before every line
    but the first, for dicts with str keys, lists, tuples, str, int, bool
    and None; anything else raises TypeError."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        # _encode_str raises TypeError on a key that is not a str.
        items = [
            f"{inner}{_encode_str(key)}: {_render(value[key], inner)}" for key in sorted(value)
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}" if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _render(item, inner) for item in value]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]" if items else "[]"
    raise TypeError(f"{type(value).__name__} is not a report JSON value")


class FormalTables(Record):
    """The part of a report fixed by (form, h1, symbol), with its JSON.

    ``capitulations`` pairs each extension word with the class that dies
    there; ``type_lists`` pairs each K6 candidate with its admissible
    capitulation types.  ``fragments`` holds the five keys of
    ``json_dict()`` as lines of the report document, ``  "key": value``
    with the value rendered at depth 1; ``Report.to_json`` sorts them with
    its own lines, so their order does not matter.
    """

    __slots__ = (
        "w_symbol", "generators", "extensions", "subgroups", "capitulations", "type_lists",
        "fragments",
    )
    _UNSHOWN = ("fragments",)

    def __init__(
        self,
        w_symbol: WSymbol | None,
        generators: tuple[RadicalWord, RadicalWord],
        extensions: tuple[ExtensionDescriptor, ...],
        subgroups: tuple[SubgroupDescriptor, ...],
        capitulations: tuple[tuple[RadicalWord, ClassWord], ...],
        type_lists: tuple[tuple[RadicalWord, tuple[tuple[int, ...], ...]], ...],
    ) -> None:
        self._set(w_symbol, generators, extensions, subgroups, capitulations, type_lists)
        fragments = tuple(
            f'  "{key}": {_render(value, "  ")}' for key, value in self.json_dict().items()
        )
        object.__setattr__(self, "fragments", fragments)

    def json_dict(self) -> dict[str, Any]:
        ws = self.w_symbol
        return {
            "genus_generators": [_word_json(w, ws) for w in self.generators],
            "extensions": [
                {
                    "label": ext.label,
                    "resolved": ext.resolved,
                    "candidates": [_word_json(w, ws) for w in ext.candidates],
                }
                for ext in self.extensions
            ],
            "subgroups": [
                {
                    "label": sub.label,
                    "character": sub.character.value,
                    "generator": _word_json(sub.generator, ws),
                }
                for sub in self.subgroups
            ],
            "guaranteed_capitulations": [
                {"extension": _word_json(w, ws), "class": _word_json(c, ws)}
                for w, c in self.capitulations
            ],
            "possible_types": [
                {"k6": _word_json(k6, ws), "types": [list(t) for t in types]}
                for k6, types in self.type_lists
            ],
        }


# (form, h1, symbol) -> FormalTables, filled on first use.  The symbol
# exponent is 0..4 and h1 is None for p^e and 1..4 for the other two shapes,
# so it holds at most 5 + 20 + 20 = 45 entries.
# Threads that miss the same key at once build equal entries; either may stay.
_FORMAL_TABLES: dict[tuple[RadicandForm, int | None, int], FormalTables] = {}


def formal_tables(rc: RadicandClass, h1: int | None, symbol: int) -> FormalTables:
    """The formal tables of rc's report; they read only rc.form, h1 and symbol."""
    key = (rc.form, h1, symbol)
    tables = _FORMAL_TABLES.get(key)
    if tables is None:
        extensions = tuple(correspondence(rc, symbol, h1))
        tables = _FORMAL_TABLES[key] = FormalTables(
            w_symbol_for(rc),
            hilbert_class_field_generators(rc, h1),
            extensions,
            tuple(subgroup_table(rc, h1)),
            tuple(guaranteed_capitulations(rc, h1).items()),
            tuple(
                (k6, tuple(t.entries for t in possible_types(rc, symbol, k6, h1)))
                for k6 in extensions[5].candidates
            ),
        )
    return tables


class Report(Record):
    """One radicand's report.  n is classification.n; a no_match report is
    Report(classification) and holds nothing else.  primes and notes are
    tuples, but normalization and h1 are the report's own dicts, and a
    report, compared by its fields, is unhashable."""

    __slots__ = (
        "classification", "primes", "normalization", "h1", "symbol_exponent", "notes",
        "formal",
    )
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        classification: RadicandClass,
        primes: tuple[PrimeElement, ...] = (),
        normalization: dict[str, Any] | None = None,
        h1: dict[str, Any] | None = None,
        symbol_exponent: int | None = None,
        notes: tuple[str, ...] = (),
        formal: FormalTables | None = None,
    ) -> None:
        self._set(classification, primes, normalization, h1, symbol_exponent, notes, formal)

    def to_json(self) -> str:
        """The report as json.dumps(..., sort_keys=True, indent=2) writes it:
        one '  "key": value' line per key, sorted and joined.  Every key is a
        lower-case ASCII identifier, so the '"' that closes it sorts below
        any character of a longer key and sorting the lines sorts the keys.
        Only the dicts whose keys vary go through _render, and the formal
        tables come already rendered."""
        rc = self.classification
        no_match = rc.form is RadicandForm.NO_MATCH
        lines = [
            f'  "classification": {{\n    "e": {_scalar(rc.e)},\n'
            f'    "form": "{rc.form.value}",\n    "p": {_scalar(rc.p)},\n'
            f'    "q": {_scalar(rc.q)},\n    "residue_mod_25": {rc.residue_mod_25}\n  }}',
            f'  "n": {rc.n}',
            f'  "no_match": {"true" if no_match else "false"}',
            f'  "schema": "{REPORT_SCHEMA_ID}"',
        ]
        if not no_match:
            assert self.formal is not None
            primes = ",\n".join(map(_prime_json, self.primes))
            ws = self.formal.w_symbol
            lines += self.formal.fragments
            lines += (
                f'  "conventions": {{\n    "notes": {_render(self.notes, "    ")},\n'
                f'    "root": {_scalar(self.primes[0].root)},\n'
                f'    "unit_scan": {_UNIT_SCAN_JSON}\n  }}',
                f'  "h1": {_render(self.h1, "  ")}',
                f'  "normalization": {_render(self.normalization, "  ")}',
                f'  "primes": [\n{primes}\n  ]',
                f'  "symbol": {_scalar(self.symbol_exponent)}',
                f'  "w_symbol": "{ws.radical_name}"' if ws else '  "w_symbol": null',
            )
        lines.sort()
        return "{\n" + ",\n".join(lines) + "\n}"

    def to_text(self, explain: bool = False) -> str:
        rc = self.classification
        lines = [f"n = {rc.n}"]
        lines.append(
            f"classification: {rc.form.value}"
            + (f"  p={rc.p}" if rc.p else "")
            + (f" q={rc.q}" if rc.q else "")
            + (f" e={rc.e}" if rc.e else "")
            + f"  (n mod 25 = {rc.residue_mod_25})"
        )
        if rc.form is RadicandForm.NO_MATCH:
            lines.append("no admissible shape: the (5,5) analysis does not apply")
            return "\n".join(lines)
        if explain:
            lines.append(_EXPLAIN["classification"])
        lines.append("")
        lines.append("primes:")
        for pe in self.primes:
            root = f"  zeta->{pe.root}" if pe.root is not None else ""
            lines.append(
                f"  {_prime_label(pe):>6} = {pe.value.coords}"
                f"  ({pe.kind.value} above {pe.rational_below}){root}"
            )
        if self.normalization is not None:
            lines.append(f"normalization: {json.dumps(self.normalization, sort_keys=True)}")
        if self.h1 is not None:
            lines.append(f"h1: {json.dumps(self.h1, sort_keys=True)}")
        if self.symbol_exponent is not None:
            lines.append(f"quintic symbol (pi1/pi3): exponent {self.symbol_exponent}")
            if explain:
                lines.append(_EXPLAIN["symbol"])
        ft, ws = self.formal, self.formal.w_symbol
        x1, x2 = ft.generators
        lines.append("")
        lines.append(
            "genus field generators: "
            f"fifth-root({x1.render(ws)}), fifth-root({x2.render(ws)})"
        )
        if explain:
            lines.append(_EXPLAIN["generators"])
        lines.append("extensions:")
        for ext in ft.extensions:
            cands = " or ".join(f"fifth-root({w.render(ws)})" for w in ext.candidates)
            mark = "" if ext.resolved else "  (unresolved)"
            lines.append(f"  {ext.label}: {cands}{mark}")
        if explain:
            lines.append(_EXPLAIN["extensions"])
        lines.append("subgroups:")
        for sub in ft.subgroups:
            lines.append(
                f"  {sub.label} = <{sub.generator.render(ws)}>"
                f"  ({sub.character.value})"
            )
        lines.append("guaranteed capitulations:")
        for w, c in ft.capitulations:
            lines.append(f"  {c.render(ws)} dies in fifth-root({w.render(ws)})")
        if explain:
            lines.append(_EXPLAIN["capitulations"])
        lines.append("possible capitulation types:")
        for k6, types in ft.type_lists:
            lines.append(f"  with K6 = fifth-root({k6.render(ws)}):")
            for t in types:
                lines.append("    (" + ",".join(str(i) for i in t) + ")")
        if explain:
            lines.append(_EXPLAIN["types"])
        if self.notes:
            lines.append("notes:")
            for note in self.notes:
                lines.append(f"  - {note}")
        return "\n".join(lines)


_EXPLAIN = {
    "classification": (
        "  | the shape constraints mod 25 are exactly those under which the"
        " 5-class group can be (5,5) with every class fixed by the degree-5"
        " Galois action"
    ),
    "symbol": (
        "  | exponent 0 means X^5 = pi1 (mod pi3) is solvable, which makes the"
        " prime above pi1 split in the fifth-root extension of pi3 and pins"
        " the K2/K5 assignment"
    ),
    "generators": (
        "  | the two generators cut out the compositum of all six unramified"
        " quintic extensions; their products span a projective line with six"
        " points, one per extension"
    ),
    "extensions": (
        "  | tau^2 (complex conjugation on the cyclotomic part) fixes K1 and"
        " K6 and exchanges K2 with K5 and K3 with K4; unresolved pairs need"
        " class-group data beyond this tool"
    ),
    "capitulations": (
        "  | the fifth power of each listed ideal class is the radicand of"
        " its extension, so the class becomes principal there; at least one"
        " subgroup must die in every K_j (degree-5 unramified extensions"
        " always absorb a class)"
    ),
    "types": (
        "  | entries name the unique dying subgroup per extension, 0 meaning"
        " all classes die; pairs (i2,i5) and (i3,i4) vanish together because"
        " tau^2 exchanges the corresponding fields"
    ),
}


def _scalar(value: int | None) -> str:
    return "null" if value is None else int.__repr__(value)


def _prime_json(pe: PrimeElement) -> str:
    # One entry of "primes", as _render writes it at depth 2.
    c0, c1, c2, c3 = pe.value.coords
    return (
        f'    {{\n      "coords": [\n        {c0},\n        {c1},\n        {c2},\n'
        f'        {c3}\n      ],\n      "kind": "{pe.kind.value}",\n'
        f'      "label": "{_prime_label(pe)}",\n'
        f'      "rational_below": {pe.rational_below},\n'
        f'      "root": {_scalar(pe.root)}\n    }}'
    )


def _prime_label(pe: PrimeElement) -> str:
    if pe.kind is PrimeKind.LAMBDA:
        return "lambda"
    return f"pi{pe.label}"


def _attempt_case1_normalization(
    split: SplittingData,
) -> tuple[dict[str, Any], CycInt | None]:
    # The report section, and the normalized pi1 when one exists.
    pi1 = split.factors[0]
    try:
        res = normalize_associate(pi1, 5, [1])
    except AssociateNotFound as exc:
        return {
            "targets": [1],
            "achieved": False,
            "proven_impossible": True,
            "note": str(exc),
        }, None
    return {
        "targets": [1],
        "achieved": True,
        "unit_word": res.unit_word.render(),
        "unit_coords": list(res.unit.coords),
        "normalized_coords": list(res.normalized.coords),
    }, res.normalized


def _h1_section(rc: RadicandClass, pi1: PrimeElement, w: PrimeElement) -> tuple[int, dict[str, Any]]:
    try:
        witness: H1Witness = find_h1(pi1, w, e=rc.e)
        return witness.h1, {
            "value": witness.h1,
            "source": "search",
            "verified": witness.verify(),
            "residue": witness.residue,
            "unit_word": witness.unit_word.render(),
            "unit_coords": list(witness.unit.coords),
            "product_coords": list(witness.product.coords),
        }
    except H1SearchExhausted as exc:
        if exc.norm_condition_h1 is None:
            raise ReportError(
                f"no h1 available for n = {rc.n}: {exc}"
            ) from exc
        return exc.norm_condition_h1, {
            "value": exc.norm_condition_h1,
            "source": "norm_condition",
            "verified": False,
            "proven_impossible": True,
            "note": str(exc),
        }


def build_report(n: int) -> Report:
    """Run the whole pipeline for n.  Classification errors propagate."""
    rc = classify_radicand(n)
    if rc.form is RadicandForm.NO_MATCH:
        return Report(rc)
    assert rc.p is not None
    split = _split_prime(rc.p)  # classify_radicand proved p prime
    primes = split.factors
    h1: int | None = None
    normalization = section = None
    notes: tuple[str, ...] = ()
    symbol_argument = split.factors[0].value
    if rc.form is RadicandForm.PRIME_POWER:
        normalization, normalized = _attempt_case1_normalization(split)
        if normalized is not None:
            symbol_argument = normalized
        else:
            notes = (
                "unit normalization of pi1 to 1 mod lambda^5 is impossible;"
                " radical words are formal and the symbol uses the stored"
                " gcd representative",
            )
    else:
        # classify_radicand proved q prime; q is None exactly for 5^e*p,
        # whose w is lambda.
        w = _split_prime(rc.q or 5).factors[0]
        primes += (w,)
        h1, section = _h1_section(rc, split.factors[0], w)
        if section["source"] == "norm_condition":
            notes = (
                "h1 from the norm-level necessary condition; the stated"
                " lambda^5 congruence has no witness (see h1.note)",
            )
    symbol = quintic_symbol(symbol_argument, split.factors[2])
    return Report(
        rc, primes, normalization, section, symbol, notes, formal_tables(rc, h1, symbol)
    )


def run_report(n: int, fmt: str = "text", explain: bool = False) -> str:
    report = build_report(n)
    if fmt == "json":
        return report.to_json()
    if fmt == "text":
        return report.to_text(explain=explain)
    raise ValueError(f"unknown format {fmt!r}")
