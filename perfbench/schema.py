"""A JSON Schema (draft-07) checker for the keywords the report schema uses.

A schema that uses any other keyword is refused, so a schema change cannot
make the check pass silently.
"""

from __future__ import annotations

import re
from typing import Any

_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
_ANNOTATIONS = {"$schema", "$id", "title", "description", "definitions"}


def validate(doc: Any, schema: dict[str, Any]) -> list[str]:
    """Every violation of ``schema`` by ``doc``, as readable paths."""
    errors: list[str] = []
    _check(doc, schema, schema, "$", errors)
    return errors


def _check(v: Any, s: dict[str, Any], root: dict[str, Any], path: str, errors: list[str]) -> None:
    if "$ref" in s:
        ref = s["$ref"]
        if not ref.startswith("#/definitions/"):
            raise ValueError(f"unsupported $ref {ref}")
        s = root["definitions"][ref.rsplit("/", 1)[1]]
    for key, arg in s.items():
        if key in _ANNOTATIONS or key == "$ref":
            continue
        if key == "type":
            names = arg if isinstance(arg, list) else [arg]
            if not any(_TYPES[t](v) for t in names):
                errors.append(f"{path}: not of type {arg}")
                return
        elif key == "enum":
            if v not in arg:
                errors.append(f"{path}: {v!r} not in {arg}")
        elif key == "const":
            if v != arg:
                errors.append(f"{path}: {v!r} != {arg!r}")
        elif key == "pattern":
            if isinstance(v, str) and not re.search(arg, v):
                errors.append(f"{path}: {v!r} does not match {arg}")
        elif key in ("minimum", "maximum"):
            if _TYPES["number"](v) and (v < arg if key == "minimum" else v > arg):
                errors.append(f"{path}: {v} violates {key} {arg}")
        elif key in ("minItems", "maxItems"):
            if isinstance(v, list) and (len(v) < arg if key == "minItems" else len(v) > arg):
                errors.append(f"{path}: length {len(v)} violates {key} {arg}")
        elif key == "items":
            if isinstance(v, list):
                for i, item in enumerate(v):
                    _check(item, arg, root, f"{path}[{i}]", errors)
        elif key == "required":
            if isinstance(v, dict):
                errors.extend(f"{path}: missing {k}" for k in arg if k not in v)
        elif key == "properties":
            if isinstance(v, dict):
                for k, sub in arg.items():
                    if k in v:
                        _check(v[k], sub, root, f"{path}.{k}", errors)
        elif key == "additionalProperties":
            if arg is not False:
                raise ValueError("only additionalProperties: false is supported")
            if isinstance(v, dict):
                extra = set(v) - set(s.get("properties", {}))
                errors.extend(f"{path}: unexpected {k}" for k in sorted(extra))
        else:
            raise ValueError(f"unsupported schema keyword {key}")
