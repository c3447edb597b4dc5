"""A deliberate small subset of JSON Schema, importable everywhere.

The uniform benchmark records (``benchmarks/schema.json``), the fleet
ledger (``fleet.jsonl``), and the committed regression baseline
(``benchmarks/baseline.jsonl``) all validate against the same subset
validator: ``type``, ``required``, ``properties``,
``additionalProperties``, ``pattern``, ``minimum``, ``items``.  The
bench harness (``benchmarks/_harness.py``, which also owns the one
schema loader), the fleet runner and the ``python -m repro.obs
validate`` CI step all delegate to this module — one validator, never
two drifting copies.

No third-party dependency: the subset is small enough to hand-roll and
large enough for every record shape this repo emits.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable, Mapping

__all__ = ["check_value", "validate_value", "validate_jsonl_lines"]

_TYPES: dict[str, tuple[type, ...]] = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "number": (int, float),
    "integer": (int,),
    "boolean": (bool,),
    "null": (type(None),),
}


def _type_ok(value: Any, name: str) -> bool:
    if name in ("number", "integer") and isinstance(value, bool):
        return False  # bool is an int in Python but not in JSON Schema
    return isinstance(value, _TYPES[name])


def check_value(value: Any, schema: Mapping, path: str, errors: list[str]) -> None:
    """Recursive subset check; appends human-readable errors."""
    declared = schema.get("type")
    if declared is not None:
        names = [declared] if isinstance(declared, str) else list(declared)
        if not any(_type_ok(value, n) for n in names):
            errors.append(f"{path}: expected type {'/'.join(names)}, got {type(value).__name__}")
            return
    if isinstance(value, str) and "pattern" in schema:
        if not re.search(schema["pattern"], value):
            errors.append(f"{path}: {value!r} does not match pattern {schema['pattern']!r}")
    if isinstance(value, (int, float)) and not isinstance(value, bool) and "minimum" in schema:
        if value < schema["minimum"]:
            errors.append(f"{path}: {value} is below minimum {schema['minimum']}")
    if isinstance(value, list):
        items = schema.get("items")
        if isinstance(items, dict):
            for i, item in enumerate(value):
                check_value(item, items, f"{path}[{i}]", errors)
    if isinstance(value, dict):
        props = schema.get("properties", {})
        for key in schema.get("required", ()):
            if key not in value:
                errors.append(f"{path}: missing required property {key!r}")
        extra = schema.get("additionalProperties", True)
        for key, item in value.items():
            if key in props:
                check_value(item, props[key], f"{path}.{key}", errors)
            elif extra is False:
                errors.append(f"{path}: unexpected property {key!r}")
            elif isinstance(extra, dict):
                check_value(item, extra, f"{path}.{key}", errors)


def validate_value(value: Any, schema: Mapping, root: str = "record") -> list[str]:
    """Check one value against a subset schema; returns all errors."""
    errors: list[str] = []
    check_value(value, schema, root, errors)
    return errors


def validate_jsonl_lines(lines: Iterable[str], schema: Mapping) -> list[str]:
    """Validate every non-blank line of a JSONL stream.

    Corrupt JSON is an error here (unlike the forgiving history
    *reader*): a committed baseline or fleet ledger must be fully
    well-formed, not merely salvageable.
    """
    errors: list[str] = []
    for lineno, line in enumerate(lines, 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: invalid JSON: {exc}")
            continue
        errors.extend(validate_value(record, schema, root=f"line {lineno}"))
    return errors
