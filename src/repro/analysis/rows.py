"""Result-row helpers shared by the sweep engine and the experiment CLI.

Experiment modules return typed dataclass rows (``Fig8Row``,
``ParkingLotRow``, ...).  These helpers convert them to plain dictionaries
and JSON so sweep results can be merged, cached, and emitted by
``netfence-experiment --json`` without each figure module reinventing the
serialization.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from typing import Any, Dict, Iterable, List, Optional, Tuple


def row_schema(rows: Iterable[Any]) -> Tuple[Any, ...]:
    """Fingerprint row types: class identity plus dataclass field names.

    The :class:`~repro.store.ResultStore` records this fingerprint at write
    time and compares it against the currently imported classes at read
    time: unpickling bypasses ``__init__``, so without the check a row
    dataclass that gained or lost a field would be served as a silently
    stale object.
    """
    schema = []
    for row in rows:
        cls = type(row)
        fields: Optional[Tuple[str, ...]] = None
        if dataclasses.is_dataclass(row):
            fields = tuple(f.name for f in dataclasses.fields(cls))
        schema.append((cls.__module__, cls.__qualname__, fields))
    return tuple(schema)


def row_to_dict(row: Any) -> Dict[str, Any]:
    """Convert one result row (dataclass, mapping, or namedtuple) to a dict."""
    if dataclasses.is_dataclass(row) and not isinstance(row, type):
        return dataclasses.asdict(row)
    if isinstance(row, dict):
        return dict(row)
    if hasattr(row, "_asdict"):
        return dict(row._asdict())
    raise TypeError(f"cannot convert row of type {type(row).__name__} to a dict")


def rows_to_dicts(rows: Iterable[Any]) -> List[Dict[str, Any]]:
    return [row_to_dict(row) for row in rows]


def json_safe(value: Any) -> Any:
    """Replace non-JSON floats (NaN/inf) with null and encode bytes.

    Strict consumers (``jq``, ``JSON.parse``) reject Python's default
    ``NaN``/``Infinity`` tokens, and rows like Fig. 8's transfer time are NaN
    when no transfer completed.
    """
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, bytes):
        return value.hex()
    if isinstance(value, dict):
        return {k: json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return value


def rows_to_json(rows: Iterable[Any], indent: int = 2) -> str:
    """Serialize result rows as a JSON array."""
    return json.dumps(json_safe(rows_to_dicts(rows)), indent=indent, sort_keys=True)


def dict_rows_fieldnames(dict_rows: List[Dict[str, Any]]) -> List[str]:
    """Column order for tabular export: first row's key order (dataclass
    field order for dataclass rows), then any later-appearing keys sorted."""
    if not dict_rows:
        return []
    fieldnames = list(dict_rows[0])
    seen = set(fieldnames)
    extras = sorted({k for row in dict_rows[1:] for k in row} - seen)
    return fieldnames + extras


def rows_to_csv(rows: Iterable[Any]) -> str:
    """Serialize result rows as CSV with a header line."""
    dict_rows = [json_safe(row_to_dict(row)) for row in rows]
    fieldnames = dict_rows_fieldnames(dict_rows)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fieldnames, restval="",
                            extrasaction="ignore", lineterminator="\n")
    writer.writeheader()
    writer.writerows(dict_rows)
    return buf.getvalue()
