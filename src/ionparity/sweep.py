"""Tabular sweep results with deterministic CSV/JSON serialization.

Identical configs produce byte-identical files: floats are written with 17
significant digits, config metadata is emitted in sorted key order, and no
timestamps or environment state enter the output.
"""

from __future__ import annotations

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence, TextIO


@dataclass(frozen=True)
class SweepResult:
    """Rows of (independent variable, observable) pairs plus the resolved
    run configuration they came from."""

    columns: tuple[str, ...]
    rows: list[tuple]
    config: dict


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.16e}"
    return str(value)


def _native(value: object) -> object:
    # numpy scalars are not JSON serializable
    if hasattr(value, "item"):
        return value.item()
    return value


def _json_cell(value: object) -> object:
    # strict JSON has no Infinity or NaN: write the text of the CSV cell
    value = _native(value)
    if isinstance(value, float) and not math.isfinite(value):
        return _format_cell(value)
    return value


def write_csv(result: SweepResult, stream: TextIO) -> None:
    """Config lines, then the header and one line per row.  Cells are Python
    (or numpy float64 and int64) scalars holding no comma, quote or newline,
    so no cell is quoted."""
    for key in sorted(result.config):
        stream.write(f"# {key}={_format_cell(result.config[key])}\n")
    stream.write(",".join(result.columns) + "\n")
    stream.writelines(",".join(map(_format_cell, row)) + "\n" for row in result.rows)


def write_json(result: SweepResult, stream: TextIO) -> None:
    payload = {
        "config": {key: _json_cell(val) for key, val in result.config.items()},
        "columns": list(result.columns),
        "records": [
            {col: _json_cell(cell) for col, cell in zip(result.columns, row)}
            for row in result.rows
        ],
    }
    json.dump(payload, stream, indent=2, sort_keys=True, allow_nan=False)
    stream.write("\n")


def write_result(result: SweepResult, path: str | None, fmt: str) -> None:
    """Serialize to ``path`` (stdout when None) as 'csv' or 'json'."""
    if fmt not in ("csv", "json"):
        raise ValueError(f"format must be 'csv' or 'json', got {fmt!r}")
    writer = write_csv if fmt == "csv" else write_json
    if path is None:
        writer(result, sys.stdout)
        return
    with open(path, "w", encoding="utf-8", newline="") as stream:
        writer(result, stream)


def pool_map(fn: Callable, items: Sequence, workers: int) -> list:
    """Evaluate ``fn`` over ``items`` on a worker pool, output ordered by
    input index regardless of completion order."""
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
