"""Tabular sweep results with deterministic CSV/JSON serialization.

Identical configs produce byte-identical files: floats are written with 17
significant digits, config metadata is emitted in sorted key order, and no
timestamps or environment state enter the output.  A CSV row of Python floats
alone is written by one "%.16e,...,%.16e" template per table, which gives the
bytes of the per-cell formatting that every other row keeps.
"""

from __future__ import annotations

import collections
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, TextIO


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
    floats = (float,) * len(result.columns)
    template = ",".join(["%.16e"] * len(result.columns)) + "\n"
    stream.writelines(template % tuple(row) if tuple(map(type, row)) == floats
                      else ",".join(map(_format_cell, row)) + "\n" for row in result.rows)


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


def pool_map(fn: Callable, items: Iterable, workers: int) -> list:
    """Evaluate ``fn`` over ``items`` on a worker pool, output ordered by
    input index regardless of completion order.  ``items`` is consumed
    lazily, on the calling thread and in order, and at most ``2 * workers``
    items are submitted but not yet collected, so a generator of large items
    holds only that window of them at once.  The first exception, in input
    order, propagates.  The pool starts at most one thread per item and per
    CPU this process may run on, whatever ``workers`` asks for."""
    workers = min(workers, _usable_cpus())
    items = iter(items)
    head = list(itertools.islice(items, workers if workers > 1 else 0))
    if len(head) <= 1:
        return [fn(item) for item in itertools.chain(head, items)]
    from concurrent.futures import ThreadPoolExecutor  # only a pool pays its import

    results = []
    with ThreadPoolExecutor(max_workers=len(head)) as pool:
        pending = collections.deque(pool.submit(fn, item) for item in head)
        del head  # from here only the window holds items
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == 2 * workers:
                results.append(pending.popleft().result())
        results.extend(future.result() for future in pending)
    return results


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a ``taskset`` narrows it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1
