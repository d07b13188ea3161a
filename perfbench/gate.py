"""Correctness gate for one CLI invocation.

An invocation passes when its exit code and CSV table match the reference
recorded at the commit that defined the benchmark, and when the table meets
invariants that hold for any seed.  Config lines, columns and row counts
must match exactly; numeric cells match at rounding level, because a change
of float-operation order may move the last digits.
"""

from __future__ import annotations

import csv
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12

# The validate report's measured errors are themselves rounding-level
# numbers, so only their relation to the bound is checked.
UNCOMPARED_COLUMNS = ("measured",)

PROBABILITY_COLUMNS = ("p_ground", "p_odd", "p_even")


def parse_csv(text: str) -> tuple[list[str], list[str], list[list[str]]]:
    """Split a CLI table into its '# key=value' lines, header and rows."""
    lines = text.splitlines()
    config = [line for line in lines if line.startswith("#")]
    body = list(csv.reader(line for line in lines if not line.startswith("#")))
    if not body:
        raise ValueError("table has no header")
    return config, body[0], body[1:]


def _within(value: float, low: float, high: float) -> bool:
    return low - ABS_TOL <= value <= high + ABS_TOL


def invariants(command: str, exit_code: int, columns: list[str],
               rows: list[list[str]]) -> list[str]:
    """Checks that need no reference: finite cells, probabilities in [0, 1],
    delta_p = p_odd - p_even, and an exit code that agrees with the table."""
    problems = []
    expected_exit = 0
    for index, row in enumerate(rows):
        if len(row) != len(columns):
            problems.append(f"row {index}: {len(row)} cells for {len(columns)} columns")
            continue
        record = dict(zip(columns, row))
        if command == "validate":
            measured, bound = float(record["measured"]), float(record["bound"])
            passed = record["passed"] == "true"
            if not (math.isfinite(measured) and math.isfinite(bound)):
                problems.append(f"row {index}: non-finite measured or bound")
            elif passed and not measured <= bound:
                problems.append(f"row {index}: passed with measured {measured} > bound {bound}")
            if not passed:
                expected_exit = 2
            continue
        values = {name: float(cell) for name, cell in record.items()}
        if not all(math.isfinite(v) for v in values.values()):
            problems.append(f"row {index}: non-finite cell")
            continue
        for name in PROBABILITY_COLUMNS:
            if name in values and not _within(values[name], 0.0, 1.0):
                problems.append(f"row {index}: {name} = {values[name]} outside [0, 1]")
        if "entropy" in values and not _within(values["entropy"], 0.0, math.log(2.0)):
            problems.append(f"row {index}: entropy {values['entropy']} outside [0, ln 2]")
        if "p_odd" in values:
            if not math.isclose(values["delta_p"], values["p_odd"] - values["p_even"],
                                rel_tol=REL_TOL, abs_tol=ABS_TOL):
                problems.append(f"row {index}: delta_p != p_odd - p_even")
        elif "delta_p" in values and not _within(values["delta_p"], -1.0, 1.0):
            problems.append(f"row {index}: delta_p outside [-1, 1]")
    if exit_code != expected_exit:
        problems.append(f"exit code {exit_code}, table implies {expected_exit}")
    return problems


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def compare(reference: dict, exit_code: int, config: list[str], columns: list[str],
            rows: list[list[str]]) -> list[str]:
    """Differences from a reference ``{"exit": int, "csv": str}``."""
    ref_config, ref_columns, ref_rows = parse_csv(reference["csv"])
    problems = []
    if exit_code != reference["exit"]:
        problems.append(f"exit code {exit_code}, reference {reference['exit']}")
    if config != ref_config:
        problems.append("config lines differ from the reference")
    if columns != ref_columns:
        problems.append(f"columns {columns}, reference {ref_columns}")
    if len(rows) != len(ref_rows):
        problems.append(f"{len(rows)} rows, reference {len(ref_rows)}")
    if problems:
        return problems
    for index, (row, ref_row) in enumerate(zip(rows, ref_rows)):
        for column, cell, ref_cell in zip(columns, row, ref_row):
            if column in UNCOMPARED_COLUMNS:
                continue
            expected = _number(ref_cell)
            actual = _number(cell)
            if expected is None or actual is None:
                same = cell == ref_cell
            else:
                same = math.isclose(actual, expected, rel_tol=REL_TOL, abs_tol=ABS_TOL)
            if not same:
                problems.append(f"row {index} {column}: {cell}, reference {ref_cell}")
    return problems


def check(command: str, exit_code: int, text: str | None,
          reference: dict | None) -> tuple[list[str], int]:
    """(problems, data rows) for one invocation; no problems means it passed."""
    if text is None:
        return [f"exit code {exit_code} and no table written"], 0
    try:
        config, columns, rows = parse_csv(text)
    except (ValueError, csv.Error) as exc:
        return [f"unparsable table: {exc}"], 0
    try:
        problems = invariants(command, exit_code, columns, rows)
    except (KeyError, ValueError) as exc:
        problems = [f"table does not fit the {command} layout: {exc}"]
    if reference is not None:
        problems += compare(reference, exit_code, config, columns, rows)
    return problems, len(rows)
