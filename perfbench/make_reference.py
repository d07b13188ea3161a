"""Record the reference tables that gate.py compares every invocation with.

    python3 perfbench/make_reference.py figures montecarlo validate

Writes perfbench/reference/<workload>.json: for each reference key (see
workloads.reference_key) and job, the exit code and the CSV table.  Run it
only at a commit whose outputs are the reference; a table that fails the
gate's invariants is not recorded.
"""

from __future__ import annotations

import json
import shutil
import sys

import gate
import run
import workloads


def record(cli, workload: str) -> dict:
    seeds = [0] if workload == "figures" else range(workloads.SHIPPED_SEEDS)
    out_dir = run.WORK / f"reference-{workload}"
    tables = {}
    try:
        for seed in seeds:
            _, codes = run.run_pass(cli, workloads.jobs(workload, seed), out_dir)
            entry = {}
            for name, command, code in codes:
                text = (out_dir / f"{name}.csv").read_text(encoding="utf-8")
                problems, _ = gate.check(command, code, text, None)
                if problems:
                    raise SystemExit(f"error: {workload} seed {seed} {name}: {problems}")
                entry[name] = {"exit": code, "csv": text}
            tables[workloads.reference_key(workload, seed)] = entry
            print(f"{workload} seed {seed}: exit codes {[c for _, _, c in codes]}")
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return tables


def main(names: list[str]) -> int:
    cli = run.load_cli()
    run.REFERENCE.mkdir(exist_ok=True)
    for workload in names:
        tables = record(cli, workload)
        path = run.REFERENCE / f"{workload}.json"
        path.write_text(json.dumps(tables, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:] or list(workloads.WORKLOADS)))
