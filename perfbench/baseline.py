"""Measure the benchmark's spread and record a baseline.

    python3 perfbench/baseline.py --first-seed 1 --out perfbench/baseline.json
    python3 perfbench/baseline.py --first-seed 11 --out perfbench/baseline.json

Runs run.py ten times per workload, with seeds --first-seed onwards, and
reports for every end-to-end metric the median, the quartiles and the
spread (q3 - q1) / median against the metric's bound in BENCHMARK.json.
Then one traced run per workload gives the per-layer numbers.  With --out
the set is added to that JSON file, next to the sets of other first seeds,
with a record of the machine; once the file holds two sets, the change of
each median from the first set to the second is recorded as ``drift``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy as np

import run

RUNS = 10


def _lscpu() -> dict:
    try:
        text = subprocess.run(["lscpu"], capture_output=True, text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return {}
    fields = dict(line.split(":", 1) for line in text.splitlines() if ":" in line)
    return {key.strip(): value.strip() for key, value in fields.items()}


def _blas_threads() -> int | None:
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = {line.split()[-1] for line in maps if "openblas" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return getter()
    return None


def _bytes(size: str | None) -> int | None:
    """'300 MiB (1 instance)' -> 314572800."""
    if not size:
        return None
    number, unit = size.split()[:2]
    return int(float(number) * 1024 ** ("KMGT".index(unit[0]) + 1))


def environment(mc_temp_bytes: int) -> dict:
    """The machine, and the largest Monte-Carlo temporary that the traced
    montecarlo run computed, set against L3."""
    cpu = _lscpu()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    l3 = _bytes(cpu.get("L3 cache"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu.get("Model name"),
        "l2_cache": cpu.get("L2 cache"),
        "l3_cache": cpu.get("L3 cache"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "largest_mc_temporary_bytes": int(mc_temp_bytes),
        "largest_mc_temporary_per_l3": mc_temp_bytes / l3 if l3 else None,
        "limits": "shared 2-core VM: no hardware performance counters and no "
                  "machine-wide tracing; other tenants' load shows as run-to-run spread",
    }


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(run.ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, check=True)
    result = json.loads(done.stdout.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"error: {workload} seed {seed} failed its gate:\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def drift(first: dict, second: dict) -> dict:
    """Each median's change from the first set to the second, as a share."""
    return {workload: {name: second[workload][name]["median"] / s["median"] - 1.0
                       for name, s in metrics.items()}
            for workload, metrics in first.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + RUNS))
    result = {"seeds": seeds, "end_to_end": {}, "per_layer": {}}
    for workload in run.workloads.WORKLOADS:
        runs = [bench(workload, seed, seconds, 0) for seed in seeds]
        result["end_to_end"][workload] = stats = {
            name: summary([r[name] for r in runs]) for name in bounds}
        for name, s in stats.items():
            flag = "ok" if s["spread"] < bounds[name] / 3 else "WIDE"
            print(f"{workload:10s} {name:12s} median {s['median']:<12.6g} "
                  f"spread {s['spread']:.3f} bound {bounds[name]} {flag}", flush=True)
        result["per_layer"][workload] = bench(workload, seeds[0], seconds, 1)
    if args.out:
        try:
            with open(args.out, encoding="utf-8") as stream:
                sets = json.load(stream)["sets"]
        except (OSError, KeyError, ValueError):
            sets = {}
        sets[f"{seeds[0]}-{seeds[-1]}"] = result
        sets = dict(sorted(sets.items(), key=lambda item: item[1]["seeds"][0]))
        record = {
            "environment": environment(
                result["per_layer"]["montecarlo"]["fluctuations.mc_temp_bytes_max"]),
            "run_seconds": seconds,
            "sets": sets,
        }
        if len(sets) >= 2:
            first, second = list(sets.values())[:2]
            record["drift"] = drift(first["end_to_end"], second["end_to_end"])
        with open(args.out, "w", encoding="utf-8") as stream:
            json.dump(record, stream, indent=1)
            stream.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
