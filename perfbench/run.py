"""Benchmark of the ionparity command line.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

One process per run and one client in a closed loop: each *pass* calls
``ionparity.cli.main`` once per job of the workload (see workloads.py),
writing every table with --out into a scratch directory of the checkout, and
the next pass starts when the previous one has returned.  Passes repeat
until --seconds have elapsed, and at least three times.  Every invocation is checked by gate.py
against perfbench/reference/; a failed check counts in ``failed``.

--trace 0 measures the end-to-end metrics named in BENCHMARK.json: set-up
time from fresh interpreters, pass latency, rows per second and peak RSS.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of spans.py plus the tracing overhead; the tables of both kinds of
pass must be byte-identical.  The last line of stdout is one JSON object
with the metrics; the lines above it repeat them for reading.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference"
# Scratch tables and span dumps; ignored by git.
WORK = ROOT / ".perfbench"

SETUP_PROBES = 30
SETUP_JOB = ["dynamics", "--t-steps", "2"]
PROBE = ("import sys; sys.path.insert(0, sys.argv[1]); import ionparity.cli as cli; "
         "sys.exit(cli.main(sys.argv[2:]))")
# p90 is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
# A validate pass takes about 14 s; a median needs at least three.
MIN_PASSES = 3


def load_cli():
    """Import ionparity.cli from this checkout's src/ and from nowhere else."""
    package = SRC / "ionparity"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no ionparity sources at {package}")
    sys.path.insert(0, str(SRC))
    from ionparity import cli
    if Path(cli.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"error: ionparity was imported from {cli.__file__}")
    return cli


def load_references(workload: str, seed: int) -> dict:
    path = REFERENCE / f"{workload}.json"
    tables = json.loads(path.read_text(encoding="utf-8"))
    return tables.get(workloads.reference_key(workload, seed), {})


def setup_probe(out_dir: Path) -> float:
    """Time for a fresh interpreter to import ionparity.cli and finish one
    trivial dynamics call."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), *SETUP_JOB, "--out", str(out_dir / "setup.csv")],
        cwd=ROOT, check=False)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise SystemExit(f"error: set-up probe exited with {done.returncode}")
    return elapsed


def run_pass(cli, job_list, out_dir: Path) -> tuple[float, list[tuple[str, str, int]]]:
    """Run one pass; returns its wall time and (job, command, exit code)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, _ in job_list:
        (out_dir / f"{name}.csv").unlink(missing_ok=True)
    codes = []
    start = time.perf_counter()
    for name, argv in job_list:
        try:
            code = cli.main([*argv, "--out", str(out_dir / f"{name}.csv")])
        except Exception:  # an uncaught error is a failed invocation, not a crash
            traceback.print_exc()
            code = -1
        codes.append((name, argv[0], code))
    return time.perf_counter() - start, codes


def gate_pass(codes, out_dir: Path, references: dict) -> tuple[int, int]:
    """(failed invocations, data rows written) of one pass."""
    failed = rows = 0
    for name, command, code in codes:
        path = out_dir / f"{name}.csv"
        text = path.read_text(encoding="utf-8") if path.exists() else None
        problems, count = gate.check(command, code, text, references.get(name))
        rows += count
        if problems:
            failed += 1
            print(f"gate: {name}: " + "; ".join(problems[:3]), file=sys.stderr)
    return failed, rows


def timed_run(cli, job_list, references, tmp: Path, seconds: float):
    setup_probe(tmp)  # writes the bytecode caches; not counted
    run_pass(cli, [("warmup", SETUP_JOB)], tmp)  # first-call costs in this process
    probes, times, rows, attempted, failed = [], [], 0, 0, 0
    begin = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - begin < seconds:
        # Set-up probes are spread over the run, from its start on: the
        # machine's speed moves in phases of seconds, and a block of probes
        # would see only one of them.
        due = 1 + (SETUP_PROBES - 1) * (time.perf_counter() - begin) / seconds
        while len(probes) < min(due, SETUP_PROBES):
            probes.append(setup_probe(tmp))
        elapsed, codes = run_pass(cli, job_list, tmp)
        bad, count = gate_pass(codes, tmp, references)
        times.append(elapsed)
        rows += count
        attempted += len(codes)
        failed += bad
    while len(probes) < SETUP_PROBES:
        probes.append(setup_probe(tmp))
    metrics = {
        "setup_s": statistics.median(probes),
        "rows_per_s": rows / sum(times),
        "pass_p50_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"passes": (len(times), "count"), "failed_frac": (failed / attempted, "ratio")}
    if len(times) >= 2:
        p90 = statistics.quantiles(times, n=10)[-1]
        if sum(t > p90 for t in times) >= TAIL_SAMPLES:
            notes["pass_p90_s"] = (p90, "s")
    return metrics, notes, attempted, failed


def traced_run(cli, job_list, references, tmp: Path, seconds: float, dump: Path):
    tracer = spans.Tracer("ionparity")
    run_pass(cli, [("warmup", SETUP_JOB)], tmp)
    plain_times, traced_times, per_pass = [], [], []
    attempted = failed = 0
    begin = time.perf_counter()
    while not traced_times or time.perf_counter() - begin < seconds:
        elapsed, codes = run_pass(cli, job_list, tmp / "plain")
        plain_times.append(elapsed)
        failed += gate_pass(codes, tmp / "plain", references)[0]
        tracer.spans = []
        with tracer.installed():
            elapsed, codes = run_pass(cli, job_list, tmp / "traced")
        traced_times.append(elapsed)
        per_pass.append(spans.pass_metrics(tracer.spans, elapsed))
        failed += gate_pass(codes, tmp / "traced", references)[0]
        if tracer.errors:  # the pass's computed counts are incomplete
            failed += len(codes)
            print("trace: hook failed: " + "; ".join(tracer.errors[:3]), file=sys.stderr)
            tracer.errors = []
        for name, _, _ in codes:
            plain, traced = (tmp / d / f"{name}.csv" for d in ("plain", "traced"))
            if not (plain.exists() and traced.exists()
                    and plain.read_bytes() == traced.read_bytes()):
                failed += 1
                print(f"trace: {name}: traced table differs from untraced", file=sys.stderr)
        attempted += 2 * len(codes)
    metrics = spans.median_metrics(per_pass)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_times) / statistics.median(plain_times) - 1.0)
    dump.parent.mkdir(parents=True, exist_ok=True)
    with open(dump, "w", encoding="utf-8") as stream:
        for span in tracer.spans:
            stream.write(json.dumps(span._asdict(), default=str) + "\n")
    notes = {"traced_passes": (len(traced_times), "count")}
    return metrics, notes, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    wanted = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    cli = load_cli()
    references = load_references(args.workload, args.seed)
    job_list = workloads.jobs(args.workload, args.seed)
    tmp = WORK / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            dump = WORK / f"trace-{args.workload}-seed{args.seed}.jsonl"
            result = traced_run(cli, job_list, references, tmp, args.seconds, dump)
        else:
            result = timed_run(cli, job_list, references, tmp, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    metrics, notes, attempted, failed = result
    if sorted(metrics) != sorted(wanted):
        raise SystemExit("error: measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(wanted))}")
    if not all(math.isfinite(v) for v in metrics.values()):
        raise SystemExit("error: non-finite metric")
    print(f"workload {args.workload} seed {args.seed} "
          f"(program seed {workloads.program_seed(args.seed)})")
    for name in wanted:
        label = " (computed)" if name in spans.COMPUTED else ""
        print(f"  {name} = {metrics[name]:.6g} {units[name]}{label}")
    for name, (value, unit) in notes.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
