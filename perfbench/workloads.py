"""Job lists of the three benchmark workloads.

A *pass* runs every job of a workload once, in order, through
``ionparity.cli.main``.  Job lists are a pure function of the workload seed.
Reference tables exist for ``SHIPPED_SEEDS`` program seeds, so the program
seed is the workload seed modulo that count; every workload seed is then
checked against a recorded reference.
"""

from __future__ import annotations

WORKLOADS = ("figures", "montecarlo", "validate")

SHIPPED_SEEDS = 16

# nproc on the 2-core machine the benchmark was defined on
WORKERS = ["--workers", "2"]


def program_seed(seed: int) -> int:
    return seed % SHIPPED_SEEDS


def reference_key(workload: str, seed: int) -> str:
    """Key of the reference tables for this run; ``figures`` draws nothing
    at random, so one reference serves every seed."""
    return "*" if workload == "figures" else str(program_seed(seed))


def jobs(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    """(job name, CLI arguments without --out) for one pass."""
    s = str(program_seed(seed))
    if workload == "figures":
        return [
            ("dynamics", ["dynamics", "--n", "9"]),
            ("tau-gamma", ["tau-sweep", "--mode", "gamma", *WORKERS]),
            ("tau-gaussian", ["tau-sweep", "--mode", "gaussian", *WORKERS]),
            ("tau-gaussian-eta0.9",
             ["tau-sweep", "--mode", "gaussian", "--eta-prep", "0.9", *WORKERS]),
            ("eta-gaussian",
             ["eta-sweep", "--mode", "gaussian", "--tau", "1e-9", "1e-8", "1e-7",
              "--eta-steps", "20", *WORKERS]),
            ("eta-gamma", ["eta-sweep", "--mode", "gamma", *WORKERS]),
        ]
    if workload == "montecarlo":
        return [
            ("tau-mc", ["tau-sweep", "--mode", "mc", "--mc-samples", "1000000",
                        "--tau-steps", "3", "--seed", s, *WORKERS]),
            ("eta-mc", ["eta-sweep", "--mode", "mc", "--mc-samples", "2000",
                        "--eta-steps", "10", "--tau", "1e-8", "1e-7", "--seed", s,
                        *WORKERS]),
        ]
    if workload == "validate":
        return [("validate", ["validate", "--seed", s])]
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")
