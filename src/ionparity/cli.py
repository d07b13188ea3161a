"""Command-line interface.

Subcommands:
    dynamics    table of (gt, t, ground probability, entropy) on a time grid
    tau-sweep   parity visibility versus fluctuation strength
    eta-sweep   parity visibility versus preparation efficiency, one curve per tau
    validate    run the consistency-check battery and report every result

Exit codes: 0 success, 1 parameter error, 2 validation failure (including a
probability column that is not finite or leaves [0, 1]), 3 I/O error.
A failed validate names each failed check and its reason on stderr.
Flags override an optional JSON config file (--config), which overrides the
built-in defaults; every output embeds the resolved configuration, so a run
is reproducible from its own metadata.  The coupling g is interpreted as an
angular rate in rad/s throughout.

In the analytic modes a parity sweep is one kernel call: both targets of
every point go into one weight matrix, evaluated at all taus at once.  In
Monte-Carlo mode every point keeps its own seed, draws and keys; each task
of a pool of --workers threads draws the next block of one point's areas and
sums its cosines, so a sweep of a few large points still fills every worker,
and the point adds its block sums in draw order.  The analytic modes accept
and echo --workers too.  Each setting is one row of ``SETTINGS``, which the
parser (built once per process), ``DEFAULTS`` and the config-file check all
read.
A row also names its range, an entry of ``RANGES`` whose words the flag's help
and error give; one pass, in row order, holds each merged value to it.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
import threading

from typing import Callable

import numpy as np

from . import dynamics, fluctuations, preparation
from .states import effective_coupling
from .sweep import SweepResult, pool_map, write_result

MODE_FLAGS = {"gamma": "gamma_exact", "gaussian": "gaussian_approx", "mc": "monte_carlo"}

# used when neither --g nor a drive pair (--omega, --eta-ld) is supplied
DEFAULT_G = 1e5

# Relative slack for the coupling consistency rule g = omega * eta^2 * exp(-eta^2/2).
COUPLING_CONSISTENCY_RTOL = 1e-6

# Largest (t_steps, n + 1) phase matrix dynamics builds: 2^26 float64 is
# 512 MiB, and its cosine as much again
MAX_DYNAMICS_CELLS = 1 << 26

# Accepted values of a setting, keyed by the words an error message gives them.
RANGES: dict[str, Callable[[object], bool]] = {
    "finite and positive": lambda v: 0 < v < math.inf,
    "finite and non-negative": lambda v: 0 <= v < math.inf,
    "a non-negative integer": lambda v: v >= 0,
    "odd and >= 3": lambda v: v % 2 == 1 and v >= 3,
    "in (0, 1]": lambda v: 0 < v <= 1,
    "strictly between 0 and 1": lambda v: 0 < v < 1,
}

# One row per setting of each subcommand: (type, built-in default, range, help).
# The flag is --key with each "_" spelled "-" (argparse maps it back to the
# key), and a config file holds the same keys.  A tuple type is a choice, a
# list [type] takes one or more values, and bool is a switch that sets True.
# The range is None where any value of the type is accepted.
_PHYSICAL = {
    "g": (float, None, "finite and positive",
          "coupling rate in rad/s; derived from --omega and --eta-ld when omitted"),
    "nu": (float, None, "finite and positive", "trap frequency in rad/s (metadata only here)"),
    "omega": (float, None, "finite and non-negative", "drive Rabi frequency in rad/s"),
    "eta_ld": (float, None, "finite and non-negative", "Lamb-Dicke parameter"),
}
_PARITY = {"n": (int, 9, "odd and >= 3", "total quanta, compared against n+1"), **_PHYSICAL}
_SAMPLING = {
    "mode": (tuple(MODE_FLAGS), "gaussian", None, "averaging kernel"),
    "mc_samples": (int, 100_000, "finite and positive", "draws per Monte-Carlo point"),
    "seed": (int, 0, "a non-negative integer", "base seed for Monte-Carlo mode"),
    "workers": (int, 4, "finite and positive", "worker threads that draw and sum Monte-Carlo "
                "draw blocks; the analytic modes evaluate a sweep in one call, but accept and "
                "echo it too"),
}
_OUTPUT = {
    "out": (str, None, None, "output path (stdout when omitted)"),
    "format": (("csv", "json"), "csv", None, "output format"),
}

SETTINGS: dict[str, dict[str, tuple]] = {
    "dynamics": {
        "n": (int, 9, "a non-negative integer", "total initial vibrational quanta"),
        **_PHYSICAL,
        "t_max": (float, 10.0, "finite and non-negative", "grid end in units of g*t"),
        "t_steps": (int, 501, "finite and positive", "number of grid points"),
        **_OUTPUT,
    },
    "tau-sweep": {
        **_PARITY,
        "tau_min": (float, 1e-9, "finite and positive", "grid start, seconds"),
        "tau_max": (float, 1e-7, "finite and positive", "grid end, seconds"),
        "tau_steps": (int, 41, "finite and positive", "log-grid points"),
        "eta_prep": (float, None, "in (0, 1]", "preparation efficiency; default exact"),
        "delta": (float, None, "finite and positive",
                  "preparation width (alternative to --eta-prep)"),
        **_SAMPLING,
        **_OUTPUT,
    },
    "eta-sweep": {
        **_PARITY,
        "tau": ([float], [1e-9, 1e-8, 1e-7], "finite and positive",
                "fluctuation strengths, one curve each"),
        "eta_min": (float, 0.05, "in (0, 1]", "grid start"),
        "eta_max": (float, 1.0, "in (0, 1]", "grid end"),
        "eta_steps": (int, 20, "finite and positive", "grid points"),
        **_SAMPLING,
        **_OUTPUT,
    },
    "validate": {
        "seed": (int, 0, "a non-negative integer", "seed for randomized checks"),
        "full": (bool, False, None, "run the drive comparison at higher nu/omega ratios"),
        "omega": (float, 1.0, "finite and positive", "drive Rabi frequency for the RWA suite"),
        "eta_ld": (float, 0.05, "strictly between 0 and 1",
                   "Lamb-Dicke parameter for the RWA suite"),
        **_OUTPUT,
    },
}

SUMMARIES = {
    "dynamics": "ground probability and entropy on a time grid",
    "tau-sweep": "parity visibility vs fluctuation strength",
    "eta-sweep": "parity visibility vs preparation efficiency",
    "validate": "run the consistency-check battery",
}

DEFAULTS = {command: {key: default for key, (_, default, _, _) in rows.items()}
            for command, rows in SETTINGS.items()}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="ionparity",
        description="Parity-dependent vibronic dynamics: tables, sweeps and checks.",
    )
    sub = parser.add_subparsers(dest="command")
    for command, rows in SETTINGS.items():
        p = sub.add_parser(command, help=SUMMARIES[command])
        p.add_argument("--config", help="JSON file with defaults for this subcommand")
        for key, (kind, _, accepted, text) in rows.items():
            flag = "--" + key.replace("_", "-")
            if accepted is not None:
                text = f"{text}; must be {accepted}"
            if kind is bool:
                p.add_argument(flag, action="store_const", const=True, help=text)
            elif isinstance(kind, tuple):
                p.add_argument(flag, choices=kind, help=text)
            elif isinstance(kind, list):
                p.add_argument(flag, type=kind[0], nargs="+", help=text)
            else:
                p.add_argument(flag, type=kind, help=text)
    return parser


def _fits(kind: type, value: object) -> bool:
    # bool subclasses int, but a flag that takes a number never takes a bool
    if isinstance(value, bool):
        return kind is bool
    return isinstance(value, (int, float) if kind is float else kind)


def _check_types(command: str, file_config: dict, path: str) -> None:
    """Hold each config-file value to the type, arity or choices of its row;
    null stands for a setting whose default is unset."""
    for key, value in file_config.items():
        kind, default, _, _ = SETTINGS[command][key]
        if value is None and default is None:
            continue
        if isinstance(kind, tuple):
            ok, expected = isinstance(value, str) and value in kind, f"one of {list(kind)}"
        elif isinstance(kind, list):
            ok = isinstance(value, list) and value and all(_fits(kind[0], v) for v in value)
            expected = f"a non-empty list of {kind[0].__name__}"
        else:
            ok, expected = _fits(kind, value), kind.__name__
        if not ok:
            raise ValueError(f"config file {path}: {key} must be {expected}, got {value!r}")


def _resolve_config(args: argparse.Namespace) -> dict:
    command = args.command
    resolved = dict(DEFAULTS[command])
    config_path = args.config
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                file_config = json.load(fh)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ValueError(f"config file {config_path}: {exc}") from exc
        if not isinstance(file_config, dict):
            raise ValueError(f"config file {config_path} must hold a JSON object")
        unknown = sorted(set(file_config) - set(resolved))
        if unknown:
            raise ValueError(f"config file {config_path} has unknown keys for {command}: {unknown}")
        _check_types(command, file_config, config_path)
        resolved.update(file_config)
    for key in resolved:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    for key, (_, _, accepted, _) in SETTINGS[command].items():  # first bad row reported
        values = resolved[key] if isinstance(resolved[key], list) else [resolved[key]]
        for value in values:
            if accepted is not None and value is not None and not RANGES[accepted](value):
                raise ValueError(f"{key} must be {accepted}, got {value}")
    return resolved


# Range of every probability column (delta_p is a difference of two), checked
# before anything is written.  The slack admits rounding: dynamics --n 8
# prints p_ground = 1.0000000000000002 at t = 0.
PROBABILITY_RANGES = {"p_ground": (0.0, 1.0), "p_odd": (0.0, 1.0), "p_even": (0.0, 1.0),
                      "delta_p": (-1.0, 1.0)}
PROBABILITY_SLACK = 1e-12


def _out_of_range(result: SweepResult) -> str | None:
    """Why a probability column of the table is not finite or leaves its
    range, or None when every column holds."""
    for index, column in enumerate(result.columns):
        if column in PROBABILITY_RANGES:
            low, high = PROBABILITY_RANGES[column]
            values = np.array([row[index] for row in result.rows], dtype=float)
            bad = ~((values >= low - PROBABILITY_SLACK) & (values <= high + PROBABILITY_SLACK))
            if bad.any():
                return (f"{column} = {float(values[bad][0])} is not a number in "
                        f"[{low}, {high}]; no table written")
    return None


def _echo_config(config: dict, command: str) -> dict:
    # the output location does not affect the computed content
    return {**{key: value for key, value in config.items() if key != "out"}, "command": command}


def _point_seeds(base_seed: int, count: int) -> list[int]:
    return np.random.SeedSequence(base_seed).generate_state(count, dtype=np.uint64).tolist()


def _resolve_coupling(config: dict) -> None:
    """Fill config['g'], deriving it from the drive when possible; the drive's
    coupling must be finite, and a given g must match it within
    COUPLING_CONSISTENCY_RTOL."""
    given = {key: config[key] for key in _PHYSICAL if config[key] is not None}
    if "omega" not in given or "eta_ld" not in given:
        config["g"] = given.get("g", DEFAULT_G)
        return
    derived = effective_coupling(given["omega"], given["eta_ld"])
    if not derived < math.inf:  # inf, or nan where inf meets 0
        raise ValueError(f"omega = {given['omega']} and eta_ld = {given['eta_ld']} put the "
                         f"coupling omega*eta_ld^2*exp(-eta_ld^2/2) at {derived}, outside "
                         "the finite floats")
    if "g" not in given:
        if derived <= 0.0:
            raise ValueError("derived coupling is zero; give --g or a positive "
                             "--omega/--eta-ld pair")
        config["g"] = derived
    elif abs(given["g"] - derived) > COUPLING_CONSISTENCY_RTOL * derived:
        raise ValueError(f"inconsistent coupling: g={given['g']} but "
                         f"omega*eta_ld^2*exp(-eta_ld^2/2)={derived}")


def cmd_dynamics(config: dict) -> SweepResult:
    _resolve_coupling(config)
    n, g = config["n"], config["g"]
    t_max, t_steps = config["t_max"], config["t_steps"]
    if t_steps * (n + 1) > MAX_DYNAMICS_CELLS:
        raise ValueError(f"n = {n} and t_steps = {t_steps} give a table of "
                         f"{t_steps * (n + 1)} phases, above {MAX_DYNAMICS_CELLS}")
    gts = np.linspace(0.0, t_max, t_steps)
    with np.errstate(over="ignore"):
        times = gts / g
    if times[-1] == math.inf:
        raise ValueError(f"g = {g} puts t_max / g at inf s, outside the finite floats")
    # an overflowing rate is g's fault (rabi_spectrum names it); past that the
    # largest phase 2 f_max t, formed as ground_probability forms it, must be finite
    fastest = dynamics._fastest_rate(n, g)
    phase = 2.0 * (float(times[-1]) * fastest)
    if fastest < math.inf and not phase < math.inf:
        raise ValueError(f"t_max = {t_max} puts the largest phase 2 f_max t_max / g of "
                         f"n = {n} at {phase}, outside the finite floats")
    probabilities = dynamics.ground_probability(n, g, times)
    entropies = dynamics.binary_entropy(probabilities)
    rows = list(zip(gts.tolist(), times.tolist(), probabilities.tolist(), entropies.tolist()))
    return SweepResult(("gt", "t_seconds", "p_ground", "entropy"), rows,
                       _echo_config(config, "dynamics"))


def _parity_sweep(config: dict) -> tuple[int, float, Callable]:
    """Checks shared by the parity sweeps.  Returns the odd n, the instant at
    which n and n + 1 are compared, and model(tau, seed) for one point."""
    _resolve_coupling(config)
    n = config["n"]
    t_compare = dynamics.comparison_time(n, config["g"])
    if not 0.0 < t_compare < math.inf:
        raise ValueError(f"g = {config['g']} puts the comparison time at {t_compare} s, "
                         "outside the finite positive floats")
    model = functools.partial(fluctuations.FluctuationModel, g_mean=config["g"],
                              mode=MODE_FLAGS[config["mode"]], mc_samples=config["mc_samples"])
    return n, t_compare, model


def _parity_curves(config: dict, sweep_model: Callable, t_compare: float, taus: list[float],
                   pairs: list[tuple]) -> np.ndarray:
    """(p_odd, p_even) of every pair of target preparations at every tau,
    shape (taus, pairs, 2).  The analytic modes evaluate the whole grid in one
    kernel call over the union of the pairs' keys.  In Monte-Carlo mode each
    (tau, pair) point keeps its own seed (numbered tau-major) and draws and
    only its own keys, whose weight matrix its pair shares at every tau.
    Each task of the worker pool draws one block of one point and sums its
    cosines, so a few large points fill every worker.  A point's draws are
    one stream: a task takes the next block under the point's lock and notes
    its place in the stream, and the point adds its block sums in that draw
    order.  The pool yields its results in task order, and each point is
    finished as its blocks arrive, so the sweep holds a window of blocks and
    one pair's weights, not a row per point and key."""
    model = sweep_model(tau=taus[0])  # the analytic modes read no seed
    if model.mode != "monte_carlo":
        mixtures = [prep.terms() for pair in pairs for prep in pair]
        probabilities = fluctuations.mixture_ground_probabilities(mixtures, model, t_compare,
                                                                  taus=taus)
    else:
        seeds = _point_seeds(config["seed"], len(taus) * len(pairs))

        def blocks():
            # one task per draw block, each holding its point, the point's
            # lock and its stream of numbered blocks; a set point, which
            # draws nothing, takes one task with an empty stream.  The walk
            # goes pair by pair: a pair's keys and weights are the same at
            # every tau, so they are built once and dropped with the pair's
            # last task, and a point's stream with its last block's task
            for first, pair in enumerate(pairs):
                omegas, matrix = fluctuations._mixture_matrix([prep.terms() for prep in pair])
                for index in range(first, len(seeds), len(pairs)):
                    point_model = sweep_model(tau=taus[index // len(pairs)], seed=seeds[index])
                    count = len(fluctuations._block_starts(point_model, t_compare))
                    stream = enumerate(fluctuations._draw_blocks(omegas, point_model, t_compare))
                    yield from itertools.repeat(
                        (index, (omegas, matrix, point_model), threading.Lock(), stream),
                        max(count, 1))

        def summed(task: tuple) -> tuple:
            index, point, lock, stream = task
            with lock:
                place, block = next(stream, (0, None))
            return index, point, place, None if block is None else fluctuations._cosine_sums(*block)

        # finish each point from its blocks, in draw order, as they arrive
        probabilities = np.empty((len(seeds), 2))
        for index, group in itertools.groupby(pool_map(summed, blocks(), config["workers"]),
                                              key=lambda task: task[0]):
            parts = sorted(group, key=lambda task: task[2])
            sums = None if parts[0][3] is None else sum(part for *_, part in parts)
            probabilities[index] = fluctuations._ground_probabilities(
                *parts[0][1], t_compare, sums=sums)
    return np.reshape(probabilities, (len(taus), len(pairs), 2))


def _check_targets(n: int) -> None:
    """Reject an n whose exact state, or that of its partner n + 1, is over
    the key limit, under n.  Every width holds the keys of the exact state,
    so a sweep checks this once, before any width."""
    preparation._check_exact_state(n)
    preparation._check_exact_state(n + 1, f"n = {n}: its partner n + 1 = {n + 1}")


def _targets(n: int, key: str, value: float | None) -> tuple:
    """The preparations of n and n + 1, both of the width that config[key]
    gives: the width itself (key "delta") or an efficiency, where None and 1
    mean the exact state.  ``_check_targets(n)`` has passed; a rejected width
    derived from an efficiency is reported under key."""
    exact = key != "delta" and value in (None, 1.0)
    try:
        delta = (value if key == "delta" else None if exact
                 else preparation.delta_from_efficiency(value))
        return preparation.PreparationModel(n, delta), preparation.PreparationModel(n + 1, delta)
    except ValueError as exc:
        raise (exc if key == "delta" or exact else ValueError(f"{key}: {exc}")) from None


def cmd_tau_sweep(config: dict) -> SweepResult:
    n, t_compare, sweep_model = _parity_sweep(config)
    tau_min, tau_max = config["tau_min"], config["tau_max"]
    if tau_max < tau_min:
        raise ValueError(f"tau_max must be at least tau_min, got {tau_max} < {tau_min}")
    eta, delta = config["eta_prep"], config["delta"]
    if eta is not None and delta is not None:
        raise ValueError("give either --eta-prep or --delta, not both")
    _check_targets(n)
    targets = _targets(n, "delta", delta) if eta is None else _targets(n, "eta_prep", eta)
    with np.errstate(over="ignore"):
        taus = np.logspace(np.log10(tau_min), np.log10(tau_max), config["tau_steps"])
    if not np.all((taus > 0.0) & (taus < math.inf)):
        raise ValueError(f"tau_min = {tau_min} and tau_max = {tau_max} give a log grid "
                         "that leaves the finite positive floats")
    curves = _parity_curves(config, sweep_model, t_compare, taus.tolist(), [targets])
    upper, lower = curves[:, 0, 0], curves[:, 0, 1]
    rows = list(zip(taus.tolist(), (upper - lower).tolist(), upper.tolist(), lower.tolist()))
    return SweepResult(("tau_seconds", "delta_p", "p_odd", "p_even"), rows,
                       _echo_config(config, "tau-sweep"))


def cmd_eta_sweep(config: dict) -> SweepResult:
    n, t_compare, sweep_model = _parity_sweep(config)
    taus = [float(tau) for tau in config["tau"]]
    eta_min, eta_max = config["eta_min"], config["eta_max"]
    if eta_max < eta_min:
        raise ValueError(f"eta_max must be at least eta_min, got {eta_max} < {eta_min}")
    etas = np.linspace(eta_min, eta_max, config["eta_steps"]).tolist()
    _check_targets(n)
    # the widest mixture is the one at eta_min, so it is the one a width check rejects
    pairs = [_targets(n, "eta_min", eta) for eta in etas]
    curves = _parity_curves(config, sweep_model, t_compare, taus, pairs)
    deltas = (curves[..., 0] - curves[..., 1]).tolist()
    rows = [(tau, eta, value) for tau, curve in zip(taus, deltas)
            for eta, value in zip(etas, curve)]
    return SweepResult(("tau_seconds", "eta_prep", "delta_p"), rows,
                       _echo_config(config, "eta-sweep"))


def cmd_validate(config: dict) -> tuple[SweepResult, list[str]]:
    """The report and one 'name: reason' line per failed check."""
    from . import checks  # the battery and its thread pool load for validate alone

    # the drive checks run last; reject a bad drive before any check runs
    checks.check_rwa_drive(config["omega"], config["eta_ld"], bool(config["full"]))
    results = checks.run_all(seed=config["seed"], full=bool(config["full"]),
                             drive_omega=config["omega"], drive_eta_ld=config["eta_ld"])
    rows = [(r.name, r.measured, r.bound, r.passed) for r in results]
    table = SweepResult(("check", "measured", "bound", "passed"), rows,
                        _echo_config(config, "validate"))
    return table, [f"{r.name}: {r.detail or f'measured {r.measured:.3e} > bound {r.bound:.3e}'}"
                   for r in results if not r.passed]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_help()
        return 1
    try:
        config = _resolve_config(args)
        if args.command == "validate":
            result, failures = cmd_validate(config)
        else:
            tables = {"dynamics": cmd_dynamics, "tau-sweep": cmd_tau_sweep,
                      "eta-sweep": cmd_eta_sweep}
            result, failures = tables[args.command](config), []
            problem = _out_of_range(result)
            if problem is not None:
                print(f"error: {problem}", file=sys.stderr)
                return 2
        write_result(result, config["out"], config["format"])
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: not enough memory for this run ({str(exc) or 'MemoryError'})",
              file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    if failures:
        print(*failures, "validation failed; see report", sep="\n", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
