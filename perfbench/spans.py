"""Span tracer for the ionparity modules, installed from outside the package.

``Tracer.installed()`` replaces every public function of each layer module
with a wrapper that records a span, and rebinds the name in every package
module that imported it, so calls such as ``preparation ->
averaged_ground_probability`` and ``cli -> pool_map`` are seen too.  The
constructors in ``CONSTRUCTORS`` get the same treatment.  Leaving the
context restores the originals.

A span is (id, parent, name, start, end, thread, attrs).  Spans stay in
memory; ``pass_metrics`` folds one pass of them into the per-layer metrics.
A span's self time is its duration minus the part of it covered by its
children; the workers of ``pool_map`` run in other threads and are parented
to the ``pool_map`` span explicitly.  ``attrs`` holds counts computed from a
call's arguments by the hooks below.  Installing fails with ``BindError``
when a traced function is gone or a hook no longer matches its function's
parameters; a hook that fails on a call is listed in ``Tracer.errors``.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import statistics
import threading
import time
from collections import Counter, defaultdict
from typing import Callable, NamedTuple

LAYERS = ("cli", "sweep", "dynamics", "fluctuations", "preparation", "propagators",
          "checks", "states")

CONSTRUCTORS = (("states", "TwoModeState", "__post_init__"),
                ("propagators", "LambDickeHamiltonian", "__init__"))

# The check functions that checks.run_all calls.
CHECKS = ("closed_form_vs_propagator", "norm_conservation",
          "entropy_matches_reduced_density", "rabi_frequency_symmetry",
          "fluctuation_free_limit", "gamma_vs_gaussian", "monte_carlo_vs_gamma",
          "mixture_linearity", "mixture_truncation", "exact_preparation_limit",
          "static_drive_limit", "lamb_dicke_unitarity", "rwa_deviation_decreases")

KERNELS = {"gamma_exact": "gamma", "gaussian_approx": "gaussian", "monte_carlo": "mc"}

# A mixture term with a smaller weight cannot move a 17-digit result.
USEFUL_WEIGHT = 1e-16

# Per-layer metrics that count work the program does not report itself;
# the hooks compute them from call arguments.
COMPUTED = frozenset({
    "dynamics.spectrum_terms", "dynamics.spectrum_repeat_frac",
    "fluctuations.kernel_terms.gamma", "fluctuations.kernel_terms.gaussian",
    "fluctuations.kernel_terms.mc", "fluctuations.mc_draws",
    "fluctuations.mc_cos_evals", "fluctuations.mc_temp_bytes_max",
    "preparation.mixture_terms", "preparation.useful_term_frac",
})


class Span(NamedTuple):
    id: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    attrs: dict | None


def _spectrum(n_total, g):
    return {"spectrum": (n_total, g)}


def _averaged(n_total, model, t, rng=None):
    if model.tau == 0.0:
        return None
    kernel = KERNELS[model.mode]
    attrs = {f"fluctuations.kernel_terms.{kernel}": n_total + 1}
    if kernel == "mc":
        cosines = (n_total + 1) * model.mc_samples
        attrs["fluctuations.mc_cos_evals"] = cosines
        attrs["fluctuations.mc_temp_bytes_max"] = 8 * cosines
    return attrs


def _draws(g, tau, t, rng, n_samples):
    return {"fluctuations.mc_draws": n_samples}


def _mc_cosine(omega, t, model, rng=None):
    if model.tau == 0.0:
        return None
    return {"fluctuations.mc_cos_evals": model.mc_samples,
            "fluctuations.mc_temp_bytes_max": 8 * model.mc_samples}


def _mixture(prep, model, t, extra_terms=0):
    _, weights = prep.terms(extra=extra_terms)
    return {"preparation.mixture_terms": len(weights),
            "preparation.useful_terms": int((weights >= USEFUL_WEIGHT).sum())}


def _pool(fn, items, workers):
    return {"workers": workers}


def _written(result, path, fmt):
    return {"sweep.bytes_written": os.path.getsize(path) if path else 0}


HOOKS: dict[str, Callable] = {
    "dynamics.rabi_spectrum": _spectrum,
    "fluctuations.averaged_ground_probability": _averaged,
    "fluctuations.sample_pulse_areas": _draws,
    "fluctuations.monte_carlo_cosine": _mc_cosine,
    "preparation.averaged_ground_probability_mixed": _mixture,
    "sweep.pool_map": _pool,
    "sweep.write_result": _written,
}

# Functions whose calls and self time pass_metrics reports.
TIMED = ("dynamics.rabi_spectrum", "dynamics.ground_probability",
         "dynamics.evolve_closed_form", "fluctuations.averaged_ground_probability",
         "fluctuations.sample_pulse_areas", "fluctuations.monte_carlo_cosine",
         "preparation.averaged_ground_probability_mixed",
         "propagators.propagate_effective", "states.TwoModeState")

# Every name pass_metrics reads.  A traced run refuses to start when one is
# missing, so a renamed function fails loudly instead of reading 0.
TRACED = frozenset({
    "cli.main", "sweep.pool_map", "sweep.write_result", "fluctuations.gamma_kernel",
    "preparation.parity_delta_mixed", "propagators.LambDickeHamiltonian",
    "propagators.propagate_lamb_dicke", "propagators.ground_population_trajectory",
    *TIMED, *HOOKS, *(f"checks.{check}" for check in CHECKS),
})


class BindError(RuntimeError):
    """The package no longer has a function or signature the tracer needs."""


class Tracer:
    """Records spans of the package ``package`` (e.g. ``"ionparity"``)."""

    def __init__(self, package: str) -> None:
        self.package = importlib.import_module(package)
        self.modules = {layer: importlib.import_module(f"{package}.{layer}")
                        for layer in LAYERS}
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patches: list[tuple[object, str, object]] = []
        # Hooks that failed on a call; their computed counts are missing.
        self.errors: list[str] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, parent=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            attrs = None
            hook = HOOKS.get(name)
            if hook is not None:
                try:
                    attrs = hook(*args, **kwargs)
                except Exception as exc:
                    self.errors.append(f"{name}: {type(exc).__name__}: {exc}")
            self.spans.append(
                Span(span_id, parent, name, start, end, threading.get_ident(), attrs))

    def _wrap(self, name: str, fn: Callable) -> Callable:
        if name == "sweep.pool_map":
            original = fn

            def fn(work, items, workers):
                parent = self._stack()[-1]

                def worker(item):
                    return self._call("sweep.worker", work, (item,), {}, parent)

                return original(worker, items, workers)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, args, kwargs)

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _targets(self) -> dict[str, Callable]:
        """Traced name -> function, checked against TRACED and HOOKS."""
        targets = {}
        for layer, module in self.modules.items():
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    targets[f"{layer}.{attr}"] = value
        for layer, cls_name, method in CONSTRUCTORS:
            cls = getattr(self.modules[layer], cls_name, None)
            if cls is not None and method in vars(cls):
                targets[f"{layer}.{cls_name}"] = vars(cls)[method]
        missing = TRACED - set(targets)
        if missing:
            raise BindError(f"traced functions not found in the package: {sorted(missing)}")
        for name, hook in HOOKS.items():
            wanted = list(inspect.signature(targets[name]).parameters)
            if list(inspect.signature(hook).parameters) != wanted:
                raise BindError(f"hook for {name} does not take the function's "
                                f"parameters {wanted}")
        return targets

    @contextlib.contextmanager
    def installed(self):
        targets = self._targets()
        constructors = {f"{layer}.{cls_name}" for layer, cls_name, _ in CONSTRUCTORS}
        wrappers = {fn: self._wrap(name, fn) for name, fn in targets.items()
                    if name not in constructors}
        try:
            for module in (self.package, *self.modules.values()):
                for attr, value in list(vars(module).items()):
                    if inspect.isfunction(value) and value in wrappers:
                        self._patch(module, attr, wrappers[value])
            for layer, cls_name, method in CONSTRUCTORS:
                name = f"{layer}.{cls_name}"
                self._patch(getattr(self.modules[layer], cls_name), method,
                            self._wrap(name, targets[name]))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)


def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def pass_metrics(spans: list[Span], wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass that took ``wall_s`` seconds."""
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    calls, total, own, counts = Counter(), Counter(), Counter(), Counter()
    spectra, capacity = [], 0.0
    for span in spans:
        duration = span.end - span.start
        calls[span.name] += 1
        total[span.name] += duration
        own[span.name] += duration - _covered(span.start, span.end,
                                              children.get(span.id, []))
        for key, value in (span.attrs or {}).items():
            if key == "spectrum":
                spectra.append(value)
                counts["dynamics.spectrum_terms"] += value[0] + 1
            elif key == "workers":
                capacity += duration * value
            elif key.endswith("_max"):
                counts[key] = max(counts[key], value)
            else:
                counts[key] += value

    def layer_self(layer: str) -> float:
        return sum(v for k, v in own.items() if k.startswith(layer + "."))

    busy = total["sweep.worker"]
    metrics = {
        "cli.main.calls": calls["cli.main"],
        "cli.self_s": layer_self("cli"),
        "sweep.pool_map.s": total["sweep.pool_map"],
        "sweep.pool_map.busy_s": busy,
        "sweep.pool_map.util": busy / capacity if capacity else 0.0,
        "sweep.write_result.s": total["sweep.write_result"],
        "sweep.bytes_written": counts["sweep.bytes_written"],
        "dynamics.spectrum_terms": counts["dynamics.spectrum_terms"],
        "dynamics.spectrum_repeat_frac":
            (len(spectra) - len(set(spectra))) / len(spectra) if spectra else 0.0,
        "fluctuations.gamma_kernel.calls": calls["fluctuations.gamma_kernel"],
        "fluctuations.mc_draws": counts["fluctuations.mc_draws"],
        "fluctuations.mc_cos_evals": counts["fluctuations.mc_cos_evals"],
        "fluctuations.mc_temp_bytes_max": counts["fluctuations.mc_temp_bytes_max"],
        "preparation.mixture_terms": counts["preparation.mixture_terms"],
        "preparation.useful_term_frac":
            counts["preparation.useful_terms"] / counts["preparation.mixture_terms"]
            if counts["preparation.mixture_terms"] else 0.0,
        "preparation.parity_delta_mixed.calls": calls["preparation.parity_delta_mixed"],
        "propagators.LambDickeHamiltonian.calls": calls["propagators.LambDickeHamiltonian"],
        "propagators.LambDickeHamiltonian.build_s": total["propagators.LambDickeHamiltonian"],
        "propagators.propagate_lamb_dicke.self_s": own["propagators.propagate_lamb_dicke"],
        "propagators.ground_population_trajectory.self_s":
            own["propagators.ground_population_trajectory"],
        "propagators.share": layer_self("propagators") / wall_s,
    }
    for kernel in KERNELS.values():
        name = f"fluctuations.kernel_terms.{kernel}"
        metrics[name] = counts[name]
    for name in TIMED:
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.self_s"] = own[name]
    for check in CHECKS:
        metrics[f"checks.{check}.s"] = total[f"checks.{check}"]
    return metrics


def median_metrics(passes: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over traced passes."""
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}
