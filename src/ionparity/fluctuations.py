"""Non-dissipative decoherence from a fluctuating drive intensity.

The accumulated pulse area A(t) = integral of the instantaneous coupling
is modelled as Gamma-distributed with shape t/tau and scale g*tau, so
<A> = g t and var(A) = g^2 t tau.  Observables are averaged over A; three
interchangeable kernels for E[cos(omega A)] are provided:

    gamma_exact     Re[(1 - i omega g tau)^(-t/tau)]   (characteristic function)
    gaussian_approx cos(omega g t) exp(-omega^2 g^2 t tau / 2)
    monte_carlo     seeded sample mean over explicit Gamma draws

tau = 0 degenerates to the deterministic area A = g t in every mode, and so
does a tau so small that the Gamma shape t/tau overflows to inf.  Toward
tau -> inf the exact law gives E[cos(omega A)] = 1: gamma_kernel reaches that
limit by itself, and monte_carlo returns it where the Gamma scale g*tau
overflows; gaussian_approx keeps its formula's 0 there.

One private dispatch, ``_kernels``, evaluates the chosen kernel over a whole
array of area frequencies (``gamma_kernel`` and ``gaussian_kernel`` map
arrays to arrays).  The ground probability of N depends on its spectrum only
through the integer keys p = (N-k)k, whose area frequency is 4 sqrt(p);
``_area_terms`` caches, per N, the distinct keys and the binomial weights
merged over k <-> N-k.  Every average is a thin call into
``mixture_ground_probabilities``, the one entry point for Fock mixtures (a
preparation's ``terms()``).  Its ``_mixture_matrix`` flattens the terms of
several mixtures, drops those of weight exactly 0.0, rejects a total that is
no non-negative integer, and reads ``_area_terms`` once per distinct total.
The union of those totals' keys gives the columns, and each term gathers its
weights and key columns by index arithmetic, not by a Python step per term,
into one weight row per mixture.  The call then runs ``_kernels`` once over
the distinct frequencies and returns one weighted sum per mixture, so the odd
and even targets of a parity comparison share one call.  Given a column of
taus, the analytic kernels broadcast over (tau, p) in that same call, so a
whole sweep curve is one matrix product of kernel rows and weight rows.  In
monte_carlo mode all frequencies of a call share one set of draws, which
``_draw_blocks`` streams from the call's one generator in blocks of
``MC_DRAW_BLOCK`` draws (the same stream, bit for bit, as one call for all
of them).
Most of a block's time is cosines, and keys share them: the frequency
of a key p = s m^2 is m times that of its root s, and cos(m x) follows from
cos x by the recurrence cos(m x) = 2 cos x cos((m-1) x) - cos((m-2) x).  So
``_draw_blocks`` places the frequencies once per call on a ``_ladder``: a
root whose keys are dense enough among its rungs (``_rungs``, which weighs
``RUNG_COST``) takes one cosine row per draw block and climbs to its
highest such key, and every other frequency is its own base at rung 1.
``_base_rows`` forms a base row without libm's slow argument reduction: the
quarter angle fl(b A)/4, less its nearest multiple of pi/2, lies in
[-pi/4, pi/4], where libm's cosine is fast, and two doublings
c <- 2c^2 - 1 make its cosine the row.  That row is within about 51 unit
roundoffs of the exact cosine of libm's argument fl(b A); a higher rung
differs from libm's row by about m^2 times that plus the argument's
rounding.  A group of bases keeps libm's own product and cosine, bit for
bit, where its largest argument is at most ``REDUCTION_FLOOR`` (libm is as
fast there), exceeds ``REDUCTION_LIMIT`` or is no number, and calls whose
blocks hold fewer than ``LADDER_MIN_DRAWS`` draws keep every frequency at
rung 1 on libm's rows.  ``_cosine_sums`` sums one block's rows per
frequency, formed in one tile of ``MC_BLOCK_PAIRS`` (base, draw) pairs per
thread, and takes from the tile only the rows its rungs need, the
reduction's scratch included; the block sums are added in draw order and
divided by the sample count once at the end.  The two halves may run on
different threads: a Monte-Carlo sweep draws on its calling thread, sums
the blocks on a pool, and hands each point's sums with its
``_mixture_matrix`` to ``_ground_probabilities``, the second half of
``mixture_ground_probabilities``.  Memory is one tile per summing thread
plus the draw blocks not yet summed, whatever ``mc_samples`` is, and time
stays linear in it.  The key p = 0 has frequency 0, so its row is exactly 1
and is set, not sampled.  ``_sampled`` is the one test of
whether an area is drawn or set.

``monte_carlo_cosine``, the estimate the validation battery checks against
gamma_exact, runs that same sampler at the frequencies (omega, 2 omega) and
returns (mean, standard error); the second row gives the sample variance
through cos^2 x = (1 + cos 2x) / 2.  Where omega is a key frequency, so is
2 omega, and its row climbs from the same cosine.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .dynamics import rabi_spectrum

MODES = ("gamma_exact", "gaussian_approx", "monte_carlo")

# Monte-Carlo draws taken from the generator at a time: 2^16 float64, 512 KiB
MC_DRAW_BLOCK = 1 << 16

# (frequency, draw) cosines per Monte-Carlo tile: 2^18 float64, 2 MiB, one
# core's L2 cache on the 2-core machine the block sizes were measured on
MC_BLOCK_PAIRS = 1 << 18

# Draws per block below which every frequency takes its own libm cosine: the
# recurrence's few numpy calls per rung then cost more than the cosines saved
LADDER_MIN_DRAWS = 1 << 8

# pi/2 in two parts for reducing a quarter angle z: float32(pi/2), whose 24
# significant bits make k * REDUCE_HIGH exact for |k| < 2^29, and the float64
# nearest pi/2 - REDUCE_HIGH; the two sum to pi/2 within 2.7e-24
REDUCE_HIGH = 1.5707963705062866
REDUCE_LOW = -4.3711390001862426e-08

# Largest argument b*A of a group of base rows that is reduced.  Up to it the
# multiple k = round(2z/pi) of the quarter angle stays under 2^18, so the
# constants' error, 4|k| (2u |REDUCE_LOW| + 2.7e-24), stays under a tenth of
# the unit roundoff u in the row
REDUCTION_LIMIT = 2.0**20

# A group whose largest argument is at most this keeps libm's rows: below
# about 3 libm reduces cheaply or not at all, and its cosine of clustered
# arguments took 5-7 ns against the reduced row's 8 on the 2-core machine
REDUCTION_FLOOR = 4.0

# One recurrence rung per draw costs about a sixteenth of a libm cosine (1.5
# against 24 ns on the 2-core machine), which sets how high a ladder climbs
RUNG_COST = 1.0 / 16.0

# Keys are reduced to roots by the squares of q = 2 .. ROOT_DIVISORS - 1; the
# square of a larger prime stays in the root, which costs sharing, not accuracy
ROOT_DIVISORS = 64

# totals N whose keyed spectra stay cached, and frequency sets whose ladders
# do; both targets of one sweep point at the default lowest efficiency 0.05
# span at most 147 totals of non-zero weight
AREA_CACHE_SIZE = 256


def _check_tau(tau: float) -> float:
    if not 0.0 <= tau < math.inf:
        raise ValueError(f"tau must be finite and non-negative, got {tau}")
    return tau


@dataclass(frozen=True)
class FluctuationModel:
    """Mean coupling, fluctuation strength and averaging mode.

    The seed is part of the model so Monte-Carlo runs are reproducible;
    concurrent sweeps should carry distinct seeds.
    """

    g_mean: float
    tau: float
    mode: str = "gaussian_approx"
    mc_samples: int = 100_000
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.g_mean < math.inf:
            raise ValueError(f"g_mean must be finite and positive, got {self.g_mean}")
        _check_tau(self.tau)
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "gaussian_approx" and self.g_mean * self.g_mean == math.inf:
            raise ValueError(f"g = {self.g_mean} is too large for gaussian_approx, "
                             "whose exponent holds g**2")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be at least 1")


def gamma_kernel(
    omega: np.ndarray | float, g: float, tau: float, t: float
) -> np.ndarray | float:
    """Re[(1 - i omega g tau)^(-t/tau)] on the principal branch, elementwise.

    Evaluated in polar form with log1p so tiny x = omega*g*tau stays
    accurate.  Where x * x overflows, log1p(x^2) is taken as
    2 log|x| + log1p(x^-2), with log|x| summed from the logs of the factors
    so that an x that overflows itself stays finite too; every other entry
    is log1p(x * x) as it stands.
    """
    # x and x * x may overflow to inf (replaced below), and so may 2 tau,
    # where t / inf = 0 is the shape's own limit
    with np.errstate(over="ignore"):
        x = omega * g * tau
        log_modulus = np.log1p(x * x)
        wide = log_modulus == math.inf
        if np.any(wide):
            log_modulus = np.array(log_modulus)
            log_x = (np.log(np.abs(np.broadcast_to(omega, wide.shape)[wide])) + math.log(g)
                     + np.log(np.broadcast_to(tau, wide.shape)[wide]))
            log_modulus[wide] = 2.0 * log_x + np.log1p(np.exp(-2.0 * log_x))
        magnitude = np.exp(-(t / (2.0 * tau)) * log_modulus)
    return magnitude * np.cos((t / tau) * np.arctan(x))


def gaussian_kernel(
    omega: np.ndarray | float, g: float, tau: float, t: float
) -> np.ndarray | float:
    """cos(omega g t) exp(-omega^2 g^2 t tau / 2), elementwise.

    An exponent that overflows to -inf gives the formula's limit 0."""
    with np.errstate(over="ignore"):
        return np.cos(omega * g * t) * np.exp(-(omega**2) * g**2 * t * tau / 2.0)


def sample_pulse_areas(
    g: float, tau: float, t: float, rng: np.random.Generator, n_samples: int
) -> np.ndarray:
    """Gamma draws of the pulse area: shape t/tau, scale g*tau."""
    if t <= 0.0 or tau <= 0.0:
        raise ValueError("Gamma sampling needs t > 0 and tau > 0")
    if n_samples < 1:
        raise ValueError("n_samples must be at least 1")
    return rng.gamma(shape=t / tau, scale=g * tau, size=n_samples)


def monte_carlo_cosine(
    omega: float, t: float, model: FluctuationModel, rng: np.random.Generator | None = None
) -> tuple[float, float]:
    """Sample estimate (mean, standard error) of E[cos(omega A)], drawn by
    the sampler the sweeps run: one Monte-Carlo ``_kernels`` call at the
    frequencies (omega, 2 omega), whatever ``model.mode`` says.  The second
    row gives the second moment through cos^2 x = (1 + cos 2x) / 2.  Where
    the area is deterministic (tau = 0, or t/tau or g*tau overflows) the
    standard error is 0."""
    sampled = replace(model, mode="monte_carlo")
    mean, twice = _kernels(np.array([omega, 2.0 * omega]), sampled, t, rng)
    n = model.mc_samples
    stderr = 0.0
    if n > 1 and _sampled(model, t):
        # sample variance with Bessel's correction, clamped against cancellation
        stderr = math.sqrt(max(0.0, (1.0 + twice) / 2.0 - mean * mean) / (n - 1))
    return float(mean), stderr


def _sampled(model: FluctuationModel, t: float) -> bool:
    """Whether monte_carlo mode draws the area at t > 0 rather than setting
    it: not at tau = 0 or where the shape t/tau overflows (the area is g t),
    nor where the scale g*tau overflows (the draws would be inf)."""
    tau = model.tau
    return tau > 0.0 and t / tau < math.inf and model.g_mean * tau < math.inf


def _draw_blocks(
    omegas: np.ndarray, model: FluctuationModel, t: float, rng: np.random.Generator | None = None
) -> Iterator[tuple[_Ladder, np.ndarray]]:
    """The Monte-Carlo draws of one ``_kernels`` call at ``omegas``: its
    ``model.mc_samples`` areas, drawn in order from ``rng`` (the model's seed
    when None) in blocks of at most ``MC_DRAW_BLOCK``, each paired with the
    ``_ladder`` of the non-zero frequencies it is summed at.  Nothing where
    the area is set."""
    if not _sampled(model, t):
        return
    rng = np.random.default_rng(model.seed) if rng is None else rng
    block = min(MC_DRAW_BLOCK, model.mc_samples)
    # cos(0 A) = 1 for every draw: set, not sampled
    ladder = _ladder(omegas[omegas != 0.0], block)
    for start in range(0, model.mc_samples, block):
        yield ladder, sample_pulse_areas(model.g_mean, model.tau, t, rng,
                                         min(block, model.mc_samples - start))


class _Ladder(NamedTuple):
    """How the cosine sums of ``slots.size`` frequencies are formed.  Rung m
    of a base b is cos(m b A).  ``bases`` are ordered by non-increasing
    ``tops``, the rung each climbs to, so the ``depth[m]`` bases that reach
    rung m come first.  Their rung-m sums fill rows ``offsets[m]`` on of one
    rung-major table, whose row ``slots[i]`` frequency i reads; only the
    rungs in ``needed`` are read.  ``climb`` says whether the ladder was
    placed for blocks of at least ``LADDER_MIN_DRAWS`` draws; only then are
    base rows reduced."""

    bases: np.ndarray
    tops: np.ndarray
    depth: tuple[int, ...]
    offsets: tuple[int, ...]
    needed: frozenset[int]
    slots: np.ndarray
    climb: bool


def _ladder(frequencies: np.ndarray, block: int) -> _Ladder:
    """The ladder of ``frequencies`` for draw blocks of ``block`` draws,
    cached by their bytes, read-only: below ``LADDER_MIN_DRAWS`` draws every
    frequency is its own base at rung 1 on libm's row; from there on
    ``_rungs`` places them."""
    return _cached_ladder(frequencies.tobytes(), block >= LADDER_MIN_DRAWS)


@functools.lru_cache(maxsize=AREA_CACHE_SIZE)
def _cached_ladder(raw: bytes, climb: bool) -> _Ladder:
    frequencies = np.frombuffer(raw)
    size = frequencies.size
    bases, tops = frequencies, np.ones(size, dtype=np.int64)
    owners, rungs = np.arange(size), np.ones(size, dtype=np.int64)
    if climb:
        bases, tops, owners, rungs = _rungs(frequencies)
    order = np.argsort(-tops, kind="stable")
    place = np.empty_like(order)
    place[order] = np.arange(order.size)
    # depth[m] bases reach rung m (depth[0] is all of them), and the rows of
    # the rungs below m, from rung 1 on, come before rung m's
    depth = np.cumsum(np.bincount(tops, minlength=1)[::-1])[::-1]
    offsets = np.cumsum(depth) - depth - depth[0]
    ladder = _Ladder(bases[order], tops[order], tuple(depth.tolist()),
                     tuple(offsets.tolist()),
                     frozenset(np.flatnonzero(np.bincount(rungs)).tolist()),
                     offsets[rungs] + place[owners], climb)
    for array in (ladder.bases, ladder.tops, ladder.slots):
        array.flags.writeable = False
    return ladder


def _rungs(frequencies: np.ndarray) -> tuple[np.ndarray, ...]:
    """Bases, their top rungs, and each frequency's base index and rung.

    A frequency that equals 2.0*(2.0*sqrt(p)) for the integer
    p = round((f/4)**2), as ``_area_terms`` forms the frequency of key p, is
    rung m of its root s, where p = s m^2 and s keeps no square of
    q = 2 .. ``ROOT_DIVISORS`` - 1.  Of the rungs m_0 < m_1 < ... of one root,
    those up to the m_j of largest gain j - RUNG_COST (m_j - 1) share the
    base 2.0*(2.0*sqrt(s)) where that gain is positive: one cosine and
    m_j - 1 rungs of the recurrence then cost less than their j + 1 own
    cosines.  Every other frequency is its own base at rung 1."""
    size = frequencies.size
    owners, rungs = np.empty(size, dtype=np.int64), np.ones(size, dtype=np.int64)
    alone = np.ones(size, dtype=bool)
    bases, tops = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.round((frequencies / 4.0) ** 2)
    index = np.flatnonzero((squares >= 1.0) & (squares < 2.0**53))
    keys = squares[index].astype(np.int64)
    exact = 2.0 * (2.0 * np.sqrt(keys)) == frequencies[index]
    index, roots = index[exact], keys[exact]
    steps = np.ones_like(roots)
    for q in range(2, min(ROOT_DIVISORS, math.isqrt(int(roots.max(initial=0))) + 1)):
        hit = roots % (q * q) == 0
        while hit.any():
            roots[hit] //= q * q
            steps[hit] *= q
            hit = roots % (q * q) == 0
    order = np.lexsort((steps, roots))
    index, roots, steps = index[order], roots[order], steps[order]
    bounds = np.flatnonzero(np.diff(roots)) + 1
    for start, stop in zip([0, *bounds.tolist()], [*bounds.tolist(), roots.size]):
        if stop - start < 2:  # a lone key gains nothing
            continue
        climbs = steps[start:stop].tolist()
        gains = [j - RUNG_COST * (m - 1) for j, m in enumerate(climbs)]
        best = max(range(len(gains)), key=gains.__getitem__)
        if gains[best] > 0.0:
            shared = index[start:start + best + 1]
            alone[shared], owners[shared] = False, len(bases)
            rungs[shared] = climbs[:best + 1]
            bases.append(2.0 * (2.0 * np.sqrt(roots[start])))
            tops.append(climbs[best])
    owners[alone] = len(bases) + np.arange(np.count_nonzero(alone))
    return (np.concatenate([np.array(bases, dtype=float), frequencies[alone]]),
            np.concatenate([np.array(tops, dtype=np.int64), rungs[alone]]), owners, rungs)


# One scratch tile of MC_BLOCK_PAIRS float64 per thread, reused by every block
# that thread sums: a fresh 2 MiB tile per block raises the peak resident set.
_tiles = threading.local()


def _release_tile() -> None:
    """Drop the calling thread's tile.  A long-lived thread that sums blocks
    only now and then, like the validate battery's calling thread, would
    otherwise keep it resident beside the next battery's drive builds."""
    _tiles.__dict__.pop("tile", None)


def _climb(cosines: np.ndarray, previous: np.ndarray, before: np.ndarray | None,
           out: np.ndarray) -> None:
    """One rung of cos(m x) = 2 cos(x) cos((m-1) x) - cos((m-2) x) into
    ``out``, which may be ``previous``; ``before`` None is cos(0 x) = 1."""
    np.multiply(cosines, previous, out=out)
    np.add(out, out, out=out)
    np.subtract(out, 1.0 if before is None else before, out=out)


def _base_rows(bases: np.ndarray, draws: np.ndarray, cosines: np.ndarray,
               scratch: np.ndarray, reduce: bool) -> None:
    """cos(b A) for every base b and draw A into ``cosines``, one row per
    base.  Without ``reduce`` the rows are libm's cosines of the products
    fl(b A).  With it, the quarter angle z = fl(b/4 A), which is fl(b A)/4
    exactly, is reduced by its nearest multiple k of pi/2 (k * REDUCE_HIGH is
    exact, and the low part is formed from it) into [-pi/4, pi/4], libm's
    fast range, and two doublings c <- 2c^2 - 1 turn cos(z - k pi/2) into
    cos(4z - 2 pi k) = cos(fl(b A)).  The rows are reduced as many at a time
    as ``scratch``, of at least one row's size, holds.  The reduction needs
    |k| < 2^29: ``_cosine_sums`` reduces only arguments up to
    ``REDUCTION_LIMIT``."""
    if not reduce:
        np.multiply.outer(bases, draws, out=cosines)
        np.cos(cosines, out=cosines)
        return
    np.multiply.outer(bases * 0.25, draws, out=cosines)
    step, flat = scratch.size // draws.size, scratch.reshape(-1)
    for start in range(0, bases.size, step):
        quarter = cosines[start:start + step]
        multiple = flat[:quarter.size].reshape(quarter.shape)
        np.multiply(quarter, 2.0 / math.pi, out=multiple)
        np.rint(multiple, out=multiple)
        np.multiply(multiple, REDUCE_HIGH, out=multiple)
        np.subtract(quarter, multiple, out=quarter)
        np.multiply(multiple, REDUCE_LOW / REDUCE_HIGH, out=multiple)
        np.subtract(quarter, multiple, out=quarter)
    np.cos(cosines, out=cosines)
    for _ in range(2):
        _climb(cosines, cosines, None, cosines)


def _cosine_sums(ladder: _Ladder, draws: np.ndarray) -> np.ndarray:
    """Sum over ``draws`` (at most ``MC_DRAW_BLOCK`` non-negative areas) of
    cos(frequency * draw), per frequency of ``ladder``, formed in the
    calling thread's one tile of ``MC_BLOCK_PAIRS`` pairs.  One
    ``_base_rows`` row per base, reduced where the ladder climbs and the
    group's largest argument lies above ``REDUCTION_FLOOR`` and at most at
    ``REDUCTION_LIMIT``; its higher rungs come from the recurrence, in rows
    of the same tile.  A group of bases climbing to rung m takes
    min(max(m - 1, 1), 4) rows each, as the top rung overwrites the rung
    below it, and as many bases as the tile holds.  The reduction's scratch
    is the group's second plane of rows, or, in a group of one plane, one
    draw block of the tile after its rows, so the tile is spanned no further
    than the rungs need it."""
    tile = getattr(_tiles, "tile", None)
    if tile is None:
        tile = _tiles.tile = np.empty(MC_BLOCK_PAIRS)
    table = np.empty(ladder.offsets[-1] + ladder.depth[-1])
    longest = draws.max()
    first = 0
    while first < ladder.bases.size:
        top = int(ladder.tops[first])
        planes = min(max(top - 1, 1), 4)
        # a group of one plane keeps one draw block after it for the reduction
        room = MC_BLOCK_PAIRS - (MC_DRAW_BLOCK if planes == 1 else 0)
        count = min(max(1, room // (planes * draws.size)), ladder.bases.size - first)
        rows = [tile[plane * count * draws.size:(plane + 1) * count * draws.size]
                .reshape(count, draws.size) for plane in range(planes)]
        cosines = previous = rows.pop(0)
        scratch = rows[0] if rows else tile[count * draws.size:][:MC_DRAW_BLOCK]
        bases = ladder.bases[first:first + count]
        # a NaN argument fails the comparisons, so its group keeps libm's rows
        largest = max(bases.max(), -bases.min()) * longest
        _base_rows(bases, draws, cosines, scratch,
                   ladder.climb and REDUCTION_FLOOR < largest <= REDUCTION_LIMIT)
        spare, before = rows, None
        for rung in range(1, top + 1):
            active = min(ladder.depth[rung], first + count) - first
            if rung > 1:
                out = previous if rung == top else spare.pop()
                _climb(cosines[:active], previous[:active],
                       None if before is None else before[:active], out[:active])
                if before is not None and before is not cosines:
                    spare.append(before)
                before, previous = previous, out
            if rung in ladder.needed:
                row = ladder.offsets[rung] + first
                previous[:active].sum(axis=1, out=table[row:row + active])
        first += count
    return table[ladder.slots]


def _monte_carlo(
    omegas: np.ndarray,
    model: FluctuationModel,
    t: float,
    rng: np.random.Generator | None = None,
    sums: np.ndarray | None = None,
) -> np.ndarray:
    """Sample means of cos(omega A) over ``model.mc_samples`` areas: the
    ordered sum of the ``_cosine_sums`` of the call's ``_draw_blocks``, or
    ``sums`` where that sum was formed elsewhere."""
    if sums is None:
        sums = sum(_cosine_sums(*block) for block in _draw_blocks(omegas, model, t, rng))
    means = np.ones(omegas.size)
    means[omegas != 0.0] = sums / model.mc_samples
    return means


def _kernels(
    omegas: np.ndarray,
    model: FluctuationModel,
    t: float,
    rng: np.random.Generator | None = None,
    taus: Sequence[float] | None = None,
    sums: np.ndarray | None = None,
) -> np.ndarray:
    """E[cos(omega A)] for every entry of the 1-D array ``omegas``; t must be
    finite and positive, as the Gamma shape t/tau is.

    ``taus``, positive fluctuation strengths checked as ``FluctuationModel``
    checks its own, replace ``model.tau`` in the analytic modes: the result
    then has one row per tau, so a whole sweep curve is one broadcast.
    Without them ``model.tau`` is a column of one row, and the result is that
    row.  Where t/tau overflows, the row is the tau -> 0 limit cos(omega g t).
    Where the scale g tau overflows, gamma_kernel itself gives the exact law's
    tau -> inf limit 1.0, and monte_carlo, whose draws would be inf, returns
    that limit without drawing.  ``sums``, where given, are the monte_carlo
    cosine sums that ``_monte_carlo`` would otherwise draw and form.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"t must be finite and positive, got {t}")
    if taus is not None:
        taus = [_check_tau(float(value)) for value in taus]
        if model.mode == "monte_carlo" or not all(value > 0.0 for value in taus):
            raise ValueError("a column of taus needs an analytic mode and positive taus")
    g = model.g_mean
    column = np.array([model.tau] if taus is None else taus)
    with np.errstate(divide="ignore", over="ignore"):
        # tau = 0, or a tau so small that the shape t/tau overflows: the area is g t
        fixed = t / column == math.inf
    rows = np.empty((column.size, omegas.size))
    if fixed.any():
        rows[fixed] = np.cos(omegas * g * t)
    if model.mode != "monte_carlo":
        kernel = gamma_kernel if model.mode == "gamma_exact" else gaussian_kernel
        rows[~fixed] = kernel(omegas, g, column[~fixed, np.newaxis], t)
    elif _sampled(model, t):
        rows[0] = _monte_carlo(omegas, model, t, rng, sums)
    elif not fixed[0]:
        rows[0] = 1.0  # draws at an infinite scale would be inf: the limit is set
    return rows[0] if taus is None else rows


@functools.lru_cache(maxsize=AREA_CACHE_SIZE)
def _area_terms(n_total: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Distinct keys p = (N-k)k of N = n_total in ascending order, their area
    frequencies and the binomial weights merged over k <-> N-k, read-only."""
    # Ground-probability phases are 2 f_k t = (4 sqrt((N-k)k)) * (g t), so the
    # frequency conjugate to the pulse area A = g t is 4 sqrt(p).
    k = np.arange(n_total + 1)
    keys, inverse = np.unique((n_total - k) * k, return_inverse=True)
    weights = np.bincount(inverse, weights=rabi_spectrum(n_total, 1.0).weights,
                          minlength=keys.size)
    omegas = 2.0 * (2.0 * np.sqrt(keys))
    for array in (keys, omegas, weights):
        array.flags.writeable = False
    return keys, omegas, weights


def _mixture_matrix(
    mixtures: Sequence[tuple[Sequence[int], Sequence[float]]],
) -> tuple[np.ndarray, np.ndarray]:
    """Distinct area frequencies of several Fock mixtures and their weight
    matrix, one row per mixture and one column per distinct key p.  Terms of
    weight exactly 0.0 are dropped.  The keys are those of the distinct
    totals' ``_area_terms``, read once per total; the terms, flattened in
    mixture order, gather their weights and key columns from those."""
    if not mixtures:
        raise ValueError("no mixture given: give at least one (totals, weights) pair")
    sizes = [len(term_weights) for _, term_weights in mixtures]
    if [len(n_totals) for n_totals, _ in mixtures] != sizes:
        raise ValueError("every mixture needs one weight per total")
    owners = np.repeat(np.arange(len(mixtures)), sizes)
    totals = np.concatenate([n_totals for n_totals, _ in mixtures]).astype(float)
    weights = np.concatenate([term_weights for _, term_weights in mixtures])
    kept = weights != 0.0
    totals, owners, weights = totals[kept], owners[kept], weights[kept]
    bad = (totals % 1.0 != 0.0) | (totals < 0.0)
    if bad.any():
        raise ValueError("a total must be a non-negative integer, got "
                         + np.format_float_positional(totals[bad][0], trim="-"))
    if not np.bincount(owners, minlength=len(mixtures)).all():
        raise ValueError("every mixture needs a term of non-zero weight")
    distinct, which = np.unique(totals, return_inverse=True)
    terms = [_area_terms(int(n)) for n in distinct.tolist()]
    keys, first, columns = np.unique(np.concatenate([term[0] for term in terms]),
                                     return_index=True, return_inverse=True)
    omegas = np.concatenate([term[1] for term in terms])[first]
    # each term's slice is its total's slice of the concatenated terms
    widths = np.array([term[0].size for term in terms])
    sources = np.cumsum(widths) - widths
    lengths = widths[which]
    targets = np.cumsum(lengths) - lengths
    gather = np.arange(lengths.sum()) + np.repeat(sources[which] - targets, lengths)
    term_weights = np.repeat(weights, lengths) * np.concatenate([term[2] for term in terms])[gather]
    matrix = np.bincount(np.repeat(owners, lengths) * keys.size + columns[gather],
                         weights=term_weights,
                         minlength=len(mixtures) * keys.size).reshape(len(mixtures), keys.size)
    return omegas, matrix


def mixture_ground_probabilities(
    mixtures: Sequence[tuple[Sequence[int], Sequence[float]]],
    model: FluctuationModel,
    t: float,
    rng: np.random.Generator | None = None,
    taus: Sequence[float] | None = None,
) -> np.ndarray:
    """Fluctuation-averaged ground probabilities at t > 0 of several Fock
    mixtures, each given as its totals N_m and weights c_m (summing to one):

        P(t) = 1/2 [1 + sum_m c_m sum_p w_p(N_m) E[cos(4 sqrt(p) A)]]

    Terms of weight exactly 0.0 are dropped.  ValueError names an empty list
    of mixtures, a mixture whose totals and weights differ in length or that
    has no term of non-zero weight, and a total of non-zero weight that is no
    non-negative integer.  The kernel runs once over the distinct keys p of
    all mixtures together, so in monte_carlo mode every mixture sees the same
    draws and each distinct p costs one cosine row.
    With ``taus`` (analytic modes only) that one kernel call covers every
    tau, and the result has one row per tau and one column per mixture.
    """
    return _ground_probabilities(*_mixture_matrix(mixtures), model, t, rng, taus)


def _ground_probabilities(
    omegas: np.ndarray,
    matrix: np.ndarray,
    model: FluctuationModel,
    t: float,
    rng: np.random.Generator | None = None,
    taus: Sequence[float] | None = None,
    sums: np.ndarray | None = None,
) -> np.ndarray:
    """``mixture_ground_probabilities`` of the mixtures whose
    ``_mixture_matrix`` is (omegas, matrix).  In monte_carlo mode ``sums`` may
    stand for the draws: the ordered sum of ``_cosine_sums`` over the
    ``_draw_blocks`` of omegas."""
    return 0.5 * (1.0 + _kernels(omegas, model, t, rng, taus, sums) @ matrix.T)


def averaged_ground_probability(
    n_total: int,
    model: FluctuationModel,
    t: float,
    rng: np.random.Generator | None = None,
) -> float:
    """Fluctuation-averaged ground-level probability of N = n_total at t > 0.

    In monte_carlo mode a single set of area draws is shared by all
    terms, which is the direct average of the probability itself.
    """
    return float(mixture_ground_probabilities((((n_total,), (1.0,)),), model, t, rng)[0])

