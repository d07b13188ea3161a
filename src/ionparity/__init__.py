"""Parity-dependent vibronic dynamics of a two-level ion coupled to two
vibrational modes: exact closed forms, fluctuation-averaged observables,
imperfect-preparation mixtures, and independent numerical propagators that
cross-check every formula."""

from .states import (
    PhysicalParams,
    TwoModeState,
    VibronicState,
)
from .dynamics import (
    ParityTimes,
    RabiSpectrum,
    binary_entropy,
    evolve_closed_form,
    ground_probability,
    parity_times,
    rabi_spectrum,
    symmetric_binomial_amplitudes,
    vibrational_entropy,
    von_neumann_entropy,
)
from .fluctuations import (
    FluctuationModel,
    averaged_ground_probability,
    gamma_kernel,
    gaussian_kernel,
    mixture_ground_probabilities,
    monte_carlo_cosine,
)
from .preparation import (
    PreparationModel,
    averaged_ground_probability_mixed,
    delta_from_efficiency,
    efficiency,
    parity_delta_mixed,
)
from .propagators import (
    LambDickeHamiltonian,
    TruncationError,
    ground_population_trajectory,
    pair_exchange_matrix,
    propagate_effective,
    propagate_lamb_dicke,
)

__version__ = "0.1.0"

__all__ = [
    "FluctuationModel",
    "LambDickeHamiltonian",
    "ParityTimes",
    "PhysicalParams",
    "PreparationModel",
    "RabiSpectrum",
    "TruncationError",
    "TwoModeState",
    "VibronicState",
    "averaged_ground_probability",
    "averaged_ground_probability_mixed",
    "binary_entropy",
    "delta_from_efficiency",
    "efficiency",
    "evolve_closed_form",
    "gamma_kernel",
    "gaussian_kernel",
    "ground_population_trajectory",
    "ground_probability",
    "mixture_ground_probabilities",
    "monte_carlo_cosine",
    "pair_exchange_matrix",
    "parity_delta_mixed",
    "parity_times",
    "propagate_effective",
    "propagate_lamb_dicke",
    "rabi_spectrum",
    "symmetric_binomial_amplitudes",
    "vibrational_entropy",
    "von_neumann_entropy",
]
