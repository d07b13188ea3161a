"""End-to-end acceptance battery.

One test per shipped guarantee, each printing a single summary line with
every sub-check and its measured value.  Tolerances are fixed here and do
not adapt to the implementation.
"""

import numpy as np

from ionparity import (
    FluctuationModel,
    cli,
    delta_from_efficiency,
    ground_probability,
    parity_delta_mixed,
    parity_times,
    vibrational_entropy,
)
from ionparity import checks

LN2 = np.log(2.0)
G = 1e5


def _report(name: str, entries: list[tuple[str, bool, str]]) -> None:
    status = "PASS" if all(ok for _, ok, _ in entries) else "FAIL"
    detail = "; ".join(f"{label}[{info}]={'ok' if ok else 'FAIL'}" for label, ok, info in entries)
    print(f"[acceptance] {name}: {status} :: {detail}")
    failed = [f"{label} ({info})" for label, ok, info in entries if not ok]
    assert not failed, f"{name}: " + "; ".join(failed)


def test_criterion_1_closed_form_matches_propagator():
    results = checks.closed_form_vs_propagator(seed=20260809, times_per_n=50)
    entries = [
        (r.name.rsplit("_", 1)[-1], r.passed, f"max_err={r.measured:.2e}<=1e-8")
        for r in results
    ]
    _report("1 oracle equivalence (N=1..6, 50 random times)", entries)


def test_criterion_2_norm_and_entropy_invariants():
    norm = checks.norm_conservation(seed=20260809)
    entropy = checks.entropy_matches_reduced_density(seed=20260809)
    entries = [
        ("norm", norm.passed, f"max_drift={norm.measured:.2e}<=1e-12"),
        ("entropy", entropy.passed, f"max_err={entropy.measured:.2e}<=1e-10"),
    ]
    _report("2 norm and entropy invariants", entries)


def test_criterion_3_parity_effect_ideal_case():
    t_compare = parity_times(9, G).comparison_time
    p9 = ground_probability(9, G, t_compare)
    p10 = ground_probability(10, G, t_compare)
    s9 = vibrational_entropy(9, G, t_compare)
    s10 = vibrational_entropy(10, G, t_compare)
    delta_p = parity_delta_mixed(9, None, FluctuationModel(g_mean=G, tau=0.0), t_compare)

    # same observables from the independent propagator route
    oracle = checks.closed_form_vs_propagator(
        seed=20260809, n_range=(9, 10), times_per_n=25, g=G
    )
    oracle_err = max(r.measured for r in oracle)

    entries = [
        ("P9", p9 >= 0.9, f"{p9:.4f}>=0.9"),
        ("S9", s9 <= 0.2 * LN2, f"{s9 / LN2:.4f}ln2<=0.2ln2"),
        ("P10", abs(p10 - 0.5) <= 0.05, f"|{p10:.4f}-0.5|<=0.05"),
        ("S10", s10 >= 0.95 * LN2, f"{s10 / LN2:.4f}ln2>=0.95ln2"),
        ("dP9", 0.4 <= delta_p <= 0.5, f"{delta_p:.4f}in[0.4,0.5]"),
        ("oracle", oracle_err <= 1e-8, f"{oracle_err:.2e}<=1e-8"),
    ]
    _report("3 parity effect, ideal case (N=9 vs 10)", entries)


def _half_contrast_tau(t_compare: float, ideal: float) -> float:
    low, high = 1e-10, 1e-6
    for _ in range(80):
        mid = np.sqrt(low * high)
        value = parity_delta_mixed(9, None, FluctuationModel(g_mean=G, tau=mid), t_compare)
        if value / ideal > 0.5:
            low = mid
        else:
            high = mid
    return float(np.sqrt(low * high))


def test_criterion_4_visibility_vs_fluctuation_strength():
    t_compare = parity_times(9, G).comparison_time
    ideal = parity_delta_mixed(9, None, FluctuationModel(g_mean=G, tau=0.0), t_compare)
    taus = np.logspace(-9.0, -7.0, 41)
    curve = np.array(
        [parity_delta_mixed(9, None, FluctuationModel(g_mean=G, tau=float(tau)), t_compare)
         for tau in taus]
    )
    monotone = bool(np.all(np.diff(curve) <= 1e-12))
    frac_low = curve[0] / ideal
    frac_high = curve[-1] / ideal
    tau_half = _half_contrast_tau(t_compare, ideal)

    entries = [
        ("monotone", monotone, f"max_rise={np.max(np.diff(curve)):.1e}"),
        ("low_tau", frac_low >= 0.8, f"dP(1e-9)/ideal={frac_low:.4f}>=0.8"),
        ("high_tau", frac_high <= 0.1, f"dP(1e-7)/ideal={frac_high:.4f}<=0.1"),
        (
            "half_contrast",
            1.5e-8 <= tau_half <= 6e-8,
            f"tau_half={tau_half:.3e} in [1.5e-8,6e-8]",
        ),
    ]
    _report("4 visibility vs fluctuation strength (N=9, g=1e5)", entries)


def test_criterion_5_visibility_vs_preparation_efficiency():
    t_compare = parity_times(9, G).comparison_time
    ideal = parity_delta_mixed(9, None, FluctuationModel(g_mean=G, tau=0.0), t_compare)
    model = FluctuationModel(g_mean=G, tau=1e-8)
    attenuated = parity_delta_mixed(9, delta_from_efficiency(0.9), model, t_compare)
    attenuation = 1.0 - attenuated / ideal

    entries = [
        (
            "attenuation_0.9_1e-8",
            0.30 <= attenuation <= 0.50,
            f"1-dP/ideal={attenuation:.4f} in [0.30,0.50]",
        )
    ]
    etas = np.round(np.arange(1, 21) * 0.05, 10)
    for tau in (1e-9, 1e-8, 1e-7):
        tau_model = FluctuationModel(g_mean=G, tau=tau)
        values = [
            parity_delta_mixed(
                9,
                None if eta >= 1.0 else delta_from_efficiency(float(eta)),
                tau_model,
                t_compare,
            )
            for eta in etas
        ]
        drops = np.diff(values)
        entries.append(
            (
                f"monotone_tau={tau:.0e}",
                bool(np.all(drops >= -1e-12)),
                f"min_step={np.min(drops):.1e}",
            )
        )
    _report("5 visibility vs preparation efficiency (N=9)", entries)


def test_criterion_6_averaging_kernels():
    analytic = checks.gamma_vs_gaussian()
    sampled = checks.monte_carlo_vs_gamma(seed=0)
    entries = [
        (
            "gamma_vs_gaussian",
            analytic.passed,
            f"max_rel_err={analytic.measured:.2e}<=0.01 for t/tau>=1e3",
        ),
        (
            "monte_carlo",
            sampled.passed,
            f"max_pull={sampled.measured:.2f}<=3se on 5x5 grid",
        ),
    ]
    _report("6 averaging kernels", entries)


def test_criterion_7_drive_expansion_converges_to_pair_exchange():
    # ratios nu/omega, span in units of 1/g and sample count of the --full suite,
    # expanded to order 3 from the N = 2 binomial state
    assert checks.RWA_SUITES[True] == ((50.0, 100.0, 200.0), 1.0, 10)
    assert checks.RWA_ORDER == 3
    result = checks.rwa_deviation_decreases(full=True)
    entries = [
        (
            "deviation_decreases",
            result.passed,
            f"{result.detail}; worst successive ratio {result.measured:.3f}<1",
        )
    ]
    _report("7 drive expansion converges to the pair-exchange model", entries)


def test_criterion_8_byte_identical_reruns(tmp_path):
    specs = [
        (
            "tau-sweep-mc",
            [
                "tau-sweep", "--mode", "mc", "--mc-samples", "5000", "--tau-steps", "5",
                "--seed", "7",
            ],
        ),
        ("dynamics-json", ["dynamics", "--t-steps", "101", "--format", "json"]),
        (
            "eta-sweep",
            ["eta-sweep", "--tau", "1e-9", "1e-8", "--eta-steps", "5"],
        ),
    ]
    entries = []
    for label, args in specs:
        out = tmp_path / f"{label}.dat"
        assert cli.main(args + ["--out", str(out)]) == 0
        first = out.read_bytes()
        assert cli.main(args + ["--out", str(out)]) == 0
        identical = out.read_bytes() == first
        entries.append((label, identical, f"{len(first)}B"))
    _report("8 determinism: byte-identical reruns", entries)
