"""Acceptance suite: one pass/fail line per criterion (run with pytest -s).

Criteria run on the default 50-ion configuration with seed 1. The optimized
schedules and expensive artifacts come from the session fixtures; their wall
times are checked here against the stated budgets.
"""

import numpy as np
import pytest

from ionpulse import (
    RobustnessSweep,
    all_pairs,
    default_offsets,
    entangling_angle_sampled,
    fit_slope,
    integrate_sampled,
    motional_error,
    offset_sweep,
    power_map,
    time_averaged_displacement,
    with_amplitude,
)
from ionpulse.optimizer import REFERENCE_RABI, build_gate_report

from conftest import DEFAULT_PAIR


def _criterion(num, description, ok):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num}: {description}"


def test_criterion_1_equilibrium(chain, timings):
    spacing = chain.spacings
    mean_um = spacing.mean() * 1e6
    variation = (spacing.max() - spacing.min()) / spacing.mean()
    ok = 2.75 <= mean_um <= 3.05 and variation < 0.05 and timings["equilibrium"] < 10.0
    _criterion(
        1,
        f"equilibrium: mean spacing {mean_um:.3f} um in [2.75, 3.05], "
        f"variation {variation * 100:.2f}% < 5%, "
        f"runtime {timings['equilibrium']:.2f} s < 10 s",
        ok,
    )


def test_criterion_2_spectrum(mode_data, cfg, timings):
    lowest_mhz = mode_data.frequencies[0] / (2 * np.pi) / 1e6
    top_rel = abs(mode_data.frequencies[-1] / cfg.omega_x - 1.0)
    gram = mode_data.vectors @ mode_data.vectors.T
    ortho = np.abs(gram - np.eye(mode_data.n_modes)).max()
    ok = (
        2.40 <= lowest_mhz <= 2.50
        and top_rel < 1e-9
        and ortho < 1e-10
        and timings["modes"] < 5.0
    )
    _criterion(
        2,
        f"spectrum: lowest mode {lowest_mhz:.4f} MHz in [2.40, 2.50], "
        f"top mode off by {top_rel:.1e} < 1e-9 relative, "
        f"orthonormality {ortho:.1e} < 1e-10, "
        f"runtime {timings['modes']:.2f} s < 5 s",
        ok,
    )


def _calibrated_error(schedule, mode_data):
    report = build_gate_report(
        schedule, mode_data, *DEFAULT_PAIR, trajectory_modes=()
    )
    return report.motional_error


def test_criterion_3_optimization_shape_a(
    mode_data, base_schedule_a, optimized_a, timings
):
    error = _calibrated_error(optimized_a, mode_data)
    baseline = _calibrated_error(base_schedule_a, mode_data)
    ok = (
        error < 1e-4
        and 1e-4 <= baseline <= 1e-2
        and timings["optimize_a"] < 300.0
    )
    _criterion(
        3,
        f"smooth pulse: calibrated motional error {error:.2e} < 1e-4, "
        f"flat-pattern baseline {baseline:.2e} in [1e-4, 1e-2], "
        f"runtime {timings['optimize_a']:.0f} s < 300 s",
        ok,
    )


def test_criterion_4_optimization_shape_b(mode_data, base_schedule_b, optimized_b):
    error = _calibrated_error(optimized_b, mode_data)
    baseline = _calibrated_error(base_schedule_b, mode_data)
    ok = error < 1e-4 and 1e-3 <= baseline <= 1e-1
    _criterion(
        4,
        f"stepped pulse: calibrated motional error {error:.2e} < 1e-4, "
        f"flat-pattern baseline {baseline:.2e} in [1e-3, 1e-1]",
        ok,
    )


def test_criterion_5_robustness_slopes(mode_data, optimized_a, optimized_b):
    offsets = default_offsets(48)
    slopes = {}
    for label, sched in (("A", optimized_a), ("B", optimized_b)):
        sweep = offset_sweep(sched, mode_data, DEFAULT_PAIR, offsets)
        slopes[label], _ = fit_slope(sweep)
    # synthetic quartic recovery through the same fit path
    synth_offsets = default_offsets(20)
    synth = RobustnessSweep(
        offsets=synth_offsets,
        errors=1e-9 + 1e-22 * synth_offsets**4,
        baseline=1e-9,
    )
    synth_slope, _ = fit_slope(synth)
    ok = (
        slopes["A"] >= 3.5
        and slopes["B"] >= 3.5
        and slopes["A"] >= slopes["B"] - 0.5
        and abs(synth_slope - 4.0) < 1e-3
    )
    _criterion(
        5,
        f"robustness: slopes A {slopes['A']:.2f} and B {slopes['B']:.2f} >= 3.5, "
        f"A >= B - 0.5, synthetic quartic recovered to {abs(synth_slope - 4):.1e}",
        ok,
    )


def test_criterion_6_power_map(chain, mode_data, optimized_a):
    pmap = power_map(optimized_a, mode_data)
    n = mode_data.n_modes
    iu = np.triu_indices(n, k=1)
    values = pmap.omega_max[iu]
    finite = np.all(np.isfinite(values)) and len(values) == len(all_pairs(n))
    lo, hi = 2 * np.pi * 70e3, 2 * np.pi * 800e3
    in_range = np.all(values >= lo) and np.all(values <= hi)
    distances = np.abs(chain.positions[:, None] - chain.positions[None, :])[iu]
    corr = float(np.corrcoef(values, distances)[0, 1])
    edge = np.zeros(n, dtype=bool)
    edge[:5] = edge[-5:] = True
    involves_edge = edge[iu[0]] | edge[iu[1]]
    edge_mean = values[involves_edge].mean()
    central_mean = values[~involves_edge].mean()
    ok = finite and in_range and corr < 0.5 and edge_mean > central_mean
    _criterion(
        6,
        f"power map: {len(values)} pairs finite, range "
        f"[{values.min() / (2 * np.pi) / 1e3:.0f}, {values.max() / (2 * np.pi) / 1e3:.0f}] kHz "
        f"within [70, 800] kHz, distance correlation {corr:.2f} < 0.5, "
        f"edge mean {edge_mean / (2 * np.pi) / 1e3:.0f} kHz > "
        f"central mean {central_mean / (2 * np.pi) / 1e3:.0f} kHz",
        ok,
    )


def test_criterion_7_oracle_equivalence():
    tau = 500e-6
    eta, om = 0.05, 2 * np.pi * 100e3
    delta = 2 * np.pi * 6.3e3  # delta * tau deliberately off any 2 pi multiple
    n = 20_000
    t = np.linspace(0.0, tau, n + 1)
    dx = t[1] - t[0]
    om_s = np.full(n + 1, om)
    d_s = np.full(n + 1, delta)

    alpha = integrate_sampled(om_s, d_s, dx, eta_ik=eta)
    alpha_exact = eta * om * (np.exp(1j * delta * tau) - 1.0) / (1j * delta)
    err_alpha = abs(alpha[-1] - alpha_exact) / abs(alpha_exact)

    z = 1j * delta
    mean_exact = eta * om / z * ((np.exp(z * tau) - 1.0) / (z * tau) - 1.0)
    err_mean = abs(time_averaged_displacement(t, alpha) - mean_exact) / abs(mean_exact)

    beta = entangling_angle_sampled(om_s[::10], d_s[::10], dx * 10, eta, eta)
    beta_exact = 2 * eta * eta * om**2 * (tau / delta - np.sin(delta * tau) / delta**2)
    err_beta = abs(beta - beta_exact) / abs(beta_exact)

    # sideband-expansion error shrinks ~4x when FM amplitudes are halved
    from ionpulse import PulseSchedule, ShapeA, alpha_fourier_approx, integrate_alpha

    rng = np.random.default_rng(21)
    fm = rng.uniform(-2 * np.pi * 90.0, 2 * np.pi * 90.0, 8)
    mu0 = 2 * np.pi * 2.7e6
    omega_k = mu0 - 2 * np.pi * 5e3

    def expansion_error(scale):
        sched = PulseSchedule(
            gate_time=tau, amp_shape=ShapeA(), amp_scale=om,
            mu_ref=mu0, fm_points=scale * fm,
        )
        _, alpha = integrate_alpha(sched, eta, omega_k)
        return abs(alpha_fourier_approx(sched, eta, omega_k) - alpha[-1])

    ratio = expansion_error(1.0) / expansion_error(0.5)
    ok = (
        err_alpha < 1e-8
        and err_mean < 1e-8
        and err_beta < 1e-8
        and 2.5 < ratio < 6.0
    )
    _criterion(
        7,
        f"oracles: closed-form vs quadrature relative errors alpha {err_alpha:.1e}, "
        f"mean {err_mean:.1e}, beta {err_beta:.1e} all < 1e-8; "
        f"sideband-expansion error ratio on halving {ratio:.2f} ~ 4",
        ok,
    )


def test_criterion_8_property_suite(chain, cfg, mode_data, optimized_a, tmp_path):
    from ionpulse import build_transverse_matrix, trap_field, trap_potential
    from ionpulse.cli import main

    z = chain.positions
    mirror = np.abs(z + z[::-1]).max() < 1e-3 * cfg.delta_z

    zz = np.linspace(0.0, 1.1 * cfg.half_length, 400)
    even = np.array_equal(trap_potential(zz, cfg), trap_potential(-zz, cfg))
    odd = np.array_equal(trap_field(zz, cfg), -trap_field(-zz, cfg))

    matrix = build_transverse_matrix(chain, cfg)
    row_sums = np.allclose(matrix.sum(axis=1), cfg.omega_x**2, rtol=1e-12)

    coarse = motional_error(optimized_a, mode_data, *DEFAULT_PAIR, n_intervals=20_000)
    fine = motional_error(optimized_a, mode_data, *DEFAULT_PAIR, n_intervals=40_000)
    grid_ok = abs(fine - coarse) <= 0.01 * max(coarse, 1e-16)

    # end-to-end determinism under a fixed seed, via the CLI on a small chain
    config = tmp_path / "det.ini"
    config.write_text(
        "[trap]\nn_ions = 12\n\n[optimize]\nion_i = 5\nion_j = 6\nseed = 7\n"
        "max_evals = 40000\nn_starts = 1\n\n[analysis]\nalpha_intervals = 4000\n"
        "beta_intervals = 1000\n"
    )
    out = tmp_path / "out"
    assert main(["-c", str(config), "-o", str(out), "optimize", "--recompute"]) == 0
    first = (out / "schedule_A.json").read_bytes()
    assert main(["-c", str(config), "-o", str(out), "optimize", "--recompute"]) == 0
    deterministic = (out / "schedule_A.json").read_bytes() == first

    ok = mirror and even and odd and row_sums and grid_ok and deterministic
    _criterion(
        8,
        f"properties: mirror symmetry {mirror}, even potential {even}, "
        f"odd field {odd}, matrix row sums {row_sums}, "
        f"2x grid refinement within 1% {grid_ok}, "
        f"seeded rerun byte-identical {deterministic}",
        ok,
    )
