import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ionpulse import (
    BudgetExhausted,
    DegeneratePair,
    IonCrystal,
    OptimizationProblem,
    PulseSchedule,
    ShapeA,
    TrapConfig,
    build_gate_report,
    build_transverse_matrix,
    calibrate_power,
    cost,
    default_mu_ref,
    entangling_angle,
    integrate_alpha,
    motional_error,
    nearest_modes,
    optimize,
    solve_modes,
    with_amplitude,
)
from ionpulse.modes import most_uniform_mode
from ionpulse.optimizer import REFERENCE_RABI, _Objective, phase_basis, resolve_target_modes
from ionpulse.pulse import amplitude, drive_frequency
from ionpulse.quadrature import cumulative_simpson, simpson

from conftest import DEFAULT_PAIR, make_base_schedule, make_problem


def test_default_mu_ref_uses_uniform_mode(mode_data):
    k = most_uniform_mode(mode_data)
    assert default_mu_ref(mode_data) == pytest.approx(
        mode_data.frequencies[k - 1] - 2 * np.pi * 3.7e3, rel=1e-15
    )


def test_nearest_modes_default_window(mode_data, base_schedule_a):
    targets = nearest_modes(mode_data, base_schedule_a.mu_ref, 10)
    assert len(targets) == 10
    k = most_uniform_mode(mode_data)
    assert k in targets
    # a contiguous block around the drive
    assert list(targets) == list(range(min(targets), max(targets) + 1))


def test_cost_zero_amplitude(mode_data):
    sched = make_base_schedule(mode_data, ShapeA())
    problem = OptimizationProblem(
        base_schedule=sched, modes=mode_data, ion_pair=DEFAULT_PAIR,
        reference_amplitude=0.0,
    )
    assert cost(problem, np.zeros(8)) == 0.0
    rng = np.random.default_rng(8)
    assert cost(problem, rng.uniform(-2e3, 2e3, 8)) == 0.0


def test_cost_matches_manual_composition(mode_data, base_schedule_a):
    from ionpulse import time_averaged_displacement

    problem = make_problem(mode_data, base_schedule_a)
    rng = np.random.default_rng(4)
    fm = rng.uniform(-2 * np.pi * 1e3, 2 * np.pi * 1e3, 8)
    got = cost(problem, fm)
    sched = with_amplitude(base_schedule_a, REFERENCE_RABI)
    sched = PulseSchedule(
        gate_time=sched.gate_time, amp_shape=sched.amp_shape,
        amp_scale=sched.amp_scale, mu_ref=sched.mu_ref, fm_points=fm,
    )
    total = 0.0
    for k in resolve_target_modes(problem):
        for ion in DEFAULT_PAIR:
            traj = integrate_alpha(
                sched, mode_data.eta[ion - 1, k - 1], mode_data.frequencies[k - 1]
            )
            total += abs(time_averaged_displacement(traj)) ** 2
    assert got == pytest.approx(total, rel=1e-7)


def test_cost_time_reversal_invariant(mode_data, base_schedule_a):
    # the schedule equals its own time reversal; evaluating the averages on
    # reversed samples reproduces the cost
    problem = make_problem(mode_data, base_schedule_a)
    rng = np.random.default_rng(6)
    fm = rng.uniform(-2 * np.pi * 1e3, 2 * np.pi * 1e3, 8)
    sched = PulseSchedule(
        gate_time=base_schedule_a.gate_time, amp_shape=base_schedule_a.amp_shape,
        amp_scale=REFERENCE_RABI, mu_ref=base_schedule_a.mu_ref, fm_points=fm,
    )
    tau = sched.gate_time
    t = np.linspace(0.0, tau, 20001)
    dx = t[1] - t[0]
    w = np.ones(20001)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= dx / 3.0
    total = 0.0
    for k in resolve_target_modes(problem):
        omega_k = mode_data.frequencies[k - 1]
        om_rev = amplitude(t, sched)[::-1]
        delta_rev = (drive_frequency(t, sched) - omega_k)[::-1]
        theta = cumulative_simpson(delta_rev, dx)
        alpha = cumulative_simpson(om_rev * np.exp(1j * theta), dx)
        avg = (alpha @ w) / tau
        weight = mode_data.eta[24, k - 1] ** 2 + mode_data.eta[25, k - 1] ** 2
        total += weight * abs(avg) ** 2
    assert cost(problem, fm) == pytest.approx(total, rel=1e-7)


def test_phase_basis_reproduces_drive_phase(base_schedule_a):
    t = np.linspace(0.0, base_schedule_a.gate_time, 20001)
    dx = t[1] - t[0]
    basis = phase_basis(base_schedule_a, t)
    reference = cumulative_simpson(np.full(t.shape, base_schedule_a.mu_ref), dx)
    rng = np.random.default_rng(11)
    for _ in range(3):
        fm = rng.uniform(-2 * np.pi * 5e3, 2 * np.pi * 5e3, 8)
        sched = replace(base_schedule_a, fm_points=fm)
        direct = cumulative_simpson(drive_frequency(t, sched), dx)
        assert np.abs(reference + fm @ basis - direct).max() <= 1e-8


def test_jacobian_matches_finite_difference(mode_data, base_schedule_a):
    objective = _Objective(make_problem(mode_data, base_schedule_a))
    rng = np.random.default_rng(12)
    fm = rng.uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8)
    _, jac = objective(fm)
    h = 2 * np.pi * 0.01
    numeric = np.empty_like(jac)
    for d in range(8):
        bump = np.zeros(8)
        bump[d] = h
        numeric[:, d] = (objective(fm + bump)[0] - objective(fm - bump)[0]) / (2 * h)
    assert np.abs(jac - numeric).max() <= 1e-6 * np.abs(jac).max()


def test_optimization_reduces_cost(mode_data, base_schedule_a, optimized_a):
    problem = make_problem(mode_data, base_schedule_a)
    before = cost(problem, np.zeros(8))
    after = cost(problem, optimized_a.fm_points)
    assert after < before * 1e-3


def test_optimizer_determinism(mode_data):
    # bit-identical turning points for identical (problem, seed)
    toy = toy_problem()
    a = optimize(toy)
    b = optimize(toy)
    np.testing.assert_array_equal(a.fm_points, b.fm_points)


def test_optimizer_blas_threads_invariant():
    # turning points must not depend on how many threads BLAS reductions use
    root = Path(__file__).resolve().parent
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root.parent / 'src')!r}, {str(root)!r}]\n"
        "from test_optimizer import toy_problem\n"
        "from ionpulse import optimize\n"
        "sys.stdout.write(optimize(toy_problem()).fm_points.tobytes().hex())\n"
    )
    results = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, check=True, timeout=300,
        )
        results.append(proc.stdout)
    assert results[0] and results[0] == results[1]


def toy_problem(seed=3):
    cfg = TrapConfig(n_ions=2, delta_z=5e-6)
    crystal = IonCrystal(
        positions=np.array([-2.5e-6, 2.5e-6]), residual_force=0.0, iterations=0
    )
    modes = solve_modes(build_transverse_matrix(crystal, cfg), cfg)
    sched = PulseSchedule(
        gate_time=300e-6,
        amp_shape=ShapeA(),
        amp_scale=REFERENCE_RABI,
        mu_ref=modes.frequencies[0] - 2 * np.pi * 5e3,
        fm_points=np.zeros(8),
    )
    return OptimizationProblem(
        base_schedule=sched, modes=modes, ion_pair=(1, 2),
        target_modes=(1,), seed=seed, n_starts=2,
    )


def test_toy_single_mode_closes_trajectory():
    # near-resonant single-mode toy: a closed trajectory exists, and the
    # optimizer should find it to high precision
    problem = toy_problem()
    optimized = optimize(problem)
    modes = problem.modes

    def endpoint(s):
        return abs(integrate_alpha(s, modes.eta[0, 0], modes.frequencies[0]).endpoint)

    flat = endpoint(problem.base_schedule)
    assert endpoint(optimized) < 1e-6 * flat


def test_optimized_fm_amplitude_small(optimized_a, optimized_b):
    # the reported oscillation amplitude scale is ~2 kHz; the seed-1 smooth
    # pulse lands at 2.45 kHz. The stepped pulse's best basin sits higher
    # (4.0 kHz) with this plateau geometry, still well under the 10 kHz cap
    # and the 16 kHz sideband splitting
    assert np.abs(optimized_a.fm_points).max() <= 2 * np.pi * 2.5e3
    assert np.abs(optimized_b.fm_points).max() <= 2 * np.pi * 6e3


def test_optimized_error_below_threshold(mode_data, optimized_a):
    assert motional_error(optimized_a, mode_data, *DEFAULT_PAIR) < 1e-4


def test_optimized_cost_is_local_minimum(mode_data, base_schedule_a, optimized_a):
    problem = make_problem(mode_data, base_schedule_a)
    best = cost(problem, optimized_a.fm_points)
    bump = 2 * np.pi * 50.0
    for d in range(8):
        for sign in (1.0, -1.0):
            fm = optimized_a.fm_points.copy()
            fm[d] += sign * bump
            assert cost(problem, fm) >= best


def test_endpoint_suppression_on_targets(mode_data, base_schedule_a, optimized_a):
    # minimizing time-averaged displacement also suppresses the endpoints:
    # at least 100x below the flat baseline over the target modes
    problem = make_problem(mode_data, base_schedule_a)
    targets = resolve_target_modes(problem)

    def target_endpoint_error(sched):
        total = 0.0
        for k in targets:
            for ion in DEFAULT_PAIR:
                traj = integrate_alpha(
                    sched, mode_data.eta[ion - 1, k - 1], mode_data.frequencies[k - 1]
                )
                total += abs(traj.endpoint) ** 2
        return total

    flat = target_endpoint_error(with_amplitude(base_schedule_a, REFERENCE_RABI))
    opt = target_endpoint_error(with_amplitude(optimized_a, REFERENCE_RABI))
    assert opt < flat / 100.0


def test_budget_exhausted(mode_data, base_schedule_a):
    problem = OptimizationProblem(
        base_schedule=base_schedule_a, modes=mode_data,
        ion_pair=DEFAULT_PAIR, max_evals=40, seed=0, n_starts=1,
    )
    seen = []
    with pytest.raises(BudgetExhausted) as info:
        optimize(problem, callback=lambda _n, c, _x: seen.append(c))
    assert info.value.best_fm_points is not None
    assert len(seen) == 40
    assert info.value.best_cost == min(seen)


def test_calibrate_power_amplitude_invariant(mode_data, optimized_a):
    base = calibrate_power(optimized_a, mode_data, *DEFAULT_PAIR)
    doubled = calibrate_power(
        with_amplitude(optimized_a, 2 * optimized_a.amp_scale),
        mode_data, *DEFAULT_PAIR,
    )
    assert doubled == pytest.approx(base, rel=1e-12)


def test_calibrated_beta_is_quarter_pi(mode_data, optimized_a):
    omega_max = calibrate_power(optimized_a, mode_data, *DEFAULT_PAIR)
    beta = entangling_angle(
        with_amplitude(optimized_a, omega_max), mode_data, *DEFAULT_PAIR
    )
    assert abs(beta) == pytest.approx(np.pi / 4, rel=1e-6)


def test_degenerate_pair_raises(mode_data, optimized_a):
    with pytest.raises(DegeneratePair):
        calibrate_power(with_amplitude(optimized_a, 0.0), mode_data, *DEFAULT_PAIR)


def test_gate_report(mode_data, optimized_a):
    report = build_gate_report(optimized_a, mode_data, *DEFAULT_PAIR)
    assert report.pair == DEFAULT_PAIR
    assert abs(report.beta) == pytest.approx(np.pi / 4, rel=1e-6)
    assert report.motional_error < 1e-4
    assert len(report.trajectories) == mode_data.n_modes
    assert report.trajectories[0].mode == 1
    # error equals the recomputed metric at the calibrated amplitude
    recomputed = motional_error(
        with_amplitude(optimized_a, report.omega_max), mode_data, *DEFAULT_PAIR
    )
    assert report.motional_error == pytest.approx(recomputed, rel=1e-12)
    calibrated = with_amplitude(optimized_a, report.omega_max)
    for k, traj in enumerate(report.trajectories):
        alone = integrate_alpha(
            calibrated, mode_data.eta[DEFAULT_PAIR[0] - 1, k], mode_data.frequencies[k],
            mode=k + 1,
        )
        assert traj.mode == alone.mode
        for name in ("times", "alpha", "phase"):
            np.testing.assert_array_equal(getattr(traj, name), getattr(alone, name))


def test_problem_validation(mode_data, base_schedule_a):
    with pytest.raises(ValueError):
        OptimizationProblem(
            base_schedule=base_schedule_a, modes=mode_data, ion_pair=(3, 3)
        )
    with pytest.raises(ValueError):
        OptimizationProblem(
            base_schedule=base_schedule_a, modes=mode_data, ion_pair=(0, 5)
        )
    with pytest.raises(ValueError):
        OptimizationProblem(
            base_schedule=base_schedule_a, modes=mode_data,
            ion_pair=DEFAULT_PAIR, target_modes=(0,),
        )
