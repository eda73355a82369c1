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
    ShapeB,
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
    solve_equilibrium,
    solve_modes,
    with_amplitude,
)
from ionpulse.modes import most_uniform_mode
from ionpulse.optimizer import REFERENCE_RABI, RULE_TOL, _Objective, resolve_target_modes
from ionpulse.trajectory import (
    DEFAULT_ALPHA_INTERVALS,
    DEFAULT_BETA_INTERVALS,
    DEFAULT_TRAJECTORY_SAMPLES,
    mode_trajectories,
)
from ionpulse.pulse import (
    amplitude,
    breakpoints,
    drive_frequency,
    fm_phase_closed_form,
    load_schedule,
    phase_basis,
    save_schedule,
    saved_form,
)
from ionpulse.quadrature import cumulative_simpson, gauss_legendre_panels, simpson

from conftest import DEFAULT_PAIR, cold, make_problem, traced_peak


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
            times, alpha = integrate_alpha(
                sched, mode_data.eta[ion - 1, k - 1], mode_data.frequencies[k - 1]
            )
            total += abs(time_averaged_displacement(times, alpha)) ** 2
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
    reference = base_schedule_a.mu_ref * t
    rng = np.random.default_rng(11)
    for _ in range(3):
        fm = rng.uniform(-2 * np.pi * 5e3, 2 * np.pi * 5e3, 8)
        sched = replace(base_schedule_a, fm_points=fm)
        direct = cumulative_simpson(drive_frequency(t, sched), dx)
        # the closed-form basis against the running Simpson integral of mu(t) on the
        # 20,001-sample grid: 1.9e-10 rad apart at most (x86-64), the O(h^3) phase error
        # of the Simpson rule plus the rounding of its ~8.5e3 rad running sum
        assert np.abs(reference + fm @ basis - direct).max() <= 5e-10


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


def test_objective_forms_no_modes_x_samples_array(mode_data, base_schedule_a):
    # it keeps the phase basis, one buffer of 1 + n_oscillations drives and one
    # nodes x modes matrix on the panel rule's 504 nodes (185 kB together); building it
    # and one evaluation peaked at 319 kB (x86-64). The time-average rows of the 10
    # target modes on the 20,001-sample grid would be 3.2 MB on their own
    problem = make_problem(mode_data, base_schedule_a)
    fm = np.random.default_rng(13).uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8)

    def build_and_evaluate():
        objective = _Objective(problem)
        objective(fm)
        return objective

    objective, peak = traced_peak(build_and_evaluate)
    assert objective.phasors.shape == (objective.nodes, 10)
    assert objective.nodes < 1000
    kept = objective.basis.nbytes + objective.drives.nbytes + objective.phasors.nbytes
    assert peak <= kept + 2**18


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
    np.testing.assert_array_equal(a.schedule.fm_points, b.schedule.fm_points)
    assert a.costs == b.costs


def test_optimizer_blas_threads_invariant():
    # turning points must not depend on how many threads BLAS reductions use
    root = Path(__file__).resolve().parent
    script = (
        "import sys\n"
        f"sys.path[:0] = [{str(root.parent / 'src')!r}, {str(root)!r}]\n"
        "from test_optimizer import toy_problem\n"
        "from ionpulse import optimize\n"
        "sys.stdout.write(optimize(toy_problem()).schedule.fm_points.tobytes().hex())\n"
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
    optimized = optimize(problem).schedule
    modes = problem.modes

    def endpoint(s):
        _, alpha = integrate_alpha(s, modes.eta[0, 0], modes.frequencies[0])
        return abs(alpha[-1])

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
                _, alpha = integrate_alpha(
                    sched, mode_data.eta[ion - 1, k - 1], mode_data.frequencies[k - 1]
                )
                total += abs(alpha[-1]) ** 2
        return total

    flat = target_endpoint_error(with_amplitude(base_schedule_a, REFERENCE_RABI))
    opt = target_endpoint_error(with_amplitude(optimized_a, REFERENCE_RABI))
    assert opt < flat / 100.0


def test_budget_exhausted(mode_data, base_schedule_a):
    problem = OptimizationProblem(
        base_schedule=base_schedule_a, modes=mode_data,
        ion_pair=DEFAULT_PAIR, max_evals=30, seed=0, n_starts=1,
    )
    with pytest.raises(BudgetExhausted) as info:
        optimize(problem)
    result = info.value.result
    assert np.any(result.schedule.fm_points != 0.0)
    assert len(result.costs) == 30
    assert result.final_cost == min(result.costs)


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
    assert report.trajectory_modes.tolist() == list(range(1, mode_data.n_modes + 1))
    assert report.trajectory_modes.dtype == np.int64
    # error equals the recomputed metric at the calibrated amplitude
    recomputed = motional_error(
        with_amplitude(optimized_a, report.omega_max), mode_data, *DEFAULT_PAIR
    )
    assert report.motional_error == recomputed
    calibrated = with_amplitude(optimized_a, report.omega_max)
    assert report.trajectories.shape == (mode_data.n_modes, DEFAULT_TRAJECTORY_SAMPLES)
    for arr in (report.trajectory_modes, report.trajectory_times, report.trajectories):
        assert not arr.flags.writeable
    for k, row in enumerate(report.trajectories):
        times, (alone,) = mode_trajectories(
            calibrated, [mode_data.frequencies[k]], [mode_data.eta[DEFAULT_PAIR[0] - 1, k]],
            samples=DEFAULT_TRAJECTORY_SAMPLES,
        )
        np.testing.assert_array_equal(report.trajectory_times, times)
        np.testing.assert_array_equal(row, alone)


def test_gate_report_stores_the_written_rows(mode_data, optimized_a):
    # every mode traced on the default chain: 2,001 rows each (1.6 MB) instead
    # of the 20,001-sample grid the running integrals are taken on (16 MB). The
    # kernels' memo is cleared inside the measured call, so its grid inputs count
    report, peak = traced_peak(cold(lambda: build_gate_report(optimized_a, mode_data, *DEFAULT_PAIR)))
    assert report.trajectories.shape == (mode_data.n_modes, 2001)
    assert report.trajectory_times.shape == (2001,)
    assert peak < 4e6


def test_gate_report_traces_selected_modes(mode_data, optimized_a):
    full = build_gate_report(optimized_a, mode_data, *DEFAULT_PAIR, alpha_intervals=4000)
    some = build_gate_report(
        optimized_a, mode_data, *DEFAULT_PAIR, alpha_intervals=4000, trajectory_modes=(30, 2),
    )
    assert some.trajectory_modes.tolist() == [30, 2]
    assert some.trajectory_times.tobytes() == full.trajectory_times.tobytes()
    assert some.trajectories.tobytes() == full.trajectories[[29, 1]].tobytes()
    assert some.mode_errors == full.mode_errors
    with pytest.raises(ValueError):
        build_gate_report(optimized_a, mode_data, *DEFAULT_PAIR, trajectory_modes=(0,))


def test_gate_report_mode_errors_sum_to_error(mode_data, optimized_a):
    report = build_gate_report(optimized_a, mode_data, *DEFAULT_PAIR, trajectory_modes=())
    assert len(report.mode_errors) == mode_data.n_modes
    assert sum(report.mode_errors) == pytest.approx(report.motional_error, rel=1e-12)
    direct = motional_error(with_amplitude(optimized_a, report.omega_max), mode_data, *DEFAULT_PAIR)
    assert report.motional_error == direct


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


def test_problem_refuses_a_repeated_target_mode(mode_data, base_schedule_a):
    # the cost would count mode 7 twice
    with pytest.raises(ValueError, match="target mode 7 is given twice"):
        OptimizationProblem(
            base_schedule=base_schedule_a, modes=mode_data,
            ion_pair=DEFAULT_PAIR, target_modes=(7, 3, 7),
        )


def test_gate_report_evaluates_the_angle_once(mode_data, base_schedule_a, monkeypatch):
    import ionpulse.optimizer as opt

    calls = []
    real = opt.entangling_angle

    def counted(*args, **kwargs):
        calls.append(args[0].amp_scale)
        return real(*args, **kwargs)

    monkeypatch.setattr(opt, "entangling_angle", counted)
    report = build_gate_report(
        base_schedule_a, mode_data, *DEFAULT_PAIR, trajectory_modes=()
    )
    assert calls == [base_schedule_a.amp_scale]
    # the scaled angle is the angle evaluated at the calibrated amplitude, up to rounding
    direct = real(with_amplitude(base_schedule_a, report.omega_max), mode_data, *DEFAULT_PAIR)
    assert report.beta == pytest.approx(direct, rel=1e-12)
    assert report.omega_max == calibrate_power(base_schedule_a, mode_data, *DEFAULT_PAIR)


def test_one_calibration_rule_for_a_pair_and_a_map():
    # calibrate_power and the power map share calibrated_amplitudes: amp sqrt((pi/4) / |beta|)
    # per angle, bitwise the scalar rule, and NaN below DEGENERATE_BETA
    from ionpulse.optimizer import DEGENERATE_BETA, _calibrated_amplitude, calibrated_amplitudes

    rng = np.random.default_rng(31)
    amp = 2 * np.pi * rng.uniform(1e3, 1e6)
    betas = np.concatenate([rng.uniform(-1.0, 1.0, 200) * 10.0 ** rng.integers(-11, 1, 200),
                            [0.0, -0.5 * DEGENERATE_BETA, DEGENERATE_BETA]])
    omega_max, degenerate = calibrated_amplitudes(amp, betas)
    np.testing.assert_array_equal(degenerate, np.abs(betas) < DEGENERATE_BETA)
    assert np.isnan(omega_max[degenerate]).all()
    sched = PulseSchedule(gate_time=500e-6, amp_shape=ShapeA(), amp_scale=amp, mu_ref=2 * np.pi * 2.7e6)
    for beta, omega, flat in zip(betas, omega_max, degenerate):
        if flat:
            with pytest.raises(DegeneratePair):
                _calibrated_amplitude(sched, float(beta), 1, 2)
        else:
            scalar = float(amp * np.sqrt((np.pi / 4.0) / abs(float(beta))))
            assert _calibrated_amplitude(sched, float(beta), 1, 2) == scalar == omega


def test_gate_report_builds_its_drive_once(mode_data, optimized_a, monkeypatch):
    # the unit drive on the 20,001-sample grid feeds both the calibrated gate-end
    # errors and the trajectories; the angle takes its own 2,001-sample grid. A
    # report for another pair of the same schedule builds neither again
    import ionpulse.trajectory as traj

    grids = []
    real = traj.fm_phase_closed_form

    def counted(t, sched):
        grids.append(len(t))
        return real(t, sched)

    monkeypatch.setattr(traj, "fm_phase_closed_form", counted)
    monkeypatch.setattr(traj, "_memo", {})
    report = build_gate_report(optimized_a, mode_data, *DEFAULT_PAIR)
    assert len(report.trajectories) == mode_data.n_modes
    assert sorted(grids) == [2001, 20001]
    build_gate_report(optimized_a, mode_data, 3, 40)
    assert sorted(grids) == [2001, 20001]


def test_gate_reports_of_two_patterns_at_one_mu_ref_build_the_tables_once(
        mode_data, optimized_a, optimized_b, monkeypatch):
    # the detuning tables read mu_ref - omega_k and the gate time, not the pattern:
    # reports on schedules A and B build them once per grid
    import ionpulse.trajectory as traj

    assert optimized_a.mu_ref == optimized_b.mu_ref
    grids = []
    real = traj._phasor_tables

    def counted(freqs, tau, n_intervals):
        grids.append(n_intervals)
        return real(freqs, tau, n_intervals)

    monkeypatch.setattr(traj, "_phasor_tables", counted)
    monkeypatch.setattr(traj, "_memo", {})
    for sched in (optimized_a, optimized_b):
        build_gate_report(sched, mode_data, *DEFAULT_PAIR)
    assert sorted(grids) == [DEFAULT_BETA_INTERVALS, DEFAULT_ALPHA_INTERVALS]


def test_phase_basis_built_once_per_optimize(mode_data, base_schedule_a, monkeypatch):
    # only the optimizer's objective needs the basis, once per panel rule: on the
    # default chain, the first rule and the doubled rule of its checks (no start
    # needs a refinement there). Every evaluation path takes the closed form itself
    import ionpulse.optimizer as opt
    import ionpulse.pulse as pulse
    from ionpulse.analysis import offset_sweep, power_map

    calls = []
    real = pulse.phase_basis

    def counted(*args, **kwargs):
        calls.append(args[0].n_oscillations)
        return real(*args, **kwargs)

    monkeypatch.setattr(pulse, "phase_basis", counted)
    monkeypatch.setattr(opt, "phase_basis", counted)
    problem = OptimizationProblem(
        base_schedule=base_schedule_a, modes=mode_data, ion_pair=DEFAULT_PAIR,
        seed=2, n_starts=2,
    )
    sched = optimize(problem).schedule
    assert calls == [8, 8]
    calls.clear()
    motional_error(sched, mode_data, *DEFAULT_PAIR, n_intervals=4000)
    offset_sweep(sched, mode_data, DEFAULT_PAIR, n_intervals=4000)
    build_gate_report(sched, mode_data, *DEFAULT_PAIR, alpha_intervals=4000)
    power_map(sched, mode_data, pairs=[DEFAULT_PAIR, (1, 50)])
    assert calls == []


@pytest.fixture(scope="module")
def ci_modes():
    """The CI pipeline's 12-ion chain."""
    cfg = TrapConfig(n_ions=12)
    return solve_modes(build_transverse_matrix(solve_equilibrium(cfg), cfg), cfg)


def ci_problem(modes, shape):
    """The CI pipeline's problem (pair 5, 6; seed 3; one start), whose target modes
    reach |mu_ref - omega_k| tau = 862 rad."""
    base = PulseSchedule(
        gate_time=500e-6, amp_shape=shape, amp_scale=REFERENCE_RABI,
        mu_ref=default_mu_ref(modes), fm_points=np.zeros(8),
    )
    return OptimizationProblem(base_schedule=base, modes=modes, ion_pair=(5, 6), seed=3, n_starts=1)


def reference_cost(problem, fm_points):
    """The cost from its definition, on Gauss panels far finer than the objective's:
    96 panels of 16 nodes between neighbouring breakpoints (and the gate's ends),
    under 0.7 rad each here."""
    sched = replace(with_amplitude(problem.base_schedule, REFERENCE_RABI), fm_points=fm_points)
    edges = np.union1d(breakpoints(sched), [0.0, sched.gate_time])
    t, w = gauss_legendre_panels(
        edges, np.full(len(edges) - 1, 96), 16, isinstance(sched.amp_shape, ShapeA)
    )
    idx = np.array(resolve_target_modes(problem)) - 1
    theta = np.outer(t, sched.mu_ref - problem.modes.frequencies[idx])
    theta += fm_phase_closed_form(t, sched)[:, None]
    averages = (w * (1.0 - t / sched.gate_time) * amplitude(t, sched)) @ np.exp(1j * theta)
    i, j = problem.ion_pair
    weights = problem.modes.eta[i - 1, idx] ** 2 + problem.modes.eta[j - 1, idx] ** 2
    return float(weights @ np.abs(averages) ** 2)


def test_rule_converges_on_the_ci_config(ci_modes):
    # a rule held at 336 nodes ends this start at an own cost of 1.15e-8, 54% off its
    # cost on the reference rule. The rule of 1,344 nodes ends 9e-10 of the cost from
    # its doubling and 1e-9 from the reference (x86-64)
    problem = ci_problem(ci_modes, ShapeA())
    run = optimize(problem)
    own = run.final_cost
    assert isinstance(run.rule_nodes, int) and run.rule_nodes > 0
    assert 0.0 <= run.rule_gap <= RULE_TOL
    assert abs(reference_cost(problem, run.schedule.fm_points) - own) <= RULE_TOL * own


def test_coarse_rule_is_refined(ci_modes, monkeypatch):
    # one panel per breakpoint interval (240 nodes for shape B) fails the check
    # against the doubled rule, and the start goes on with the finer rule until it passes
    import ionpulse.optimizer as opt

    problem = ci_problem(ci_modes, ShapeB())
    monkeypatch.setattr(opt, "PANEL_RADIANS", 1e9)
    assert _Objective(problem).nodes == 240
    run = optimize(problem)
    assert run.rule_nodes > 240 and run.rule_gap <= RULE_TOL
    # the reported cost is the schedule's on the accepted rule (to the rounding of the
    # residuals' sum), whatever the rejected coarse rule's costs in the trace were
    own, fm = run.final_cost, run.schedule.fm_points
    accepted = _Objective(problem, rule_sub_panels(problem, run.rule_nodes))
    assert own == pytest.approx(accepted.cost(fm), rel=1e-12, abs=0.0)
    assert abs(reference_cost(problem, fm) - own) <= RULE_TOL * own
    # cost() doubles its rule the same way, so it agrees with the reference too
    assert abs(cost(problem, fm) - own) <= RULE_TOL * own


def test_budget_spent_at_a_failed_rule_check_is_not_converged(ci_modes, monkeypatch):
    # the coarse rule's first start converges, fails its rule check and is refined;
    # a budget that ends exactly there leaves the start unconverged, so optimize
    # raises, carrying the run with its failed rule gap
    import ionpulse.optimizer as opt

    problem = ci_problem(ci_modes, ShapeB())
    monkeypatch.setattr(opt, "PANEL_RADIANS", 1e9)
    returns, lm = [], opt._levenberg_marquardt

    def counted(objective, x0, costs, max_evals):
        out = lm(objective, x0, costs, max_evals)
        returns.append(len(costs))
        return out

    monkeypatch.setattr(opt, "_levenberg_marquardt", counted)
    optimize(problem)
    assert len(returns) > 1  # the first rule was refined
    with pytest.raises(BudgetExhausted, match=f"stopped after {returns[0]} evaluations") as info:
        optimize(replace(problem, max_evals=returns[0]))
    result = info.value.result
    assert len(result.costs) == returns[0]
    assert result.rule_nodes == 240 and result.rule_gap > RULE_TOL


@pytest.mark.parametrize("offset_hz", [1e12, 1e30])
def test_panel_rule_above_the_cap_is_refused_before_it_is_built(ci_modes, monkeypatch, offset_hz):
    # a drive 1e12 Hz off its modes asked for billions of nodes; at 1e30 Hz the
    # sub-panel count overflowed int64 into a negative linspace count
    import ionpulse.optimizer as opt

    def build(*args, **kwargs):
        raise AssertionError("the panel rule was built")

    problem = ci_problem(ci_modes, ShapeA())
    coarse = _Objective(problem)
    far = replace(problem, base_schedule=replace(
        problem.base_schedule, mu_ref=problem.base_schedule.mu_ref + 2 * np.pi * offset_hz))
    monkeypatch.setattr(opt, "gauss_legendre_panels", build)
    named = (rf"above its cap of {opt.MAX_RULE_NODES}: .* \|delta\| tau = .* rad, which "
             r"\[trap\] omega_x_hz, \[pulse\] mu_offset_hz and \[pulse\] gate_time_s set")
    for call in (lambda: optimize(far), lambda: cost(far, np.zeros(8))):
        with pytest.raises(ValueError, match=named):
            call()
    # the doubled rule goes through the same check
    monkeypatch.setattr(opt, "MAX_RULE_NODES", coarse.nodes)
    with pytest.raises(ValueError, match=f"{2 * coarse.nodes} nodes, above its cap of {coarse.nodes}"):
        coarse.refined()


def rule_sub_panels(problem, nodes):
    """The sub-panels of the first rule, doubled until the rule holds `nodes` nodes."""
    objective = _Objective(problem)
    while objective.nodes < nodes:
        objective = objective.refined()
    assert objective.nodes == nodes
    return objective.sub_panels


def test_later_start_compared_on_the_refined_rule(ci_modes, monkeypatch):
    # the flat start is let through on the coarse rule, and the jittered start refines
    # it; the flat start's point is then re-costed on the finer rule, so the two are
    # compared, and the best reported, on the rule both end on
    import ionpulse.optimizer as opt

    problem = replace(ci_problem(ci_modes, ShapeB()), n_starts=2)
    monkeypatch.setattr(opt, "PANEL_RADIANS", 24.0)
    monkeypatch.setattr(opt, "RULE_TOL", 1.0)
    ends, lm = [], opt._levenberg_marquardt

    def first_start_passes(*args):
        x, fx, converged = lm(*args)
        ends.append(x)
        if len(ends) > 1:
            opt.RULE_TOL = RULE_TOL  # from the second start's check on
        return x, fx, converged

    monkeypatch.setattr(opt, "_levenberg_marquardt", first_start_passes)
    run = optimize(problem)
    assert len(ends) > 2  # the second start was refined
    accepted = _Objective(problem, rule_sub_panels(problem, run.rule_nodes))
    flat, jittered = accepted.cost(ends[0]), accepted.cost(ends[-1])
    winner = ends[-1] if jittered < flat else ends[0]
    # optimize returns the winner in its saved form, an ulp or so from the point itself
    expected = saved_form(replace(problem.base_schedule, fm_points=winner))
    np.testing.assert_array_equal(run.schedule.fm_points, expected.fm_points)
    assert run.final_cost == pytest.approx(min(flat, jittered), rel=1e-12, abs=0.0)
    assert run.rule_gap <= RULE_TOL


def test_optimized_schedule_is_its_saved_form(ci_modes, tmp_path):
    # the schedule optimize returns is the one its file loads back to, bit for bit, so a
    # report of either agrees exactly, and saving it again writes the same bytes
    sched = optimize(ci_problem(ci_modes, ShapeB())).schedule
    path = tmp_path / "schedule.json"
    save_schedule(sched, path)
    loaded = load_schedule(path)
    for name in ("amp_scale", "mu_ref", "fm_points"):
        assert np.asarray(getattr(loaded, name)).tobytes() == np.asarray(getattr(sched, name)).tobytes()
    saved = path.read_bytes()
    save_schedule(loaded, path)
    assert path.read_bytes() == saved


@pytest.mark.parametrize("shape", [ShapeA(), ShapeB()])
def test_one_oscillation_covers_the_whole_gate(ci_modes, shape):
    # a single oscillation is a constant offset; the rule still spans [0, tau], so
    # the objective's cost is the reference cost (shape B's last ramp included)
    base = replace(ci_problem(ci_modes, shape).base_schedule, fm_points=np.zeros(1),
                   n_oscillations=1)
    problem = replace(ci_problem(ci_modes, shape), base_schedule=base)
    fm = np.array([2 * np.pi * 1.5e3])
    assert cost(problem, fm) == pytest.approx(reference_cost(problem, fm), rel=RULE_TOL, abs=0.0)
    run = optimize(problem)
    assert run.rule_gap <= RULE_TOL
    assert run.final_cost == pytest.approx(reference_cost(problem, run.schedule.fm_points),
                                           rel=RULE_TOL, abs=0.0)
