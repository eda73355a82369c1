import numpy as np
import pytest

from ionpulse import (
    PulseSchedule,
    ShapeA,
    accumulate_phase,
    entangling_angle,
    entangling_angle_sampled,
    integrate_alpha,
    integrate_sampled,
    motional_error,
    time_averaged_displacement,
)
from ionpulse.trajectory import mode_displacement_integrals
from ionpulse.pulse import drive_frequency
from ionpulse.quadrature import cumulative_simpson, simpson

TAU = 500e-6
MU0 = 2 * np.pi * 2.7e6
GRID = 20_000


def schedule(fm=None, amp=2 * np.pi * 100e3):
    fm = np.zeros(8) if fm is None else np.asarray(fm, dtype=float)
    return PulseSchedule(
        gate_time=TAU, amp_shape=ShapeA(), amp_scale=amp, mu_ref=MU0, fm_points=fm
    )


def constant_profiles(omega, delta, n=GRID):
    t = np.linspace(0.0, TAU, n + 1)
    return np.full(n + 1, omega), np.full(n + 1, delta), t[1] - t[0], t


def closed_form_alpha(eta, omega, delta, t):
    return eta * omega * (np.exp(1j * delta * t) - 1.0) / (1j * delta)


def test_phase_constant_detuning():
    sched = schedule()
    omega_k = MU0 - 2 * np.pi * 10e3
    for t in (0.0, TAU / 3, TAU):
        assert accumulate_phase(sched, omega_k, t) == pytest.approx(
            (MU0 - omega_k) * t, rel=1e-12, abs=1e-15
        )


def test_phase_starts_at_zero():
    assert accumulate_phase(schedule(), MU0, 0.0) == 0.0


def test_phase_grid_self_convergence():
    rng = np.random.default_rng(2)
    fm = rng.uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8)
    sched = schedule(fm=fm)
    omega_k = MU0 - 2 * np.pi * 13e3
    coarse = accumulate_phase(sched, omega_k, TAU, n_intervals=GRID)
    fine = accumulate_phase(sched, omega_k, TAU, n_intervals=2 * GRID)
    assert abs(fine - coarse) < 1e-10


def test_phase_matches_analytic_arc_integral():
    # raised-cosine arcs integrate in closed form:
    # int (1-cos(pi s))/2 ds over a full arc equals half the arc length
    offset = 2 * np.pi * 1.5e3
    fm = np.array([offset] + [0.0] * 7)
    sched = schedule(fm=fm)
    omega_k = MU0  # detuning equals the fm offset alone
    seg = TAU / 14
    # over the first segment the offset falls from `offset` to 0
    expected = offset * seg / 2.0
    assert accumulate_phase(sched, omega_k, seg) == pytest.approx(expected, rel=1e-9)


def test_phase_matches_per_query_reference():
    # reference: one drive_frequency call and one two-panel Simpson step per query
    rng = np.random.default_rng(4)
    sched = schedule(fm=rng.uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8))
    omega_k = MU0 - 2 * np.pi * 13e3
    grid = np.linspace(0.0, TAU, GRID + 1)
    dx = grid[1] - grid[0]
    theta = cumulative_simpson(drive_frequency(grid, sched) - omega_k, dx)
    queries = np.concatenate([rng.uniform(0.0, TAU, 40), grid[[0, 7, GRID]]])
    expected = []
    for tq in queries:
        j = min(int(tq / dx), GRID)
        rest = tq - grid[j]
        value = theta[j]
        if rest > 0.0:
            sub = np.array([grid[j], grid[j] + rest / 2.0, tq])
            value += simpson(drive_frequency(sub, sched) - omega_k, rest / 2.0)
        expected.append(value)
    np.testing.assert_array_equal(accumulate_phase(sched, omega_k, queries), expected)


def test_alpha_constant_profiles_closed_form():
    eta, om = 0.05, 2 * np.pi * 100e3
    delta = 2 * np.pi * 5e3
    omega_s, delta_s, dx, t = constant_profiles(om, delta)
    traj = integrate_sampled(omega_s, delta_s, dx, eta_ik=eta, times=t)
    expected = closed_form_alpha(eta, om, delta, TAU)
    assert abs(traj.endpoint - expected) < 1e-8 * abs(expected)


def test_alpha_closed_circle():
    # delta tau = 2 pi n: the trajectory closes exactly
    eta, om = 0.05, 2 * np.pi * 100e3
    delta = 2 * np.pi * 4 / TAU
    omega_s, delta_s, dx, t = constant_profiles(om, delta)
    traj = integrate_sampled(omega_s, delta_s, dx, eta_ik=eta, times=t)
    assert abs(traj.endpoint) < 1e-8 * eta * om * TAU


def test_alpha_zero_detuning_straight_line():
    eta, om = 0.05, 2 * np.pi * 100e3
    omega_s, delta_s, dx, t = constant_profiles(om, 0.0)
    traj = integrate_sampled(omega_s, delta_s, dx, eta_ik=eta, times=t)
    assert traj.endpoint == pytest.approx(eta * om * TAU, rel=1e-12)


def test_trajectory_starts_at_origin():
    traj = integrate_alpha(schedule(), 0.05, MU0 - 2 * np.pi * 10e3)
    assert traj.alpha[0] == 0.0
    assert traj.phase[0] == 0.0
    assert traj.times[0] == 0.0
    assert traj.endpoint == traj.alpha[-1]


def test_time_average_constant_trajectory():
    from ionpulse.trajectory import Trajectory

    t = np.linspace(0.0, TAU, 101)
    c = 0.3 + 0.4j
    traj = Trajectory(mode=None, times=t, alpha=np.full(101, c), phase=np.zeros(101))
    assert time_averaged_displacement(traj) == pytest.approx(c, rel=1e-12)


def test_time_average_closed_form():
    # mean of alpha(t) for constant omega, delta: integrate the closed form
    eta, om = 0.05, 2 * np.pi * 100e3
    delta = 2 * np.pi * 7e3
    omega_s, delta_s, dx, t = constant_profiles(om, delta)
    traj = integrate_sampled(omega_s, delta_s, dx, eta_ik=eta, times=t)
    z = 1j * delta
    expected = eta * om / z * ((np.exp(z * TAU) - 1.0) / (z * TAU) - 1.0)
    got = time_averaged_displacement(traj)
    assert abs(got - expected) < 1e-8 * abs(expected)


def test_time_average_linearity():
    sched = schedule()
    a = integrate_alpha(sched, 0.05, MU0 - 2 * np.pi * 10e3)
    b = integrate_alpha(sched, 0.10, MU0 - 2 * np.pi * 10e3)
    assert time_averaged_displacement(b) == pytest.approx(
        2.0 * time_averaged_displacement(a), rel=1e-12
    )


def test_beta_zero_amplitude(mode_data):
    sched = schedule(amp=0.0)
    assert entangling_angle(sched, mode_data, 25, 26) == 0.0


def test_beta_constant_profiles_closed_form():
    # single mode, constant omega and delta:
    # beta = 2 eta_i eta_j omega^2 (tau/delta - sin(delta tau)/delta^2)
    eta_i, eta_j, om = 0.05, -0.04, 2 * np.pi * 100e3
    delta = 2 * np.pi * 6e3
    omega_s, delta_s, dx, _ = constant_profiles(om, delta, n=2000)
    got = entangling_angle_sampled(omega_s, delta_s, dx, eta_i, eta_j)
    expected = (
        2 * eta_i * eta_j * om**2 * (TAU / delta - np.sin(delta * TAU) / delta**2)
    )
    assert got == pytest.approx(expected, rel=1e-8)


def test_beta_quadratic_in_amplitude(mode_data):
    base = schedule()
    doubled = schedule(amp=2 * base.amp_scale)
    b1 = entangling_angle(base, mode_data, 20, 30)
    b2 = entangling_angle(doubled, mode_data, 20, 30)
    assert b2 == pytest.approx(4.0 * b1, rel=1e-10)


def test_beta_symmetric_in_ions(mode_data):
    sched = schedule()
    assert entangling_angle(sched, mode_data, 10, 40) == pytest.approx(
        entangling_angle(sched, mode_data, 40, 10), rel=1e-12
    )


def test_beta_rejects_same_ion(mode_data):
    with pytest.raises(ValueError):
        entangling_angle(schedule(), mode_data, 7, 7)


def test_beta_grid_self_convergence(mode_data):
    # far-detuned modes are coarsely sampled on the downsampled grid; the
    # calibration only needs beta to ~0.1%, and doubling moves it ~1e-4
    sched = schedule()
    coarse = entangling_angle(sched, mode_data, 25, 26, n_intervals=2000)
    fine = entangling_angle(sched, mode_data, 25, 26, n_intervals=4000)
    assert fine == pytest.approx(coarse, rel=5e-4)


def test_motional_error_zero_amplitude(mode_data):
    assert motional_error(schedule(amp=0.0), mode_data, 25, 26) == 0.0


def test_motional_error_matches_trajectory_sum(mode_data):
    sched = schedule()
    total = 0.0
    for k in range(mode_data.n_modes):
        for ion in (25, 26):
            traj = integrate_alpha(
                sched, mode_data.eta[ion - 1, k], mode_data.frequencies[k]
            )
            total += abs(traj.endpoint) ** 2
    # the batched path factors exp(i theta_k) = exp(i Theta_mu) exp(-i w_k t);
    # it agrees with the per-mode composition to quadrature rounding
    got = motional_error(sched, mode_data, 25, 26)
    assert got == pytest.approx(total, rel=1e-7)


def random_fm_schedule(seed):
    rng = np.random.default_rng(seed)
    return schedule(fm=rng.uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8))


def test_displacement_offsets_match_single_offset_calls(mode_data):
    sched = random_fm_schedule(5)
    offsets = [0.0, 2 * np.pi * 50.0, -2 * np.pi * 700.0, 2 * np.pi * 2e3]
    batched = mode_displacement_integrals(sched, mode_data.frequencies, offsets=offsets)
    assert batched.shape == (mode_data.n_modes, len(offsets))
    for col, offset in enumerate(offsets):
        single = mode_displacement_integrals(sched, mode_data.frequencies, offsets=(offset,))
        np.testing.assert_array_equal(batched[:, col], single[:, 0])


def test_displacement_zero_offset_matches_integrate_alpha(mode_data):
    # the kernel factors exp(i theta_k) = exp(i Theta_mu) exp(-i w_k t) and
    # ends with composite rather than cumulative Simpson; the two quadratures
    # agree to ~3e-11 of the displacement scale Omega tau on every mode (far
    # detuned modes close to ~1e-4 of that scale, so their relative gap is larger)
    for sched in (schedule(), random_fm_schedule(6)):
        endpoints = mode_displacement_integrals(sched, mode_data.frequencies)[:, 0]
        for k, omega_k in enumerate(mode_data.frequencies):
            exact = integrate_alpha(sched, 1.0, omega_k).endpoint
            assert abs(endpoints[k] - exact) <= 1e-10 * sched.amp_scale * TAU


def test_motional_error_single_ion_flag(mode_data):
    sched = schedule()
    both = motional_error(sched, mode_data, 25, 26, both_ions=True)
    single_i = motional_error(sched, mode_data, 25, 26, both_ions=False)
    single_j = motional_error(sched, mode_data, 26, 25, both_ions=False)
    assert both == pytest.approx(single_i + single_j, rel=1e-10)


def test_gauge_shift_regression(mode_data):
    # shifting omega_k by -2 pi n / tau multiplies the integrand by a pure
    # phase ramp; verify the pipeline reproduces this identity on its grid
    sched = schedule()
    omega_k = MU0 - 2 * np.pi * 11e3
    n_shift = 3
    shift = 2 * np.pi * n_shift / TAU
    t = np.linspace(0.0, TAU, GRID + 1)
    dx = t[1] - t[0]

    shifted = integrate_alpha(sched, 1.0, omega_k - shift)
    theta = cumulative_simpson(np.full(GRID + 1, MU0 - omega_k), dx)
    ramped = cumulative_simpson(
        np.full(GRID + 1, sched.amp_scale)
        * np.sin(np.pi * np.minimum(t, TAU - t) / TAU) ** 1.5
        * np.exp(1j * (theta + shift * t)),
        dx,
    )
    assert abs(shifted.phase[-1] - (theta[-1] + shift * TAU)) < 1e-9
    assert abs(shifted.endpoint - ramped[-1]) < 1e-12 * sched.amp_scale * TAU


def test_error_grid_self_convergence(mode_data, optimized_a):
    for sched in (schedule(), optimized_a):
        coarse = motional_error(sched, mode_data, 25, 26, n_intervals=GRID)
        fine = motional_error(sched, mode_data, 25, 26, n_intervals=2 * GRID)
        assert abs(fine - coarse) <= 0.01 * max(coarse, 1e-16)


def test_trajectory_csv(tmp_path):
    from ionpulse.trajectory import save_trajectory_csv

    traj = integrate_alpha(schedule(), 0.05, MU0 - 2 * np.pi * 10e3, mode=25)
    path = tmp_path / "traj.csv"
    save_trajectory_csv(traj, path, samples=201)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t_s,alpha_re,alpha_im"
    assert len(rows) == 202
    last = rows[-1].split(",")
    assert float(last[0]) == pytest.approx(TAU, rel=1e-12)
    assert float(last[1]) == pytest.approx(traj.endpoint.real, rel=1e-12)
