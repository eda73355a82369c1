import math
import weakref
from dataclasses import replace
from decimal import Decimal, localcontext

import numpy as np
import pytest

from ionpulse import (
    PulseSchedule,
    ShapeA,
    ShapeB,
    entangling_angle,
    entangling_angle_sampled,
    integrate_alpha,
    integrate_sampled,
    motional_error,
    time_averaged_displacement,
)
from ionpulse import trajectory
from ionpulse.analysis import offset_sweep, power_map
from ionpulse.optimizer import build_gate_report
from ionpulse.trajectory import (
    DEFAULT_BETA_INTERVALS,
    MAX_BLOCK_PHASE,
    _phasor_table,
    _phasor_tables,
    angle_integrals,
    max_offset,
    mode_angle_integrals,
    mode_displacement_integrals,
    mode_errors,
    mode_trajectories,
    save_trajectories,
)
from ionpulse.pulse import amplitude, fm_phase_closed_form, phase_basis, with_amplitude
from ionpulse.quadrature import cumulative_simpson, simpson_weights

from conftest import clear_memo, cold, traced_peak

TAU = 500e-6
MU0 = 2 * np.pi * 2.7e6
GRID = 20_000
# of max|alpha|: stored rows against the full-grid running integral, which they
# matched to at most 6.3e-15 on x86-64 (block sums and the full cumsum round apart)
STORED_ROW_TOL = 2e-14


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


def detuning_phase(sched, omega_k, n_intervals=GRID):
    """theta_k at every grid node, from the FM phase every schedule integral uses."""
    t = np.linspace(0.0, sched.gate_time, n_intervals + 1)
    return t, (sched.mu_ref - omega_k) * t + fm_phase_closed_form(t, sched)


@pytest.mark.parametrize("samples", [2001, 20001])
def test_entry_phase_is_the_optimizers_phase(mode_data, samples):
    # the optimizer designs on fm_points @ B, and the kernels' unit drive
    # (Omega / amp_scale) e^{i fm_phase} carries that phase on every grid: a running
    # Simpson phase was 6.0e-7 rad off at 2,001 samples and 6.0e-10 at 20,001
    # (x86-64). On any nodes, fm_points @ B is the closed form to rounding
    rng = np.random.default_rng(samples)
    nodes = np.sort(rng.uniform(0.0, TAU, 500))
    t = np.linspace(0.0, TAU, samples)
    for n_osc in (2, 3, 8):
        for _ in range(3):
            fm = rng.uniform(-2 * np.pi * 10e3, 2 * np.pi * 10e3, n_osc)
            sched = PulseSchedule(
                gate_time=TAU, amp_shape=ShapeA(), amp_scale=2 * np.pi * 100e3,
                mu_ref=MU0, fm_points=fm, n_oscillations=n_osc,
            )
            drive = trajectory._unit_drive(sched, samples - 1)
            envelope = amplitude(t, with_amplitude(sched, 1.0))
            np.testing.assert_allclose(np.abs(drive), envelope, rtol=1e-15, atol=0.0)
            lit = envelope > 0.0  # shape A is off at both ends
            turn = drive[lit] * np.exp(-1j * (fm @ phase_basis(sched, t[lit])))
            assert np.abs(np.angle(turn)).max() <= 1e-13
            np.testing.assert_allclose(
                fm @ phase_basis(sched, nodes), fm_phase_closed_form(nodes, sched),
                rtol=0.0, atol=1e-13,
            )


def _phasors(freqs, tau, n_intervals):
    """e^{i f t_n} (len(freqs) x N+1), multiplied out from the coarse x fine tables."""
    coarse, fine = _phasor_tables(freqs, tau, n_intervals)
    samples = coarse[:, :, None] * fine[:, None, :]
    return samples.reshape(len(freqs), -1)[:, : n_intervals + 1]


@pytest.mark.parametrize("n_intervals", [1000, 1023, 2000, 4000, 20000])
def test_phasors_match_complex_exponential(n_intervals):
    # m = isqrt(N + 1): 1024 samples fill 32 blocks of 32 exactly, the other
    # counts leave a partial last block
    rng = np.random.default_rng(n_intervals)
    freqs = np.concatenate([[0.0, MU0, -MU0], rng.uniform(-1.1 * MU0, 1.1 * MU0, 5)])
    t = np.linspace(0.0, TAU, n_intervals + 1)
    got = _phasors(freqs, TAU, n_intervals)
    assert got.shape == (len(freqs), n_intervals + 1)
    # the reference's own rounding is ~2e-12 at phases of ~9e3 rad
    np.testing.assert_allclose(got, np.exp(1j * np.multiply.outer(freqs, t)), rtol=0.0, atol=1e-11)
    for k, f in enumerate(freqs):
        # integrate_alpha reads a one-frequency table, and it must match the row
        # that a report's trajectories take from the tables of all modes
        np.testing.assert_array_equal(_phasors([f], TAU, n_intervals)[0], got[k])


TABLE_FREQS = [0.0, MU0, -MU0, 2e7, -2e7, 1.3e7, -7.7e6]


@pytest.mark.parametrize("n_intervals", [1088, 2000, 20000])
def test_phasor_table_rows_do_not_depend_on_neighbours(n_intervals):
    # a sweep builds every drive frequency's tables in one call, and each column
    # must be bitwise what a single-offset call gives
    rng = np.random.default_rng(n_intervals)
    freqs = np.concatenate([TABLE_FREQS, rng.uniform(-2e7, 2e7, 45)])
    coarse, fine = _phasor_tables(freqs, TAU, n_intervals)
    for k, f in enumerate(freqs):
        one_coarse, one_fine = _phasor_tables([f], TAU, n_intervals)
        np.testing.assert_array_equal(one_coarse[0], coarse[k])
        np.testing.assert_array_equal(one_fine[0], fine[k])


@pytest.mark.parametrize("n_intervals", [1088, 2000, 20000])
def test_coarse_rows_alone_match_the_tables(n_intervals):
    # a sweep builds only its offsets' coarse rows; they are bitwise the coarse
    # table that _phasor_tables builds next to the fine one
    offsets = 2 * np.pi * np.concatenate([[0.0, -2e3], np.geomspace(10.0, 2e3, 48)])
    coarse, _ = _phasor_tables(offsets, TAU, n_intervals)
    indices = math.isqrt(n_intervals + 1) * np.arange(coarse.shape[1], dtype=float)
    np.testing.assert_array_equal(_phasor_table(offsets, indices, TAU, n_intervals), coarse)


TWO_PI_50 = Decimal("6.2831853071795864769252867665590057683943387987502116419")


def decimal_phasor(angle):
    """e^{i angle} of a Decimal angle, from the series of e^{ix} after reduction modulo 2 pi."""
    x = angle.remainder_near(TWO_PI_50)
    parts, term, j = [Decimal(0), Decimal(0)], Decimal(1), 0
    while abs(term) > Decimal("1e-55"):
        parts[j % 2] += term if j % 4 < 2 else -term  # i^j cycles 1, i, -1, -i
        j += 1
        term = term * x / j
    return complex(float(parts[0]), float(parts[1]))


@pytest.mark.parametrize("n_intervals", [1088, 2000, 20000])
def test_phasor_tables_match_decimal_reference(n_intervals):
    # every entry e^{i f k tau / N}, with f and tau exact, against 50-digit decimal
    # arithmetic: one rounding of each part, on any platform (a float64 argument
    # would be 1e-12 rad off at 8.5e3 rad, and np.longdouble is float64 on some)
    coarse, fine = _phasor_tables(TABLE_FREQS, TAU, n_intervals)
    m = fine.shape[1]
    with localcontext() as ctx:
        ctx.prec = 50
        step = Decimal(TAU) / n_intervals
        for got, ks in ((coarse, m * np.arange(coarse.shape[1])), (fine, np.arange(m))):
            expected = np.array([
                [decimal_phasor(Decimal(f) * int(k) * step) for k in ks] for f in TABLE_FREQS
            ])
            assert np.abs(got - expected).max() <= 1e-15


def test_phasor_tables_refuse_phases_past_exact_reduction():
    # 2**26 turns is where multiples of the reduction's leading parts of 2 pi stop being exact
    _phasor_tables([2 * math.pi * 2**25], 1.0, 4)
    with pytest.raises(ValueError, match="turns"):
        _phasor_tables([2 * math.pi * 2**26], 1.0, 4)


def test_phase_constant_detuning():
    # equal turning points make mu(t) constant, so the FM phase is level * t
    omega_k = MU0 - 2 * np.pi * 10e3
    for level in (0.0, 2 * np.pi * 1.5e3):
        sched = schedule(fm=np.full(8, level))
        t, theta = detuning_phase(sched, omega_k)
        np.testing.assert_allclose(theta, (MU0 + level - omega_k) * t, rtol=1e-12, atol=1e-15)


def test_phase_starts_at_zero():
    rng = np.random.default_rng(3)
    sched = schedule(fm=rng.uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8))
    assert detuning_phase(sched, MU0)[1][0] == 0.0


def test_phase_matches_analytic_arc_integral():
    # raised-cosine arcs integrate in closed form:
    # int (1-cos(pi s))/2 ds over a full arc equals half the arc length
    offset = 2 * np.pi * 1.5e3
    fm = np.array([offset] + [0.0] * 7)
    sched = schedule(fm=fm)
    omega_k = MU0  # detuning equals the fm offset alone
    # 14 arcs of 1400 intervals each, so the first arc ends on a grid node
    t, theta = detuning_phase(sched, omega_k, n_intervals=14 * 1400)
    seg = TAU / 14
    assert t[1400] == pytest.approx(seg, rel=1e-15)
    # over the first segment the offset falls from `offset` to 0
    expected = offset * seg / 2.0
    assert theta[1400] == pytest.approx(expected, rel=1e-9)


def test_alpha_constant_profiles_closed_form():
    eta, om = 0.05, 2 * np.pi * 100e3
    delta = 2 * np.pi * 5e3
    omega_s, delta_s, dx, _ = constant_profiles(om, delta)
    alpha = integrate_sampled(omega_s, delta_s, dx, eta_ik=eta)
    expected = closed_form_alpha(eta, om, delta, TAU)
    assert abs(alpha[-1] - expected) < 1e-8 * abs(expected)


def test_alpha_closed_circle():
    # delta tau = 2 pi n: the trajectory closes exactly
    eta, om = 0.05, 2 * np.pi * 100e3
    delta = 2 * np.pi * 4 / TAU
    omega_s, delta_s, dx, _ = constant_profiles(om, delta)
    alpha = integrate_sampled(omega_s, delta_s, dx, eta_ik=eta)
    assert abs(alpha[-1]) < 1e-8 * eta * om * TAU


def test_alpha_zero_detuning_straight_line():
    eta, om = 0.05, 2 * np.pi * 100e3
    omega_s, delta_s, dx, _ = constant_profiles(om, 0.0)
    alpha = integrate_sampled(omega_s, delta_s, dx, eta_ik=eta)
    assert alpha[-1] == pytest.approx(eta * om * TAU, rel=1e-12)


def test_trajectory_starts_at_origin():
    times, alpha = integrate_alpha(schedule(), 0.05, MU0 - 2 * np.pi * 10e3)
    assert alpha[0] == 0.0
    assert times[0] == 0.0 and times[-1] == TAU
    assert times.shape == alpha.shape == (GRID + 1,)


def test_time_average_constant_trajectory():
    t = np.linspace(0.0, TAU, 101)
    c = 0.3 + 0.4j
    assert time_averaged_displacement(t, np.full(101, c)) == pytest.approx(c, rel=1e-12)


def test_time_average_closed_form():
    # mean of alpha(t) for constant omega, delta: integrate the closed form
    eta, om = 0.05, 2 * np.pi * 100e3
    delta = 2 * np.pi * 7e3
    omega_s, delta_s, dx, t = constant_profiles(om, delta)
    alpha = integrate_sampled(omega_s, delta_s, dx, eta_ik=eta)
    z = 1j * delta
    expected = eta * om / z * ((np.exp(z * TAU) - 1.0) / (z * TAU) - 1.0)
    got = time_averaged_displacement(t, alpha)
    assert abs(got - expected) < 1e-8 * abs(expected)


def test_time_average_linearity():
    sched = schedule()
    a = integrate_alpha(sched, 0.05, MU0 - 2 * np.pi * 10e3)
    b = integrate_alpha(sched, 0.10, MU0 - 2 * np.pi * 10e3)
    assert time_averaged_displacement(*b) == pytest.approx(
        2.0 * time_averaged_displacement(*a), rel=1e-12
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


def sampled_angle(omega, theta, dx):
    """entangling_angle_sampled's quadrature, with eta_i eta_j = 1/2, on the phase theta
    itself rather than on the running Simpson integral of a detuning."""
    g = omega * np.exp(1j * theta)
    return float(np.imag((g * np.conj(cumulative_simpson(g, dx))) @ simpson_weights(len(g), dx)))


def test_sampled_angle_is_the_oracles_quadrature():
    omega_s, delta_s, dx, _ = constant_profiles(2 * np.pi * 100e3, 2 * np.pi * 6e3, n=2000)
    expected = entangling_angle_sampled(omega_s, delta_s, dx, 1.0, 0.5)
    assert sampled_angle(omega_s, cumulative_simpson(delta_s, dx), dx) == expected


# m = isqrt(N + 1) fine entries: N = 2 has m = 1, and 5, 1001, 2001 and 2003
# samples leave a partial, zero-padded last block
@pytest.mark.parametrize("n_intervals", [2, 4, 1000, 2000, 2002])
def test_mode_angle_integrals_match_sampled_angle(mode_data, n_intervals):
    # the per-mode oracle on theta_k = (mu_ref - omega_k) t + fm_phase, the phase the
    # kernel takes, returns d_k
    for sched in (schedule(), random_fm_schedule(8)):
        t = np.linspace(0.0, TAU, n_intervals + 1)
        omega = amplitude(t, sched)
        floor = 0.0
        if n_intervals <= 4:
            # d_k is a handful of terms of up to (int |Omega|)^2 each, whose phases
            # of ~5e3 rad carry ~1e-12 rad of rounding in the oracle's float64
            # phase; on 2 intervals shape A makes every d_k zero
            floor = 1e-13 * (simpson_weights(len(t), t[1]) @ omega) ** 2
        got = mode_angle_integrals(sched, mode_data.frequencies, n_intervals=n_intervals)
        for k, omega_k in enumerate(mode_data.frequencies):
            _, theta = detuning_phase(sched, omega_k, n_intervals)
            expected = sampled_angle(omega, theta, t[1] - t[0])
            assert got[k] == pytest.approx(expected, rel=1e-12, abs=floor)


@pytest.mark.parametrize("n_intervals", [4, 1088, 2000])
def test_angle_integrals_of_a_drive_on_at_the_start(n_intervals):
    # shapes A and B start at zero, so only a drive with Omega(0) != 0 sees the
    # start term c0 of the cumulative Simpson rule; 1089 samples fill 33 blocks
    t = np.linspace(0.0, TAU, n_intervals + 1)
    dx = t[1] - t[0]
    omega = 2 * np.pi * 80e3 * (1.5 + np.cos(3 * np.pi * t / TAU))
    offset = 2 * np.pi * 4e3 * np.sin(2 * np.pi * t / TAU)
    drive = omega * np.exp(1j * cumulative_simpson(offset, dx))
    detunings = 2 * np.pi * np.array([-60e3, -5e3, 0.0, 3e3, 20e3, 1.1e6])
    # 1.1 MHz nearly aliases on 1088 intervals: its d_k of ~0.55 is the sum of
    # terms of up to (int |Omega|)^2 ~ 1e5, so it is held to their rounding
    scale = (simpson_weights(len(t), dx) @ omega) ** 2
    got = angle_integrals(drive, detunings, TAU)
    for k, delta in enumerate(detunings):
        expected = entangling_angle_sampled(omega, delta + offset, dx, 1.0, 0.5)
        assert got[k] == pytest.approx(expected, rel=1e-12, abs=1e-15 * scale)


def test_angle_integrals_form_no_modes_x_samples_array(mode_data):
    # a modes x samples array of 50 x 2001 reals alone takes 0.8 MB. The kernel is
    # called directly: mode_angle_integrals would scale the d_k its warm-up call kept
    sched = random_fm_schedule(8)
    t = np.linspace(0.0, TAU, 2001)
    drive = np.exp(1j * fm_phase_closed_form(t, sched)) * amplitude(t, sched)
    detunings = sched.mu_ref - mode_data.frequencies
    _, peak = traced_peak(lambda: angle_integrals(drive, detunings, TAU))
    assert peak < mode_data.n_modes * 2001 * 8


def test_motional_error_zero_amplitude(mode_data):
    assert motional_error(schedule(amp=0.0), mode_data, 25, 26) == 0.0


def test_motional_error_matches_trajectory_sum(mode_data):
    sched = schedule()
    total = 0.0
    for k in range(mode_data.n_modes):
        for ion in (25, 26):
            _, alpha = integrate_alpha(
                sched, mode_data.eta[ion - 1, k], mode_data.frequencies[k]
            )
            total += abs(alpha[-1]) ** 2
    # the batched path sums the whole grid in blocks and ends with composite
    # rather than cumulative Simpson; it agrees with the per-mode composition
    # to quadrature rounding
    got = motional_error(sched, mode_data, 25, 26)
    assert got == pytest.approx(total, rel=1e-7)


def long_double_motional_error(sched, modes, ion_i, ion_j, n_intervals=GRID):
    """motional_error's quadrature with every phase, sine, cosine and sum in long double.

    The weighted envelope w * Omega and the closed-form fm_phase (tens of rad
    at most) are the float64 values the kernel uses; the linear phase
    (mu_ref - omega_k) t_n, thousands of rad, is taken at t_n = n tau / N exactly.
    """
    ld = np.longdouble
    t = np.linspace(0.0, sched.gate_time, n_intervals + 1)
    t_exact = np.arange(n_intervals + 1, dtype=ld) * (ld(sched.gate_time) / n_intervals)
    envelope = (simpson_weights(len(t), t[1] - t[0]) * amplitude(t, sched)).astype(ld)
    phi = fm_phase_closed_form(t, sched).astype(ld)
    total = ld(0.0)
    for k, omega_k in enumerate(modes.frequencies):
        theta = (ld(sched.mu_ref) - ld(omega_k)) * t_exact + phi
        re, im = envelope @ np.cos(theta), envelope @ np.sin(theta)
        weight = ld(modes.eta[ion_i - 1, k]) ** 2 + ld(modes.eta[ion_j - 1, k]) ** 2
        total += weight * (re * re + im * im)
    return total


@pytest.mark.parametrize("shape", ["a", "b"])
def test_motional_error_matches_long_double_quadrature(mode_data, optimized_a, optimized_b, shape):
    # the drive phases reach ~8.5e3 rad; a float64 argument to exp put ~1.5e-11
    # relative rounding on schedule A's error. The oracle itself needs an
    # np.longdouble wider than float64; the kernel's tables do not.
    sched = optimized_a if shape == "a" else optimized_b
    got = motional_error(sched, mode_data, 25, 26)
    expected = long_double_motional_error(sched, mode_data, 25, 26)
    assert abs(got - float(expected)) <= 1e-12 * float(expected)


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


@pytest.mark.parametrize("n_intervals", [1088, 2000, 20000])
@pytest.mark.parametrize("n_modes", [1, 50])
def test_displacement_blocks_match_materialized_exponential(mode_data, n_intervals, n_modes):
    # the kernel contracts (Q, m) blocks of the drive with coarse x fine tables and
    # never forms the modes x samples phasors; 1089 samples fill 33 blocks of 33
    # exactly, the other counts pad the last block with zeros. An offset enters as a
    # coarse phase and a series in the within-block phase: on the 20,000-interval
    # grid, 300 kHz is a within-block phase of 6.6 rad, near MAX_BLOCK_PHASE
    offsets_hz = [0.0, -700.0] + ([20e3, 300e3] if n_intervals == 20000 else [])
    sched = random_fm_schedule(7)
    omegas = mode_data.frequencies[24:25] if n_modes == 1 else mode_data.frequencies
    offsets = 2 * np.pi * np.array(offsets_hz)
    got = mode_displacement_integrals(sched, omegas, n_intervals, offsets)
    t = np.linspace(0.0, TAU, n_intervals + 1)
    envelope = simpson_weights(len(t), t[1] - t[0]) * amplitude(t, sched)
    phi = fm_phase_closed_form(t, sched)
    for col, offset in enumerate(offsets):
        theta = np.multiply.outer(sched.mu_ref + offset - omegas, t) + phi
        expected = np.exp(1j * theta) @ envelope
        np.testing.assert_allclose(got[:, col], expected, rtol=0.0, atol=1e-11 * sched.amp_scale * TAU)


@pytest.mark.parametrize("n_intervals", [1088, 20000])
def test_offset_past_the_series_range_refused(mode_data, n_intervals):
    limit = max_offset(TAU, n_intervals)
    m = math.isqrt(n_intervals + 1)
    assert limit * (m - 1) * TAU / n_intervals == pytest.approx(MAX_BLOCK_PHASE, rel=1e-15)
    sched = schedule()
    mode_displacement_integrals(sched, mode_data.frequencies[:2], n_intervals, [-limit, limit])
    for offsets in ([0.0, 1.001 * limit], [-1.001 * limit]):
        with pytest.raises(ValueError, match=f"{limit / (2 * np.pi):.6g} Hz"):
            mode_displacement_integrals(sched, mode_data.frequencies[:2], n_intervals, offsets)
    with pytest.raises(ValueError, match="Hz"):
        motional_error(sched, mode_data, 25, 26, n_intervals=n_intervals, frequency_offset=1.001 * limit)


def test_sweep_columns_form_no_modes_x_samples_array(mode_data, optimized_a):
    # a 49-offset sweep of all 50 modes on 20,001 samples; the kernel rows alone
    # were 16 MB, and the padded drive plus the tables take well under 1 MB. The
    # kernels' memo is cleared inside the measured call, so the tables count
    offsets = [0.0, *np.geomspace(2 * np.pi * 10.0, 2 * np.pi * 2000.0, 48)]
    _, peak = traced_peak(cold(lambda: mode_errors(optimized_a, mode_data, 25, 26, offsets=offsets)))
    assert peak < 4e6


def test_mode_trajectories_allocate_what_they_store(mode_data, optimized_a):
    # the warm-up call fills the kernel entry (0.55 MB on this grid), so this is the
    # call's own scratch beyond the block it returns
    (times, alpha), peak = traced_peak(lambda: mode_trajectories(
        optimized_a, mode_data.frequencies, mode_data.eta[24],
    ))
    assert peak <= times.nbytes + alpha.nbytes + 2**20


def full_grid_trajectories(sched, omegas, etas):
    """alpha_k at every grid sample: each mode's phasors multiplied out over the grid
    times the drive Omega e^{i fm_phase}, then cumulative Simpson on the whole grid."""
    t = np.linspace(0.0, sched.gate_time, GRID + 1)
    drive = np.exp(1j * fm_phase_closed_form(t, sched)) * amplitude(t, sched)
    phasors = _phasors(sched.mu_ref - np.asarray(omegas), sched.gate_time, GRID)
    dx = t[1] - t[0]
    return t, [eta * cumulative_simpson(row * drive, dx) for eta, row in zip(etas, phasors)]


# GRID stores one block of two samples among 19,998 blocks of one
@pytest.mark.parametrize("samples", [2, 4, 1500, 2001, 3000, GRID, GRID + 1])
def test_stored_rows_are_the_full_trajectory_rows(samples):
    # only the stored rows are computed, from block sums of the drive between them;
    # each matches the full-grid running integral at row k N // (samples - 1) to
    # rounding, and the times are the grid's own
    sched = random_fm_schedule(3)
    omegas = MU0 - 2 * np.pi * np.array([10e3, 25e3, 40e3])
    etas = [0.05, 0.04, 0.03]
    t, full = full_grid_trajectories(sched, omegas, etas)
    scale = max(np.abs(alpha).max() for alpha in full)
    times, stored = mode_trajectories(sched, omegas, etas, samples=samples)
    rows = np.arange(samples) * GRID // (samples - 1)
    assert stored.shape == (3, samples) and stored.dtype == np.complex128
    assert not times.flags.writeable and not stored.flags.writeable
    np.testing.assert_array_equal(times, t[rows])
    assert times[0] == 0.0 and times[-1] == TAU
    for short, long in zip(stored, full):
        assert short[0] == 0.0
        np.testing.assert_allclose(short, long[rows], rtol=0.0, atol=STORED_ROW_TOL * scale)


def test_mode_trajectories_refuse_fewer_than_two_samples():
    for samples in (0, 1):
        with pytest.raises(ValueError, match="samples"):
            mode_trajectories(schedule(), [MU0 - 2 * np.pi * 10e3], [0.05], samples=samples)


def stored_trajectory(sched, samples):
    """(times, alpha) of the mode 10 kHz below MU0 at the samples that mode_trajectories stores."""
    times, (alpha,) = mode_trajectories(sched, [MU0 - 2 * np.pi * 10e3], [0.05], samples=samples)
    return times, alpha


def test_time_average_refuses_unevenly_stored_rows():
    # 1499 does not divide 20,000, so the stored rows are 13 or 14 intervals apart
    times, alpha = stored_trajectory(schedule(), 1500)
    with pytest.raises(ValueError, match="evenly spaced"):
        time_averaged_displacement(times, alpha)


def test_time_average_of_evenly_stored_rows():
    # 2000 divides 20,000: Simpson over every tenth sample agrees with the full grid
    sched = schedule()
    full = time_averaged_displacement(*integrate_alpha(sched, 0.05, MU0 - 2 * np.pi * 10e3))
    every_tenth = time_averaged_displacement(*stored_trajectory(sched, 2001))
    assert abs(every_tenth - full) <= 1e-8 * abs(full)


def test_time_average_of_a_reports_block(mode_data, optimized_a):
    # a report's (modes x rows) block gives one mean per mode, bitwise each row's own
    report = build_gate_report(optimized_a, mode_data, 25, 26, trajectory_modes=None)
    times, block = report.trajectory_times, report.trajectories
    means = time_averaged_displacement(times, block)
    assert means.shape == (mode_data.n_modes,)
    rows = [time_averaged_displacement(times, alpha) for alpha in block]
    assert means.tobytes() == np.array(rows).tobytes()
    # 1499 does not divide 20,000: the stored rows are unevenly spaced
    uneven = build_gate_report(optimized_a, mode_data, 25, 26, trajectory_modes=None,
                               trajectory_samples=1500)
    with pytest.raises(ValueError, match="evenly spaced"):
        time_averaged_displacement(uneven.trajectory_times, uneven.trajectories)


def test_displacement_zero_offset_matches_integrate_alpha(mode_data):
    # the kernel ends with composite rather than cumulative Simpson, and sums
    # the grid in blocks where integrate_alpha takes a running sum; the two
    # quadratures agree to ~3e-11 of the displacement scale Omega tau on every
    # mode (far detuned modes close to ~1e-4 of that scale, so their relative
    # gap is larger)
    for sched in (schedule(), random_fm_schedule(6)):
        endpoints = mode_displacement_integrals(sched, mode_data.frequencies)[:, 0]
        for k, omega_k in enumerate(mode_data.frequencies):
            _, alpha = integrate_alpha(sched, 1.0, omega_k)
            assert abs(endpoints[k] - alpha[-1]) <= 1e-10 * sched.amp_scale * TAU


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

    _, shifted = integrate_alpha(sched, 1.0, omega_k - shift)
    theta = cumulative_simpson(np.full(GRID + 1, MU0 - omega_k), dx)
    ramped = cumulative_simpson(
        np.full(GRID + 1, sched.amp_scale)
        * np.sin(np.pi * np.minimum(t, TAU - t) / TAU) ** 1.5
        * np.exp(1j * (theta + shift * t)),
        dx,
    )
    assert abs(shifted[-1] - ramped[-1]) < 1e-12 * sched.amp_scale * TAU


def test_error_grid_self_convergence(mode_data, optimized_a):
    for sched in (schedule(), optimized_a):
        coarse = motional_error(sched, mode_data, 25, 26, n_intervals=GRID)
        fine = motional_error(sched, mode_data, 25, 26, n_intervals=2 * GRID)
        assert abs(fine - coarse) <= 0.01 * max(coarse, 1e-16)


def load_trajectories(path):
    with np.load(path, allow_pickle=False) as data:
        assert sorted(data.files) == ["alpha", "mode", "t_s"]
        return data["t_s"], data["alpha"], data["mode"]


def traced_report(mode_data, optimized_a, trajectory_modes, samples):
    return build_gate_report(optimized_a, mode_data, 25, 26, trajectory_modes=trajectory_modes,
                             trajectory_samples=samples)


def test_trajectory_file(tmp_path, mode_data, optimized_a):
    report = traced_report(mode_data, optimized_a, (25, np.int64(7)), 201)
    path = tmp_path / "trajectories_A.npz"
    save_trajectories(report, path)
    t_s, alpha, mode = load_trajectories(path)
    assert t_s.dtype == np.float64 and t_s.shape == (201,)
    assert alpha.dtype == np.complex128 and alpha.shape == (2, 201)
    assert mode.dtype == np.int64 and mode.tolist() == [25, 7]
    assert t_s[0] == 0.0 and t_s[-1] == optimized_a.gate_time
    assert alpha[:, 0].tolist() == [0.0, 0.0]


@pytest.mark.parametrize("samples", [4, 1500, 3000])
def test_trajectory_file_ends_at_gate_end(tmp_path, mode_data, optimized_a, samples):
    # the rows are grid samples and the last is alpha(tau), also when
    # samples - 1 does not divide the 20,000 intervals
    report = traced_report(mode_data, optimized_a, (1, 2, 3), samples)
    path = tmp_path / "trajectories_A.npz"
    save_trajectories(report, path)
    t_s, alpha, _ = load_trajectories(path)
    assert alpha.shape == (3, samples)
    assert t_s[-1] == optimized_a.gate_time
    assert alpha[:, -1].tolist() == report.trajectories[:, -1].tolist()


@pytest.mark.parametrize("samples", [201, 2001, 10**6])
def test_trajectory_file_round_trips_bitwise(tmp_path, mode_data, optimized_a, samples):
    # every stored row is kept, each float64 exactly, signed zeros and subnormals too
    report = traced_report(mode_data, optimized_a, (25,), samples)
    alpha = report.trajectories.copy()
    alpha[0, :4] = [complex(-0.0, 1e-300), complex(1e300, -0.0), 5e-324, -1.0 / 3.0]
    report = replace(report, trajectories=alpha)
    path = tmp_path / "trajectories_A.npz"
    save_trajectories(report, path)
    t_s, stored, mode = load_trajectories(path)
    assert len(t_s) == min(samples, GRID + 1)
    assert t_s.tobytes() == report.trajectory_times.tobytes()
    assert stored.tobytes() == alpha.tobytes()
    assert mode.tolist() == [25]


def analysis_bytes(sched, mode_data, before_each=lambda: None):
    """The bytes of two pairs' reports, a sweep and a power map of one schedule,
    with before_each() run ahead of every call."""
    out = []
    for pair in ((25, 26), (3, 40)):
        before_each()
        report = build_gate_report(sched, mode_data, *pair)
        out += [np.array([report.beta, report.motional_error, report.omega_max, *report.mode_errors]),
                report.trajectory_times, report.trajectories]
    before_each()
    sweep = offset_sweep(sched, mode_data, (25, 26))
    out += [sweep.errors, np.array([sweep.baseline, sweep.fitted_slope])]
    before_each()
    out.append(power_map(sched, mode_data).omega_max)
    return [arr.tobytes() for arr in out]


def held(kind, n_intervals=DEFAULT_BETA_INTERVALS):
    """The value of this kind that the kernels' memo holds on the grid of n_intervals."""
    return trajectory._memo[kind, n_intervals][1]


def test_kernel_memo_changes_no_byte(mode_data, optimized_a):
    # the calls of one schedule share the memo's values; each call on a cleared memo
    # builds everything itself, as every call did before the values were kept
    clear_memo()
    shared = analysis_bytes(optimized_a, mode_data)
    # and the kept unit drive is the relative envelope times the closed-form phasor
    t = np.linspace(0.0, optimized_a.gate_time, DEFAULT_BETA_INTERVALS + 1)
    unit = with_amplitude(optimized_a, 1.0)
    drive = amplitude(t, unit) * np.exp(1j * fm_phase_closed_form(t, unit))
    assert held("drive").tobytes() == drive.tobytes()
    assert analysis_bytes(optimized_a, mode_data) == shared  # warm from the start
    assert analysis_bytes(optimized_a, mode_data, before_each=clear_memo) == shared


def ulp_up(x):
    return float(np.nextafter(x, np.inf))


KINDS = ("drive", "tables", "angles")


def test_kernel_memo_misses_on_any_bit_of_each_key(mode_data):
    sched = random_fm_schedule(21)
    freqs = mode_data.frequencies
    nudged_fm = sched.fm_points.copy()
    nudged_fm[3] = ulp_up(nudged_fm[3])
    nudged_freqs = freqs.copy()
    nudged_freqs[17] = ulp_up(nudged_freqs[17])
    # each change, and the kinds whose key it reaches: the unit drive reads the
    # pattern, the tables mu_ref - omega_k and the gate time, and d_k both
    changes = [
        (replace(sched, mu_ref=ulp_up(sched.mu_ref)), freqs, {"tables", "angles"}),
        (replace(sched, fm_points=nudged_fm), freqs, {"drive", "angles"}),
        (replace(sched, gate_time=ulp_up(sched.gate_time)), freqs, set(KINDS)),
        (replace(sched, amp_shape=ShapeB()), freqs, {"drive", "angles"}),
        (sched, nudged_freqs, {"tables", "angles"}),
        (replace(sched, amp_scale=2 * sched.amp_scale), freqs, set()),
    ]
    for other, other_freqs, reached in changes:
        mode_angle_integrals(sched, freqs)
        before = {kind: held(kind) for kind in KINDS}
        mode_angle_integrals(other, other_freqs)
        rebuilt = {kind for kind in KINDS if held(kind) is not before[kind]}
        assert rebuilt == reached, (other, other_freqs[17])
    # a subset of the held modes is another key: it replaces the held tables on its
    # grid and nothing else, and each call gives the bytes it gives on a cleared memo
    calls = [
        (DEFAULT_BETA_INTERVALS, lambda: mode_angle_integrals(sched, freqs[[30, 2]])),
        (4000, lambda: mode_displacement_integrals(sched, freqs[[30, 2]], 4000, [0.0, 500.0])),
        (4000, lambda: mode_trajectories(sched, freqs[[5, 1]], [0.1, 0.2], 4000, 101)[1]),
    ]
    for n_intervals, call in calls:
        mode_angle_integrals(sched, freqs)
        mode_displacement_integrals(sched, freqs, 4000)
        before = {slot: value for slot, (_, value) in trajectory._memo.items() if slot[0] != "angles"}
        warm = call()
        replaced = {slot for slot, value in before.items() if held(*slot) is not value}
        assert replaced == {("tables", n_intervals)}
        assert warm.tobytes() == cold(call)().tobytes()


def test_kernel_memo_holds_one_value_per_kind_and_grid(mode_data):
    first, second = random_fm_schedule(22), random_fm_schedule(23)
    clear_memo()
    motional_error(first, mode_data, 25, 26, n_intervals=4000)
    assert sorted(trajectory._memo) == [("drive", 4000), ("tables", 4000)]
    drive, tables = weakref.ref(held("drive", 4000)), held("tables", 4000)
    mode_angle_integrals(second, mode_data.frequencies)
    assert drive() is not None  # another grid keeps its own values
    motional_error(second, mode_data, 25, 26, n_intervals=4000)
    assert drive() is None  # nothing else keeps the first pattern's drive
    assert held("tables", 4000) is tables  # the same mu_ref reads the same tables
    assert sorted(trajectory._memo) == sorted(
        (kind, n) for kind in KINDS for n in (4000, DEFAULT_BETA_INTERVALS)
        if (kind, n) != ("angles", 4000)
    )


def test_kernel_memo_is_read_only(mode_data, optimized_a):
    clear_memo()
    build_gate_report(optimized_a, mode_data, 25, 26, alpha_intervals=4000)
    # per grid the unit drive and the coarse and fine tables, and d_k on the angle's grid
    arrays = [held("angles"), *(arr for n in (4000, DEFAULT_BETA_INTERVALS)
                                for arr in (held("drive", n), *held("tables", n)))]
    assert len(trajectory._memo) == 5
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    # callers get their own d_k, the unit drive's scaled by amp_scale^2
    d = mode_angle_integrals(optimized_a, mode_data.frequencies)
    d[:] = 0.0
    scaled = optimized_a.amp_scale**2 * held("angles")
    assert np.all(mode_angle_integrals(optimized_a, mode_data.frequencies) == scaled)


def test_integrate_alpha_loop_builds_one_drive(mode_data, monkeypatch):
    # the unit drive reads the pattern alone, so a loop over modes builds it once
    builds = []
    real = trajectory.fm_phase_closed_form

    def counted(t, sched):
        builds.append(len(t))
        return real(t, sched)

    monkeypatch.setattr(trajectory, "fm_phase_closed_form", counted)
    monkeypatch.setattr(trajectory, "_memo", {})
    sched = random_fm_schedule(24)
    for k in range(5):
        integrate_alpha(sched, 0.1, mode_data.frequencies[k])
    assert builds == [GRID + 1]


def test_power_map_at_another_amplitude_reuses_the_reports_angles(mode_data, optimized_a, monkeypatch):
    # the memo keeps the unit drive's d_k, and every amplitude scales it: a power map
    # at twice the amplitude after a report builds no new d_k, and gives the bytes it
    # gives on a cleared memo
    builds = []
    real = trajectory._angle_sums

    def counted(*args):
        builds.append(len(args[0]))
        return real(*args)

    monkeypatch.setattr(trajectory, "_angle_sums", counted)
    clear_memo()
    build_gate_report(optimized_a, mode_data, 25, 26, trajectory_modes=())
    assert builds == [DEFAULT_BETA_INTERVALS + 1]
    doubled = replace(optimized_a, amp_scale=2 * optimized_a.amp_scale)
    warm = power_map(doubled, mode_data).omega_max
    assert builds == [DEFAULT_BETA_INTERVALS + 1]
    assert warm.tobytes() == cold(lambda: power_map(doubled, mode_data))().omega_max.tobytes()


def test_report_tracing_no_mode_keeps_the_held_tables(mode_data, optimized_a):
    # a report that traces no mode runs no trajectory kernel: the held tables on the
    # 20,000-interval grid stay the all-mode ones its errors read, so the sweep after
    # it builds none (a zero-mode trace had replaced them with (0, 142) tables)
    clear_memo()
    build_gate_report(optimized_a, mode_data, 25, 26, trajectory_modes=())
    tables = held("tables", GRID)
    assert [len(table) for table in tables] == [mode_data.n_modes] * 2
    offset_sweep(optimized_a, mode_data, (25, 26))
    assert held("tables", GRID) is tables
