import csv

import numpy as np
import pytest

from ionpulse import (
    DegeneratePair,
    InsufficientPoints,
    ModeData,
    PulseSchedule,
    RobustnessSweep,
    ShapeA,
    TrapConfig,
    all_pairs,
    build_transverse_matrix,
    calibrate_power,
    default_offsets,
    fit_slope,
    motional_error,
    offset_sweep,
    power_map,
    solve_equilibrium,
    solve_modes,
    with_frequency_offset,
)
from ionpulse.modes import most_uniform_mode
from ionpulse.analysis import save_power_map_csv, save_sweep_csv

from conftest import DEFAULT_PAIR


def synthetic_sweep(exponent, coefficient=1e-16, baseline=1e-9, n=20):
    offsets = default_offsets(n)
    extra = coefficient * offsets**exponent
    return RobustnessSweep(
        offsets=offsets, errors=baseline + extra, baseline=baseline
    )


def test_fit_recovers_quartic():
    slope, stderr = fit_slope(synthetic_sweep(4.0, coefficient=1e-22))
    assert slope == pytest.approx(4.0, abs=1e-6)
    assert stderr < 1e-6


def test_fit_recovers_quadratic():
    slope, _ = fit_slope(synthetic_sweep(2.0, coefficient=1e-12))
    assert slope == pytest.approx(2.0, abs=1e-6)


def test_fit_window_excludes_baseline_dominated_points():
    # points with extra error below ten baselines must not enter the fit
    sweep = synthetic_sweep(4.0, coefficient=1e-20, baseline=1e-9)
    extra = sweep.errors - sweep.baseline
    window = extra > 10 * sweep.baseline
    assert 5 <= window.sum() < len(sweep.offsets)
    slope, _ = fit_slope(sweep)
    assert slope == pytest.approx(4.0, abs=1e-3)


def test_fit_insufficient_points():
    sweep = synthetic_sweep(4.0, coefficient=1e-40)  # everything under the floor
    with pytest.raises(InsufficientPoints):
        fit_slope(sweep)


def test_sweep_validation():
    with pytest.raises(ValueError):
        RobustnessSweep(
            offsets=np.array([2.0, 1.0]), errors=np.zeros(2), baseline=0.0
        )
    with pytest.raises(ValueError):
        RobustnessSweep(
            offsets=np.array([1.0, 2.0]), errors=np.array([-1.0, 0.0]), baseline=0.0
        )


def test_offset_zero_equals_baseline(mode_data, optimized_a):
    baseline = motional_error(optimized_a, mode_data, *DEFAULT_PAIR)
    shifted = motional_error(
        optimized_a, mode_data, *DEFAULT_PAIR, frequency_offset=0.0
    )
    assert shifted == baseline
    sweep = offset_sweep(optimized_a, mode_data, DEFAULT_PAIR, default_offsets(4))
    assert sweep.baseline == baseline


def test_sweep_continuity(mode_data, optimized_a):
    # halving the smallest offset changes the error smoothly
    small = 2 * np.pi * 10.0
    e1 = motional_error(
        optimized_a, mode_data, *DEFAULT_PAIR, frequency_offset=small
    )
    e2 = motional_error(
        optimized_a, mode_data, *DEFAULT_PAIR, frequency_offset=small / 2
    )
    assert e1 / e2 < 10.0 and e2 / e1 < 10.0


def test_sweep_matches_shifted_schedule(mode_data, optimized_a):
    offsets = default_offsets(6, 2 * np.pi * 100.0, 2 * np.pi * 1000.0)
    sweep = offset_sweep(optimized_a, mode_data, DEFAULT_PAIR, offsets)
    for offset, err in zip(sweep.offsets, sweep.errors):
        direct = motional_error(
            with_frequency_offset(optimized_a, offset), mode_data, *DEFAULT_PAIR
        )
        assert err == pytest.approx(direct, rel=1e-12)


def test_sweep_extra_error_monotone(mode_data, optimized_a):
    sweep = offset_sweep(optimized_a, mode_data, DEFAULT_PAIR)
    extra = sweep.errors - sweep.baseline
    meaningful = extra > 1e-12
    assert np.all(np.diff(extra[meaningful]) > 0)


def test_sweep_threads_equivalent(mode_data, optimized_a):
    offsets = default_offsets(8)
    serial = offset_sweep(optimized_a, mode_data, DEFAULT_PAIR, offsets, threads=1)
    parallel = offset_sweep(optimized_a, mode_data, DEFAULT_PAIR, offsets, threads=4)
    np.testing.assert_array_equal(serial.errors, parallel.errors)


def test_optimized_slopes(mode_data, optimized_a, optimized_b):
    # quartic-or-steeper scaling against drive-frequency offsets
    offsets = default_offsets(48)
    slopes = {}
    for label, sched in (("A", optimized_a), ("B", optimized_b)):
        sweep = offset_sweep(sched, mode_data, DEFAULT_PAIR, offsets)
        slope, stderr = fit_slope(sweep)
        assert sweep.fitted_slope == pytest.approx(slope, rel=1e-12)
        slopes[label] = slope
    assert slopes["A"] >= 3.5
    assert slopes["B"] >= 3.5
    assert slopes["A"] >= slopes["B"] - 0.5


def test_power_map_symmetric_and_finite(mode_data, optimized_a):
    pmap = power_map(optimized_a, mode_data)
    m = pmap.omega_max
    np.testing.assert_array_equal(m, m.T)
    assert not pmap.degenerate_pairs
    off_diagonal = ~np.eye(mode_data.n_modes, dtype=bool)
    assert np.all(np.isfinite(m[off_diagonal]))
    assert np.all(np.isnan(np.diag(m)))


def test_power_map_matches_calibrate_power(mode_data, optimized_a):
    pmap = power_map(optimized_a, mode_data, pairs=[(25, 26), (3, 41)])
    for pair in ((25, 26), (3, 41)):
        direct = calibrate_power(optimized_a, mode_data, *pair)
        assert pmap.omega_max[pair[0] - 1, pair[1] - 1] == pytest.approx(
            direct, rel=1e-9
        )


@pytest.fixture(scope="module")
def chain_12():
    """Modes of a 12-ion chain and a flat FM schedule just below its most uniform mode."""
    cfg = TrapConfig(n_ions=12)
    modes = solve_modes(build_transverse_matrix(solve_equilibrium(cfg), cfg), cfg)
    sched = PulseSchedule(
        gate_time=500e-6, amp_shape=ShapeA(), amp_scale=2 * np.pi * 100e3,
        mu_ref=modes.frequencies[most_uniform_mode(modes) - 1] - 2 * np.pi * 3.7e3,
        fm_points=np.zeros(8),
    )
    return modes, sched


def test_power_map_matches_calibrate_power_on_every_pair(chain_12):
    modes, sched = chain_12
    pmap = power_map(sched, modes)
    assert not pmap.degenerate_pairs
    for i, j in all_pairs(12):
        direct = calibrate_power(sched, modes, i, j)
        assert pmap.omega_max[i - 1, j - 1] == pytest.approx(direct, rel=1e-12)
        assert pmap.omega_max[j - 1, i - 1] == pmap.omega_max[i - 1, j - 1]


def test_power_map_flags_degenerate_pair(chain_12):
    modes, sched = chain_12
    eta = modes.eta.copy()
    eta[11] = 0.0  # ion 12 no longer couples to any mode
    uncoupled = ModeData(frequencies=modes.frequencies, vectors=modes.vectors, eta=eta)
    pmap = power_map(sched, uncoupled, pairs=[(2, 5), (3, 12), (1, 2)])
    assert pmap.degenerate_pairs == ((3, 12),)
    assert np.isnan(pmap.omega_max[2, 11]) and np.isnan(pmap.omega_max[11, 2])
    # the NaN pair is skipped, and the rest come in upper-triangle row order as Python numbers
    computed = pmap.computed_pairs()
    assert computed == [(1, 2, pmap.omega_max[0, 1]), (2, 5, pmap.omega_max[1, 4])]
    assert all(type(v) is t for row in computed for v, t in zip(row, (int, int, float)))
    assert pmap.omega_max[1, 4] == pytest.approx(calibrate_power(sched, uncoupled, 2, 5), rel=1e-12)
    with pytest.raises(DegeneratePair):
        calibrate_power(sched, uncoupled, 3, 12)


def test_power_map_threads_equivalent(mode_data, optimized_a):
    pairs = [(1, 2), (10, 30), (25, 26), (5, 45)]
    serial = power_map(optimized_a, mode_data, pairs, threads=1)
    parallel = power_map(optimized_a, mode_data, pairs, threads=4)
    np.testing.assert_allclose(
        serial.omega_max, parallel.omega_max, rtol=1e-12, equal_nan=True
    )


def test_power_map_distance_and_edges(chain, mode_data, optimized_a):
    pmap = power_map(optimized_a, mode_data)
    n = mode_data.n_modes
    iu = np.triu_indices(n, k=1)
    values = pmap.omega_max[iu]
    distances = np.abs(chain.positions[:, None] - chain.positions[None, :])[iu]
    corr = np.corrcoef(values, distances)[0, 1]
    assert abs(corr) < 0.5
    edge = np.zeros(n, dtype=bool)
    edge[:5] = edge[-5:] = True
    involves_edge = edge[iu[0]] | edge[iu[1]]
    assert values[involves_edge].mean() > values[~involves_edge].mean()


def test_all_pairs_count():
    pairs = all_pairs(50)
    assert len(pairs) == 1225
    assert pairs[0] == (1, 2) and pairs[-1] == (49, 50)


def test_sweep_csv_roundtrip(tmp_path, mode_data, optimized_a):
    sweep = offset_sweep(
        optimized_a, mode_data, DEFAULT_PAIR, default_offsets(8)
    )
    path = tmp_path / "sweep.csv"
    save_sweep_csv(sweep, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["offset_hz", "error", "extra_error"]
    values = np.array(rows, dtype=float)
    np.testing.assert_allclose(2 * np.pi * values[:, 0], sweep.offsets, rtol=1e-15)
    np.testing.assert_array_equal(values[:, 1], sweep.errors)
    np.testing.assert_array_equal(values[:, 2], sweep.errors - sweep.baseline)


def test_power_map_csv_roundtrip(tmp_path, mode_data, optimized_a):
    pmap = power_map(optimized_a, mode_data, pairs=[(1, 50), (25, 26)])
    path = tmp_path / "map.csv"
    save_power_map_csv(pmap, path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["ion_i", "ion_j", "omega_max_hz"]
    loaded = np.full((50, 50), np.nan)
    for i, j, value in rows:
        loaded[int(i) - 1, int(j) - 1] = loaded[int(j) - 1, int(i) - 1] = 2 * np.pi * float(value)
    np.testing.assert_allclose(loaded, pmap.omega_max, rtol=1e-15, equal_nan=True)
