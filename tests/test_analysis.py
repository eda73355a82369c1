import csv
from dataclasses import replace

import numpy as np
import pytest

from ionpulse import (
    DegeneratePair,
    InsufficientPoints,
    ModeData,
    OptimizationProblem,
    OptimizationResult,
    PulseSchedule,
    RobustnessSweep,
    ShapeA,
    TrapConfig,
    all_pairs,
    build_gate_report,
    build_transverse_matrix,
    calibrate_power,
    default_mu_ref,
    default_offsets,
    entangling_angle,
    fit_slope,
    fourier_decompose,
    motional_error,
    offset_sweep,
    power_map,
    solve_equilibrium,
    solve_modes,
)
from ionpulse.modes import most_uniform_mode
from ionpulse.analysis import save_power_map_csv, save_sweep_csv
from ionpulse.trajectory import mode_errors

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
    # each check is written so that nan fails it
    for offsets, errors in (([1.0, np.nan, 3.0], [0.0] * 3), ([1.0, np.inf], [0.0] * 2),
                            ([1.0, 2.0], [0.0, np.nan])):
        with pytest.raises(ValueError):
            RobustnessSweep(offsets=np.array(offsets), errors=np.array(errors), baseline=0.0)


def test_sweep_refuses_nan_offset_before_any_kernel(mode_data, optimized_a, monkeypatch):
    # comparisons with nan are false, so a nan offset passed the range and order
    # checks and the sweep returned a nan error for it
    import ionpulse.trajectory as traj

    def kernel(*args, **kwargs):
        raise AssertionError("a kernel ran")

    monkeypatch.setattr(traj, "_unit_drive", kernel)
    monkeypatch.setattr(traj, "_tables", kernel)
    offsets = 2 * np.pi * np.array([1.0, np.nan, 3.0, 4.0])
    with pytest.raises(ValueError, match="offsets must be finite"):
        offset_sweep(optimized_a, mode_data, DEFAULT_PAIR, offsets)


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


# of the error: a sweep point against motional_error of the schedule whose mu_ref is
# shifted by the offset. On x86-64 they agreed to 1.4e-13 at the points below, and to
# 5.7e-13 over 48 points of 10 Hz - 2 kHz
SHIFTED_SCHEDULE_TOL = 2e-12


def test_sweep_matches_shifted_schedule(mode_data, optimized_a, optimized_b):
    # the sweep takes an offset on the detuning tables of mu_ref - omega_k, as an
    # exact coarse phase times a series in the within-block phase; the shifted
    # schedule takes the tables of mu_ref + offset - omega_k. Each offset is put on
    # mu_ref's float grid, so both see the same shift: a float64 mu_ref + offset
    # alone rounds the shift by up to 1.9e-9 rad/s, which moved the error by 8.5e-12.
    # A sign slip in the series, or a series cut at 3 terms, fails this test
    for sched in (optimized_a, optimized_b):
        wanted = default_offsets(8, 2 * np.pi * 100.0, 2 * np.pi * 2000.0)
        offsets = (sched.mu_ref + wanted) - sched.mu_ref
        sweep = offset_sweep(sched, mode_data, DEFAULT_PAIR, offsets)
        for offset, err in zip(sweep.offsets, sweep.errors):
            shifted = replace(sched, mu_ref=sched.mu_ref + offset)
            assert shifted.mu_ref - sched.mu_ref == offset  # the shift the sweep takes
            expected = motional_error(shifted, mode_data, *DEFAULT_PAIR)
            assert abs(err - expected) <= SHIFTED_SCHEDULE_TOL * expected


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
            direct, rel=1e-12
        )


def flat_chain(n_ions):
    """Modes of an n-ion chain and a flat FM schedule just below its most uniform mode."""
    cfg = TrapConfig(n_ions=n_ions)
    modes = solve_modes(build_transverse_matrix(solve_equilibrium(cfg), cfg), cfg)
    sched = PulseSchedule(
        gate_time=500e-6, amp_shape=ShapeA(), amp_scale=2 * np.pi * 100e3,
        mu_ref=modes.frequencies[most_uniform_mode(modes) - 1] - 2 * np.pi * 3.7e3,
        fm_points=np.zeros(8),
    )
    return modes, sched


@pytest.fixture(scope="module")
def chain_12():
    return flat_chain(12)


def test_flat_power_maps_of_three_chains_build_one_drive(monkeypatch):
    # the unit drive reads the FM pattern alone, not mu_ref or the frequencies, so
    # power maps of one flat pattern on three chains build it once, as a trap scan does
    import ionpulse.trajectory as traj

    chains = [flat_chain(n) for n in (8, 10, 12)]
    assert len({sched.mu_ref for _, sched in chains}) == 3
    grids = []
    real = traj.fm_phase_closed_form

    def counted(t, sched):
        grids.append(len(t))
        return real(t, sched)

    monkeypatch.setattr(traj, "fm_phase_closed_form", counted)
    monkeypatch.setattr(traj, "_memo", {})
    for modes, sched in chains:
        power_map(sched, modes)
    assert grids == [traj.DEFAULT_BETA_INTERVALS + 1]


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


def test_power_map_of_every_pair_is_the_all_pairs_map(chain_12):
    # pairs=None takes its rows in all_pairs order, degenerate pairs included
    modes, sched = chain_12
    eta = modes.eta.copy()
    eta[11] = 0.0
    uncoupled = ModeData(frequencies=modes.frequencies, vectors=modes.vectors, eta=eta)
    default = power_map(sched, uncoupled)
    explicit = power_map(sched, uncoupled, pairs=all_pairs(12))
    np.testing.assert_array_equal(default.omega_max, explicit.omega_max)
    assert default.degenerate_pairs == explicit.degenerate_pairs == tuple((i, 12) for i in range(1, 12))


def test_power_map_of_one_ion_is_empty(chain_12):
    _, sched = chain_12
    one = ModeData(frequencies=[sched.mu_ref + 2 * np.pi * 3.7e3], vectors=[[1.0]], eta=[[0.1]])
    pmap = power_map(sched, one)
    assert pmap.omega_max.shape == (1, 1) and np.isnan(pmap.omega_max[0, 0])
    assert pmap.degenerate_pairs == () and pmap.computed_pairs() == []


def test_values_compare_by_identity(chain, mode_data, optimized_a):
    # a generated __eq__ over array fields raised "truth value of an array is ambiguous"
    # on two equal instances; these compare by identity, so == never raises
    values = [
        optimized_a, chain, mode_data,
        power_map(optimized_a, mode_data, pairs=[(1, 2)]),
        synthetic_sweep(2.0),
        fourier_decompose(optimized_a, n_max=4, n_intervals=256),
        build_gate_report(optimized_a, mode_data, 25, 26, alpha_intervals=400,
                          trajectory_modes=(1, 2), trajectory_samples=11),
        OptimizationResult(schedule=optimized_a, costs=(1.0, 0.5), final_cost=0.5, rule_nodes=24,
                           rule_gap=0.0),
    ]
    for value in values:
        assert value == value
        assert not replace(value) == value
        assert replace(value) != value


INDEXED_CALLS = {
    "entangling_angle": lambda sched, modes, k: entangling_angle(sched, modes, k, 6),
    "motional_error": lambda sched, modes, k: motional_error(sched, modes, 5, k),
    "mode_errors": lambda sched, modes, k: mode_errors(sched, modes, k, 6, both_ions=False),
    "calibrate_power": lambda sched, modes, k: calibrate_power(sched, modes, k, 6),
    "build_gate_report": lambda sched, modes, k: build_gate_report(sched, modes, 5, k),
    "offset_sweep": lambda sched, modes, k: offset_sweep(sched, modes, (k, 6)),
    "power_map": lambda sched, modes, k: power_map(sched, modes, pairs=[(k, 3)]),
    "default_mu_ref": lambda sched, modes, k: default_mu_ref(modes, mode=k),
}


@pytest.mark.parametrize("index", [0, 13])
@pytest.mark.parametrize("name", INDEXED_CALLS)
def test_out_of_range_index_refused(chain_12, name, index):
    # 0 would read row -1 (ion 12) and 13 would read past the end
    modes, sched = chain_12
    with pytest.raises(ValueError, match=f"index {index} outside 1..12"):
        INDEXED_CALLS[name](sched, modes, index)


@pytest.mark.parametrize("name", INDEXED_CALLS)
def test_non_integral_index_refused(chain_12, name):
    # 2.5 would be truncated to 2 and read ion or mode 2's row
    modes, sched = chain_12
    with pytest.raises(ValueError, match="index 2.5 is not an integer"):
        INDEXED_CALLS[name](sched, modes, 2.5)


def test_index_selections_refuse_non_integral_entries(chain_12):
    modes, sched = chain_12
    with pytest.raises(ValueError, match="ion index 1.9 is not an integer"):
        modes.pair_rows([(1.9, 3.2)])
    with pytest.raises(ValueError, match="mode index 2.5 is not an integer"):
        modes.rows([2.5], "mode")
    with pytest.raises(ValueError, match="mode index 1.5 is not an integer"):
        build_gate_report(sched, modes, 5, 6, trajectory_modes=[1.5])
    with pytest.raises(ValueError, match="mode index 2.5 is not an integer"):
        OptimizationProblem(base_schedule=sched, modes=modes, ion_pair=(5, 6), target_modes=(2.5, 3.7))
    with pytest.raises(ValueError, match="ion index 2.5 is not an integer"):
        OptimizationProblem(base_schedule=sched, modes=modes, ion_pair=(2.5, 6))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="is not an integer"):
            modes.rows([bad])
    # numpy integers, and floats holding whole numbers, stay indices
    np.testing.assert_array_equal(modes.rows(np.array([2, 12], dtype=np.int32)), [1, 11])
    np.testing.assert_array_equal(modes.pair_rows([(np.int64(1), 3.0)]), [[0, 2]])
    problem = OptimizationProblem(base_schedule=sched, modes=modes, ion_pair=(np.int64(5), 6.0),
                                  target_modes=np.array([2, 3]))
    assert problem.ion_pair == (5, 6) and problem.target_modes == (2, 3)
    assert all(type(k) is int for k in problem.ion_pair + problem.target_modes)


PAIR_CALLS = {
    "entangling_angle": lambda sched, modes, pair: entangling_angle(sched, modes, *pair),
    "motional_error": lambda sched, modes, pair: motional_error(sched, modes, *pair),
    "mode_errors": lambda sched, modes, pair: mode_errors(sched, modes, *pair, both_ions=False),
    "calibrate_power": lambda sched, modes, pair: calibrate_power(sched, modes, *pair),
    "build_gate_report": lambda sched, modes, pair: build_gate_report(sched, modes, *pair),
    "offset_sweep": lambda sched, modes, pair: offset_sweep(sched, modes, pair),
    "power_map": lambda sched, modes, pair: power_map(sched, modes, pairs=[(1, 2), pair]),
}


@pytest.mark.parametrize("name", PAIR_CALLS)
def test_pair_of_one_ion_refused(chain_12, name):
    # with both ions the same, the error would count that ion's couplings twice
    # and the power map would write a diagonal entry
    modes, sched = chain_12
    with pytest.raises(ValueError, match=r"pair \(3, 3\) addresses one ion twice"):
        PAIR_CALLS[name](sched, modes, (3, 3))


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
