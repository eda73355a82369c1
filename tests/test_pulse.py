import numpy as np
import pytest

from ionpulse import (
    ApproximationBreakdown,
    FourierDecomposition,
    OutOfRange,
    PulseSchedule,
    ShapeA,
    ShapeB,
    alpha_fourier_approx,
    amplitude,
    drive_frequency,
    fm_offset,
    fourier_decompose,
    turning_points,
    turning_times,
)
from ionpulse.pulse import breakpoints, fm_phase_closed_form, save_waveform
from ionpulse.quadrature import cumulative_simpson, simpson

TAU = 500e-6
MU0 = 2 * np.pi * 2.7e6


def schedule(shape=None, fm=None, amp=2 * np.pi * 100e3, n_osc=8):
    fm = np.zeros(n_osc) if fm is None else np.asarray(fm, dtype=float)
    return PulseSchedule(
        gate_time=TAU,
        amp_shape=shape or ShapeA(),
        amp_scale=amp,
        mu_ref=MU0,
        fm_points=fm,
        n_oscillations=n_osc,
    )


def symmetric_time_pairs(n=1001):
    # (t, tau - t) pairs whose mirror is exactly representable: build the
    # right-half grid first, subtract once (Sterbenz-exact there)
    right = np.linspace(TAU / 2, TAU, n)
    return TAU - right, right


def test_schedule_validation():
    with pytest.raises(ValueError):
        schedule(fm=np.zeros(7))  # wrong length
    with pytest.raises(ValueError):
        schedule(fm=np.full(8, 2 * np.pi * 11e3))  # beyond sanity bound
    with pytest.raises(ValueError):
        PulseSchedule(gate_time=-1.0, amp_shape=ShapeA(), amp_scale=1.0, mu_ref=MU0)
    with pytest.raises(ValueError):
        ShapeB(step_levels=(0.5, 1.0, 0.6))  # asymmetric outer plateaus
    with pytest.raises(ValueError):
        ShapeB(ramp_fraction=0.3)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["gate_time", "amp_scale", "mu_ref"])
def test_schedule_refuses_non_finite(name, value):
    fields = dict(gate_time=TAU, amp_shape=ShapeA(), amp_scale=1.0, mu_ref=MU0)
    with pytest.raises(ValueError, match=name):
        PulseSchedule(**{**fields, name: value})


def test_non_finite_turning_points_and_levels_refused():
    with pytest.raises(ValueError):
        schedule(fm=np.full(8, np.nan))
    with pytest.raises(ValueError):
        ShapeB(step_levels=(0.5, np.nan, 0.5))
    with pytest.raises(ValueError):
        ShapeB(step_levels=(np.inf, 1.0, np.inf))


def test_turning_point_layout():
    sched = schedule(fm=np.arange(1.0, 9.0))
    pts = turning_points(sched)
    assert len(pts) == 15
    np.testing.assert_array_equal(pts, np.array(
        [1, 2, 3, 4, 5, 6, 7, 8, 7, 6, 5, 4, 3, 2, 1], dtype=float))
    times = turning_times(sched)
    assert times[0] == 0.0 and times[-1] == TAU
    np.testing.assert_allclose(np.diff(times), TAU / 14, rtol=1e-12)


def test_amplitude_peak_and_ends():
    sched = schedule()
    assert amplitude(TAU / 2, sched) == sched.amp_scale
    assert amplitude(0.0, sched) == 0.0
    assert amplitude(TAU, sched) == 0.0


def test_amplitude_out_of_range():
    sched = schedule()
    with pytest.raises(OutOfRange):
        amplitude(-1e-9, sched)
    with pytest.raises(OutOfRange):
        amplitude(TAU * (1 + 1e-9), sched)
    with pytest.raises(OutOfRange):
        drive_frequency(-1e-9, sched)


def test_amplitude_exact_time_symmetry():
    left, right = symmetric_time_pairs()
    for shape in (ShapeA(), ShapeB()):
        sched = schedule(shape)
        np.testing.assert_array_equal(
            amplitude(left, sched), amplitude(right, sched)
        )


def test_fm_exact_time_symmetry():
    rng = np.random.default_rng(3)
    fm = rng.uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8)
    sched = schedule(fm=fm)
    left, right = symmetric_time_pairs()
    np.testing.assert_array_equal(fm_offset(left, sched), fm_offset(right, sched))


def test_shape_b_plateaus():
    shape = ShapeB()
    sched = schedule(shape)
    w = shape.ramp_fraction
    plateau = (1 - 4 * w) / 3
    t_outer = (w + plateau / 2) * TAU
    assert amplitude(t_outer, sched) == pytest.approx(
        sched.amp_scale * shape.step_levels[0], rel=1e-12
    )
    assert amplitude(TAU / 2, sched) == pytest.approx(sched.amp_scale, rel=1e-12)
    assert amplitude(0.0, sched) == 0.0


def test_flat_pattern_constant_mu():
    sched = schedule()
    t = np.linspace(0.0, TAU, 2001)
    np.testing.assert_array_equal(drive_frequency(t, sched), np.full(2001, MU0))


def test_interpolation_hits_turning_points_exactly():
    rng = np.random.default_rng(5)
    fm = rng.uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8)
    sched = schedule(fm=fm)
    full = turning_points(sched)
    for t, v in zip(turning_times(sched), full):
        assert fm_offset(t, sched) == v


def test_drive_frequency_c1():
    # raised-cosine arcs: zero slope at every knot, no slope jumps anywhere
    rng = np.random.default_rng(11)
    fm = rng.uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8)
    sched = schedule(fm=fm)
    t = np.linspace(1e-9, TAU - 1e-9, 20001)
    mu = drive_frequency(t, sched)
    slope = np.gradient(mu, t)
    # knot slopes vanish
    for tk in turning_times(sched)[1:-1]:
        h = 1e-10
        local = (fm_offset(tk + h, sched) - fm_offset(tk - h, sched)) / (2 * h)
        assert abs(local) < 2 * np.pi * 2e3 / (TAU / 14) * 1e-4
    # bounded slope everywhere (no discontinuities at this resolution)
    assert np.all(np.abs(np.diff(slope)) < np.abs(slope).max() * 0.05 + 1e-3)


def test_shape_a_smoother_than_shape_b():
    # lower max |dOmega/dt| for equal peak amplitude
    sched_a = schedule(ShapeA())
    sched_b = schedule(ShapeB())
    t = np.linspace(0.0, TAU, 200001)
    rate_a = np.abs(np.diff(amplitude(t, sched_a))).max()
    rate_b = np.abs(np.diff(amplitude(t, sched_b))).max()
    assert rate_a < rate_b


def test_fourier_constant_pattern():
    dec = fourier_decompose(schedule(), n_max=16)
    assert dec.mean == pytest.approx(MU0, rel=1e-12)
    assert np.abs(dec.coefficients).max() < 1e-9 * MU0


def test_fourier_single_harmonic():
    # turning points sampled from one full-period cosine: a_1 captures the
    # amplitude, higher harmonics stay small
    amp_fm = 2 * np.pi * 1e3
    times = np.linspace(0.0, TAU, 15)
    free = amp_fm * np.cos(2 * np.pi * times[:8] / TAU)
    sched = schedule(fm=free)
    dec = fourier_decompose(sched, n_max=16)
    assert dec.coefficients[0] == pytest.approx(amp_fm, rel=0.05)
    assert np.abs(dec.coefficients[1:]).max() < 0.05 * amp_fm


def test_fourier_decomposition_freezes_copies():
    coefficients, harmonics = np.array([1.0, 2.0]), np.array([3.0, 4.0])
    dec = FourierDecomposition(mean=0.0, coefficients=coefficients, harmonics=harmonics)
    # the caller's arrays stay writable and unchanged; the record holds frozen copies
    for mine, kept in ((coefficients, dec.coefficients), (harmonics, dec.harmonics)):
        assert mine.flags.writeable and kept is not mine and not kept.flags.writeable
        saved = kept.copy()
        mine += 1.0
        assert np.array_equal(kept, saved)
    assert coefficients.tolist() == [2.0, 3.0] and harmonics.tolist() == [4.0, 5.0]


def test_fourier_harmonic_frequencies():
    dec = fourier_decompose(schedule(), n_max=4)
    np.testing.assert_allclose(
        dec.harmonics, 2 * np.pi * np.arange(1, 5) / TAU, rtol=1e-12
    )


def test_fourier_reconstruction_error():
    rng = np.random.default_rng(9)
    for trial in range(3):
        fm = rng.uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8)
        sched = schedule(fm=fm)
        dec = fourier_decompose(sched, n_max=32)
        t = np.linspace(0.0, TAU, 4097)
        mu = drive_frequency(t, sched)
        recon = dec.mean + dec.coefficients @ np.cos(np.outer(dec.harmonics, t))
        rms_err = np.sqrt(np.mean((recon - mu) ** 2))
        rms_sig = np.sqrt(np.mean((mu - dec.mean) ** 2))
        assert rms_err < 0.01 * rms_sig


def test_fourier_cosine_only_consistency():
    # series is even about tau/2 by construction; sine content of mu is zero
    rng = np.random.default_rng(13)
    fm = rng.uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8)
    sched = schedule(fm=fm)
    t = np.linspace(0.0, TAU, 8193)
    dx = t[1] - t[0]
    mu = drive_frequency(t, sched)
    for n in (1, 2, 5, 9):
        b_n = (2 / TAU) * simpson(mu * np.sin(2 * np.pi * n * t / TAU), dx)
        assert abs(b_n) < 1e-9 * np.abs(mu - mu.mean()).max()


def test_alpha_approx_reduces_to_plain_tone_for_flat_mu():
    sched = schedule()
    eta, omega_k = 0.05, MU0 - 2 * np.pi * 5e3
    t = np.linspace(0.0, TAU, 20001)
    dx = t[1] - t[0]
    delta0 = MU0 - omega_k
    direct = eta * simpson(amplitude(t, sched) * np.exp(1j * delta0 * t), dx)
    approx = alpha_fourier_approx(sched, eta, omega_k)
    assert approx == pytest.approx(direct, rel=1e-12)


def test_alpha_approx_error_quadratic_in_modulation():
    # halving the FM depth should shrink the expansion error about fourfold
    from ionpulse import integrate_alpha

    rng = np.random.default_rng(21)
    fm = rng.uniform(-2 * np.pi * 90.0, 2 * np.pi * 90.0, 8)
    eta, omega_k = 0.05, MU0 - 2 * np.pi * 5e3

    def expansion_error(scale):
        sched = schedule(fm=scale * fm)
        _, alpha = integrate_alpha(sched, eta, omega_k)
        approx = alpha_fourier_approx(sched, eta, omega_k)
        return abs(approx - alpha[-1])

    ratio = expansion_error(1.0) / expansion_error(0.5)
    assert 2.5 < ratio < 6.0


def test_alpha_approx_warns_on_deep_modulation():
    fm = np.full(8, 2 * np.pi * 2e3)
    fm[1::2] *= -1
    sched = schedule(fm=fm)
    with pytest.warns(ApproximationBreakdown):
        alpha_fourier_approx(sched, 0.05, MU0 - 2 * np.pi * 5e3)


def test_far_detuned_endpoint_decays():
    # smooth envelope: endpoint magnitude falls off with detuning
    from ionpulse import integrate_alpha

    sched = schedule()
    detunings = 2 * np.pi * np.array([50e3, 100e3, 200e3, 400e3])
    mags = [
        abs(integrate_alpha(sched, 1.0, MU0 - d)[1][-1]) for d in detunings
    ]
    assert all(a > b for a, b in zip(mags, mags[1:]))


def test_single_oscillation_constant_offset():
    sched = schedule(fm=np.array([2 * np.pi * 1e3]), n_osc=1)
    t = np.linspace(0.0, TAU, 101)
    np.testing.assert_array_equal(
        drive_frequency(t, sched), np.full(101, MU0 + 2 * np.pi * 1e3)
    )


def test_schedule_roundtrip(tmp_path):
    from ionpulse.pulse import load_schedule, save_schedule

    rng = np.random.default_rng(17)
    for shape in (ShapeA(), ShapeB(step_levels=(0.4, 1.0, 0.4), ramp_fraction=0.13)):
        sched = schedule(shape, fm=rng.uniform(-2 * np.pi * 2e3, 2 * np.pi * 2e3, 8))
        path = tmp_path / "sched.json"
        save_schedule(sched, path)
        loaded = load_schedule(path)
        assert loaded.amp_shape == sched.amp_shape
        assert loaded.gate_time == sched.gate_time
        np.testing.assert_allclose(loaded.fm_points, sched.fm_points, rtol=1e-15)
        assert loaded.mu_ref == pytest.approx(sched.mu_ref, rel=1e-15)


def test_saved_form_is_what_the_file_loads(tmp_path):
    # the Hz round trip moves a float by an ulp when its mantissa lies above about 1.57
    # (2 pi 100 kHz and 2 pi 2.7 MHz stay): random turning points, mu_ref and amp_scale,
    # in their saved form, load back bit for bit and save to the bytes the original saves to
    from ionpulse.pulse import load_schedule, save_schedule, saved_form

    rng = np.random.default_rng(29)
    moved = 0
    for shape in (ShapeA(), ShapeB(step_levels=(0.4, 1.0, 0.4), ramp_fraction=0.13)):
        for _ in range(20):
            sched = PulseSchedule(
                gate_time=TAU, amp_shape=shape, amp_scale=2 * np.pi * rng.uniform(1e3, 1e6),
                mu_ref=2 * np.pi * rng.uniform(1e6, 1e7), fm_points=rng.uniform(-6e4, 6e4, 8),
            )
            saved = saved_form(sched)
            values = [saved.amp_scale, saved.mu_ref, *saved.fm_points]
            moved += sum(a != b for a, b in zip(values, [sched.amp_scale, sched.mu_ref, *sched.fm_points]))
            path = tmp_path / "sched.json"
            save_schedule(sched, path)
            original = path.read_bytes()
            loaded = load_schedule(path)
            assert loaded.amp_shape == saved.amp_shape and loaded.gate_time == saved.gate_time
            assert np.array([loaded.amp_scale, loaded.mu_ref, *loaded.fm_points]).tobytes() == \
                np.array(values).tobytes()
            save_schedule(saved, path)
            assert path.read_bytes() == original
    assert moved >= 20  # 41 of the 400 values move


@pytest.mark.parametrize("shape, samples", [(ShapeA(), 2001), (ShapeB(), 11)], ids=["A", "B"])
def test_waveform_npz(tmp_path, shape, samples):
    # the file holds the sampled pulse as computed: no text round trip rounds a value
    sched = schedule(shape, fm=2 * np.pi * np.linspace(-900.0, 700.0, 8))
    path = tmp_path / "waveform.npz"
    save_waveform(sched, path, samples=samples)
    t = np.linspace(0.0, TAU, samples)
    expected = {"t_s": t, "omega_hz": amplitude(t, sched) / (2 * np.pi),
                "mu_offset_hz": fm_offset(t, sched) / (2 * np.pi)}
    with np.load(path, allow_pickle=False) as data:
        assert sorted(data.files) == sorted(expected)
        for name, values in expected.items():
            assert (data[name].dtype, data[name].shape) == (np.float64, (samples,)), name
            assert data[name].tobytes() == values.tobytes(), name


def test_fm_phase_closed_form_matches_fine_simpson():
    # against the running Simpson integral of mu - mu_ref on 200,000 intervals, whose
    # O(h^3) error is ~5e-16 rad here: at most 4.6e-13 rad apart (x86-64), the
    # rounding of the running sum. Without the sin(pi u)/pi term of each arc the
    # phases are ~0.6 rad apart. (A single oscillation is the constant offset, whose
    # phase is fm_points[0] t.)
    t = np.linspace(0.0, TAU, 200_001)
    rng = np.random.default_rng(21)
    flat = schedule(fm=[2 * np.pi * 3e3], n_osc=1)
    np.testing.assert_array_equal(fm_phase_closed_form(t, flat), flat.fm_points[0] * t)
    for n_osc in (2, 3, 8):
        for _ in range(3):
            sched = schedule(fm=rng.uniform(-2 * np.pi * 10e3, 2 * np.pi * 10e3, n_osc), n_osc=n_osc)
            reference = cumulative_simpson(fm_offset(t, sched), t[1] - t[0])
            got = fm_phase_closed_form(t, sched)
            np.testing.assert_allclose(got, reference, rtol=0.0, atol=2e-12)
            assert fm_phase_closed_form(t[1234], sched) == got[1234]


def test_breakpoints_split_the_drive_into_analytic_pieces():
    a = schedule()
    np.testing.assert_array_equal(breakpoints(a), turning_times(a))
    b = schedule(shape=ShapeB(ramp_fraction=0.1))
    ramp_ends = TAU * np.array([0.1, 0.3, 0.4, 0.6, 0.7, 0.9])  # plateaus of 0.2 tau
    np.testing.assert_allclose(breakpoints(b), np.union1d(turning_times(b), ramp_ends), rtol=1e-15)
    # each ramp end joins a ramp and a plateau: the envelope is flat on one side only
    h = 1e-3 * TAU
    levels = amplitude(np.concatenate([ramp_ends - h, ramp_ends + h]), b).reshape(2, -1)
    flat = np.isin(levels, b.amp_scale * np.array([0.55, 1.0]))
    assert np.all(flat.sum(axis=0) == 1)


@pytest.mark.parametrize("shape", [ShapeA(), ShapeB(ramp_fraction=0.1)])
def test_breakpoints_span_the_gate_with_one_oscillation(shape):
    # one oscillation has the single turning time 0; the edges still close at tau,
    # so a rule between them covers the whole gate (shape B's last ramp included)
    sched = schedule(shape=shape, fm=[2 * np.pi * 1e3], n_osc=1)
    edges = breakpoints(sched)
    assert edges[0] == 0.0 and edges[-1] == TAU and np.all(np.diff(edges) > 0)
    if isinstance(shape, ShapeB):
        np.testing.assert_allclose(
            edges[1:-1], TAU * np.array([0.1, 0.3, 0.4, 0.6, 0.7, 0.9]), rtol=1e-15
        )
    else:
        assert len(edges) == 2
