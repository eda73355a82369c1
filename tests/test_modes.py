import numpy as np
import pytest

from ionpulse import (
    DegenerateSpacing,
    ImaginaryMode,
    IonCrystal,
    ModeData,
    TrapConfig,
    build_transverse_matrix,
    solve_equilibrium,
    solve_modes,
)
from ionpulse.constants import HBAR
from ionpulse.modes import (
    load_modes,
    most_uniform_mode,
    participation_uniformity,
    save_modes,
    save_spectrum_csv,
)


def two_ion_crystal(spacing):
    return IonCrystal(
        positions=np.array([-spacing / 2, spacing / 2]),
        residual_force=0.0,
        iterations=1,
    )


def test_matrix_single_ion():
    cfg = TrapConfig(n_ions=1)
    crystal = IonCrystal(positions=np.zeros(1), residual_force=0.0, iterations=0)
    matrix = build_transverse_matrix(crystal, cfg)
    assert matrix.shape == (1, 1)
    assert matrix[0, 0] == pytest.approx(cfg.omega_x**2, rel=1e-15)


def test_matrix_two_ions_closed_form():
    cfg = TrapConfig(n_ions=2, delta_z=5e-6)
    d = 5e-6
    matrix = build_transverse_matrix(two_ion_crystal(d), cfg)
    coupling = cfg.coulomb_k * cfg.charge**2 / (cfg.ion_mass * d**3)
    eigenvalues = np.sort(np.linalg.eigvalsh(matrix))
    assert eigenvalues[1] == pytest.approx(cfg.omega_x**2, rel=1e-12)
    assert eigenvalues[0] == pytest.approx(cfg.omega_x**2 - 2 * coupling, rel=1e-12)


def test_matrix_row_sums(chain, cfg):
    matrix = build_transverse_matrix(chain, cfg)
    np.testing.assert_allclose(
        matrix.sum(axis=1), np.full(cfg.n_ions, cfg.omega_x**2), rtol=1e-12
    )
    np.testing.assert_array_equal(matrix, matrix.T)


def test_matrix_degenerate_spacing():
    cfg = TrapConfig(n_ions=2)
    with pytest.raises(DegenerateSpacing):
        build_transverse_matrix(two_ion_crystal(0.05 * cfg.delta_z), cfg)


def test_imaginary_mode_raises():
    # spacing tight enough that Coulomb softening overwhelms omega_x (zigzag)
    cfg = TrapConfig(n_ions=2, delta_z=3e-6, omega_x=2 * np.pi * 0.05e6)
    matrix = build_transverse_matrix(two_ion_crystal(0.5e-6), cfg)
    with pytest.raises(ImaginaryMode):
        solve_modes(matrix, cfg)


def test_two_ion_mode_vectors():
    cfg = TrapConfig(n_ions=2, delta_z=5e-6)
    modes = solve_modes(build_transverse_matrix(two_ion_crystal(5e-6), cfg), cfg)
    com = np.full(2, 1 / np.sqrt(2))
    np.testing.assert_allclose(modes.vectors[1], com, atol=1e-12)
    rocking = np.array([1, -1]) / np.sqrt(2)
    assert np.allclose(modes.vectors[0], rocking, atol=1e-12) or np.allclose(
        modes.vectors[0], -rocking, atol=1e-12
    )
    assert modes.frequencies[1] == pytest.approx(cfg.omega_x, rel=1e-12)


def test_default_chain_spectrum(mode_data, cfg):
    freqs_mhz = mode_data.frequencies / (2 * np.pi) / 1e6
    assert 2.40 <= freqs_mhz[0] <= 2.50  # lowest transverse mode
    assert mode_data.frequencies[-1] == pytest.approx(cfg.omega_x, rel=1e-9)
    assert np.all(np.diff(mode_data.frequencies) > 0)


def test_orthonormality(mode_data):
    gram = mode_data.vectors @ mode_data.vectors.T
    assert np.abs(gram - np.eye(mode_data.n_modes)).max() < 1e-10


def test_eigen_residual(mode_data, chain, cfg):
    matrix = build_transverse_matrix(chain, cfg)
    for k in (0, 24, 25, 49):
        u = mode_data.vectors[k]
        residual = matrix @ u - mode_data.frequencies[k] ** 2 * u
        assert np.linalg.norm(residual) < 1e-8 * cfg.omega_x**2


def test_standing_wave_node_counts(mode_data):
    n = mode_data.n_modes
    for k in range(n):
        u = mode_data.vectors[k]
        changes = int(np.sum(u[:-1] * u[1:] < 0))
        assert changes == n - (k + 1)


def test_uniform_mode_participation(mode_data):
    # the wavelength-four standing wave: every ion participates comparably.
    # Measured min/max participation on the default chain is 0.80.
    k = most_uniform_mode(mode_data)
    assert k == 25
    assert participation_uniformity(mode_data, k) > 0.7


def test_sideband_splitting_near_uniform_mode(mode_data):
    # mean gap over the ten target modes; reported 18 kHz, +/-20%
    k = most_uniform_mode(mode_data)
    f_hz = mode_data.frequencies / (2 * np.pi)
    gaps = np.diff(f_hz[k - 6 : k + 5])
    assert gaps.mean() == pytest.approx(18e3, rel=0.20)


def test_lamb_dicke_single_ion():
    # direct arithmetic from the definition: eta = dk * sqrt(hbar / (2 m omega_x))
    cfg = TrapConfig(n_ions=1)
    crystal = IonCrystal(positions=np.zeros(1), residual_force=0.0, iterations=0)
    modes = solve_modes(build_transverse_matrix(crystal, cfg), cfg)
    assert modes.eta[0, 0] == pytest.approx(0.05493, rel=1e-3)


def test_lamb_dicke_sign_and_formula(mode_data, cfg):
    scale = cfg.raman_wavevector * np.sqrt(
        HBAR / (2 * cfg.ion_mass * mode_data.frequencies)
    )
    for ion, mode in ((1, 1), (25, 25), (50, 50), (10, 40)):
        expected = mode_data.vectors[mode - 1, ion - 1] * scale[mode - 1]
        assert mode_data.eta[ion - 1, mode - 1] == pytest.approx(expected, rel=1e-12)
        assert np.sign(mode_data.eta[ion - 1, mode - 1]) == np.sign(
            mode_data.vectors[mode - 1, ion - 1]
        )


def test_lamb_dicke_sum_rule(mode_data, cfg):
    # sum_k eta_ik^2 = dk^2 hbar/(2m) sum_k u_ki^2 / omega_k <= bound at omega_min
    bound = cfg.raman_wavevector**2 * HBAR / (2 * cfg.ion_mass * mode_data.frequencies[0])
    sums = (mode_data.eta**2).sum(axis=1)
    expected = (
        cfg.raman_wavevector**2
        * HBAR
        / (2 * cfg.ion_mass)
        * ((mode_data.vectors**2) / mode_data.frequencies[:, None]).sum(axis=0)
    )
    np.testing.assert_allclose(sums, expected, rtol=1e-12)
    assert np.all(sums <= bound)


def test_sign_convention_deterministic(chain, cfg):
    matrix = build_transverse_matrix(chain, cfg)
    a = solve_modes(matrix, cfg)
    b = solve_modes(matrix, cfg)
    np.testing.assert_array_equal(a.vectors, b.vectors)
    for k in range(a.n_modes):
        total = a.vectors[k].sum()
        assert total > -1e-8


def _loop_signs(vectors):
    """The per-mode sign fix solve_modes vectorizes, as a reference."""
    vectors = vectors.copy()
    for k in range(len(vectors)):
        total = vectors[k].sum()
        if abs(total) > 1e-8:
            if total < 0:
                vectors[k] = -vectors[k]
        else:
            lead = vectors[k][np.abs(vectors[k]) > 1e-8]
            if lead.size and lead[0] < 0:
                vectors[k] = -vectors[k]
    return vectors


@pytest.mark.parametrize("n_ions", [2, 12, 50])
def test_signs_and_uniform_mode_match_the_per_mode_loops(n_ions, chain, cfg):
    # mirror-symmetric chains have antisymmetric modes whose sums vanish, so
    # both branches of the sign rule run
    if n_ions != cfg.n_ions:
        cfg = TrapConfig(n_ions=n_ions)
        chain = solve_equilibrium(cfg)
    matrix = build_transverse_matrix(chain, cfg)
    modes = solve_modes(matrix, cfg)
    np.testing.assert_array_equal(modes.vectors, _loop_signs(np.linalg.eigh(matrix)[1].T))
    ratios = [participation_uniformity(modes, k) for k in range(1, n_ions)]
    assert most_uniform_mode(modes) == int(np.argmax(ratios)) + 1


def test_uniform_mode_tie_goes_to_the_first():
    vectors = [[1.0, 2.0, 4.0], [4.0, 2.0, 1.0], [1.0, 1.0, 1.0]]
    modes = ModeData(frequencies=[1.0, 2.0, 3.0], vectors=vectors, eta=np.ones((3, 3)))
    assert most_uniform_mode(modes) == 1


@pytest.mark.parametrize("field, value", [
    ("frequencies", np.ones((3, 1))), ("vectors", np.eye(2)), ("eta", np.ones((3, 2))),
    ("frequencies", [1.0, np.nan, 3.0]), ("vectors", np.diag([1.0, np.inf, 1.0])),
    ("eta", np.full((3, 3), -np.inf)), ("frequencies", 1.0),
])
def test_mode_data_refuses_misshapen_or_non_finite_arrays(field, value):
    # a loader hands on whatever a file holds: a misshapen set would fail later,
    # in a broadcast far from the file
    arrays = {"frequencies": [1.0, 2.0, 3.0], "vectors": np.eye(3), "eta": np.ones((3, 3))}
    with pytest.raises(ValueError, match=f"{field} must hold finite values in shape"):
        ModeData(**{**arrays, field: value})


def test_modes_roundtrip(tmp_path, mode_data):
    path = tmp_path / "modes.npz"
    save_modes(mode_data, path)
    loaded = load_modes(path)
    # bitwise: optimize designs on the frequencies it reads back, so they must
    # be the ones the modes stage solved
    np.testing.assert_array_equal(loaded.frequencies, mode_data.frequencies)
    np.testing.assert_array_equal(loaded.vectors, mode_data.vectors)
    np.testing.assert_array_equal(loaded.eta, mode_data.eta)
    with np.load(path, allow_pickle=False) as data:
        assert sorted(data.files) == ["eta", "frequencies_rad_s", "vectors"]
        assert all(data[name].dtype == np.float64 for name in data.files)


def test_modes_file_bytes_repeat(tmp_path, mode_data):
    # the manifests hash modes.npz, so one ModeData must always give the same bytes
    first, second = tmp_path / "first.npz", tmp_path / "second.npz"
    save_modes(mode_data, first)
    save_modes(mode_data, second)
    assert first.read_bytes() == second.read_bytes()


def test_spectrum_csv(tmp_path, mode_data):
    path = tmp_path / "spectrum.csv"
    save_spectrum_csv(mode_data, path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "mode,frequency_hz"
    assert len(rows) == mode_data.n_modes + 1
    first = rows[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == pytest.approx(
        mode_data.frequencies[0] / (2 * np.pi), rel=1e-15
    )
