import numpy as np
import pytest

from ionpulse import (
    IonCrystal,
    IonEscape,
    NonConvergence,
    TrapConfig,
    chain_energy,
    chain_forces,
    edge_field,
    edge_field_asymptote,
    solve_equilibrium,
    trap_depth,
    trap_field,
    trap_potential,
)
from ionpulse.crystal import load_crystal, save_crystal


def test_config_invariants():
    cfg = TrapConfig()
    assert cfg.half_length == cfg.n_ions * cfg.delta_z / 2
    with pytest.raises(ValueError):
        TrapConfig(n_ions=0)
    with pytest.raises(ValueError):
        TrapConfig(delta_z=-1e-6)
    with pytest.raises(ValueError):
        TrapConfig(cutoff_s=1.0)
    with pytest.raises(ValueError):
        TrapConfig(scale_r=0.2)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", ["delta_z", "omega_x", "ion_mass", "charge", "raman_wavevector"])
def test_config_refuses_non_finite(name, value):
    # nan <= 0 is False, so a plain sign check lets nan through to the descent
    with pytest.raises(ValueError, match=name):
        TrapConfig(**{name: value})


def test_potential_zero_at_center(cfg):
    assert trap_potential(0.0, cfg) == 0.0


def test_potential_even(cfg):
    z = np.linspace(0.0, 1.2 * cfg.half_length, 300)
    np.testing.assert_array_equal(trap_potential(z, cfg), trap_potential(-z, cfg))


def test_field_zero_at_center_and_odd(cfg):
    assert trap_field(0.0, cfg) == 0.0
    z = np.linspace(0.0, 1.2 * cfg.half_length, 300)
    np.testing.assert_array_equal(trap_field(z, cfg), -trap_field(-z, cfg))


def test_field_matches_potential_gradient(cfg):
    # central-difference oracle at h = 1 nm
    h = 1e-9
    z = cfg.half_length / 2
    fd = (trap_potential(z + h, cfg) - trap_potential(z - h, cfg)) / (2 * h)
    assert abs(-fd - trap_field(z, cfg)) < 1e-6 * abs(trap_field(z, cfg))


def test_field_gradient_consistency_across_chain(cfg):
    h = 1e-9
    z = np.linspace(-0.9, 0.9, 181) * cfg.cutoff_s * cfg.half_length
    fd = (trap_potential(z + h, cfg) - trap_potential(z - h, cfg)) / (2 * h)
    field = trap_field(z, cfg)
    scale = np.maximum(np.abs(field), np.abs(field).max() * 1e-3)
    assert np.max(np.abs(field + fd) / scale) < 1e-6


def test_potential_c1_at_cutoff(cfg):
    # value and slope continuous across s*L up to the local linear term
    zc = cfg.cutoff_s * cfg.half_length
    eps = 1e-12
    below = trap_potential(zc - eps, cfg)
    above = trap_potential(zc + eps, cfg)
    slope = -trap_field(zc, cfg)
    assert abs(above - below) <= 2.1 * eps * abs(slope)
    assert abs(trap_field(zc - eps, cfg) - trap_field(zc + eps, cfg)) < 1e-6 * abs(
        trap_field(zc, cfg)
    )


def test_field_clamped_beyond_cutoff(cfg):
    zc = cfg.cutoff_s * cfg.half_length
    assert trap_field(1.5 * zc, cfg) == trap_field(zc, cfg)


def test_trap_depth_barrier(cfg):
    # 1.52 meV reported barrier for the r=0.95, N=50 chain; +/-10%
    depth_mev = trap_depth(cfg) / cfg.charge * 1e3
    assert depth_mev == pytest.approx(1.52, rel=0.10)


def test_edge_field_single_ion():
    cfg = TrapConfig(n_ions=1)
    assert edge_field(cfg) == pytest.approx(
        cfg.coulomb_k * cfg.charge / cfg.delta_z**2, rel=1e-12
    )


def test_edge_field_asymptote_value(cfg):
    # ~260 V/m for 3 um spacing
    assert edge_field_asymptote(cfg) == pytest.approx(260.0, rel=0.05)


def test_edge_field_below_asymptote():
    for n in (1, 2, 5, 50, 500):
        cfg = TrapConfig(n_ions=n)
        assert edge_field(cfg) < edge_field_asymptote(cfg)


def test_edge_field_converges_to_asymptote():
    cfg = TrapConfig(n_ions=5000)
    assert edge_field(cfg) == pytest.approx(edge_field_asymptote(cfg), rel=1e-3)


def test_equilibrium_two_ion_harmonic_hook():
    # force balance oracle: spacing d solves d^3 = 2 k q^2 / (m omega_z^2)
    cfg = TrapConfig(n_ions=2, delta_z=20e-6)
    omega_z = 2 * np.pi * 100e3
    stiffness = cfg.ion_mass * omega_z**2

    def potential(z):
        return 0.5 * stiffness * np.asarray(z) ** 2 / cfg.charge

    def field(z):
        return -stiffness * np.asarray(z) / cfg.charge

    crystal = solve_equilibrium(
        cfg, init_spacing=15e-6, potential=potential, field=field, force_tol=1e-25
    )
    expected = (2 * cfg.coulomb_k * cfg.charge**2 / stiffness) ** (1.0 / 3.0)
    spacing = crystal.positions[1] - crystal.positions[0]
    assert spacing == pytest.approx(expected, rel=1e-6)


def test_equilibrium_default_chain(chain, cfg):
    spacing = chain.spacings
    assert spacing.mean() == pytest.approx(2.9e-6, abs=0.15e-6)
    assert (spacing.max() - spacing.min()) / spacing.mean() < 0.05
    assert chain.residual_force < 1e-20
    assert np.abs(chain.positions).max() < cfg.cutoff_s * cfg.half_length


def test_equilibrium_centered(chain, cfg):
    assert abs(chain.positions.sum()) < 1e-3 * cfg.delta_z


def test_equilibrium_mirror_symmetry(chain, cfg):
    z = chain.positions
    assert np.abs(z + z[::-1]).max() < 1e-3 * cfg.delta_z


def test_energy_descent_monotone(cfg):
    energies = []
    solve_equilibrium(
        cfg, force_tol=1e-19, callback=lambda it, en, fm: energies.append(en)
    )
    energies = np.array(energies)
    assert np.all(np.diff(energies) <= 0)


def test_nonconvergence_raises(cfg):
    with pytest.raises(NonConvergence):
        solve_equilibrium(cfg, max_iter=5)


def test_ion_escape_raises():
    # a trap too weak for its ions: wall field far below the chain's repulsion
    cfg = TrapConfig(n_ions=50, delta_z=3e-6, scale_r=0.5, cutoff_s=0.5)
    with pytest.raises((IonEscape, NonConvergence)):
        solve_equilibrium(cfg, max_iter=200_000)


def test_single_ion_chain():
    crystal = solve_equilibrium(TrapConfig(n_ions=1))
    assert crystal.positions.tolist() == [0.0]


def test_crystal_requires_sorted_positions():
    with pytest.raises(ValueError):
        IonCrystal(positions=np.array([1e-6, 0.0]), residual_force=0.0, iterations=1)


@pytest.mark.parametrize("positions", [
    [0.0, np.nan, 1e-6], [0.0, 1e-6, np.inf], [-np.inf, 0.0], [np.nan], [[0.0, 1e-6]],
])
def test_crystal_refuses_non_finite_or_misshapen_positions(positions):
    # nan compares false either way, so "no gap <= 0" would let it through
    with pytest.raises(ValueError, match="finite and strictly increasing"):
        IonCrystal(positions=positions, residual_force=0.0, iterations=1)


def test_crystal_roundtrip(tmp_path, chain):
    path = tmp_path / "crystal.npz"
    save_crystal(chain, path)
    loaded = load_crystal(path)
    # bitwise: the modes stage solves on the positions it reads back
    assert loaded.positions.tobytes() == chain.positions.tobytes()
    assert loaded.residual_force == chain.residual_force
    assert loaded.iterations == chain.iterations
    with np.load(path, allow_pickle=False) as data:
        assert sorted(data.files) == ["iterations", "positions_m", "residual_force_n"]
        assert [(data[name].dtype, data[name].shape) for name in sorted(data.files)] == [
            (np.int64, ()), (np.float64, (chain.n_ions,)), (np.float64, ())]
    again = tmp_path / "again.npz"
    save_crystal(loaded, again)  # the manifests hash crystal.npz
    assert again.read_bytes() == path.read_bytes()


def test_chain_energy_additivity(cfg):
    # two far-separated ions: energy ~ trap terms + single Coulomb pair
    z = np.array([-10e-6, 10e-6])
    expected = (
        cfg.charge * (trap_potential(z, cfg)).sum()
        + cfg.coulomb_k * cfg.charge**2 / 20e-6
    )
    assert chain_energy(z, cfg) == pytest.approx(expected, rel=1e-12)


class _SeedTrap:
    """The cut log trap as first written, kept apart from the solver as the oracle's trap."""

    def __init__(self, cfg):
        L = cfg.half_length
        self.l_sq = L * L
        self.z_cut = cfg.cutoff_s * L
        self.pref = cfg.scale_r * cfg.coulomb_k * cfg.linear_density
        self.v_wall = self.pref * np.log(self.l_sq / (self.l_sq - self.z_cut * self.z_cut))
        self.slope = self.pref * 2.0 * self.z_cut / (self.l_sq - self.z_cut * self.z_cut)
        self.field_pref = -self.pref * 2.0

    def potential(self, z):
        az = np.abs(z)
        inside = az < self.z_cut
        z_in = np.where(inside, z, 0.0)
        v_in = self.pref * np.log(self.l_sq / (self.l_sq - z_in * z_in))
        return np.where(inside, v_in, self.v_wall + self.slope * (az - self.z_cut))

    def field(self, z):
        z_eff = np.clip(z, -self.z_cut, self.z_cut)
        return self.field_pref * z_eff / (self.l_sq - z_eff * z_eff)


def _seed_energy(positions, cfg, potential=None):
    """chain_energy as first written."""
    z = np.asarray(positions, dtype=float)
    v = _SeedTrap(cfg).potential(z) if potential is None else potential(z)
    iu, ju = np.triu_indices(len(z), k=1)
    coulomb = np.sum(1.0 / np.abs(z[iu] - z[ju]))
    return float(cfg.charge * np.sum(v) + cfg.coulomb_k * cfg.charge**2 * coulomb)


def _seed_forces(positions, cfg, field=None):
    """chain_forces as first written."""
    z = np.asarray(positions, dtype=float)
    e = _SeedTrap(cfg).field(z) if field is None else field(z)
    d = z[:, None] - z[None, :]
    np.fill_diagonal(d, np.inf)
    coulomb = cfg.coulomb_k * cfg.charge**2 * (np.sign(d) / (d * d)).sum(axis=1)
    return cfg.charge * e + coulomb


def _harmonic_hooks(cfg, omega_z=2 * np.pi * 100e3):
    stiffness = cfg.ion_mass * omega_z**2

    def potential(z):
        return 0.5 * stiffness * np.asarray(z) ** 2 / cfg.charge

    def field(z):
        return -stiffness * np.asarray(z) / cfg.charge

    return potential, field


@pytest.mark.parametrize("case", ["unsorted", "beyond_cutoff", "harmonic_hooks"])
def test_energy_and_forces_match_seed_formulas_bitwise(cfg, case):
    # the evaluator must assume neither sorted positions nor ions inside the trap
    z_cut = cfg.cutoff_s * cfg.half_length
    rng = np.random.default_rng(7)
    potential = field = None
    if case == "unsorted":
        z = rng.permutation(np.linspace(-0.9, 0.9, cfg.n_ions) * z_cut)
    elif case == "beyond_cutoff":
        z = np.concatenate([np.linspace(-1.3, 1.2, 41), [1.0, -1.0]]) * z_cut
    else:
        z = rng.uniform(-2.0, 2.0, cfg.n_ions) * z_cut
        potential, field = _harmonic_hooks(cfg)
    z += rng.uniform(-1e-3, 1e-3, len(z)) * cfg.delta_z
    assert chain_energy(z, cfg, potential) == _seed_energy(z, cfg, potential)
    assert chain_forces(z, cfg, field).tobytes() == _seed_forces(z, cfg, field).tobytes()


def seed_descent(cfg, callback):
    """The descent loop as first written, on the seed formulas above."""
    n = cfg.n_ions
    z = (np.arange(n) - (n - 1) / 2.0) * (0.95 * cfg.delta_z)
    z_cut = cfg.cutoff_s * cfg.half_length
    energy = _seed_energy(z, cfg)
    forces = _seed_forces(z, cfg)
    step = 1e-9
    for iteration in range(1_000_000):
        f_max = float(np.abs(forces).max())
        if f_max < 1e-20:
            return np.sort(z), f_max, iteration
        trial = z + step * (forces / f_max)
        trial_energy = _seed_energy(trial, cfg)
        if trial_energy <= energy:
            z, energy = trial, trial_energy
            if np.abs(z).max() >= z_cut:
                raise IonEscape(
                    f"ion reached |z| >= {z_cut:.3e} m after {iteration} iterations; "
                    "the trap cannot hold this configuration"
                )
            forces = _seed_forces(z, cfg)
            step *= 1.1
            callback(iteration, energy, float(np.abs(forces).max()))
        else:
            step *= 0.5
    raise NonConvergence("seed descent did not converge")


@pytest.mark.parametrize("n_ions, scale_r, cutoff_s", [
    pytest.param(2, 0.95, 0.98, id="2"),
    pytest.param(12, 0.95, 0.98, id="12"),
    pytest.param(50, 0.95, 0.98, id="50"),
    # held, each after rejecting a trial past the cutoff (the wall branch of the trap)
    pytest.param(30, 0.85, 0.97, id="30-0.85-0.97"),
    pytest.param(32, 0.90, 0.97, id="32-0.90-0.97"),
    # the most ions the default trap holds
    pytest.param(54, 0.95, 0.98, id="54-0.95-0.98"),
])
def test_descent_matches_seed_loop(n_ions, scale_r, cutoff_s):
    # the solver may be made faster, but it must take the seed loop's every step
    cfg = TrapConfig(n_ions=n_ions, scale_r=scale_r, cutoff_s=cutoff_s)
    steps, seed_steps = [], []
    crystal = solve_equilibrium(cfg, callback=lambda *step: steps.append(step))
    positions, residual, iterations = seed_descent(cfg, lambda *step: seed_steps.append(step))
    np.testing.assert_array_equal(crystal.positions, positions)
    assert crystal.iterations == iterations
    assert crystal.residual_force == residual
    assert steps == seed_steps


def test_descent_escape_matches_seed_loop():
    for cfg in (TrapConfig(n_ions=60, cutoff_s=0.97),
                TrapConfig(n_ions=32, scale_r=0.85, cutoff_s=0.97)):
        steps, seed_steps = [], []
        with pytest.raises(IonEscape) as seed:
            seed_descent(cfg, lambda *step: seed_steps.append(step))
        with pytest.raises(IonEscape) as solved:
            solve_equilibrium(cfg, callback=lambda *step: steps.append(step))
        assert str(solved.value) == str(seed.value)
        assert steps == seed_steps
