"""Uniform-density axial trap and ion chain equilibrium.

A chain of N ions with target spacing dz is modeled in the continuum limit as
a line charge of density q/dz over [-L, L] with L = N*dz/2. The axial
potential that holds such a charge distribution in place is logarithmic in
(L^2 - z^2), scaled by a dimensionless knob r. Real electrodes cannot produce
the diverging log walls, so the potential is cut at |z| = s*L and continued
linearly (constant field) beyond, keeping it C1 everywhere.

Equilibrium positions are found by descending the total electrostatic energy
(trap plus pairwise Coulomb repulsion) along the net-force direction with an
adaptive step. Each trial step forms one pair-difference matrix z_i - z_j:
the energy takes its Coulomb pairs from it, and after an accepted step the
forces reuse it. The descent takes bit for bit the steps of a plain loop that
evaluates energy and forces from scratch. Its stopping rule, force_tol =
1e-20 N on the largest per-ion force, settles positions only to about 5e-3
delta_z; ROADMAP item 3 plans a Newton polish on the analytic Hessian.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv, write_npz
from .constants import (
    COULOMB_CONSTANT,
    ELEMENTARY_CHARGE,
    RAMAN_WAVELENGTH,
    YB171_MASS,
)

INITIAL_STEP = 1e-9  # m, the first descent step of the largest-force ion


class NonConvergence(Exception):
    """Energy descent exhausted its iteration budget above force tolerance."""


class IonEscape(Exception):
    """An ion moved past the trap cutoff |z| >= s*L during descent."""


@dataclass(frozen=True)
class TrapConfig:
    """Trap, ion and beam parameters. All values SI; frequencies in rad/s.

    half_length is derived as n_ions * delta_z / 2 so it can never disagree
    with the other fields. raman_wavevector is the effective drive
    wavevector entering the Lamb-Dicke parameters; the default 2 pi / 355 nm
    reproduces the reported per-pair entangling power scale and is fully
    configurable (a counter-propagating geometry would double it).
    """

    n_ions: int = 50
    delta_z: float = 3e-6
    scale_r: float = 0.95
    cutoff_s: float = 0.98
    omega_x: float = 2 * np.pi * 3.07e6
    ion_mass: float = YB171_MASS
    charge: float = ELEMENTARY_CHARGE
    coulomb_k: float = COULOMB_CONSTANT
    raman_wavevector: float = 2 * np.pi / RAMAN_WAVELENGTH

    def __post_init__(self):
        # each check is written so that nan fails it
        if not self.n_ions >= 1:
            raise ValueError(f"n_ions must be >= 1, got {self.n_ions}")
        if not 0.0 < self.cutoff_s < 1.0:
            raise ValueError(f"cutoff_s must lie in (0, 1), got {self.cutoff_s}")
        if not 0.5 <= self.scale_r <= 1.5:
            raise ValueError(f"scale_r must lie in [0.5, 1.5], got {self.scale_r}")
        for name in ("delta_z", "omega_x", "ion_mass", "charge", "coulomb_k", "raman_wavevector"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")

    @property
    def half_length(self):
        """Half length L of the modeled chain in meters."""
        return self.n_ions * self.delta_z / 2.0

    @property
    def linear_density(self):
        """Continuum line charge density q/dz in C/m."""
        return self.charge / self.delta_z


@dataclass(frozen=True, eq=False)
class IonCrystal:
    """Equilibrium axial positions (finite, strictly ascending) plus solver metadata."""

    positions: np.ndarray  # m
    residual_force: float  # N, max per-ion net force at convergence
    iterations: int

    def __post_init__(self):
        pos = np.array(self.positions, dtype=float)  # copy: freezing must not leak
        # written so that nan fails it
        if not (pos.ndim == 1 and np.isfinite(pos).all() and (np.diff(pos) > 0).all()):
            raise ValueError("positions must be finite and strictly increasing")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n_ions(self):
        return len(self.positions)

    @property
    def spacings(self):
        """Neighbor spacings in meters."""
        return np.diff(self.positions)


class _CutLogTrap:
    """Constants of the cut log trap of one TrapConfig, shared by its potential and field."""

    def __init__(self, cfg):
        L = cfg.half_length
        self.l_sq = L * L
        self.z_cut = cfg.cutoff_s * L
        self.pref = cfg.scale_r * cfg.coulomb_k * cfg.linear_density
        self.v_wall = self.pref * np.log(self.l_sq / (self.l_sq - self.z_cut * self.z_cut))
        self.slope = self.pref * 2.0 * self.z_cut / (self.l_sq - self.z_cut * self.z_cut)
        self.field_pref = -self.pref * 2.0

    def log_potential(self, z):
        """The uncut log potential, which is the trap's wherever |z| < z_cut."""
        return self.pref * np.log(self.l_sq / (self.l_sq - z * z))

    def potential(self, z):
        az = np.abs(z)
        inside = az < self.z_cut
        v_in = self.log_potential(np.where(inside, z, 0.0))
        return np.where(inside, v_in, self.v_wall + self.slope * (az - self.z_cut))

    def log_field(self, z):
        """The uncut log field, which is the trap's wherever |z| <= z_cut."""
        return self.field_pref * z / (self.l_sq - z * z)

    def field(self, z):
        return self.log_field(np.clip(z, -self.z_cut, self.z_cut))


def trap_potential(z, cfg):
    """Axial trap potential in volts at position(s) z.

    Inside |z| < s*L this is r*k*rho0*ln(L^2 / (L^2 - z^2)); beyond the
    cutoff it continues with the boundary slope, so the potential is C1 and
    the field bounded. Even in z and exactly zero at the center.
    """
    out = _CutLogTrap(cfg).potential(np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def trap_field(z, cfg):
    """Axial electric field -dV/dz in V/m, clamped to its boundary value beyond s*L."""
    out = _CutLogTrap(cfg).field(np.asarray(z, dtype=float))
    return out if out.ndim else float(out)


def edge_field(cfg):
    """Coulomb field in V/m on an end ion from an evenly spaced chain, summed over n = 1..N."""
    n = np.arange(1, cfg.n_ions + 1, dtype=float)
    return float(
        (cfg.coulomb_k * cfg.charge / cfg.delta_z**2) * np.sum(1.0 / (n * n))
    )


def edge_field_asymptote(cfg):
    """Infinite-chain limit (pi^2/6) * k q / dz^2 of edge_field, in V/m."""
    return float((np.pi**2 / 6.0) * cfg.coulomb_k * cfg.charge / cfg.delta_z**2)


def trap_depth(cfg):
    """Energy barrier in joules that an edge ion must climb to leave the log wall.

    The barrier is taken at the cutoff radius s*L where the log potential
    stops: q * (V(s*L) - V(0)). Beyond the cutoff the clamped field keeps
    rising linearly, so the cutoff height is the depth that must at minimum
    be provided by the electrodes.
    """
    return cfg.charge * trap_potential(cfg.cutoff_s * cfg.half_length, cfg)


@functools.lru_cache(maxsize=32)
def _flat_pairs(n):
    """Read-only flat indices i*n + j of every pair i < j in an n x n matrix."""
    iu, ju = np.triu_indices(n, k=1)
    flat = iu * n + ju
    flat.setflags(write=False)
    return flat


class _Chain:
    """Energy and forces of n ions in one trap, sharing one pair-difference matrix.

    load(z) forms d = z[:, None] - z once; energy() takes the Coulomb pairs
    from its upper triangle and forces() then reuses it, overwriting it. Each
    float comes out as the plain formulas give it: the same operations on the
    same elements in the same order, and the same pairwise sum layouts. While
    every ion lies inside the cutoff, the built-in trap skips the wall branch
    of the potential and the clip of the field, which change nothing there.
    potential/field replace the built-in trap when given.
    """

    def __init__(self, cfg, n, potential=None, field=None):
        self.charge = cfg.charge
        self.kq2 = cfg.coulomb_k * cfg.charge**2
        self.trap = _CutLogTrap(cfg)
        self.potential = potential
        self.field = field
        self.flat_pairs = _flat_pairs(n)
        self.d = np.empty((n, n))
        self.quotient = np.empty((n, n))
        self.diagonal = self.d.reshape(-1)[:: n + 1]  # view: writes go to d
        self.z = None
        self.z_max = None

    def load(self, z):
        """Take positions z: their pair differences and their largest |z|."""
        self.z = z
        np.subtract(z[:, None], z, out=self.d)
        self.z_max = np.maximum.reduce(np.abs(z))

    def energy(self):
        """Total electrostatic energy in joules of the loaded positions."""
        z, trap = self.z, self.trap
        if self.potential is not None:
            v = self.potential(z)
        elif self.z_max < trap.z_cut:
            v = trap.log_potential(z)
        else:
            v = trap.potential(z)
        pairs = np.abs(self.d.take(self.flat_pairs))
        coulomb = np.add.reduce(np.divide(1.0, pairs, out=pairs))
        return float(self.charge * np.add.reduce(v) + self.kq2 * coulomb)

    def forces(self):
        """Net axial force in newtons on each loaded ion; overwrites the differences."""
        z, trap, d, quotient = self.z, self.trap, self.d, self.quotient
        if self.field is not None:
            e = self.field(z)
        elif self.z_max < trap.z_cut:
            e = trap.log_field(z)
        else:
            e = trap.field(z)
        self.diagonal[...] = np.inf
        np.multiply(d, d, out=quotient)
        np.divide(np.sign(d, out=d), quotient, out=quotient)
        return self.charge * e + self.kq2 * np.add.reduce(quotient, axis=1)


def chain_energy(positions, cfg, potential=None):
    """Total electrostatic energy in joules of ions at the given axial positions."""
    z = np.asarray(positions, dtype=float)
    chain = _Chain(cfg, len(z), potential=potential)
    chain.load(z)
    return chain.energy()


def chain_forces(positions, cfg, field=None):
    """Net axial force in newtons on each ion (trap field plus Coulomb repulsion)."""
    z = np.asarray(positions, dtype=float)
    chain = _Chain(cfg, len(z), field=field)
    chain.load(z)
    return chain.forces()


def solve_equilibrium(
    cfg,
    init_spacing=None,
    *,
    force_tol=1e-20,
    max_iter=1_000_000,
    potential=None,
    field=None,
    callback=None,
):
    """Relax the ion chain to equilibrium by adaptive-step energy descent.

    Ions start on an even lattice of spacing init_spacing (default
    0.95 * delta_z, slightly compressed) centered at zero. Each iteration
    every ion moves along the net force, with the largest-force ion moving
    exactly `step` meters; the step halves whenever the trial move would
    raise the total energy, and grows 1.1x after each accepted move.
    Convergence is declared when the largest per-ion force drops below
    force_tol (newtons), which keeps the criterion independent of N.

    potential/field are optional test hooks replacing the built-in trap
    (callables of z returning volts resp. V/m; supply both or neither). The
    escape check against the s*L cutoff only applies to the built-in trap.

    callback(iteration, energy, max_force), when given, is invoked after
    every accepted move.

    Raises NonConvergence if max_iter is exhausted, IonEscape if an ion
    crosses the cutoff.
    """
    if (potential is None) != (field is None):
        raise ValueError("supply both potential and field hooks, or neither")
    if init_spacing is None:
        init_spacing = 0.95 * cfg.delta_z
    if init_spacing <= 0:
        raise ValueError("init_spacing must be positive")

    n = cfg.n_ions
    z = (np.arange(n) - (n - 1) / 2.0) * init_spacing
    if n == 1:
        # single ion rests at the center of the even potential
        return IonCrystal(positions=np.zeros(1), residual_force=0.0, iterations=0)

    chain = _Chain(cfg, n, potential, field)
    try:
        check_escape = potential is None
        z_cut = chain.trap.z_cut
        chain.load(z)
        energy = chain.energy()
        forces = chain.forces()
        f_max = float(np.maximum.reduce(np.abs(forces)))
        step = INITIAL_STEP
        for iteration in range(max_iter):
            if f_max < force_tol:
                return IonCrystal(
                    positions=np.sort(z), residual_force=f_max, iterations=iteration
                )
            trial = z + step * (forces / f_max)
            chain.load(trial)
            trial_energy = chain.energy()
            if trial_energy <= energy:
                z, energy = trial, trial_energy
                if check_escape and chain.z_max >= z_cut:
                    raise IonEscape(
                        f"ion reached |z| >= {z_cut:.3e} m after {iteration} iterations; "
                        "the trap cannot hold this configuration"
                    )
                forces = chain.forces()
                f_max = float(np.maximum.reduce(np.abs(forces)))
                step *= 1.1
                if callback is not None:
                    callback(iteration, energy, f_max)
            else:
                step *= 0.5
        raise NonConvergence(
            f"max residual force {f_max:.3e} N after {max_iter} iterations "
            f"(tolerance {force_tol:.1e} N)"
        )
    finally:
        # a caller may keep a refusal, and its traceback keeps this frame:
        # do not pin the n x n buffers to it
        del chain


def save_crystal(crystal, npz_path):
    """Store an IonCrystal as one .npz file (artifacts.write_npz): positions_m (N,) float64,
    residual_force_n () float64 and iterations () int64, all exact."""
    write_npz(npz_path, positions_m=crystal.positions,
              residual_force_n=np.float64(crystal.residual_force),
              iterations=np.int64(crystal.iterations))


def load_crystal(npz_path):
    """Rebuild an IonCrystal from save_crystal output, bitwise equal to what was saved."""
    # np.load given a path leaves it open when the archive does not parse
    with open(npz_path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
        return IonCrystal(positions=data["positions_m"],
                          residual_force=float(data["residual_force_n"]),
                          iterations=int(data["iterations"]))


def save_positions_csv(crystal, csv_path):
    """Write the positions as CSV (index, z_m), 1-based ion index."""
    write_csv(csv_path, ["index", "z_m"], enumerate(crystal.positions.tolist(), start=1))
