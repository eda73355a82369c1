"""Transverse normal modes of the ion chain.

Expanding the radial confinement and the inter-ion Coulomb repulsion to
second order around the axial equilibrium positions gives a symmetric
coupling matrix for the transverse coordinates. Its eigenvectors are the
collective modes; the highest-frequency one is the common (center-of-mass)
mode at exactly omega_x, since each matrix row sums to omega_x^2.
"""

from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv, write_npz
from .constants import HBAR


class DegenerateSpacing(Exception):
    """Two ions sit closer than a tenth of the target spacing; the crystal is bad."""


class ImaginaryMode(Exception):
    """A non-positive eigenvalue: the chain is transversely unstable (zigzag regime)."""


@dataclass(frozen=True, eq=False)
class ModeData:
    """Transverse mode frequencies, vectors and per-ion coupling strengths.

    frequencies are ascending in rad/s. Row k of `vectors` is the orthonormal
    mode vector u_k, so vectors[k, i] is the amplitude of ion i in mode k.
    eta[i, k] is the Lamb-Dicke parameter of ion i driven on mode k. All
    arrays are 0-indexed internally; function arguments and serialized files
    use 1-based ion/mode numbering, which rows() turns into array rows.
    """

    frequencies: np.ndarray  # rad/s, ascending
    vectors: np.ndarray  # (N, N), row k = mode vector u_k
    eta: np.ndarray  # (N, N), [ion, mode]

    def __post_init__(self):
        n = np.size(self.frequencies)
        for name, shape in (("frequencies", (n,)), ("vectors", (n, n)), ("eta", (n, n))):
            arr = np.array(getattr(self, name), dtype=float)  # copy: freezing must not leak
            # written so that nan fails it
            if not (arr.shape == shape and np.isfinite(arr).all()):
                raise ValueError(f"{name} must hold finite values in shape {shape}, "
                                 f"got shape {arr.shape}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_modes(self):
        return len(self.frequencies)

    def rows(self, indices, kind="ion"):
        """0-based rows of 1-based ion or mode indices; ValueError names one that is not
        an integer (2.5 would otherwise truncate to 2) or lies outside 1..N."""
        idx = np.asarray(indices)
        if idx.dtype.kind not in "iu":
            values = idx.astype(float)
            integral = np.isfinite(values) & (values == np.trunc(values))
            if not integral.all():
                raise ValueError(f"{kind} index {idx[~integral].flat[0]} is not an integer")
            idx = values.astype(int)
        outside = idx[(idx < 1) | (idx > self.n_modes)]
        if outside.size:
            raise ValueError(f"{kind} index {outside.flat[0]} outside 1..{self.n_modes}")
        return idx - 1

    def pair_rows(self, pairs):
        """0-based rows (pairs x 2) of 1-based ion pairs; ValueError also names a pair of one ion."""
        rows = self.rows(pairs).reshape(-1, 2)
        same = rows[rows[:, 0] == rows[:, 1], 0]
        if same.size:
            raise ValueError(f"pair ({same[0] + 1}, {same[0] + 1}) addresses one ion twice")
        return rows


def build_transverse_matrix(crystal, cfg):
    """Symmetric transverse coupling matrix in rad^2/s^2.

    Diagonal: omega_x^2 minus the Coulomb softening from all partners;
    off-diagonal (i, j): + k q^2 / (m |z_i - z_j|^3). Each row sums to
    omega_x^2 because the Coulomb terms cancel pairwise.
    """
    z = crystal.positions
    d = z[:, None] - z[None, :]
    np.fill_diagonal(d, np.inf)
    min_gap = np.abs(d).min()
    if min_gap < 0.1 * cfg.delta_z:
        raise DegenerateSpacing(
            f"minimum ion gap {min_gap:.3e} m is below 0.1 * delta_z = "
            f"{0.1 * cfg.delta_z:.3e} m"
        )
    coupling = cfg.coulomb_k * cfg.charge**2 / (cfg.ion_mass * np.abs(d) ** 3)
    matrix = coupling.copy()
    np.fill_diagonal(matrix, cfg.omega_x**2 - coupling.sum(axis=1))
    return matrix


def solve_modes(matrix, cfg):
    """Diagonalize the transverse coupling matrix into ModeData.

    Frequencies come out ascending. Each mode vector is sign-fixed to have a
    non-negative sum (first entry above 1e-8 in magnitude made positive when
    the sum is numerically zero) so serialized output is deterministic.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(matrix)
    if eigenvalues[0] <= 0.0:
        raise ImaginaryMode(
            f"lowest eigenvalue {eigenvalues[0]:.3e} rad^2/s^2 is not positive; "
            "the chain is transversely unstable"
        )
    frequencies = np.sqrt(eigenvalues)
    vectors = eigenvectors.T.copy()  # row k = mode vector
    total = vectors.sum(axis=1)
    significant = np.abs(vectors) > 1e-8
    lead = np.take_along_axis(vectors, significant.argmax(axis=1)[:, None], axis=1)[:, 0]
    flip = np.where(np.abs(total) > 1e-8, total < 0, significant.any(axis=1) & (lead < 0))
    np.negative(vectors, out=vectors, where=flip[:, None])
    scale = cfg.raman_wavevector * np.sqrt(HBAR / (2.0 * cfg.ion_mass * frequencies))
    eta = vectors.T * scale[None, :]
    return ModeData(frequencies=frequencies, vectors=vectors, eta=eta)


def participation_uniformity(modes, mode):
    """min_i |u_ki| / max_i |u_ki| of the given 1-based mode: 1 means all ions move alike."""
    u = np.abs(modes.vectors[mode - 1])
    return float(u.min() / u.max())


def most_uniform_mode(modes):
    """1-based index of the mode with the most even ion participation.

    The common mode is excluded: it is trivially uniform, but the spectrum
    around it is too crowded to resolve one sideband, and it heats fastest.
    Among the rest, the winner for the 50-ion uniform chain is the standing
    wave whose wavelength is about four ion spacings; every ion couples to
    it at a similar strength, which makes it the natural channel for
    entangling arbitrary pairs.
    """
    if modes.n_modes == 1:
        return 1
    u = np.abs(modes.vectors[:-1])  # the common mode is the last row
    return int(np.argmax(u.min(axis=1) / u.max(axis=1))) + 1


def save_modes(modes, npz_path):
    """Store ModeData as one .npz file (artifacts.write_npz): frequencies_rad_s (N,),
    vectors (N, N) and eta (N, N), all float64 and exact."""
    write_npz(npz_path, frequencies_rad_s=modes.frequencies, vectors=modes.vectors,
              eta=modes.eta)


def load_modes(npz_path):
    """Rebuild ModeData from save_modes output, bitwise equal to what was saved."""
    # np.load given a path leaves it open when the archive does not parse
    with open(npz_path, "rb") as fh, np.load(fh, allow_pickle=False) as data:
        return ModeData(frequencies=data["frequencies_rad_s"], vectors=data["vectors"],
                        eta=data["eta"])


def save_spectrum_csv(modes, csv_path):
    """Write the mode spectrum as CSV (mode, frequency_hz), 1-based mode index."""
    write_csv(csv_path, ["mode", "frequency_hz"],
              enumerate((modes.frequencies / (2 * np.pi)).tolist(), start=1))
