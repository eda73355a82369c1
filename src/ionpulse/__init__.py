"""Uniform ion chain modeling and FM entangling-pulse synthesis.

The pipeline: solve the chain equilibrium in the uniform-density trap
(crystal), diagonalize the transverse coupling matrix (modes), define
amplitude/FM pulse schedules (pulse), integrate per-mode phase-space
trajectories and gate metrics (trajectory), optimize the FM turning points
and calibrate power (optimizer), and run robustness sweeps and the all-pairs
power map (analysis). The cli module wires everything to config files and
CSV/JSON artifacts.
"""

__version__ = "0.1.0"

from .analysis import (
    InsufficientPoints,
    PowerMap,
    RobustnessSweep,
    all_pairs,
    default_offsets,
    fit_slope,
    offset_sweep,
    power_map,
)
from .crystal import (
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
from .modes import (
    DegenerateSpacing,
    ImaginaryMode,
    ModeData,
    build_transverse_matrix,
    solve_modes,
)
from .optimizer import (
    BudgetExhausted,
    DegeneratePair,
    OptimizationProblem,
    OptimizationResult,
    build_gate_report,
    calibrate_power,
    cost,
    default_mu_ref,
    nearest_modes,
    optimize,
)
from .pulse import (
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
    with_amplitude,
)
from .trajectory import (
    GateReport,
    entangling_angle,
    entangling_angle_sampled,
    integrate_alpha,
    integrate_sampled,
    motional_error,
    time_averaged_displacement,
)
