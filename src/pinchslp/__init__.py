"""Symbol-level precoding for pinching-antenna systems.

Library for minimum-power constructive-interference precoding with adjustable
antenna positions along dielectric waveguides: channel model, convex precoder,
projected-gradient placement optimizer, alternating-optimization driver, and a
seeded Monte Carlo benchmark.
"""

from .ao import (
    AOConfig,
    AOTrace,
    ao_solve,
    conventional_array_snapshot,
    fixed_uniform_placement,
    random_placement,
)
from .channel import (
    SPEED_OF_LIGHT,
    ChannelSnapshot,
    WaveformParams,
    ci_margin,
    effective_channels,
    freespace_channel,
    received_lambda,
    sinr,
    waveguide_phase_vector,
)
from .geometry import (
    MovableRegion,
    PlacementReport,
    SystemGeometry,
    Vec3,
    initial_regions,
    make_geometry,
    pa_position,
    updated_region,
    user_pa_distance,
    validate_placement,
)
from .placement import (
    PGDConfig,
    SmoothingParams,
    SubproblemTerms,
    armijo_step,
    build_subproblem_terms,
    g_terms,
    optimize_all_positions,
    pgd_solve,
    phi_branches,
    placement_objective_exact,
    project,
    smooth_term,
    subproblem_gradient,
    subproblem_objective,
)
from .precoder import (
    InfeasibleProblemError,
    QPInstance,
    QPSolution,
    SymbolVector,
    build_ci_qp,
    db_to_linear,
    dbm_to_watts,
    psk_constellation,
    psk_symbols,
    recover_beam_matrix,
    solve_min_power,
    transmit_power,
    watts_to_dbm,
)

__all__ = [
    # submodules
    "ao", "channel", "geometry", "placement", "precoder",
    # ao
    "AOConfig", "AOTrace", "ao_solve", "conventional_array_snapshot",
    "fixed_uniform_placement", "random_placement",
    # channel
    "SPEED_OF_LIGHT", "ChannelSnapshot", "WaveformParams", "ci_margin",
    "effective_channels", "freespace_channel", "received_lambda", "sinr",
    "waveguide_phase_vector",
    # geometry
    "MovableRegion", "PlacementReport", "SystemGeometry", "Vec3", "initial_regions",
    "make_geometry", "pa_position", "updated_region", "user_pa_distance",
    "validate_placement",
    # placement
    "PGDConfig", "SmoothingParams", "SubproblemTerms", "armijo_step",
    "build_subproblem_terms", "g_terms", "optimize_all_positions", "pgd_solve",
    "phi_branches", "placement_objective_exact", "project", "smooth_term",
    "subproblem_gradient", "subproblem_objective",
    # precoder
    "InfeasibleProblemError", "QPInstance", "QPSolution", "SymbolVector", "build_ci_qp",
    "db_to_linear", "dbm_to_watts", "psk_constellation", "psk_symbols",
    "recover_beam_matrix", "solve_min_power", "transmit_power", "watts_to_dbm",
]
__version__ = "0.1.0"
