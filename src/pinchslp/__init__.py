"""Symbol-level precoding for pinching-antenna systems.

Library for minimum-power constructive-interference precoding with adjustable
antenna positions along dielectric waveguides: channel model, convex precoder,
projected-gradient placement optimizer, alternating-optimization driver, and a
seeded Monte Carlo benchmark.
"""

from .ao import (
    AOTrace,
    ao_solve,
    fixed_uniform_placement,
    random_placement,
)
from .channel import (
    SPEED_OF_LIGHT,
    ChannelSnapshot,
    WaveformParams,
    ci_margin,
    conventional_array_snapshot,
    effective_channels,
    received_lambda,
)
from .config import AOConfig, PGDConfig, SmoothingParams
from .geometry import (
    MovableRegion,
    PlacementReport,
    SystemGeometry,
    Vec3,
    initial_regions,
    make_geometry,
    validate_placement,
)
from .placement import (
    SubproblemTerms,
    build_subproblem_terms,
    optimize_all_positions,
    pgd_solve,
    placement_objective_exact,
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
    watts_to_dbm,
)

__all__ = [
    # submodules
    "ao", "channel", "geometry", "placement", "precoder",
    # ao
    "AOTrace", "ao_solve", "fixed_uniform_placement", "random_placement",
    # channel
    "SPEED_OF_LIGHT", "ChannelSnapshot", "WaveformParams", "ci_margin",
    "conventional_array_snapshot", "effective_channels", "received_lambda",
    # config
    "AOConfig", "PGDConfig", "SmoothingParams",
    # geometry
    "MovableRegion", "PlacementReport", "SystemGeometry", "Vec3", "initial_regions",
    "make_geometry", "validate_placement",
    # placement
    "SubproblemTerms", "build_subproblem_terms",
    "optimize_all_positions", "pgd_solve", "placement_objective_exact",
    "subproblem_gradient", "subproblem_objective",
    # precoder
    "InfeasibleProblemError", "QPInstance", "QPSolution", "SymbolVector", "build_ci_qp",
    "db_to_linear", "dbm_to_watts", "psk_constellation", "psk_symbols",
    "recover_beam_matrix", "solve_min_power", "watts_to_dbm",
]
__version__ = "0.1.0"
