import pinchslp

# The names `from pinchslp import *` exported while __all__ was derived from
# dir(): the literal list must keep every one of them and add nothing.
EXPORTED = {
    "AOConfig", "AOTrace", "ChannelSnapshot", "InfeasibleProblemError", "MovableRegion",
    "PGDConfig", "PlacementReport", "QPInstance", "QPSolution", "SPEED_OF_LIGHT",
    "SmoothingParams", "SubproblemTerms", "SymbolVector", "SystemGeometry", "Vec3",
    "WaveformParams", "ao", "ao_solve", "armijo_step", "build_ci_qp",
    "build_subproblem_terms", "channel", "ci_margin", "conventional_array_snapshot",
    "db_to_linear", "dbm_to_watts", "effective_channels", "fixed_uniform_placement",
    "freespace_channel", "g_terms", "geometry", "initial_regions", "make_geometry",
    "optimize_all_positions", "pa_position", "pgd_solve", "phi_branches", "placement",
    "placement_objective_exact", "precoder", "project", "psk_constellation",
    "psk_symbols", "random_placement", "received_lambda", "recover_beam_matrix", "sinr",
    "smooth_term", "solve_min_power", "subproblem_gradient", "subproblem_objective",
    "transmit_power", "updated_region", "user_pa_distance", "validate_placement",
    "watts_to_dbm", "waveguide_phase_vector",
}


def test_all_is_the_exported_set():
    assert len(pinchslp.__all__) == len(set(pinchslp.__all__))
    assert set(pinchslp.__all__) == EXPORTED
    assert "annotations" not in pinchslp.__all__


def test_star_import_binds_every_name():
    namespace = {}
    exec("from pinchslp import *", namespace)
    assert EXPORTED <= set(namespace)
