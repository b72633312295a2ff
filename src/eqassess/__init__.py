"""Tools for evaluating earthquake-rate forecasts and point-process models:
grid-based consistency tests, residual analysis, second-order summaries,
and deterministic simulation.

Every public name is reachable as `eqassess.<name>`; its submodule is
imported on first use, so a process loads only the modules it calls."""

import importlib

# public name -> the submodule that defines it
_MODULE_OF = {name: module for module, names in {
    "catalog": "BinCounts BinGrid Catalog Event Region RegionLattice bin_counts empty_catalog "
               "filter_catalog km_distance parse_catalog parse_region region_lattice "
               "serialize_catalog serialize_region",
    "consistency": "PairwiseResult TestResult l_test m_test n_test paradox_fixture r_test "
                   "results_to_csv s_test student_t_statistic t_test_pairwise "
                   "w_test_pairwise wilcoxon_signed_rank",
    "forecast": "FORECAST_HEADER GriddedForecast catalog_log_likelihood expected_total "
                "joint_log_likelihood marginal_magnitude marginal_space parse_forecast "
                "poisson_log_pmf scale_to_count serialize_forecast sparse_log_likelihood",
    "intensity": "FitResult GridIntensity HawkesIntensity HawkesParams HomogeneousIntensity "
                 "branching_ratio central_gradient fit_mle log_likelihood mean_branching_ratio "
                 "parse_hawkes_params radial_trigger_cdf serialize_hawkes_params "
                 "temporal_trigger_cdf",
    "render": "render_error_diagram render_histogram render_k_curve render_map render_point_map",
    "residuals": "CellResidualSet HomogeneityResult RescaledTimes ResidualPointSet "
                 "VoronoiTessellation cell_residuals_to_csv cell_residuals_to_geojson "
                 "deviance_residuals homogeneity_test pixel_residuals rescale_times super_thin "
                 "superpose_residuals thin_residuals voronoi_residuals voronoi_tessellation",
    "rng": "RngStream pmap",
    "simulate": "gutenberg_richter_magnitudes mean_gr_magnitude simulate_hawkes "
                "simulate_homogeneous simulate_inhomogeneous simulate_poisson_grid",
    "summaries": "ErrorDiagram KFunctionCurve error_diagram error_diagram_to_csv "
                 "k_curve_to_csv weighted_k",
}.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # read from the owning module on every access, so a name rebound there
    # is the name seen here
    return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
