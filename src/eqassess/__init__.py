"""Tools for evaluating earthquake-rate forecasts and point-process models:
grid-based consistency tests, residual analysis, second-order summaries,
and deterministic simulation."""

from .catalog import (BinCounts, BinGrid, Catalog, Event, Region,
                      RegionLattice, bin_counts, empty_catalog,
                      filter_catalog, km_distance, parse_catalog,
                      parse_region, region_lattice, serialize_catalog,
                      serialize_region)
from .consistency import (PairwiseResult, TestResult, l_test, m_test, n_test,
                          paradox_fixture, r_test, results_to_csv, s_test,
                          student_t_statistic, t_test_pairwise,
                          w_test_pairwise, wilcoxon_signed_rank)
from .forecast import (FORECAST_HEADER, GriddedForecast, catalog_log_likelihood,
                       expected_total, forecast_from_intensity,
                       joint_log_likelihood, marginal_magnitude,
                       marginal_space, parse_forecast, poisson_log_pmf,
                       scale_to_count, serialize_forecast,
                       sparse_log_likelihood)
from .intensity import (BandwidthSelection, FitResult, GridIntensity,
                        HawkesIntensity, HawkesParams, HomogeneousIntensity,
                        KernelIntensity, background_from_catalog,
                        branching_ratio, central_gradient, fit_mle,
                        kernel_density, kernel_disk_mass, log_likelihood,
                        mean_branching_ratio, parse_hawkes_params,
                        radial_trigger_cdf, select_bandwidth,
                        serialize_hawkes_params, temporal_trigger_cdf)
from .render import (render_error_diagram, render_histogram, render_k_curve,
                     render_map, render_point_map)
from .residuals import (CellResidualSet, HomogeneityResult, RescaledTimes,
                        ResidualPointSet, VoronoiTessellation,
                        cell_residuals_to_csv, cell_residuals_to_geojson,
                        deviance_residuals, homogeneity_test, lattice_extrema,
                        pixel_residuals, rescale_times, super_thin,
                        superpose_residuals, thin_residuals, voronoi_residuals,
                        voronoi_tessellation)
from .rng import RngStream, pmap
from .simulate import (gutenberg_richter_magnitudes, mean_gr_magnitude,
                       simulate_hawkes, simulate_homogeneous,
                       simulate_inhomogeneous, simulate_poisson_grid)
from .summaries import (ErrorDiagram, KFunctionCurve, error_diagram,
                        error_diagram_to_csv, k_curve_to_csv, weighted_k)

__version__ = "0.1.0"
