import numpy as np
import pytest

from eqassess import (GriddedForecast, HomogeneousIntensity, RngStream,
                      deviance_residuals, error_diagram, pixel_residuals,
                      render_error_diagram, render_histogram, render_k_curve,
                      render_map, render_point_map, simulate_homogeneous,
                      simulate_poisson_grid, thin_residuals, weighted_k)
from eqassess.render import _diverging_colors


def _diverging_color(v, vmax):
    """The array colour function on a one-element input."""
    return _diverging_colors(np.array([v]), vmax)[0]


class TestDivergingColor:
    def test_white_at_zero(self):
        assert _diverging_color(0.0, 5.0) == "#ffffff"

    def test_saturated_endpoints(self):
        assert _diverging_color(5.0, 5.0) == "#2144a0"   # full blue
        assert _diverging_color(-5.0, 5.0) == "#b2182b"  # full red

    def test_beyond_vmax_clamps(self):
        assert _diverging_color(50.0, 5.0) == _diverging_color(5.0, 5.0)

    def test_nonfinite_is_white(self):
        assert _diverging_color(float("nan"), 5.0) == "#ffffff"
        assert _diverging_color(float("inf"), 5.0) == "#ffffff"

    def test_zero_vmax_is_white(self):
        assert _diverging_color(1.0, 0.0) == "#ffffff"

    def test_sign_controls_hue(self):
        pos = _diverging_color(2.5, 5.0)
        neg = _diverging_color(-2.5, 5.0)
        r_pos = int(pos[1:3], 16)
        b_pos = int(pos[5:7], 16)
        r_neg = int(neg[1:3], 16)
        b_neg = int(neg[5:7], 16)
        assert b_pos > r_pos   # positive leans blue
        assert r_neg > b_neg   # negative leans red


@pytest.fixture
def cell_residuals(two_by_two_grid, small_catalog):
    fa = GriddedForecast(two_by_two_grid, np.array([2.0, 0.2, 1.0, 0.1, 3.0,
                                                    0.3, 0.5, 0.05]), 5.0)
    fb = GriddedForecast(two_by_two_grid, np.full(8, 1.0), 5.0)
    return deviance_residuals(fa, fb, small_catalog)


class TestRenderMap:
    def test_valid_svg_with_cells(self, cell_residuals):
        svg = render_map(cell_residuals, title="cells")
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert svg.count("<polygon") >= cell_residuals.n_cells
        assert "cells" in svg

    def test_flagged_cells_hatched(self, two_by_two_grid, small_catalog):
        rates = np.array([0.0, 0.2, 1.0, 0.1, 3.0, 0.3, 0.5, 0.05])
        f = GriddedForecast(two_by_two_grid, rates, small_catalog.window_days)
        _, pearson = pixel_residuals(f, small_catalog)
        svg = render_map(pearson, title="flagged")
        assert "hatch" in svg
        assert 'fill="url(#hatch)"' in svg

    def test_deterministic(self, cell_residuals):
        assert render_map(cell_residuals) == render_map(cell_residuals)


class TestRenderPointMap:
    def test_tags_get_distinct_colors(self, unit_region):
        c = simulate_homogeneous(4e-4, unit_region, 10.0, RngStream(1), mag=4.0)
        rs = thin_residuals(c, HomogeneousIntensity(4e-4), unit_region,
                            RngStream(2))
        svg = render_point_map(rs.lons, rs.lats, rs.tags, unit_region,
                               title="points")
        assert svg.count("<circle") == rs.n
        assert "#21448f" in svg  # retained color present

    def test_region_outline_present(self, unit_region):
        svg = render_point_map(np.array([0.5]), np.array([0.5]),
                               np.array(["retained"]), unit_region)
        assert "<polygon" in svg


class TestRenderCurves:
    def test_error_diagram_svg(self, two_by_two_grid, unit_region):
        f = GriddedForecast(two_by_two_grid,
                            np.array([0.05, 0.005, 0.05, 0.005, 0.05, 0.005,
                                      40.0, 4.0]), 1.0)
        c = simulate_poisson_grid(f, RngStream(3))
        svg = render_error_diagram(error_diagram(f, c, unit_region), "diag")
        assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
        assert "<polyline" in svg
        assert f"n={c.n}" in svg

    def test_k_curve_svg_with_envelope(self, unit_region):
        c = simulate_homogeneous(8e-4, unit_region, 10.0, RngStream(4), mag=4.0)
        curve = weighted_k(HomogeneousIntensity(8e-4), c, unit_region,
                           rng=RngStream(5), n_sim=19)
        svg = render_k_curve(curve, "kfn")
        assert "<polygon" in svg  # envelope band
        assert "<polyline" in svg

    def test_k_curve_svg_without_envelope(self, unit_region):
        c = simulate_homogeneous(8e-4, unit_region, 10.0, RngStream(6), mag=4.0)
        curve = weighted_k(HomogeneousIntensity(8e-4), c, unit_region)
        svg = render_k_curve(curve)
        assert svg.startswith("<svg")


class TestRenderHistogram:
    def test_observed_marker(self):
        gen = RngStream(7).generator()
        svg = render_histogram(gen.normal(0, 1, 500), observed=0.5,
                               title="hist")
        assert "obs=" in svg
        assert "<rect" in svg

    def test_nonfinite_observed_pinned(self):
        gen = RngStream(8).generator()
        svg = render_histogram(gen.normal(0, 1, 200), observed=float("-inf"))
        assert svg.startswith("<svg")
        assert "obs=-inf" in svg

    def test_constant_sims_do_not_crash(self):
        svg = render_histogram(np.full(50, 2.0), observed=2.0)
        assert svg.startswith("<svg")
