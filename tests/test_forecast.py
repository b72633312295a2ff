import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqassess import (BinGrid, Catalog, GriddedForecast, bin_counts,
                      catalog_log_likelihood, expected_total, joint_log_likelihood,
                      marginal_magnitude, marginal_space, parse_forecast,
                      poisson_log_pmf, scale_to_count, serialize_forecast,
                      sparse_log_likelihood)

FORECAST_TEXT = """lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate,mask
0,0.5,0,0.5,4,5,0.5,1
0,0.5,0,0.5,5,6,0.05,1
0.5,1,0,0.5,4,5,1.25,1
0.5,1,0,0.5,5,6,0.125,1
0,0.5,0.5,1,4,5,2.0,1
0,0.5,0.5,1,5,6,0.2,1
0.5,1,0.5,1,4,5,0.25,1
0.5,1,0.5,1,5,6,0.025,1
"""


@pytest.fixture
def forecast():
    return parse_forecast(FORECAST_TEXT, window_days=5.0)


class TestParseSerialize:
    def test_round_trip(self, forecast):
        back = parse_forecast(serialize_forecast(forecast), window_days=5.0)
        assert back == forecast

    def test_masked_rows_dropped(self):
        text = ("lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate,mask\n"
                "0,1,0,1,4,5,3.0,1\n"
                "1,2,0,1,4,5,9.0,0\n")
        f = parse_forecast(text)
        assert f.grid.n_cells == 1
        assert f.rates[0] == 3.0

    def test_bad_header(self):
        with pytest.raises(ValueError, match="header"):
            parse_forecast("a,b,c,d,e,f,g,h\n0,1,0,1,4,5,3.0,1\n")

    def test_negative_rate_rejected(self):
        text = ("lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate,mask\n"
                "0,1,0,1,4,5,-3.0,1\n")
        with pytest.raises(ValueError, match="negative"):
            parse_forecast(text)

    @pytest.mark.parametrize("window", [0.0, -1.0, math.nan, math.inf])
    def test_window_must_be_positive_and_finite(self, window):
        with pytest.raises(ValueError, match="window must be positive and finite"):
            parse_forecast(FORECAST_TEXT, window_days=window)

    def test_fractional_mask_rejected(self):
        text = ("lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate,mask\n"
                "0,1,0,1,4,5,3.0,0.5\n")
        with pytest.raises(ValueError, match="mask"):
            parse_forecast(text)

    def test_all_masked_rejected(self):
        text = ("lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate,mask\n"
                "0,1,0,1,4,5,3.0,0\n")
        with pytest.raises(ValueError, match="unmasked"):
            parse_forecast(text)

    def test_comment_lines_skipped(self):
        text = ("# produced by hand\n"
                "lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate,mask\n"
                "0,1,0,1,4,5,3.0,1\n")
        assert parse_forecast(text).grid.n_cells == 1


class TestForecastType:
    def test_rate_shape_enforced(self, two_by_two_grid):
        with pytest.raises(ValueError):
            GriddedForecast(two_by_two_grid, np.ones(3), 1.0)

    def test_negative_rates_rejected(self, two_by_two_grid):
        with pytest.raises(ValueError):
            GriddedForecast(two_by_two_grid, -np.ones(8), 1.0)

    def test_expected_total(self, forecast):
        assert expected_total(forecast) == pytest.approx(4.4)

    def test_scale_to_count(self, forecast):
        g = scale_to_count(forecast, 11)
        assert expected_total(g) == pytest.approx(11.0)
        # relative structure preserved
        np.testing.assert_allclose(g.rates / g.rates.sum(),
                                   forecast.rates / forecast.rates.sum())

    def test_scale_zero_forecast(self, two_by_two_grid):
        f = GriddedForecast(two_by_two_grid, np.zeros(8), 1.0)
        assert scale_to_count(f, 0) == f
        with pytest.raises(ValueError):
            scale_to_count(f, 5)


class TestMarginals:
    def test_magnitude_marginal_sums(self, forecast):
        m = marginal_magnitude(forecast)
        assert m.grid.n_cells == 2
        assert expected_total(m) == pytest.approx(expected_total(forecast))
        # band totals: low band 0.5+1.25+2.0+0.25, high band a tenth of that
        assert m.rates[0] == pytest.approx(4.0)
        assert m.rates[1] == pytest.approx(0.4)

    def test_space_marginal_sums(self, forecast):
        s = marginal_space(forecast)
        assert s.grid.n_cells == 4
        assert expected_total(s) == pytest.approx(expected_total(forecast))
        assert s.rates.max() == pytest.approx(2.2)


class TestGridReuse:
    """parse_forecast(..., grid=) takes the given grid when the boxes are
    equal, and the marginals build their grid once per parent grid."""

    TEXT_B = FORECAST_TEXT.replace(",0.5,1\n", ",0.75,1\n")

    def test_equal_boxes_share_the_grid(self, forecast):
        fb = parse_forecast(self.TEXT_B, 5.0, grid=forecast.grid)
        assert fb.grid is forecast.grid
        assert fb.rates[0] == 0.75
        assert fb == parse_forecast(self.TEXT_B, 5.0)

    def test_a_masked_cell_gets_a_new_grid(self, forecast):
        lines = self.TEXT_B.splitlines()
        lines[3] = lines[3][:-1] + "0"
        fb = parse_forecast("\n".join(lines) + "\n", 5.0, grid=forecast.grid)
        assert fb.grid is not forecast.grid
        assert fb.grid.n_cells == 7
        assert fb.grid != forecast.grid

    def test_one_ulp_off_gets_a_new_grid(self, forecast):
        # the east edge of the third cell, which no other cell touches
        edge = float(np.nextafter(1.0, 2.0))
        text = self.TEXT_B.replace("\n0.5,1,0,0.5,4,5,", f"\n0.5,{edge!r},0,0.5,4,5,", 1)
        fb = parse_forecast(text, 5.0, grid=forecast.grid)
        assert fb.grid is not forecast.grid
        assert fb.grid.boxes[2, 1] == edge
        assert fb.grid != forecast.grid

    def test_shared_grids_share_their_marginal_grids(self, forecast):
        fb = parse_forecast(self.TEXT_B, 5.0, grid=forecast.grid)
        assert marginal_space(forecast).grid is marginal_space(fb).grid
        assert marginal_magnitude(forecast).grid is marginal_magnitude(fb).grid
        assert marginal_space(fb).rates[0] == 0.75 + 0.05

    def test_marginal_grids_match_fresh_builds(self, forecast):
        b = forecast.grid.boxes
        space = np.array([[0, 0.5, 0, 0.5], [0.5, 1, 0, 0.5], [0, 0.5, 0.5, 1], [0.5, 1, 0.5, 1]])
        assert marginal_space(forecast).grid.boxes.tolist() == \
            np.column_stack([space, np.full(4, 4.0), np.full(4, 6.0)]).tolist()
        hull = [b[:, 0].min(), b[:, 1].max(), b[:, 2].min(), b[:, 3].max()]
        assert marginal_magnitude(forecast).grid.boxes.tolist() == \
            [hull + [4.0, 5.0], hull + [5.0, 6.0]]

    def test_grid_equality_of_one_object_skips_the_comparison(self, forecast, monkeypatch):
        g = forecast.grid
        monkeypatch.setattr(np, "array_equal", lambda *a: pytest.fail("compared boxes"))
        assert g == g
        assert not g != g


class TestPoissonLogPmf:
    def test_frozen_value(self):
        # ln P(X=3 | rate 2) = 3 ln 2 - 2 - ln 6
        expect = 3 * math.log(2.0) - 2.0 - math.log(6.0)
        assert poisson_log_pmf(3, 2.0) == pytest.approx(expect, abs=1e-12)
        assert expect == pytest.approx(-1.7123179275482191, abs=1e-13)

    def test_zero_count_zero_rate(self):
        assert poisson_log_pmf(0, 0.0) == 0.0

    def test_positive_count_zero_rate(self):
        assert poisson_log_pmf(2, 0.0) == -np.inf

    def test_vectorized(self):
        out = poisson_log_pmf([0, 1, 2], [1.0, 1.0, 1.0])
        np.testing.assert_allclose(
            out, [-1.0, -1.0, math.log(0.5) - 1.0], atol=1e-12)

    @given(st.integers(0, 40), st.floats(1e-3, 50.0, allow_nan=False))
    @settings(max_examples=100, deadline=None)
    def test_matches_direct_formula(self, n, rate):
        direct = n * math.log(rate) - rate - math.lgamma(n + 1)
        assert poisson_log_pmf(n, rate) == pytest.approx(direct, rel=1e-12)


class TestLikelihood:
    def test_joint_against_manual_sum(self, forecast):
        counts = np.array([1, 0, 2, 0, 3, 1, 0, 0])
        manual = sum(
            float(poisson_log_pmf(k, lam))
            for k, lam in zip(counts, forecast.rates))
        assert joint_log_likelihood(forecast, counts) == pytest.approx(manual)

    def test_shape_mismatch(self, forecast):
        with pytest.raises(ValueError):
            joint_log_likelihood(forecast, np.zeros(3))

    def test_catalog_likelihood_consistent(self, forecast, small_catalog):
        counts = bin_counts(small_catalog, forecast.grid).counts
        assert catalog_log_likelihood(forecast, small_catalog) == \
            pytest.approx(joint_log_likelihood(forecast, counts))


    @given(st.lists(st.tuples(st.sampled_from([0.0, 1e-4, 0.02, 0.7, 3.0, 40.0]),
                              st.integers(0, 6)), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_sparse_equals_dense(self, cells):
        rates = np.array([r for r, _ in cells])
        counts = np.array([n if r > 0 else 0 for r, n in cells])
        grid = BinGrid.regular(np.arange(rates.size + 1.0), np.array([0.0, 1.0]),
                               np.array([4.0, 5.0]))
        f = GriddedForecast(grid, rates, 1.0)
        occupied = np.flatnonzero(counts)
        assert sparse_log_likelihood(f, occupied, counts[occupied]) == \
            pytest.approx(joint_log_likelihood(f, counts), rel=1e-12)

    def test_sparse_count_on_zero_rate_is_minus_infinity(self, forecast):
        f = GriddedForecast(forecast.grid, np.r_[0.0, forecast.rates[1:]], 5.0)
        assert sparse_log_likelihood(f, np.array([0, 2]), np.array([1, 1])) == -math.inf
