import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqassess import (Catalog, GriddedForecast, GridIntensity,
                      HomogeneousIntensity, KernelIntensity, RngStream,
                      error_diagram, error_diagram_to_csv, k_curve_to_csv,
                      simulate_homogeneous, simulate_poisson_grid, weighted_k)
from eqassess.summaries import _weighted_k_values


@st.composite
def pair_problems(draw):
    """Points, weights and lags for the pair-sum primitive: 0-300 points,
    float km or integer-lattice km coordinates, some coincident points, and
    lags unsorted, partly at exact pair distances (the <= boundary)."""
    n = draw(st.one_of(st.integers(0, 2), st.integers(3, 300)))
    gen = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        side = draw(st.integers(1, 20))
        x = gen.integers(0, side + 1, n).astype(float)
        y = gen.integers(0, side + 1, n).astype(float)
    else:
        x = gen.uniform(0.0, 111.0, n)
        y = gen.uniform(0.0, 111.0, n)
    if n >= 2 and draw(st.booleans()):
        same = gen.integers(0, n, draw(st.integers(1, n)))
        x[same], y[same] = x[0], y[0]
    n_lags = draw(st.integers(1, 12))
    lags = gen.uniform(0.0, 40.0, n_lags)
    if n >= 2:
        i, j = gen.integers(0, n, (2, n_lags))
        at_pair = gen.uniform(size=n_lags) < 0.6
        lags[at_pair] = np.hypot(x[i] - x[j], y[i] - y[j])[at_pair]
    if draw(st.booleans()):
        lags[0] = 0.0
    weights = gen.lognormal(0.0, 3.0, n) if draw(st.booleans()) else None
    return x, y, weights, lags


class TestPairSums:
    @settings(max_examples=300, deadline=None)
    @given(pair_problems())
    def test_matches_dense_reference(self, dense_pairs, problem):
        x, y, weights, lags = problem
        got = _weighted_k_values(x, y, weights, lags)
        want = dense_pairs(x, y, weights, lags)
        if weights is None:
            assert np.array_equal(got, want)
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_few_points(self, dense_pairs, n):
        x = np.arange(n, dtype=float)
        y = np.zeros(n)
        lags = np.array([0.5, 1.0, 2.0])
        assert np.array_equal(_weighted_k_values(x, y, None, lags),
                              dense_pairs(x, y, None, lags))

    def test_lag_at_pair_distance_counts_the_pair(self):
        # a 3-4-5 triangle: each lag equal to a side length includes that side
        x = np.array([0.0, 3.0, 0.0])
        y = np.array([0.0, 0.0, 4.0])
        got = _weighted_k_values(x, y, None, np.array([5.0, 3.0, 4.0, 2.9]))
        assert np.array_equal(got, [6.0, 2.0, 4.0, 0.0])

    def test_weighted_k_memory_is_not_quadratic(self, unit_region):
        # 3000 points in a ~111 km square: a dense n x n float64 matrix alone
        # is 72 MB; the pairs within the largest lag (~11 km) take about 3 MB
        gen = np.random.default_rng(3)
        n = 3000
        c = Catalog(np.sort(gen.uniform(0.0, 10.0, n)), gen.uniform(0.0, 1.0, n),
                    gen.uniform(0.0, 1.0, n), np.full(n, 4.0), 10.0, 4.0)
        tracemalloc.start()
        try:
            weighted_k(HomogeneousIntensity(2e-2), c, unit_region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20e6


class TestWeightedK:
    def test_reference_curve(self, unit_region):
        c = simulate_homogeneous(8e-4, unit_region, 10.0, RngStream(1), mag=4.0)
        curve = weighted_k(HomogeneousIntensity(8e-4), c, unit_region)
        np.testing.assert_allclose(curve.reference(),
                                   math.pi * curve.lags_km ** 2)

    def test_homogeneous_truth_tracks_reference(self, unit_region):
        # averaged over replicates the curve sits within ~10% of pi h^2
        # (uncorrected boundary loss keeps it a few percent low)
        rate = 8e-4
        model = HomogeneousIntensity(rate)
        curves = []
        for i in range(30):
            c = simulate_homogeneous(rate, unit_region, 10.0,
                                     RngStream(100).substream(i), mag=4.0)
            if c.n < 2:
                continue
            curves.append(weighted_k(model, c, unit_region).k_values)
        mean = np.mean(curves, axis=0)
        ref = math.pi * (math.sqrt(unit_region.area_km2)
                         * np.linspace(0.01, 0.10, 10)) ** 2
        np.testing.assert_allclose(mean, ref, rtol=0.10)
        # and the bias really is downward at the widest lag
        assert mean[-1] < ref[-1]

    def test_weights_cancel_intensity_scale(self, unit_region):
        # weighting by 1/rate makes the curve invariant to the rate level
        # used in the model (the pair weight scale cancels the area factor)
        c = simulate_homogeneous(8e-4, unit_region, 10.0, RngStream(2), mag=4.0)
        k1 = weighted_k(HomogeneousIntensity(8e-4), c, unit_region).k_values
        k2 = weighted_k(HomogeneousIntensity(4e-4), c, unit_region).k_values
        np.testing.assert_allclose(k2, k1 * 4.0, rtol=1e-12)

    def test_needs_two_events(self, unit_region):
        from eqassess import Catalog
        c = Catalog(np.array([0.5]), np.array([0.5]), np.array([0.5]),
                    np.array([4.0]), 1.0, 4.0)
        with pytest.raises(ValueError, match="2 events"):
            weighted_k(HomogeneousIntensity(1.0), c, unit_region)

    def test_zero_rate_at_event_rejected(self, unit_region, two_by_two_grid):
        rates = np.array([0.0, 0.0, 1.0, 0.1, 1.0, 0.1, 1.0, 0.1])
        model = GridIntensity(GriddedForecast(two_by_two_grid, rates, 10.0))
        from eqassess import Catalog
        c = Catalog(np.array([0.2, 0.6]), np.array([0.25, 0.75]),
                    np.array([0.25, 0.75]), np.array([4.5, 4.5]), 10.0, 4.0)
        with pytest.raises(ValueError, match="zero"):
            weighted_k(model, c, unit_region)

    def test_envelopes_bracket_reference(self, unit_region):
        rate = 8e-4
        c = simulate_homogeneous(rate, unit_region, 10.0, RngStream(3), mag=4.0)
        curve = weighted_k(HomogeneousIntensity(rate), c, unit_region,
                           rng=RngStream(4), n_sim=99)
        assert curve.envelope_lo is not None
        assert (curve.envelope_lo <= curve.envelope_hi).all()
        # a correct model stays inside its own envelopes at this seed
        assert (curve.k_values >= curve.envelope_lo).all()
        assert (curve.k_values <= curve.envelope_hi).all()

    def test_envelope_determinism(self, unit_region):
        c = simulate_homogeneous(8e-4, unit_region, 10.0, RngStream(5), mag=4.0)
        m = HomogeneousIntensity(8e-4)
        c1 = weighted_k(m, c, unit_region, rng=RngStream(6), n_sim=49)
        c2 = weighted_k(m, c, unit_region, rng=RngStream(6), n_sim=49)
        np.testing.assert_array_equal(c1.envelope_lo, c2.envelope_lo)
        np.testing.assert_array_equal(c1.envelope_hi, c2.envelope_hi)

    def test_csv_format(self, unit_region):
        c = simulate_homogeneous(8e-4, unit_region, 10.0, RngStream(7), mag=4.0)
        curve = weighted_k(HomogeneousIntensity(8e-4), c, unit_region)
        lines = k_curve_to_csv(curve).strip().split("\n")
        assert lines[0] == "lag_km,k_value,reference"
        assert len(lines) == 11
        assert float(lines[1].split(",")[0]) == curve.lags_km[0]


class TestErrorDiagram:
    def _clustered_forecast(self, grid):
        rates = np.array([0.05, 0.005, 0.05, 0.005, 0.05, 0.005, 40.0, 4.0])
        return GriddedForecast(grid, rates, 1.0)

    def test_endpoints_exact(self, two_by_two_grid, unit_region):
        f = self._clustered_forecast(two_by_two_grid)
        c = simulate_poisson_grid(f, RngStream(10))
        diag = error_diagram(f, c, unit_region)
        assert diag.alarm_fractions[0] == 0.0
        assert diag.miss_fractions[0] == 1.0
        assert diag.alarm_fractions[-1] == 1.0
        assert diag.miss_fractions[-1] == 0.0

    def test_monotone(self, two_by_two_grid, unit_region):
        f = self._clustered_forecast(two_by_two_grid)
        c = simulate_poisson_grid(f, RngStream(11))
        diag = error_diagram(f, c, unit_region)
        assert (np.diff(diag.thresholds) < 0).all()
        assert (np.diff(diag.alarm_fractions) >= 0).all()
        assert (np.diff(diag.miss_fractions) <= 0).all()

    def test_scale_invariance(self, two_by_two_grid, unit_region):
        f = self._clustered_forecast(two_by_two_grid)
        c = simulate_poisson_grid(f, RngStream(12))
        f2 = GriddedForecast(two_by_two_grid, f.rates * 37.0, 1.0)
        d1 = error_diagram(f, c, unit_region)
        d2 = error_diagram(f2, c, unit_region)
        np.testing.assert_allclose(d1.alarm_fractions, d2.alarm_fractions)
        np.testing.assert_allclose(d1.miss_fractions, d2.miss_fractions)

    def test_sharp_forecast_beats_flat(self, two_by_two_grid, unit_region):
        f = self._clustered_forecast(two_by_two_grid)
        c = simulate_poisson_grid(f, RngStream(13))
        assert c.n >= 20
        flat = GriddedForecast(two_by_two_grid, np.full(8, f.rates.mean()), 1.0)
        a_sharp = error_diagram(f, c, unit_region).area_under()
        a_flat = error_diagram(flat, c, unit_region).area_under()
        assert a_sharp < a_flat

    def test_stray_events_score_zero(self, two_by_two_grid, unit_region):
        from eqassess import Catalog
        f = self._clustered_forecast(two_by_two_grid)
        c = Catalog(np.array([0.1, 0.2]), np.array([0.75, 30.0]),
                    np.array([0.75, 30.0]), np.array([4.5, 4.5]), 1.0, 4.0)
        diag = error_diagram(f, c, unit_region)
        # the stray is missed by every positive threshold but caught at 0
        assert diag.miss_fractions[-1] == 0.0
        assert diag.miss_fractions[-2] >= 0.5

    def test_model_path_constant_field(self, unit_region):
        c = simulate_homogeneous(8e-4, unit_region, 10.0, RngStream(14), mag=4.0)
        diag = error_diagram(HomogeneousIntensity(8e-4), c, unit_region)
        # constant surface: only full-region alarm catches anything
        assert diag.alarm_fractions[0] == 0.0 and diag.miss_fractions[0] == 1.0
        assert diag.alarm_fractions[-1] == 1.0 and diag.miss_fractions[-1] == 0.0
        mid = (diag.alarm_fractions > 0) & (diag.alarm_fractions < 1)
        assert not mid.any() or np.all(diag.miss_fractions[mid] == 0.0)

    @pytest.mark.parametrize("lon,missed", [(1.0, 0.0), (1.03, 1.0), (1.13, 1.0)])
    def test_model_path_bbox_edge(self, unit_region, lon, missed):
        # an event on the east edge of the box falls in the last lattice
        # column; one east of it, even within a lattice cell's width, is in
        # no cell and is missed by the constant surface's one positive level
        c = Catalog(np.array([0.5]), np.array([lon]), np.array([0.5]),
                    np.array([4.5]), 1.0, 4.0)
        diag = error_diagram(HomogeneousIntensity(1e-3), c, unit_region, n_grid=10)
        assert diag.thresholds.size == 3
        assert diag.miss_fractions[1] == missed

    def test_model_path_bbox_edge_together(self, unit_region):
        c = Catalog(np.full(3, 0.5), np.array([1.0, 1.03, 1.13]), np.full(3, 0.5),
                    np.full(3, 4.5), 1.0, 4.0)
        diag = error_diagram(HomogeneousIntensity(1e-3), c, unit_region, n_grid=10)
        assert diag.miss_fractions[1] == pytest.approx(2.0 / 3.0)

    def test_model_path_peaked_field(self, unit_region):
        model = KernelIntensity([0.5], [0.5], d=20.0, scale=200.0)
        sup = model.rate_at(0.5, 0.5)[0]
        from eqassess import simulate_inhomogeneous
        c = simulate_inhomogeneous(model, sup * 1.0001, unit_region, 1.0,
                                   RngStream(15), mag=4.0)
        assert c.n > 30
        diag = error_diagram(model, c, unit_region)
        # a correct peaked model does far better than the diagonal
        assert diag.area_under() < 0.35

    def test_model_path_hawkes(self, unit_region, aligned_history, sliced):
        from eqassess import HawkesIntensity
        params, history = aligned_history
        model = HawkesIntensity(params, history)
        diag = error_diagram(model, history, unit_region, n_grid=20)
        # events score the surface's value in their own lattice cell, so the
        # empty alarm misses them all and the diagram stays monotone
        assert diag.alarm_fractions[0] == 0.0 and diag.miss_fractions[0] == 1.0
        assert diag.alarm_fractions[-1] == 1.0 and diag.miss_fractions[-1] == 0.0
        assert np.all(np.diff(diag.alarm_fractions) >= 0)
        assert np.all(np.diff(diag.miss_fractions) <= 0)
        # the surface is the window-averaged rate
        ref = error_diagram(sliced(model), history, unit_region, n_grid=20)
        np.testing.assert_allclose(diag.thresholds, ref.thresholds, rtol=1e-4)
        np.testing.assert_array_equal(diag.miss_fractions, ref.miss_fractions)
        assert diag.thresholds[-2] >= params.mu * (1.0 - 1e-12)

    def test_csv_endpoints(self, two_by_two_grid, unit_region):
        f = self._clustered_forecast(two_by_two_grid)
        c = simulate_poisson_grid(f, RngStream(16))
        text = error_diagram_to_csv(error_diagram(f, c, unit_region))
        lines = text.strip().split("\n")
        assert lines[0] == "threshold,alarm_fraction,miss_fraction"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[1]) == 0.0 and float(first[2]) == 1.0
        assert float(last[1]) == 1.0 and float(last[2]) == 0.0

    def test_empty_catalog_misses_everything(self, two_by_two_grid,
                                             unit_region):
        from eqassess import empty_catalog
        f = self._clustered_forecast(two_by_two_grid)
        diag = error_diagram(f, empty_catalog(1.0, m0=4.0), unit_region)
        assert (diag.miss_fractions == 1.0).all()
