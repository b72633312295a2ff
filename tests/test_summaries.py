import math

import numpy as np
import pytest

from eqassess import (GriddedForecast, GridIntensity, HomogeneousIntensity,
                      KernelIntensity, RngStream, error_diagram,
                      error_diagram_to_csv, k_curve_to_csv,
                      simulate_homogeneous, simulate_poisson_grid, weighted_k)


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
