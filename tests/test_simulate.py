import math

import numpy as np
import pytest
from scipy import stats

from eqassess import (GriddedForecast, HawkesParams, HomogeneousIntensity,
                      Region, RngStream, bin_counts,
                      gutenberg_richter_magnitudes, mean_branching_ratio,
                      mean_gr_magnitude, pmap, simulate_hawkes,
                      simulate_homogeneous, simulate_inhomogeneous,
                      simulate_poisson_grid)


class TestGutenbergRichter:
    def test_range_respected(self):
        gen = RngStream(1).generator()
        mags = gutenberg_richter_magnitudes(gen, 5000, m0=4.0, b=1.0, span=4.0)
        assert mags.min() >= 4.0
        assert mags.max() <= 8.0

    def test_mean_matches_closed_form(self):
        gen = RngStream(2).generator()
        mags = gutenberg_richter_magnitudes(gen, 200_000, m0=4.0)
        expect = mean_gr_magnitude(4.0)
        assert mags.mean() == pytest.approx(expect, abs=3 * mags.std() / math.sqrt(mags.size))

    def test_mean_closed_form_value(self):
        # m0 + 1/beta - span e^{-beta span}/(1 - e^{-beta span}), beta = ln 10
        beta = math.log(10.0)
        expect = 4.0 + 1.0 / beta - 4.0 * math.exp(-4 * beta) / (1 - math.exp(-4 * beta))
        assert mean_gr_magnitude(4.0) == pytest.approx(expect, rel=1e-12)

    def test_exceedance_is_tenfold_per_unit(self):
        gen = RngStream(3).generator()
        mags = gutenberg_richter_magnitudes(gen, 500_000, m0=4.0, span=8.0)
        n5 = np.sum(mags >= 5.0)
        n6 = np.sum(mags >= 6.0)
        assert n5 / n6 == pytest.approx(10.0, rel=0.1)


class TestDeterminism:
    def test_homogeneous_bit_identical(self, unit_region):
        a = simulate_homogeneous(3e-4, unit_region, 10.0, RngStream(7), mag=4.0)
        b = simulate_homogeneous(3e-4, unit_region, 10.0, RngStream(7), mag=4.0)
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.lons, b.lons)

    def test_hawkes_bit_identical_and_schedule_free(self, unit_region):
        p = HawkesParams(mu=2e-4, k=0.003, c=0.05, p=1.5, a=1.0, d=0.5,
                         q=1.8, m0=4.0)

        def job(i):
            c = simulate_hawkes(p, unit_region, 30.0, RngStream(100).substream(i))
            return (tuple(c.times), tuple(c.lons), tuple(c.mags))

        assert pmap(job, 6) == [job(i) for i in range(6)]

    def test_different_streams_differ(self, unit_region):
        a = simulate_homogeneous(3e-4, unit_region, 10.0, RngStream(7))
        b = simulate_homogeneous(3e-4, unit_region, 10.0, RngStream(8))
        assert a.n != b.n or not np.array_equal(a.times, b.times)


class TestPoissonDispersion:
    def test_homogeneous_counts(self, unit_region):
        # variance/mean of Poisson counts near 1 over many replicates
        rate = 2e-4
        counts = np.array([
            simulate_homogeneous(rate, unit_region, 5.0,
                                 RngStream(200).substream(i)).n
            for i in range(10_000)
        ])
        ratio = counts.var() / counts.mean()
        assert 0.9 < ratio < 1.1

    def test_grid_counts(self, two_by_two_grid):
        f = GriddedForecast(two_by_two_grid, np.full(8, 1.5), 1.0)
        counts = np.array([
            simulate_poisson_grid(f, RngStream(300).substream(i)).n
            for i in range(10_000)
        ])
        ratio = counts.var() / counts.mean()
        assert 0.9 < ratio < 1.1
        assert counts.mean() == pytest.approx(12.0, rel=0.05)


class TestHomogeneous:
    def test_events_inside_region(self):
        region = Region([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        c = simulate_homogeneous(5e-4, region, 10.0, RngStream(4))
        assert c.n > 50
        assert region.contains(c.lons, c.lats).all()

    def test_area_uniformity_high_latitude(self):
        # a tall band at 60..70 deg: the cos(lat) weight must thin the top
        region = Region.rectangle(0.0, 1.0, 60.0, 70.0)
        c = simulate_homogeneous(2e-3, region, 10.0, RngStream(5))
        lats = c.lats
        lo = np.sum(lats < 65.0)
        hi = np.sum(lats >= 65.0)
        expect = math.cos(math.radians(62.5)) / math.cos(math.radians(67.5))
        assert lo / hi == pytest.approx(expect, rel=0.1)

    def test_zero_rate(self, unit_region):
        c = simulate_homogeneous(0.0, unit_region, 10.0, RngStream(6))
        assert c.n == 0


class TestInhomogeneous:
    def test_matches_homogeneous_distribution(self, unit_region):
        model = HomogeneousIntensity(3e-4)
        counts = np.array([
            simulate_inhomogeneous(model, 3e-4, unit_region, 5.0,
                                   RngStream(400).substream(i)).n
            for i in range(2000
                           )])
        mean = counts.mean()
        assert mean == pytest.approx(3e-4 * unit_region.area_km2 * 5.0, rel=0.05)

    def test_bound_violation_raises(self, unit_region):
        model = HomogeneousIntensity(2e-4)
        with pytest.raises(ValueError, match="exceeds bound"):
            simulate_inhomogeneous(model, 1e-4, unit_region, 50.0, RngStream(9))

    def test_candidates_beyond_the_cap_are_refused(self, unit_region):
        from eqassess.simulate import MAX_CASCADE
        bound = 1.01 * MAX_CASCADE / (unit_region.area_km2 * 2.0)
        with pytest.raises(ValueError, match="above the cap"):
            simulate_inhomogeneous(HomogeneousIntensity(1e-4), bound,
                                   unit_region, 2.0, RngStream(9))

    def test_grid_field_thinning_concentrates_mass(self, unit_region, two_by_two_grid):
        # 72 of 80 events a day in the north-east cell
        from eqassess import GridIntensity
        rates = np.array([1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 36.0, 36.0])
        model = GridIntensity(GriddedForecast(two_by_two_grid, rates, 1.0))
        bound = model.rate_at(0.75, 0.75)[0] * 1.001
        c = simulate_inhomogeneous(model, bound, unit_region, 1.0, RngStream(10))
        assert c.n > 20
        assert np.mean((c.lons > 0.5) & (c.lats > 0.5)) > 0.75

    def test_grid_agreement_with_poisson_grid(self, two_by_two_grid):
        # thinning a piecewise-constant field and direct per-cell sampling
        # must give the same per-cell count distribution
        from eqassess import GridIntensity
        rates = np.array([2.0, 0.0, 0.5, 0.0, 1.0, 0.0, 3.0, 0.0])
        f = GriddedForecast(two_by_two_grid, rates, window_days=4.0)
        model = GridIntensity(f)
        region = Region.rectangle(0.0, 1.0, 0.0, 1.0)
        bound = model.rate_at(np.array([0.75]), np.array([0.75]))[0] * 1.5

        n_rep = 400
        thin_counts = np.zeros((n_rep, 8))
        grid_counts = np.zeros((n_rep, 8))
        for i in range(n_rep):
            ct = simulate_inhomogeneous(model, bound, region, 4.0,
                                        RngStream(500).substream(i), mag=4.5)
            thin_counts[i] = bin_counts(ct, two_by_two_grid).counts
            cg = simulate_poisson_grid(f, RngStream(600).substream(i))
            grid_counts[i] = bin_counts(cg, two_by_two_grid).counts

        for j in range(8):
            if rates[j] == 0:
                assert thin_counts[:, j].sum() == 0
                continue
            # two-sample chi-square on count histograms
            top = int(max(thin_counts[:, j].max(), grid_counts[:, j].max()))
            bins = np.arange(top + 2)
            h1 = np.histogram(thin_counts[:, j], bins=bins)[0]
            h2 = np.histogram(grid_counts[:, j], bins=bins)[0]
            keep = (h1 + h2) >= 10
            h1c = np.append(h1[keep], h1[~keep].sum())
            h2c = np.append(h2[keep], h2[~keep].sum())
            obs = np.vstack([h1c, h2c])
            obs = obs[:, obs.sum(axis=0) > 0]
            if obs.shape[1] < 2:
                continue
            _, p, _, _ = stats.chi2_contingency(obs)
            assert p > 0.01


class TestHawkes:
    PARAMS = HawkesParams(mu=2e-4, k=0.003, c=0.05, p=1.5, a=1.0, d=0.5,
                          q=1.8, m0=4.0)

    def test_supercritical_rejected(self, unit_region):
        p = HawkesParams(mu=2e-4, k=5.0, c=0.05, p=1.5, a=1.0, d=0.5,
                         q=1.8, m0=4.0)
        assert mean_branching_ratio(p) > 1.0
        with pytest.raises(ValueError, match="supercritical|cap"):
            simulate_hawkes(p, unit_region, 30.0, RngStream(11))

    def test_events_in_region_and_window(self, unit_region):
        c = simulate_hawkes(self.PARAMS, unit_region, 30.0, RngStream(12))
        assert unit_region.contains(c.lons, c.lats).all()
        assert (c.times >= 0).all() and (c.times <= 30.0).all()
        assert (c.mags >= 4.0).all() and (c.mags <= 8.0).all()

    def test_mean_count_matches_branching_theory(self, unit_region):
        # stationary mean = mu*A*T / (1 - nbar), edge effects make the
        # realized mean slightly lower
        nbar = mean_branching_ratio(self.PARAMS)
        expect = self.PARAMS.mu * unit_region.area_km2 * 30.0 / (1.0 - nbar)
        counts = [simulate_hawkes(self.PARAMS, unit_region, 30.0,
                                  RngStream(700).substream(i)).n
                  for i in range(300)]
        mean = np.mean(counts)
        assert expect * 0.85 < mean <= expect * 1.05

    def test_k_zero_is_pure_background(self, unit_region):
        p = HawkesParams(mu=2e-4, k=0.0, c=0.05, p=1.5, a=1.0, d=0.5,
                         q=1.8, m0=4.0)
        counts = [simulate_hawkes(p, unit_region, 10.0,
                                  RngStream(800).substream(i)).n
                  for i in range(2000)]
        counts = np.asarray(counts, dtype=float)
        assert counts.var() / counts.mean() == pytest.approx(1.0, abs=0.1)
        assert counts.mean() == pytest.approx(
            2e-4 * unit_region.area_km2 * 10.0, rel=0.05)

    def test_background_is_uniform_over_the_region(self, unit_region):
        # without triggering, pooled epicentres and times are uniform
        p = HawkesParams(mu=2e-4, k=0.0, c=0.05, p=1.5, a=1.0, d=0.5,
                         q=1.8, m0=4.0)
        cats = [simulate_hawkes(p, unit_region, 10.0, RngStream(810).substream(i))
                for i in range(40)]
        for values, top in (("lons", 1.0), ("lats", 1.0), ("times", 10.0)):
            pooled = np.concatenate([getattr(c, values) for c in cats])
            assert pooled.size > 500
            assert stats.kstest(pooled / top, "uniform").pvalue > 0.01

    def test_clustering_raises_dispersion(self, unit_region):
        # triggered catalogs are overdispersed relative to Poisson
        counts = np.asarray([
            simulate_hawkes(self.PARAMS, unit_region, 30.0,
                            RngStream(900).substream(i)).n
            for i in range(300)], dtype=float)
        assert counts.var() / counts.mean() > 1.3
