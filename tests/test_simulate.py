import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from eqassess import (GriddedForecast, HawkesParams, HomogeneousIntensity,
                      Region, RngStream, bin_counts, branching_ratio,
                      gutenberg_richter_magnitudes, mean_branching_ratio,
                      mean_gr_magnitude, pmap, simulate_hawkes,
                      simulate_homogeneous, simulate_inhomogeneous,
                      simulate_poisson_grid)
from eqassess import simulate  # the module: MAX_CASCADE and _uniform_in_region

BOX = Region.rectangle(10.0, 11.0, 40.0, 41.0)
L_SHAPE = Region([(10, 40), (12, 40), (12, 41), (11, 41), (11, 42), (10, 42)])


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


class TestPoissonPoints:
    """simulate_homogeneous and simulate_inhomogeneous draw their points
    through _poisson_points: the count, the epicentres, then the times."""

    @staticmethod
    def _three_draws(gen, mean, region, t_max):
        n = int(gen.poisson(mean))
        lons, lats = simulate._uniform_in_region(gen, region, n)
        return lons, lats, gen.uniform(0.0, t_max, size=n)

    @pytest.mark.parametrize("region", [BOX, L_SHAPE], ids=["box", "ell"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_homogeneous_draw_order(self, region, seed):
        rate, t_max = 2e-4, 7.5
        lons, lats, times = self._three_draws(RngStream(seed).generator(),
                                              rate * region.area_km2 * t_max, region, t_max)
        c = simulate_homogeneous(rate, region, t_max, RngStream(seed), mag=4.0)
        order = np.lexsort((lats, lons, times))  # the catalog's (time, lon, lat) order
        for got, col in zip((c.lons, c.lats, c.times), (lons, lats, times)):
            assert np.array_equal(got, col[order])
        assert c.n > 0 and np.all(c.mags == 4.0)

    @pytest.mark.parametrize("region", [BOX, L_SHAPE], ids=["box", "ell"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_inhomogeneous_draw_order(self, region, seed):
        # the keep draws follow the three draws of the candidates
        bound, t_max = 3e-4, 7.5
        model = HomogeneousIntensity(1e-4)
        gen = RngStream(seed).generator()
        lons, lats, times = self._three_draws(gen, bound * region.area_km2 * t_max, region, t_max)
        keep = gen.uniform(size=times.size) < model.rate_at(lons, lats, times) / bound
        c = simulate_inhomogeneous(model, bound, region, t_max, RngStream(seed), mag=4.0)
        kept = np.flatnonzero(keep)[np.lexsort((lats[keep], lons[keep], times[keep]))]
        for got, col in zip((c.lons, c.lats, c.times), (lons, lats, times)):
            assert np.array_equal(got, col[kept])
        assert 0 < c.n < times.size


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

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), ell=st.booleans(),
           t_max=st.floats(0.5, 60.0), n_bg=st.floats(0.0, 40.0),
           nbar=st.sampled_from([0.0, 1e-12, 0.2, 0.6, 0.9]),
           a=st.sampled_from([0.0, 0.8, 2.0]), c=st.floats(0.001, 0.5),
           p=st.floats(1.05, 2.0), d=st.floats(0.1, 20.0), q=st.floats(1.2, 2.5),
           cap=st.one_of(st.none(), st.floats(1.0, 3.0)))
    @example(seed=0, ell=False, t_max=30.0, n_bg=20.0, nbar=0.0, a=1.0, c=0.05, p=1.5,
             d=0.5, q=1.8, cap=None)  # k = 0: no offspring
    @example(seed=1, ell=True, t_max=30.0, n_bg=20.0, nbar=0.6, a=0.0, c=0.05, p=1.5,
             d=0.5, q=1.8, cap=None)  # a = 0: one productivity for every magnitude
    @example(seed=2, ell=False, t_max=30.0, n_bg=30.0, nbar=0.9, a=1.0, c=0.05, p=1.5,
             d=0.5, q=1.8, cap=1.05)  # a cap just above the expected cascade
    def test_matches_the_four_list_loop(self, hawkes_simulation_oracle, seed, ell, t_max,
                                        n_bg, nbar, a, c, p, d, q, cap):
        # k from the target nbar, mu from the expected background count;
        # cap scales the event cap to the expected cascade, so that either
        # check of the cap may fire, in both or in neither
        region = L_SHAPE if ell else BOX
        unit = HawkesParams(mu=1.0, k=1.0, c=c, p=p, a=a, d=d, q=q, m0=4.0)
        mu = max(n_bg, 1e-3) / (region.area_km2 * t_max)
        params = HawkesParams(mu=mu, k=nbar / mean_branching_ratio(unit), c=c, p=p, a=a, d=d,
                              q=q, m0=4.0)
        cascade = mu * region.area_km2 * t_max / (1.0 - mean_branching_ratio(params))

        def run(sim):
            with pytest.MonkeyPatch.context() as mp:
                if cap is not None:
                    mp.setattr(simulate, "MAX_CASCADE", int(cap * cascade))
                try:
                    return sim(params, region, t_max, RngStream(seed))
                except ValueError as err:
                    return str(err)

        got, want = run(simulate_hawkes), run(hawkes_simulation_oracle)
        if isinstance(want, str):
            assert got == want
            return
        for col in ("times", "lons", "lats", "mags"):
            assert np.array_equal(getattr(got, col), getattr(want, col))
        assert (got.window_days, got.m0) == (want.window_days, want.m0)

    def test_the_event_cap_is_met_exactly(self, hawkes_simulation_oracle, monkeypatch):
        # the reference's smallest passing cap is the cascade's size: the
        # simulator gives the same catalog there and refuses one event less.
        # nbar = 0.9 and 30 background events; seed 2's cascade is larger
        # than the expected 300, so only the count of drawn events can fire
        shape = dict(c=0.05, p=1.5, a=1.0, d=0.5, q=1.8, m0=4.0)
        k = 0.9 / mean_branching_ratio(HawkesParams(mu=1.0, k=1.0, **shape))
        params = HawkesParams(mu=1.0 / BOX.area_km2, k=k, **shape)
        lo, hi = math.ceil(30.0 / (1.0 - mean_branching_ratio(params))), 100_000

        def passes(sim, cap):
            monkeypatch.setattr(simulate, "MAX_CASCADE", cap)
            try:
                return sim(params, BOX, 30.0, RngStream(2))
            except ValueError as err:
                assert str(err) == "cascade exceeded the event cap"

        assert passes(hawkes_simulation_oracle, lo) is None
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if passes(hawkes_simulation_oracle, mid) else (mid, hi)
        assert passes(simulate_hawkes, hi - 1) is None
        got, want = passes(simulate_hawkes, hi), passes(hawkes_simulation_oracle, hi)
        assert np.array_equal(got.times, want.times) and np.array_equal(got.mags, want.mags)

    def test_criticality_is_the_mean_branching_ratio(self, unit_region):
        # n at the mean magnitude is 0.6, but the magnitudes' mean of
        # k e^(a (m - m0)) x masses, nbar, is 1.346: supercritical
        p = HawkesParams(mu=1e-4, k=0.003192459923049632, c=0.01, p=1.2, a=2.0, d=1.0,
                         q=1.5, m0=4.0)
        assert branching_ratio(p, mean_gr_magnitude(4.0)) == pytest.approx(0.6, rel=1e-12)
        assert mean_branching_ratio(p) == pytest.approx(1.346, abs=1e-3)
        with pytest.raises(ValueError, match="supercritical triggering: mean branching ratio "
                                             r"nbar = 1\.34575 >= 1"):
            simulate_hawkes(p, unit_region, 10.0, RngStream(1))

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
