import math

import numpy as np
import pytest
from scipy import stats

from eqassess import (BinGrid, Catalog, GriddedForecast, RngStream,
                      bin_counts, joint_log_likelihood, l_test, m_test,
                      n_test, paradox_fixture, poisson_log_pmf, r_test,
                      results_to_csv, s_test, scale_to_count,
                      t_test_pairwise, w_test_pairwise)
from eqassess.consistency import _null_cells, student_t_statistic, wilcoxon_signed_rank
from eqassess.forecast import marginal_magnitude


def brute_poisson_upper(n_obs: int, mu: float) -> float:
    # P(N >= n_obs) by direct pmf summation, far into the tail
    top = int(mu + 40.0 * math.sqrt(mu) + 60)
    return sum(float(stats.poisson.pmf(k, mu)) for k in range(n_obs, top + 1))


def brute_poisson_lower(n_obs: int, mu: float) -> float:
    return sum(float(stats.poisson.pmf(k, mu)) for k in range(0, n_obs + 1))


class TestNTest:
    @pytest.mark.parametrize("n_obs,mu", [(0, 3.0), (3, 3.0), (10, 3.0),
                                          (40, 55.5), (70, 55.5)])
    def test_tails_match_brute_force(self, n_obs, mu):
        grid = BinGrid(np.array([[0.0, 1.0, 0.0, 1.0, 4.0, 5.0]]))
        f = GriddedForecast(grid, np.array([mu]), 1.0)
        times = np.linspace(0.05, 0.95, n_obs) if n_obs else np.array([])
        c = Catalog(times, np.full(n_obs, 0.5), np.full(n_obs, 0.5),
                    np.full(n_obs, 4.5), 1.0, 4.0)
        r = n_test(f, c)
        assert r.delta1 == pytest.approx(brute_poisson_upper(n_obs, mu), abs=1e-10)
        assert r.delta2 == pytest.approx(brute_poisson_lower(n_obs, mu), abs=1e-10)
        assert r.quantile == min(r.delta1, r.delta2)

    def test_rejects_gross_overprediction(self):
        grid = BinGrid(np.array([[0.0, 1.0, 0.0, 1.0, 4.0, 5.0]]))
        f = GriddedForecast(grid, np.array([50.0]), 1.0)
        c = Catalog(np.array([0.5]), np.array([0.5]), np.array([0.5]),
                    np.array([4.5]), 1.0, 4.0)
        r = n_test(f, c)
        assert r.decision == "reject"
        assert r.delta2 < 1e-15

    def test_keeps_well_calibrated_count(self):
        grid = BinGrid(np.array([[0.0, 1.0, 0.0, 1.0, 4.0, 5.0]]))
        f = GriddedForecast(grid, np.array([5.0]), 1.0)
        times = np.linspace(0.1, 0.9, 5)
        c = Catalog(times, np.full(5, 0.5), np.full(5, 0.5), np.full(5, 4.5),
                    1.0, 4.0)
        assert n_test(f, c).decision == "consistent"


class TestParadoxFixture:
    def test_pointwise_likelihood_prefers_low_forecast(self):
        fa, fb, c = paradox_fixture()
        la = joint_log_likelihood(fa, bin_counts(c, fa.grid).counts)
        lb = joint_log_likelihood(fb, bin_counts(c, fb.grid).counts)
        assert la == pytest.approx(math.log(0.02) - 0.04, abs=1e-12)
        assert lb == pytest.approx(math.log(2.5) - 5.0, abs=1e-12)
        assert la > lb

    def test_l_test_gamma_matches_exact_enumeration(self):
        fa, fb, c = paradox_fixture()

        # gamma by exhaustive enumeration of two independent Poisson cells
        def exact_gamma(f):
            obs = joint_log_likelihood(f, bin_counts(c, f.grid).counts)
            lam = f.rates
            top = 60
            pmf0 = stats.poisson.pmf(np.arange(top), lam[0])
            pmf1 = stats.poisson.pmf(np.arange(top), lam[1])
            total = 0.0
            for k0 in range(top):
                ll0 = poisson_log_pmf(k0, lam[0])
                for k1 in range(top):
                    if ll0 + poisson_log_pmf(k1, lam[1]) <= obs + 1e-12:
                        total += float(pmf0[k0] * pmf1[k1])
            return total

        ga_exact = exact_gamma(fa)
        gb_exact = exact_gamma(fb)
        assert ga_exact == pytest.approx(1.0 - math.exp(-0.04), abs=1e-10)

        ra = l_test(fa, c, RngStream(21), n_sim=2000)
        rb = l_test(fb, c, RngStream(22), n_sim=2000)
        # Monte Carlo gammas agree with enumeration within sampling error
        assert ra.quantile == pytest.approx(ga_exact, abs=0.02)
        assert rb.quantile == pytest.approx(gb_exact, abs=0.05)
        # the paradox: the test rejects the pointwise-preferred forecast
        assert ra.decision == "reject"
        assert rb.decision == "consistent"


class TestLTest:
    def test_deterministic_given_stream(self):
        fa, _, c = paradox_fixture()
        r1 = l_test(fa, c, RngStream(33), n_sim=200)
        r2 = l_test(fa, c, RngStream(33), n_sim=200)
        assert r1.quantile == r2.quantile
        np.testing.assert_array_equal(r1.sim_statistics, r2.sim_statistics)

    def test_jobs_do_not_change_result(self):
        _, fb, c = paradox_fixture()
        r1 = l_test(fb, c, RngStream(34), n_sim=200, jobs=1)
        r4 = l_test(fb, c, RngStream(34), n_sim=200, jobs=4)
        np.testing.assert_array_equal(r1.sim_statistics, r4.sim_statistics)


    def test_null_counts_follow_the_rates(self):
        # per-cell Poisson(rate) counts; zero-rate cells never receive an event
        rates = np.array([0.5, 0.0, 2.0, 0.05, 0.0, 4.0])
        n_rep = 4000
        counts = np.zeros((n_rep, rates.size))
        cum = np.cumsum(rates)
        for k in range(n_rep):
            cells, n = _null_cells(cum, RngStream(35).substream(k))
            counts[k, cells] = n
        assert not counts[:, rates == 0].any()
        mean, var = counts.mean(axis=0), counts.var(axis=0, ddof=1)
        pos = rates > 0
        # 5 standard errors; the sample variance of Poisson(r) has variance
        # r / n + 2 r^2 / (n - 1)
        se_mean = np.sqrt(rates / n_rep)
        se_var = np.sqrt(rates / n_rep + 2.0 * rates ** 2 / (n_rep - 1))
        assert np.all(np.abs(mean - rates)[pos] < 5.0 * se_mean[pos])
        assert np.all(np.abs(var - rates)[pos] < 5.0 * se_var[pos])

    def test_statistic_is_the_dense_likelihood(self, two_by_two_grid, small_catalog):
        rates = np.array([3.0, 0.3, 1.0, 0.1, 2.0, 0.2, 4.0, 0.4])
        f = GriddedForecast(two_by_two_grid, rates, small_catalog.window_days)
        r = l_test(f, small_catalog, RngStream(36), n_sim=20)
        counts = bin_counts(small_catalog, f.grid).counts
        assert r.statistic == pytest.approx(joint_log_likelihood(f, counts), rel=1e-12)

class TestConditionalMarginals:
    def test_m_statistic_is_scaled_marginal_likelihood(self, two_by_two_grid,
                                                       small_catalog):
        rates = np.array([3.0, 0.3, 1.0, 0.1, 2.0, 0.2, 4.0, 0.4])
        f = GriddedForecast(two_by_two_grid, rates, small_catalog.window_days)
        r = m_test(f, small_catalog, RngStream(40), n_sim=50)
        counts = bin_counts(small_catalog, f.grid).counts
        band_of = f.grid.band_index()
        marg_counts = np.bincount(band_of, weights=counts, minlength=2)
        scaled = scale_to_count(marginal_magnitude(f), int(marg_counts.sum()))
        expect = joint_log_likelihood(scaled, marg_counts)
        assert r.statistic == pytest.approx(expect, rel=1e-12)

    def test_empty_catalog_not_applicable(self, two_by_two_grid):
        f = GriddedForecast(two_by_two_grid, np.ones(8), 1.0)
        c = Catalog(np.array([0.5]), np.array([5.0]), np.array([5.0]),
                    np.array([4.5]), 1.0, 4.0)  # stray: lands in no cell
        r = m_test(f, c, RngStream(41), n_sim=50)
        assert r.decision == "not-applicable"
        assert math.isnan(r.statistic)

    def test_s_test_rejects_wrong_spatial_shape(self, two_by_two_grid):
        # forecast mass almost entirely in one corner; events in the other
        rates = np.array([50.0, 5.0, 0.01, 0.001, 0.01, 0.001, 0.01, 0.001])
        f = GriddedForecast(two_by_two_grid, rates, 1.0)
        times = np.linspace(0.1, 0.9, 8)
        c = Catalog(times, np.full(8, 0.75), np.full(8, 0.75),
                    np.full(8, 4.5), 1.0, 4.0)
        r = s_test(f, c, RngStream(42), n_sim=400)
        assert r.decision == "reject"

    def test_s_test_keeps_matching_shape(self, two_by_two_grid):
        rates = np.array([2.0, 0.2, 2.0, 0.2, 2.0, 0.2, 2.0, 0.2])
        f = GriddedForecast(two_by_two_grid, rates, 1.0)
        gen = RngStream(43).generator()
        n = 9
        c = Catalog(np.linspace(0.05, 0.95, n), gen.uniform(0, 1, n),
                    gen.uniform(0, 1, n), np.full(n, 4.5), 1.0, 4.0)
        r = s_test(f, c, RngStream(44), n_sim=400)
        assert r.decision == "consistent"


class TestRTest:
    def test_self_comparison_p_is_one(self):
        fa, fb, c = paradox_fixture()
        for f in (fa, fb):
            r = r_test(f, f, c, RngStream(50), n_sim=100)
            assert r.statistic == 0.0
            assert r.p_value == 1.0

    def test_grid_mismatch_raises(self, two_by_two_grid):
        fa = GriddedForecast(two_by_two_grid, np.ones(8), 1.0)
        grid796 = BinGrid(np.array([[0.0, 1.0, 0.0, 1.0, 4.0, 6.0]]))
        fb = GriddedForecast(grid796, np.ones(1), 1.0)
        _, _, c = paradox_fixture()
        with pytest.raises(ValueError, match="grid"):
            r_test(fa, fb, c, RngStream(51), n_sim=10)

    def test_detects_better_forecast(self, two_by_two_grid):
        # truth concentrated in one cell; fb is truth, fa is flat
        rates_true = np.array([0.02, 0.002, 0.02, 0.002, 0.02, 0.002, 16.0, 0.4])
        flat = np.full(8, rates_true.sum() / 8.0)
        fa = GriddedForecast(two_by_two_grid, flat, 1.0)
        fb = GriddedForecast(two_by_two_grid, rates_true, 1.0)
        from eqassess import simulate_poisson_grid
        c = simulate_poisson_grid(fb, RngStream(52))
        # null: catalogs from fa; observed R = L_A - L_B very low tail
        r = r_test(fa, fb, c, RngStream(53), n_sim=400)
        assert r.direction == "B"
        assert r.decision == "reject"

    def test_directional(self):
        fa, fb, c = paradox_fixture()
        ab = r_test(fa, fb, c, RngStream(54), n_sim=200)
        ba = r_test(fb, fa, c, RngStream(54), n_sim=200)
        assert ab.statistic == pytest.approx(-ba.statistic, rel=1e-12)
        assert ab.p_value != ba.p_value  # different null distributions


class TestTTest:
    def _pair(self, ra, rb):
        grid = BinGrid.regular(np.array([0.0, 1.0]), np.arange(len(ra) + 1.0),
                               np.array([4.0, 5.0]))
        fa = GriddedForecast(grid, np.asarray(ra, dtype=float), 1.0)
        fb = GriddedForecast(grid, np.asarray(rb, dtype=float), 1.0)
        c = Catalog(np.array([0.5]), np.array([50.0]), np.array([50.0]),
                    np.array([4.5]), 1.0, 4.0)  # stray event: all counts 0
        return fa, fb, c

    def test_antisymmetric_diffs_give_t_zero(self):
        h = 0.3
        fa, fb, c = self._pair([1.0, 2.0], [1.0 + h, 2.0 - h])
        r = t_test_pairwise(fa, fb, c)
        # x = (h, -h): mean 0, t = 0, p = 1
        assert r.statistic == pytest.approx(0.0, abs=1e-12)
        assert r.p_value == pytest.approx(1.0, abs=1e-12)
        assert r.decision == "consistent"

    def test_degenerate_variance_reported_not_raised(self):
        fa, fb, c = self._pair([1.0, 2.0], [1.5, 2.5])
        r = t_test_pairwise(fa, fb, c)
        assert r.decision == "degenerate"
        assert r.p_value == 1.0
        assert "variance" in r.note

    def test_matches_scipy_on_generic_data(self, two_by_two_grid,
                                           small_catalog):
        ra = np.array([3.0, 0.3, 1.0, 0.1, 2.0, 0.2, 4.0, 0.4])
        rb = np.array([1.0, 0.5, 2.0, 0.3, 1.5, 0.1, 2.5, 0.9])
        fa = GriddedForecast(two_by_two_grid, ra, 5.0)
        fb = GriddedForecast(two_by_two_grid, rb, 5.0)
        r = t_test_pairwise(fa, fb, small_catalog)
        counts = bin_counts(small_catalog, two_by_two_grid).counts
        x = poisson_log_pmf(counts, ra) - poisson_log_pmf(counts, rb)
        t_ref, p_ref = stats.ttest_1samp(x, 0.0)
        assert r.statistic == pytest.approx(float(t_ref), rel=1e-10)
        assert r.p_value == pytest.approx(float(p_ref), rel=1e-10)

    def test_statistic_helper_degenerate(self):
        t, p = student_t_statistic(np.array([0.7, 0.7, 0.7]))
        assert math.isnan(t) and math.isnan(p)


class TestWTest:
    def _pair_positive_diffs(self, n):
        # counts all zero, so x_i = rb_i - ra_i; pick distinct positive gaps
        ra = np.linspace(1.0, 2.0, n)
        rb = ra + np.linspace(0.1, 0.1 * n, n)
        grid = BinGrid.regular(np.array([0.0, 1.0]), np.arange(n + 1.0),
                               np.array([4.0, 5.0]))
        fa = GriddedForecast(grid, ra, 1.0)
        fb = GriddedForecast(grid, rb, 1.0)
        c = Catalog(np.array([0.5]), np.array([50.0]), np.array([50.0]),
                    np.array([4.5]), 1.0, 4.0)
        return fa, fb, c

    def test_all_positive_ranks_frozen_value(self):
        fa, fb, c = self._pair_positive_diffs(10)
        r = w_test_pairwise(fa, fb, c)
        # W = 1+2+...+10 = 55; z = 27.5/sqrt(96.25); p = erfc(z/sqrt 2)
        assert r.statistic == 55.0
        z = 27.5 / math.sqrt(10 * 11 * 21 / 24.0)
        assert r.p_value == pytest.approx(math.erfc(z / math.sqrt(2.0)),
                                          rel=1e-12)
        assert r.p_value == pytest.approx(0.005062032126267768, rel=1e-9)
        assert r.direction == "A"
        assert r.decision == "reject"

    def test_too_few_nonzero_not_applicable(self):
        fa, fb, c = self._pair_positive_diffs(9)
        r = w_test_pairwise(fa, fb, c)
        assert r.decision == "not-applicable"

    def test_matches_scipy_normal_approximation(self):
        gen = RngStream(60).generator()
        x = gen.normal(0.2, 1.0, 25)
        w, p, n = wilcoxon_signed_rank(x)
        ref = stats.wilcoxon(x, correction=False, method="approx")
        assert p == pytest.approx(float(ref.pvalue), rel=1e-9)
        assert n == 25

    def test_rank_sum_identity(self):
        gen = RngStream(61).generator()
        x = gen.normal(0.0, 1.0, 40)
        w_pos, _, n = wilcoxon_signed_rank(x)
        w_neg, _, _ = wilcoxon_signed_rank(-x)
        assert w_pos + w_neg == pytest.approx(n * (n + 1) / 2.0)


class TestResultsCsv:
    def test_round_trip_floats(self):
        fa, fb, c = paradox_fixture()
        rows = [n_test(fa, c), l_test(fa, c, RngStream(70), n_sim=50),
                t_test_pairwise(fa, fb, c)]
        text = results_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "test,statistic,quantile_or_p,n_sim,decision"
        assert len(lines) == 4
        stat = float(lines[2].split(",")[1])
        assert stat == rows[1].statistic  # repr round-trips exactly
