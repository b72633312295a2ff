import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from eqassess import (Catalog, HawkesIntensity, HawkesParams,
                      HomogeneousIntensity, KernelIntensity, Region,
                      RngStream, background_from_catalog, branching_ratio,
                      central_gradient, fit_mle, kernel_density,
                      kernel_disk_mass, log_likelihood, mean_branching_ratio,
                      parse_hawkes_params, radial_trigger_cdf,
                      select_bandwidth, serialize_hawkes_params,
                      simulate_homogeneous, temporal_trigger_cdf)
from eqassess import intensity
from eqassess.intensity import (hawkes_objective, hawkes_pack, hawkes_score,
                                hawkes_unpack, spatial_mass, temporal_mass)

KM_PER_DEG = 111.32


def planar_distance_km(lon1, lat1, lon2, lat2):
    # independent of the package's metric helper on purpose
    mean_lat = math.radians(0.5 * (lat1 + lat2))
    dx = KM_PER_DEG * math.cos(mean_lat) * (lon2 - lon1)
    dy = KM_PER_DEG * (lat2 - lat1)
    return math.hypot(dx, dy)


class TestKernelDensity:
    def test_value_at_origin_unit_width(self):
        assert kernel_density(0.0, 1.0) == pytest.approx(1.0 / (2.0 * math.pi),
                                                         abs=1e-12)

    def test_value_at_r_equals_d(self):
        d = 3.7
        expect = 1.0 / (2.0 * math.pi * 2.0 ** 1.5 * d * d)
        assert kernel_density(d, d) == pytest.approx(expect, rel=1e-12)

    def test_disk_mass_ten_widths(self):
        # closed form: 1 - d/sqrt(100 d^2 + d^2)
        assert kernel_disk_mass(10.0, 1.0) == pytest.approx(
            1.0 - 1.0 / math.sqrt(101.0), abs=1e-12)

    def test_disk_mass_matches_radial_quadrature(self):
        d = 2.5
        val, err = quad(lambda r: 2.0 * math.pi * r * kernel_density(r, d),
                        0.0, 50.0 * d)
        assert val == pytest.approx(kernel_disk_mass(50.0 * d, d), abs=1e-9)

    def test_plane_mass_nearly_one(self):
        assert kernel_disk_mass(1000.0, 1.0) >= 0.998

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            kernel_density(1.0, 0.0)


class TestKernelIntensity:
    def test_single_source_at_source(self):
        m = KernelIntensity([0.5], [0.5], d=2.0)
        assert m.rate_at(0.5, 0.5)[0] == pytest.approx(kernel_density(0.0, 2.0))

    def test_two_identical_sources_double(self):
        one = KernelIntensity([0.5], [0.5], d=2.0).rate_at(0.3, 0.6)
        two = KernelIntensity([0.5, 0.5], [0.5, 0.5], d=2.0).rate_at(0.3, 0.6)
        assert two[0] == pytest.approx(2.0 * one[0], rel=1e-12)

    def test_scale_factor(self):
        base = KernelIntensity([0.5], [0.5], d=2.0).rate_at(0.3, 0.6)
        scaled = KernelIntensity([0.5], [0.5], d=2.0, scale=7.0).rate_at(0.3, 0.6)
        assert scaled[0] == pytest.approx(7.0 * base[0], rel=1e-12)

    def test_uniform_sources_give_count_density(self):
        # many sources on a big square with a narrow kernel: the field near
        # the center approaches sources-per-area
        rng = np.random.default_rng(0)
        n = 400
        lons = rng.uniform(0.0, 2.0, n)
        lats = rng.uniform(0.0, 2.0, n)
        m = KernelIntensity(lons, lats, d=3.0)
        area = (2.0 * KM_PER_DEG) * (2.0 * KM_PER_DEG * math.cos(math.radians(1.0)))
        val = m.rate_at(1.0, 1.0)[0]
        assert val == pytest.approx(n / area, rel=0.35)

    def test_empty_sources_rejected(self):
        with pytest.raises(ValueError):
            KernelIntensity([], [], d=1.0)


class TestHawkesParams:
    def test_validation(self):
        good = dict(mu=0.1, k=0.05, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5, m0=4.0)
        HawkesParams(**good)
        for field, bad in [("mu", 0.0), ("k", -1.0), ("c", 0.0), ("p", 1.0),
                           ("a", -0.1), ("d", 0.0), ("q", 1.0)]:
            with pytest.raises(ValueError):
                HawkesParams(**{**good, field: bad})

    def test_serialization_round_trip(self):
        p = HawkesParams(mu=0.1, k=0.05, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5,
                         m0=4.0)
        back = parse_hawkes_params(serialize_hawkes_params(p))
        assert back == p

    def test_parse_rejects_unknown_key(self):
        text = serialize_hawkes_params(
            HawkesParams(mu=0.1, k=0.05, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5))
        with pytest.raises(ValueError):
            parse_hawkes_params(text + "extra = 3\n")

    def test_fit_file_round_trip(self, small_catalog):
        fit = intensity.FitResult(HomogeneousIntensity(2.5e-4), -12.5, 3, 1e-9, True,
                                  "homogeneous", "")
        text = intensity.serialize_fit(fit)
        assert text == ("# family = homogeneous\n# log_likelihood = -12.5\n"
                        "# iterations = 3\n# grad_norm = 1e-09\n# converged = true\n"
                        "mu = 0.00025\n")
        assert intensity.parse_model_params(text, small_catalog).rate == 2.5e-4
        p = HawkesParams(mu=0.1, k=0.05, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5, m0=4.0)
        text = intensity.serialize_fit(fit._replace(params=p, family="hawkes"))
        assert text.startswith("# family = hawkes\n# log_likelihood = -12.5\n")
        model = intensity.parse_model_params(text, small_catalog)
        assert model.params == p and model.history is small_catalog
        # no family comment means hawkes
        assert intensity.parse_model_params(serialize_hawkes_params(p),
                                            small_catalog).params == p

    @pytest.mark.parametrize("text,message", [
        ("# family = homogeneous\n", "params: homogeneous file needs a mu line"),
        ("# family = homogeneous\nmu = x\n",
         "params: could not convert string to float: 'x'"),
        ("# family = sparkle\nmu = 1.0\n", "params: unknown family 'sparkle'"),
    ])
    def test_model_params_errors(self, small_catalog, text, message):
        with pytest.raises(ValueError) as err:
            intensity.parse_model_params(text, small_catalog)
        assert str(err.value) == message


class TestHawkesIntensity:
    PARAMS = HawkesParams(mu=0.1, k=0.05, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5,
                          m0=4.0)

    @pytest.fixture
    def two_event_history(self):
        return Catalog(np.array([1.0, 3.0]), np.array([0.3, 0.7]),
                       np.array([0.4, 0.6]), np.array([4.5, 5.2]), 10.0, 4.0)

    def test_before_all_events_is_background(self, two_event_history):
        m = HawkesIntensity(self.PARAMS, two_event_history)
        assert m.rate_at(0.5, 0.5, 0.5)[0] == self.PARAMS.mu

    def test_event_at_eval_time_excluded(self, two_event_history):
        m = HawkesIntensity(self.PARAMS, two_event_history)
        at_first = m.rate_at(0.3, 0.4, 1.0)[0]
        assert at_first == self.PARAMS.mu  # the t=1 event itself contributes 0

    def test_against_brute_force_sum(self, two_event_history):
        m = HawkesIntensity(self.PARAMS, two_event_history)
        lon, lat, t = 0.55, 0.45, 6.5
        p = self.PARAMS
        expect = p.mu
        for i in range(two_event_history.n):
            dt = t - two_event_history.times[i]
            r = planar_distance_km(lon, lat, two_event_history.lons[i],
                                   two_event_history.lats[i])
            expect += (p.k * (dt + p.c) ** -p.p
                       * math.exp(p.a * (two_event_history.mags[i] - p.m0))
                       * (r * r + p.d) ** -p.q)
        assert m.rate_at(lon, lat, t)[0] == pytest.approx(expect, rel=1e-10)

    def test_k_zero_reduces_to_background(self, two_event_history):
        p = HawkesParams(mu=0.1, k=0.0, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5,
                         m0=4.0)
        m = HawkesIntensity(p, two_event_history)
        ts = np.array([0.5, 2.0, 5.0, 9.0])
        np.testing.assert_array_equal(
            m.rate_at(np.full(4, 0.5), np.full(4, 0.5), ts), np.full(4, 0.1))

    def test_kernel_background_field(self, two_event_history):
        bg = KernelIntensity([0.5], [0.5], d=5.0, scale=3.0)
        p = HawkesParams(mu=0.1, k=0.0, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5,
                         m0=4.0)
        m = HawkesIntensity(p, two_event_history, background=bg)
        np.testing.assert_allclose(m.rate_at(0.4, 0.6, 5.0),
                                   bg.rate_at(0.4, 0.6))


class TestHawkesProtocol:
    def test_kernel_masses_against_quadrature(self):
        c, p, d, q = 0.03, 1.4, 0.7, 1.6
        for u in (0.0, 0.2, 7.0):
            want, _ = quad(lambda s: (s + c) ** -p, 0.0, u)
            assert temporal_mass(u, c, p) == pytest.approx(want, rel=1e-9, abs=1e-14)
        assert temporal_mass(math.inf, c, p) == c ** (1.0 - p) / (p - 1.0)
        want, _ = quad(lambda r: 2.0 * math.pi * r * (r * r + d) ** -q, 0.0, math.inf)
        assert spatial_mass(d, q) == pytest.approx(want, rel=1e-9)

    @pytest.mark.parametrize("with_background", [False, True])
    def test_integrate_matches_sliced_reference(self, aligned_history, sliced,
                                                with_background):
        params, history = aligned_history
        bg = KernelIntensity([0.4], [0.6], d=20.0, scale=50.0) \
            if with_background else None
        m = HawkesIntensity(params, history, background=bg)
        # at the events (where the triggered part peaks) and between them
        lons = np.r_[history.lons, np.linspace(0.05, 0.95, 9)]
        lats = np.r_[history.lats, np.linspace(0.9, 0.1, 9)]
        exact = m.integrate(lons, lats, 5.0)
        np.testing.assert_allclose(exact, sliced(m).integrate(lons, lats, 5.0),
                                   rtol=1e-4)
        base = bg.rate_at(lons, lats) if with_background else params.mu
        assert np.all(exact > base * 5.0)

    def test_integrate_before_all_events_is_background(self):
        history = Catalog(np.array([2.0]), np.array([0.5]), np.array([0.5]),
                          np.array([4.5]), 10.0, 4.0)
        m = HawkesIntensity(TestHawkesIntensity.PARAMS, history)
        np.testing.assert_array_equal(m.integrate([0.5, 0.1], [0.5, 0.9], 2.0),
                                      np.full(2, 0.1 * 2.0))

    def test_stationary_protocol(self, unit_region):
        m = KernelIntensity([0.5], [0.5], d=10.0, scale=3.0)
        np.testing.assert_array_equal(m.integrate([0.2, 0.5], [0.3, 0.5], 4.0),
                                      m.rate_at([0.2, 0.5], [0.3, 0.5]) * 4.0)
        lo, hi = m.bounds(unit_region, 4.0)
        assert 0 < lo < hi == pytest.approx(m.rate_at(0.5, 0.5)[0], rel=0.01)

    def test_bounds_need_t_max(self, unit_region, aligned_history):
        with pytest.raises(ValueError, match="t_max"):
            HawkesIntensity(*aligned_history).bounds(unit_region)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30),
           c=st.floats(1e-3, 1.0), p=st.floats(1.05, 3.0),
           d=st.floats(1e-3, 5.0), q=st.floats(1.05, 3.0),
           with_background=st.booleans())
    def test_certified_sup_covers_every_event(self, seed, n, c, p, d, q,
                                              with_background):
        region = Region.rectangle(0.0, 1.0, 0.0, 1.0)
        gen = np.random.default_rng(seed)
        history = Catalog(np.sort(gen.uniform(0.0, 10.0, n)),
                          gen.uniform(0.0, 1.0, n), gen.uniform(0.0, 1.0, n),
                          gen.uniform(4.0, 6.0, n), 10.0, 4.0)
        params = HawkesParams(mu=1e-3, k=0.01, c=c, p=p, a=1.2, d=d, q=q, m0=4.0)
        m = HawkesIntensity(params, history,
                            background=HomogeneousIntensity(2e-3)
                            if with_background else None)
        lo, hi = m.bounds(region, 10.0)
        at = m.rate_at(history.lons, history.lats, history.times)
        after = m.rate_at(history.lons, history.lats,
                          np.nextafter(history.times, np.inf))
        assert lo == (2e-3 if with_background else 1e-3)
        assert np.all(at >= lo)
        # the sup and the rate sum the same terms in another order
        assert np.all(at <= hi * (1.0 + 1e-12))
        assert np.all(after <= hi * (1.0 + 1e-12))

    def test_compensator_is_integrate_over_the_plane(self, unit_region,
                                                     aligned_history):
        params, history = aligned_history
        m = HawkesIntensity(params, history)
        ts = np.array([0.0, 1.3, 5.0])
        kappa = params.k * np.exp(params.a * (history.mags - params.m0))
        want = [params.mu * unit_region.area_km2 * t + sum(
            kappa[i] * spatial_mass(params.d, params.q)
            * temporal_mass(max(t - history.times[i], 0.0), params.c, params.p)
            for i in range(history.n)) for t in ts]
        np.testing.assert_allclose(m.compensator(unit_region, ts), want, rtol=1e-12)

    def test_chunk_size_does_not_change_results(self, unit_region, aligned_history,
                                                monkeypatch):
        params, history = aligned_history
        bg = KernelIntensity(history.lons[:7], history.lats[:7], d=5.0, scale=0.3)
        gen = np.random.default_rng(4)
        lons, lats = gen.uniform(0.0, 1.0, 300), gen.uniform(0.0, 1.0, 300)
        times = gen.uniform(0.0, 5.0, 300)

        def everything():
            m = HawkesIntensity(params, history, background=bg)
            return [m.rate_at(lons, lats, times), m.integrate(lons, lats, 5.0),
                    np.array(m.bounds(unit_region, 5.0)),
                    m.compensator(unit_region, times), bg.rate_at(lons, lats)]

        monkeypatch.setattr(intensity, "_CHUNK_BYTES", 1 << 40)
        one = everything()
        # the fewest rows a span may take, and twice that
        for rows in (intensity._ROW_ALIGN, 2 * intensity._ROW_ALIGN):
            budget = 8 * rows * history.n
            monkeypatch.setattr(intensity, "_CHUNK_BYTES", budget)
            for a, b in zip(one, everything()):
                assert np.array_equal(a, b)


class TestBranchingRatio:
    def test_k_zero(self):
        p = HawkesParams(mu=0.1, k=0.0, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5)
        assert branching_ratio(p, 5.0) == 0.0

    def test_criticality_inversion(self):
        # k chosen so the closed form collapses to exactly 1 at m = m0
        c, p_exp, d, q = 0.013, 1.31, 0.87, 1.62
        k = (p_exp - 1.0) * (q - 1.0) * c ** (p_exp - 1.0) * d ** (q - 1.0) / math.pi
        params = HawkesParams(mu=0.1, k=k, c=c, p=p_exp, a=0.7, d=d, q=q, m0=4.0)
        assert branching_ratio(params, 4.0) == pytest.approx(1.0, rel=1e-12)

    def test_matches_space_time_quadrature(self):
        params = HawkesParams(mu=0.1, k=0.05, c=0.01, p=1.5, a=1.0, d=1.0,
                              q=2.0, m0=4.0)
        mag = 4.8
        # piecewise quadrature: the integrand varies over scale c near 0,
        # then decays over decades
        t_mass = sum(quad(lambda t: (t + params.c) ** -params.p, lo, hi,
                          limit=200)[0]
                     for lo, hi in [(0.0, 1.0), (1.0, 1e3), (1e3, 1e6)])
        r_mass = sum(quad(lambda r: 2 * math.pi * r * (r * r + params.d) ** -params.q,
                          lo, hi, limit=200)[0]
                     for lo, hi in [(0.0, 1.0), (1.0, 1e3), (1e3, 1e6)])
        boost = math.exp(params.a * (mag - params.m0))
        expect = params.k * boost * t_mass * r_mass
        assert branching_ratio(params, mag) == pytest.approx(expect, rel=0.01)

    def test_mean_over_magnitudes_matches_quadrature(self):
        params = HawkesParams(mu=0.1, k=0.05, c=0.01, p=1.5, a=1.0, d=1.0,
                              q=2.0, m0=4.0)
        b, span = 1.0, 4.0
        beta = b * math.log(10.0)
        norm = 1.0 - math.exp(-beta * span)

        def integrand(m):
            dens = beta * math.exp(-beta * (m - params.m0)) / norm
            return branching_ratio(params, m) * dens

        expect, _ = quad(integrand, params.m0, params.m0 + span)
        assert mean_branching_ratio(params, b, span) == pytest.approx(
            expect, rel=1e-8)


class TestTriggerCdfs:
    def test_temporal_cdf_is_integral_of_density(self):
        c, p = 0.02, 1.4
        norm = (p - 1.0) * c ** (p - 1.0)
        for u in [0.001, 0.1, 3.0, 200.0]:
            val, _ = quad(lambda t: norm * (t + c) ** -p, 0.0, u)
            assert temporal_trigger_cdf(u, c, p) == pytest.approx(val, rel=1e-8)

    def test_radial_cdf_is_integral_of_density(self):
        d, q = 0.7, 1.8
        norm = (q - 1.0) * d ** (q - 1.0)
        for r in [0.01, 0.5, 2.0, 40.0]:
            val, _ = quad(lambda s: norm * 2.0 * s * (s * s + d) ** -q, 0.0, r)
            assert radial_trigger_cdf(r, d, q) == pytest.approx(val, rel=1e-8)

    def test_cdf_limits(self):
        assert temporal_trigger_cdf(0.0, 0.01, 1.2) == 0.0
        assert radial_trigger_cdf(0.0, 1.0, 1.5) == 0.0
        assert temporal_trigger_cdf(1e20, 0.01, 1.2) == pytest.approx(1.0, abs=1e-4)
        assert radial_trigger_cdf(1e9, 1.0, 1.5) == pytest.approx(1.0, abs=1e-4)


class TestLogLikelihood:
    def test_homogeneous_closed_form(self, unit_region, small_catalog):
        rate = 2e-4
        model = HomogeneousIntensity(rate)
        at = unit_region.area_km2 * small_catalog.window_days
        expect = small_catalog.n * math.log(rate) - rate * at
        assert log_likelihood(model, small_catalog, unit_region) == \
            pytest.approx(expect, rel=1e-12)

    def test_zero_rate_event_is_neg_inf(self, unit_region, small_catalog):
        model = HomogeneousIntensity(0.0)
        assert log_likelihood(model, small_catalog, unit_region) == -np.inf

    def test_reordering_invariance(self, unit_region):
        times = np.array([0.5, 0.2, 0.9])
        lons = np.array([0.1, 0.6, 0.3])
        lats = np.array([0.7, 0.2, 0.5])
        mags = np.array([4.1, 4.9, 4.4])
        a = Catalog(times, lons, lats, mags, 1.0, 4.0)
        b = Catalog(times[::-1], lons[::-1], lats[::-1], mags[::-1], 1.0, 4.0)
        p = HawkesParams(mu=1e-4, k=0.01, c=0.01, p=1.3, a=1.0, d=1.0, q=1.5,
                         m0=4.0)
        la = log_likelihood(HawkesIntensity(p, a), a, unit_region)
        lb = log_likelihood(HawkesIntensity(p, b), b, unit_region)
        assert la == pytest.approx(lb, rel=1e-14)

    def test_approx_close_to_quadrature_small_catalog(self, unit_region):
        rng = RngStream(5)
        cat = simulate_homogeneous(2e-4, unit_region, 10.0, rng, mag=4.3)
        assert 15 <= cat.n <= 35
        p = HawkesParams(mu=1e-4, k=0.005, c=0.05, p=1.5, a=0.8, d=0.5, q=1.8,
                         m0=4.0)
        m = HawkesIntensity(p, cat)
        approx = log_likelihood(m, cat, unit_region, mode="approx")
        exact = log_likelihood(m, cat, unit_region, mode="quadrature")
        assert approx == pytest.approx(exact, rel=0.005)


class TestFitMle:
    def test_homogeneous_recovers_count_density(self, unit_region):
        rng = RngStream(42)
        cat = simulate_homogeneous(4e-4, unit_region, 10.0, rng, mag=4.0)
        fit = fit_mle("homogeneous", cat, unit_region, init=1e-5)
        expect = cat.n / (unit_region.area_km2 * cat.window_days)
        assert fit.params.rate == pytest.approx(expect, rel=1e-6)
        assert fit.converged

    def test_refit_from_truth_never_worse(self, unit_region):
        truth = HawkesParams(mu=2e-4, k=0.003, c=0.05, p=1.5, a=1.0, d=0.5,
                             q=1.8, m0=4.0)
        rng = RngStream(9)
        from eqassess import simulate_hawkes
        cat = simulate_hawkes(truth, unit_region, 30.0, rng)
        fit = fit_mle("hawkes", cat, unit_region, init=truth)
        ll_truth = log_likelihood(HawkesIntensity(truth, cat), cat, unit_region)
        assert fit.log_lik >= ll_truth - 1e-9

    def test_restarts_need_rng(self, unit_region, small_catalog):
        with pytest.raises(ValueError, match="RngStream"):
            fit_mle("homogeneous", small_catalog, unit_region, init=1e-4,
                    restarts=2)

    def test_unknown_family(self, unit_region, small_catalog):
        with pytest.raises(ValueError, match="family"):
            fit_mle("poisson-cluster", small_catalog, unit_region, init=1.0)

    def test_gradient_step_robustness(self, unit_region):
        # the optimizer's central-difference gradient must be stable under a
        # step-size change at generic (non-optimal) parameter points
        rng = RngStream(17)
        cat = simulate_homogeneous(3e-4, unit_region, 10.0, rng, mag=4.5)
        negll = hawkes_objective(cat, unit_region, 4.0, "approx")
        base = hawkes_pack(HawkesParams(mu=1e-4, k=0.004, c=0.04, p=1.4,
                                        a=0.9, d=0.6, q=1.7, m0=4.0))
        gen = RngStream(18).generator()
        for _ in range(5):
            theta = base + gen.normal(0.0, 0.3, size=base.size)
            g1 = central_gradient(negll, theta)
            g2 = central_gradient(negll, theta, rel_step=1e-5)
            scale = np.maximum(np.abs(g1), 1e-6 * np.max(np.abs(g1)))
            assert np.max(np.abs(g1 - g2) / scale) < 1e-4

    @pytest.mark.parametrize("family", ["homogeneous", "hawkes"])
    @pytest.mark.parametrize("mode", ["approx", "quadrature"])
    def test_fit_never_takes_differences(self, unit_region, monkeypatch,
                                         family, mode):
        def refuse(*args, **kwargs):
            raise AssertionError("fit_mle called central_gradient")

        monkeypatch.setattr(intensity, "central_gradient", refuse)
        cat = simulate_homogeneous(3e-4, unit_region, 10.0, RngStream(17), mag=4.5)
        init = 1e-5 if family == "homogeneous" else HawkesParams(
            mu=1e-4, k=0.004, c=0.04, p=1.4, a=0.9, d=0.6, q=1.7, m0=4.0)
        fit = fit_mle(family, cat, unit_region, init, mode=mode)
        assert fit.grad_norm < 1e-3

    def test_fit_steps_past_an_infinite_objective(self, unit_region, monkeypatch):
        # a Hawkes fit to a Poisson catalog drives k down and leaves c, p, d,
        # q flat, so the line search probes parameters that overflow
        make = intensity.hawkes_score
        infinite = []

        def counting(*args, **kwargs):
            score = make(*args, **kwargs)

            def counted(theta):
                value, grad = score(theta)
                if value == math.inf:
                    infinite.append(theta)
                return value, grad

            return counted

        monkeypatch.setattr(intensity, "hawkes_score", counting)
        cat = simulate_homogeneous(3e-4, unit_region, 10.0, RngStream(5), mag=4.5)
        init = HawkesParams(mu=1e-4, k=0.004, c=0.04, p=1.4, a=0.9, d=0.6,
                            q=1.7, m0=4.0)
        fit = fit_mle("hawkes", cat, unit_region, init)
        assert infinite
        assert all(math.isfinite(getattr(fit.params, nm))
                   for nm in ("mu", "k", "c", "p", "a", "d", "q"))
        assert math.isfinite(fit.log_lik) and math.isfinite(fit.grad_norm)

    def test_score_of_unpackable_parameters_is_infinite(self, unit_region,
                                                        small_catalog):
        score = hawkes_score(small_catalog, unit_region, 4.0)
        for theta in (np.full(7, 800.0), np.r_[-800.0, np.zeros(6)]):
            value, grad = score(theta)
            assert value == math.inf and np.all(np.isnan(grad))

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([0, 1, 2, 7, 25]),
           ties=st.booleans(), mode=st.sampled_from(["approx", "quadrature"]))
    def test_score_matches_central_differences(self, seed, n, ties, mode):
        region = Region.rectangle(0.0, 1.0, 0.0, 1.0)
        gen = np.random.default_rng(seed)
        times = gen.uniform(0.0, 10.0, n)
        if ties:
            # whole days: simultaneous events, which do not trigger each other
            times = np.floor(times)
        cat = Catalog(times, gen.uniform(0.0, 1.0, n), gen.uniform(0.0, 1.0, n),
                      gen.uniform(4.0, 6.0, n), 10.0, 4.0)
        theta = hawkes_pack(HawkesParams(mu=1e-4, k=0.004, c=0.04, p=1.4, a=0.9,
                                         d=0.6, q=1.7, m0=4.0)) \
            + gen.normal(0.0, 0.3, size=7)
        value, grad = hawkes_score(cat, region, 4.0, mode)(theta)
        model = HawkesIntensity(hawkes_unpack(theta, 4.0), cat)
        assert value == pytest.approx(-log_likelihood(model, cat, region, mode=mode),
                                      rel=1e-12)
        oracle = central_gradient(hawkes_objective(cat, region, 4.0, mode), theta)
        scale = np.maximum(np.abs(grad), 1e-6 * np.max(np.abs(grad)))
        assert np.max(np.abs(grad - oracle) / scale) < 1e-4

    def test_pack_unpack_round_trip(self):
        p = HawkesParams(mu=0.1, k=0.05, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5,
                         m0=4.0)
        back = hawkes_unpack(hawkes_pack(p), 4.0)
        assert back.mu == pytest.approx(p.mu, rel=1e-14)
        assert back.p == pytest.approx(p.p, rel=1e-14)
        assert back.q == pytest.approx(p.q, rel=1e-14)


class TestBandwidth:
    def test_selects_sensible_width(self):
        # two tight clusters 55 km apart: very small and very large widths
        # both lose leave-one-out likelihood to an intermediate one
        gen = np.random.default_rng(3)
        base = np.array([[0.2, 0.2], [0.7, 0.7]])
        pts = np.vstack([b + gen.normal(0, 0.01, (20, 2)) for b in base])
        c = Catalog(np.arange(40) * 0.01, pts[:, 0], pts[:, 1],
                    np.full(40, 4.0), 1.0, 4.0)
        sel = select_bandwidth(c, [0.05, 2.0, 500.0])
        assert sel.d == 2.0
        assert np.all(np.isfinite(sel.scores))

    def test_needs_two_events(self, unit_region):
        c = Catalog(np.array([0.1]), np.array([0.5]), np.array([0.5]),
                    np.array([4.0]), 1.0, 4.0)
        with pytest.raises(ValueError):
            select_bandwidth(c, [1.0])


class TestBackgroundFromCatalog:
    def test_region_integral_hits_target(self, unit_region, small_catalog):
        bg = background_from_catalog(small_catalog, d=20.0, region=unit_region,
                                     events_per_day=10.0)
        from eqassess.intensity import _spatial_quadrature_rate
        total = _spatial_quadrature_rate(bg, unit_region, 200)
        assert total == pytest.approx(10.0, rel=1e-6)

    def test_wider_kernel_same_integral(self, unit_region, small_catalog):
        from eqassess.intensity import _spatial_quadrature_rate
        a = background_from_catalog(small_catalog, 10.0, unit_region, 5.0)
        b = background_from_catalog(small_catalog, 20.0, unit_region, 5.0)
        ia = _spatial_quadrature_rate(a, unit_region, 200)
        ib = _spatial_quadrature_rate(b, unit_region, 200)
        assert ia == pytest.approx(ib, rel=1e-6)
