import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from eqassess import (BinGrid, Catalog, GriddedForecast, GridIntensity, HawkesIntensity,
                      HawkesParams, HomogeneousIntensity, Region, RngStream, branching_ratio,
                      central_gradient, fit_mle, log_likelihood, mean_branching_ratio,
                      parse_hawkes_params, radial_trigger_cdf, serialize_hawkes_params,
                      simulate_hawkes, simulate_homogeneous, temporal_trigger_cdf)
from eqassess import intensity
from eqassess.catalog import km_distance2, region_lattice
from eqassess.intensity import (hawkes_objective, hawkes_pack, hawkes_score,
                                hawkes_unpack, serialize_fit, spatial_mass, temporal_mass)

KM_PER_DEG = 111.32


def planar_distance_km(lon1, lat1, lon2, lat2):
    # independent of the package's metric helper on purpose
    mean_lat = math.radians(0.5 * (lat1 + lat2))
    dx = KM_PER_DEG * math.cos(mean_lat) * (lon2 - lon1)
    dy = KM_PER_DEG * (lat2 - lat1)
    return math.hypot(dx, dy)


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

    def test_fit_file_standard_error_comments(self, small_catalog):
        p = HawkesParams(mu=0.1, k=0.05, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5, m0=4.0)
        # covariance diag(1/4, 1/16, ...) but for a 0.5 correlation of ln k and ln d
        cov = np.diag(1.0 / np.array([4.0, 16.0, 9.0, 25.0, 1.0, 16.0, 4.0]))
        cov[1, 5] = cov[5, 1] = 0.5 * math.sqrt(cov[1, 1] * cov[5, 5])
        fit = intensity.FitResult(p, -12.5, 3, 1e-9, True, "hawkes", "",
                                  information=np.linalg.inv(cov))
        text = intensity.serialize_fit(fit)
        se_lines = [ln for ln in text.splitlines() if ln.startswith("# se")]
        assert se_lines[1] == "# se(ln k) = 0.25, strongest correlation +0.5000 with ln d"
        assert se_lines[3].startswith("# se(ln(p-1)) = 0.2, strongest correlation ")
        assert len(se_lines) == 7
        model = intensity.parse_model_params(text, small_catalog)
        assert model.params == p and intensity.parse_hawkes_params(text) == p
        # an information that is not positive definite gives one line
        text = intensity.serialize_fit(fit._replace(information=np.diag([1.0, -1.0, 1, 1, 1, 1, 1])))
        assert [ln for ln in text.splitlines() if ln.startswith("# se")] == [
            "# se = unavailable (observed information is not positive definite)"]
        assert intensity.parse_model_params(text, small_catalog).params == p
        homog = fit._replace(params=HomogeneousIntensity(2.5e-4), family="homogeneous",
                             information=np.array([[16.0]]))
        text = intensity.serialize_fit(homog)
        assert "# se(ln mu) = 0.25\n" in text
        assert intensity.parse_model_params(text, small_catalog).rate == 2.5e-4

    @pytest.mark.parametrize("text,message", [
        ("# family = homogeneous\n", "params: missing mu"),
        ("# family = homogeneous\nmu = x\n",
         "params: line 2: malformed value 'x'"),
        ("# family = sparkle\nmu = 1.0\n", "params: unknown family 'sparkle'"),
        ("# family = homogeneous\ngarbage\nfoo = 1\nmu = 1e-4\nmu = 2\nk = x\n",
         "params: line 2: expected 'name = value'"),
        ("# family = homogeneous\nmu = nan\n", "rate must be finite and non-negative"),
        ("# family = homogeneous\nmu = inf\n", "rate must be finite and non-negative"),
        ("mu = inf\nk = 0.05\nc = 0.01\np = 1.2\na = 1\nd = 1\nq = 1.5\nm0 = 4\n",
         "mu must be finite"),
        ("mu = 0.1\nk = nan\nc = 0.01\np = 1.2\na = 1\nd = 1\nq = 1.5\nm0 = 4\n",
         "k must be finite"),
        ("mu = 0.1\nk = 0.05\nc = 0.01\np = 1.2\na = 1\nd = 1\nq = 1.5\nm0 = -inf\n",
         "m0 must be finite"),
    ])
    def test_model_params_errors(self, small_catalog, text, message):
        with pytest.raises(ValueError) as err:
            intensity.parse_model_params(text, small_catalog)
        assert str(err.value) == message

    # each family's params lines; a case edits them, under a family comment
    # that is line 1 of the file
    FAMILIES = {
        "homogeneous": ["mu = 0.0001"],
        "hawkes": [f"{n} = {v!r}" for n, v in zip(
            "mu k c p a d q m0".split(), (0.1, 0.05, 0.01, 1.2, 1.0, 1.0, 1.5, 4.0))],
    }

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    @pytest.mark.parametrize("edit,message", [
        (lambda ls: ls + ["garbage"], "params: line {end}: expected 'name = value'"),
        (lambda ls: ls + ["foo = 1"], "params: unknown names foo"),
        (lambda ls: ["mu = x"] + ls[1:], "params: line 2: malformed value 'x'"),
        (lambda ls: ls + ["mu = 2"], "params: line {end}: mu given twice"),
        (lambda ls: ls[1:], "params: missing mu"),
    ], ids=["no-equals", "unknown-name", "malformed-value", "name-twice", "missing-name"])
    def test_one_reader_for_both_families(self, small_catalog, family, edit, message):
        lines = [f"# family = {family}"] + edit(self.FAMILIES[family])
        with pytest.raises(ValueError) as err:
            intensity.parse_model_params("\n".join(lines) + "\n", small_catalog)
        assert str(err.value) == message.format(end=len(lines))

    @settings(max_examples=60, deadline=None)
    @given(family=st.sampled_from(["homogeneous", "hawkes"]), with_se=st.booleans(),
           values=st.lists(st.floats(1e-300, 1e300), min_size=7, max_size=7),
           m0=st.floats(-1e300, 1e300))
    def test_fit_file_round_trip_of_any_values(self, family, with_se, values, m0):
        history = Catalog(np.array([0.5]), np.array([0.5]), np.array([0.5]),
                          np.array([4.5]), 1.0, 4.0)
        if family == "homogeneous":
            params, size = HomogeneousIntensity(values[0]), 1
        else:
            mu, k, c, p1, a, d, q1 = values
            # p and q above 1 by any positive amount that survives the sum
            params, size = HawkesParams(mu, k, c, 1.0 + max(p1, 1e-15), a, d,
                                        1.0 + max(q1, 1e-15), m0), 7
        info = np.diag(np.arange(1.0, size + 1)) if with_se else None
        fit = intensity.FitResult(params, -1.5, 2, 1e-9, True, family, "", information=info)
        text = intensity.serialize_fit(fit)
        assert ("# se(ln mu) = " in text) == with_se
        model = intensity.parse_model_params(text, history)
        if family == "homogeneous":
            assert type(model) is HomogeneousIntensity and model.rate == params.rate
        else:
            assert model.params == params and model.history is history


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

    def test_bounds_are_mu_and_the_peak_after_an_event(self, unit_region,
                                                       two_event_history):
        p, h = self.PARAMS, two_event_history
        kappa = p.k * np.exp(p.a * (h.mags - p.m0))
        # the temporal sum peaks just after the second event
        peak = max(kappa[0] * p.c ** -p.p,
                   kappa[0] * (2.0 + p.c) ** -p.p + kappa[1] * p.c ** -p.p)
        lo, hi = HawkesIntensity(p, h).bounds(unit_region, 10.0)
        assert lo == p.mu
        assert hi == pytest.approx(p.mu + p.d ** -p.q * peak, rel=1e-12)

    @pytest.mark.parametrize("t_max", [0.5, 1.0])
    def test_bounds_before_any_event_are_mu(self, unit_region, two_event_history, t_max):
        # the event at t = 1 is not strictly earlier than t_max = 1
        m = HawkesIntensity(self.PARAMS, two_event_history)
        assert m.bounds(unit_region, t_max) == (self.PARAMS.mu, self.PARAMS.mu)

    def test_bounds_of_an_empty_history_are_mu(self, unit_region):
        m = HawkesIntensity(self.PARAMS, Catalog(np.zeros(0), np.zeros(0), np.zeros(0),
                                                 np.zeros(0), 10.0, 4.0))
        assert m.bounds(unit_region, 10.0) == (self.PARAMS.mu, self.PARAMS.mu)

    def test_compensator_without_triggering_is_mu_area_t(self, unit_region,
                                                         two_event_history):
        p = HawkesParams(mu=0.1, k=0.0, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5,
                         m0=4.0)
        times = np.array([0.0, 0.5, 2.0, 10.0])
        got = HawkesIntensity(p, two_event_history).compensator(unit_region, times)
        np.testing.assert_array_equal(got, 0.1 * unit_region.area_km2 * times)


class TestStationaryModels:
    # unequal, positive cell rates on the 2 x 2 grid, 7.15 events in 5 days
    RATES = np.array([2.0, 0.2, 1.0, 0.1, 3.0, 0.3, 0.5, 0.05])

    def test_homogeneous_integral_and_compensator(self, unit_region):
        m = HomogeneousIntensity(2e-4)
        np.testing.assert_array_equal(m.integrate([0.2, 0.9], [0.1, 0.4], 3.0),
                                      np.full(2, 2e-4 * 3.0))
        np.testing.assert_array_equal(m.compensator(unit_region, [1.0, 4.0]),
                                      2e-4 * unit_region.area_km2 * np.array([1.0, 4.0]))

    def test_grid_bounds_are_the_cell_extremes(self, unit_region, two_by_two_grid):
        m = GridIntensity(GriddedForecast(two_by_two_grid, self.RATES, 5.0))
        centres = m.rate_at([0.25, 0.75, 0.25, 0.75], [0.25, 0.25, 0.75, 0.75])
        assert m.bounds(unit_region) == (centres.min(), centres.max())

    def test_grid_bounds_on_one_cell(self, two_by_two_grid):
        m = GridIntensity(GriddedForecast(two_by_two_grid, self.RATES, 5.0))
        south_west = Region.rectangle(0.05, 0.45, 0.05, 0.45)
        rate = m.rate_at(0.25, 0.25)[0]
        assert m.bounds(south_west) == (rate, rate)

    def test_grid_rate_outside_every_cell_is_zero(self, two_by_two_grid):
        m = GridIntensity(GriddedForecast(two_by_two_grid, self.RATES, 5.0))
        np.testing.assert_array_equal(m.rate_at([-0.1, 0.5, 1.2], [0.5, 1.3, -2.0]),
                                      np.zeros(3))

    def test_grid_compensator_totals_the_forecast(self, unit_region, two_by_two_grid):
        m = GridIntensity(GriddedForecast(two_by_two_grid, self.RATES, 5.0))
        assert m.compensator(unit_region, 5.0) == pytest.approx(self.RATES.sum(), rel=1e-4)

    def test_grid_scales_with_its_rates(self, unit_region, two_by_two_grid):
        one = GridIntensity(GriddedForecast(two_by_two_grid, self.RATES, 5.0))
        seven = GridIntensity(GriddedForecast(two_by_two_grid, 7.0 * self.RATES, 5.0))
        lons, lats = [0.1, 0.6, 0.3, 0.9], [0.2, 0.1, 0.8, 0.7]
        np.testing.assert_allclose(seven.rate_at(lons, lats), 7.0 * one.rate_at(lons, lats),
                                   rtol=1e-15)
        np.testing.assert_allclose(seven.bounds(unit_region),
                                   7.0 * np.array(one.bounds(unit_region)), rtol=1e-15)
        assert seven.compensator(unit_region, 1.0) == pytest.approx(
            7.0 * one.compensator(unit_region, 1.0), rel=1e-14)

class TestHawkesProtocol:
    def test_kernel_masses_against_quadrature(self):
        c, p, d, q = 0.03, 1.4, 0.7, 1.6
        for u in (0.0, 0.2, 7.0):
            want, _ = quad(lambda s: (s + c) ** -p, 0.0, u)
            assert temporal_mass(u, c, p) == pytest.approx(want, rel=1e-9, abs=1e-14)
        assert temporal_mass(math.inf, c, p) == c ** (1.0 - p) / (p - 1.0)
        want, _ = quad(lambda r: 2.0 * math.pi * r * (r * r + d) ** -q, 0.0, math.inf)
        assert spatial_mass(d, q) == pytest.approx(want, rel=1e-9)

    def test_integrate_matches_sliced_reference(self, aligned_history, sliced):
        params, history = aligned_history
        m = HawkesIntensity(params, history)
        # at the events (where the triggered part peaks) and between them
        lons = np.r_[history.lons, np.linspace(0.05, 0.95, 9)]
        lats = np.r_[history.lats, np.linspace(0.9, 0.1, 9)]
        exact = m.integrate(lons, lats, 5.0)
        np.testing.assert_allclose(exact, sliced(m).integrate(lons, lats, 5.0),
                                   rtol=1e-4)
        assert np.all(exact > params.mu * 5.0)

    def test_integrate_before_all_events_is_background(self):
        history = Catalog(np.array([2.0]), np.array([0.5]), np.array([0.5]),
                          np.array([4.5]), 10.0, 4.0)
        m = HawkesIntensity(TestHawkesIntensity.PARAMS, history)
        np.testing.assert_array_equal(m.integrate([0.5, 0.1], [0.5, 0.9], 2.0),
                                      np.full(2, 0.1 * 2.0))

    def test_stationary_protocol(self, unit_region, two_by_two_grid):
        # four unequal, positive cell rates, the largest in the north-west cell
        rates = np.array([2.0, 0.2, 1.0, 0.1, 3.0, 0.3, 0.5, 0.05])
        m = GridIntensity(GriddedForecast(two_by_two_grid, rates, 5.0))
        np.testing.assert_array_equal(m.integrate([0.2, 0.5], [0.3, 0.5], 4.0),
                                      m.rate_at([0.2, 0.5], [0.3, 0.5]) * 4.0)
        lo, hi = m.bounds(unit_region, 4.0)
        assert 0 < lo < hi == pytest.approx(m.rate_at(0.25, 0.75)[0], rel=0.01)

    def test_bounds_need_t_max(self, unit_region, aligned_history):
        with pytest.raises(ValueError, match="t_max"):
            HawkesIntensity(*aligned_history).bounds(unit_region)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 30),
           c=st.floats(1e-3, 1.0), p=st.floats(1.05, 3.0),
           d=st.floats(1e-3, 5.0), q=st.floats(1.05, 3.0))
    def test_certified_sup_covers_every_event(self, seed, n, c, p, d, q):
        region = Region.rectangle(0.0, 1.0, 0.0, 1.0)
        gen = np.random.default_rng(seed)
        history = Catalog(np.sort(gen.uniform(0.0, 10.0, n)),
                          gen.uniform(0.0, 1.0, n), gen.uniform(0.0, 1.0, n),
                          gen.uniform(4.0, 6.0, n), 10.0, 4.0)
        params = HawkesParams(mu=1e-3, k=0.01, c=c, p=p, a=1.2, d=d, q=q, m0=4.0)
        m = HawkesIntensity(params, history)
        lo, hi = m.bounds(region, 10.0)
        at = m.rate_at(history.lons, history.lats, history.times)
        after = m.rate_at(history.lons, history.lats,
                          np.nextafter(history.times, np.inf))
        assert lo == 1e-3
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

    # 4 * _ROW_ALIGN + 1 points leave one row past the last whole span; with
    # a long history, a lone row's sum differs from its sum inside a span
    @pytest.mark.parametrize("n_history, n_points",
                             [(None, 300), (694, 4 * intensity._ROW_ALIGN + 1)])
    def test_chunk_size_does_not_change_results(self, unit_region, aligned_history,
                                                monkeypatch, n_history, n_points):
        params, history = aligned_history
        gen = np.random.default_rng(4)
        if n_history is not None:
            history = Catalog(np.sort(gen.uniform(0.0, 5.0, n_history)),
                              gen.uniform(0.0, 1.0, n_history),
                              gen.uniform(0.0, 1.0, n_history),
                              gen.uniform(4.0, 6.0, n_history), 5.0, 4.0)
        lons, lats = gen.uniform(0.0, 1.0, n_points), gen.uniform(0.0, 1.0, n_points)
        times = gen.uniform(0.0, 5.0, n_points)

        def everything():
            m = HawkesIntensity(params, history)
            return [m.rate_at(lons, lats, times), m.integrate(lons, lats, 5.0),
                    np.array(m.bounds(unit_region, 5.0)),
                    m.compensator(unit_region, times)]

        monkeypatch.setattr(intensity, "_CHUNK_BYTES", 1 << 40)
        one = everything()
        # the fewest rows a span may take, and twice that
        for rows in (intensity._ROW_ALIGN, 2 * intensity._ROW_ALIGN):
            budget = 8 * rows * history.n
            monkeypatch.setattr(intensity, "_CHUNK_BYTES", budget)
            for a, b in zip(one, everything()):
                assert np.array_equal(a, b)


    # (c, p, d, q, box degrees, window days): small test values, and the
    # scale of the hawkes-eval workload, whose log-domain terms reach
    # exp(-44) with r up to 470 km and lags up to 840 days
    @pytest.mark.parametrize("c, p, d, q, box, window",
                             [(0.1, 1.5, 0.5, 1.8, 1.0, 5.0),
                              (math.exp(-1.0), 2.0, math.exp(-2.0 / 3.0), 2.5, 3.0, 700.0)])
    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_history=st.sampled_from([1, 2, 30, 150]),
           n_points=st.sampled_from([0, 1, 7, 64, 129, 257, 300]),
           span_rows=st.sampled_from([1, 2, None]), ties=st.booleans(),
           k_zero=st.booleans())
    def test_rate_and_integral_match_dense_sums(self, dense_hawkes, c, p, d, q, box,
                                                window, seed, n_history, n_points,
                                                span_rows, ties, k_zero):
        gen = np.random.default_rng(seed)
        times = np.sort(gen.uniform(0.0, window, n_history))
        if ties:
            step = window / 10.0
            times = np.floor(times / step) * step
        history = Catalog(times, gen.uniform(0.0, box, n_history),
                          gen.uniform(0.0, box, n_history),
                          gen.uniform(4.0, 6.0, n_history), window, 4.0)
        params = HawkesParams(mu=3e-4, k=0.0 if k_zero else 0.004, c=c, p=p,
                              a=1.0, d=d, q=q, m0=4.0)
        m = HawkesIntensity(params, history)
        lons, lats = gen.uniform(0.0, box, n_points), gen.uniform(0.0, box, n_points)
        # unsorted, some at history times (excluded: strictly earlier only),
        # some before the first event and after the last
        qt = gen.uniform(-0.2 * window, 1.2 * window, n_points)
        at_event = gen.random(n_points) < 0.3
        qt[at_event] = gen.choice(history.times, int(at_event.sum()))
        t_end = float(gen.choice([gen.uniform(-0.2 * window, 1.2 * window),
                                  gen.choice(history.times)]))
        with pytest.MonkeyPatch.context() as mp:
            if span_rows is not None:
                # spans of one or two _ROW_ALIGN rows: more than 3 blocks
                mp.setattr(intensity, "_CHUNK_BYTES",
                           8 * span_rows * intensity._ROW_ALIGN * history.n)
            dense = dense_hawkes(m)
            # a scalar t_end is folded into the weights; qt is per point
            for got, want in [(m.rate_at(lons, lats, qt), dense.rate_at(lons, lats, qt)),
                              (m.integrate(lons, lats, t_end),
                               dense.integrate(lons, lats, t_end)),
                              (m.integrate(lons, lats, qt), dense.integrate(lons, lats, qt))]:
                np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    def test_rate_at_own_events_builds_only_the_causal_staircase(self, monkeypatch):
        gen = np.random.default_rng(8)
        n = 700
        history = Catalog(np.sort(gen.uniform(0.0, 5.0, n)), gen.uniform(0.0, 1.0, n),
                          gen.uniform(0.0, 1.0, n), gen.uniform(4.0, 6.0, n), 5.0, 4.0)
        params = HawkesParams(mu=3e-4, k=0.004, c=0.1, p=1.5, a=1.0, d=0.5, q=1.8,
                              m0=4.0)
        built = []
        grid = intensity.km_grid2

        def counting(*args, **kwargs):
            r2 = grid(*args, **kwargs)
            built.append(r2.size)
            return r2

        monkeypatch.setattr(intensity, "km_grid2", counting)
        HawkesIntensity(params, history).rate_at(history.lons, history.lats,
                                                 history.times)
        # the strictly-earlier pairs, plus each block's triangle over the
        # diagonal, under _ROW_ALIGN / 2 entries a row on average with the
        # blocks of _ROW_ALIGN rows taken here; the dense rectangle would
        # build n * n
        assert 0 < sum(built) <= n * (n - 1) // 2 + n * intensity._ROW_ALIGN // 2


class TestLagGrid:
    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 2, 64, 65]), n=st.integers(1, 450),
           seed=st.integers(0, 2 ** 32 - 1), scale=st.sampled_from([1e-3, 5.0, 3650.0]))
    def test_matches_subtract_bit_for_bit(self, m, n, seed, scale):
        gen = np.random.default_rng(seed)
        history = np.sort(gen.uniform(0.0, scale, n))
        # before, between and after the history, and at its times
        times = gen.uniform(-0.2 * scale, 1.2 * scale, m)
        times[::3] = gen.choice(history, times[::3].size)
        rows, cols = intensity._lag_factors(times, history)
        assert np.array_equal(rows @ cols, np.subtract.outer(times, history))
        # the blocks' slices, written into a given buffer
        out = np.full((m, n - n // 2), np.nan)
        np.matmul(rows, cols[:, n // 2:], out=out)
        assert np.array_equal(out, np.subtract.outer(times, history[n // 2:]))


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

    @pytest.mark.parametrize("mode", ["approx", "quadrature"])
    def test_integral_comes_from_the_history(self, unit_region, mode):
        # the history holds an M6 before the 12 scored events; its
        # triggering belongs to the rate and so to the integral too
        gen = np.random.default_rng(8)
        cat = Catalog(np.sort(gen.uniform(1.0, 10.0, 12)), gen.uniform(0.1, 0.9, 12),
                      gen.uniform(0.1, 0.9, 12), gen.uniform(4.0, 5.0, 12), 10.0, 4.0)
        history = Catalog(np.r_[0.5, cat.times], np.r_[0.5, cat.lons],
                          np.r_[0.5, cat.lats], np.r_[6.0, cat.mags], 10.0, 4.0)
        p = HawkesParams(mu=1e-4, k=0.005, c=0.05, p=1.5, a=0.8, d=0.5, q=1.8, m0=4.0)
        m = HawkesIntensity(p, history)
        want = np.sum(np.log(m.rate_at(cat.lons, cat.lats, cat.times))) \
            - m.compensator(unit_region, 10.0, mode=mode)
        assert log_likelihood(m, cat, unit_region, mode) == pytest.approx(want, rel=1e-12)


class TestClippedMass:
    """_ClippedMass against the per-event, per-angle sorted crossings it
    replaced (clipped_mass_oracle), which holds for events inside the
    region, with chunks of 7 events so that chunk edges are crossed."""

    L_SHAPE = Region([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])

    @pytest.mark.parametrize("region", [Region.rectangle(0.0, 1.0, 0.0, 1.0),
                                        Region.rectangle(10.0, 11.0, 40.0, 41.0)])
    def test_rectangle_masses_equal_sorted_rays(self, clipped_mass_oracle, monkeypatch,
                                                region):
        # each ray leaves a rectangle once, so the sums run in the same order
        monkeypatch.setattr(intensity, "_CHUNK_ELEMENTS", 7 * 720 * 4)
        c = simulate_homogeneous(2e-3, region, 10.0, RngStream(3), mag=4.0)
        clipped = intensity._ClippedMass(c, region)
        for d, q in [(100.0, 1.5), (2.0, 1.7)]:
            assert np.array_equal(clipped.mass_terms(d, q)[0], clipped_mass_oracle(c, region, d, q))

    def test_l_shape_masses_match_sorted_rays(self, clipped_mass_oracle, monkeypatch):
        monkeypatch.setattr(intensity, "_CHUNK_ELEMENTS", 7 * 720 * 6)
        c = simulate_homogeneous(5e-4, self.L_SHAPE, 10.0, RngStream(3), mag=4.0)
        assert c.n > 100
        clipped = intensity._ClippedMass(c, self.L_SHAPE)
        for d, q in [(100.0, 1.5), (2.0, 1.7)]:
            np.testing.assert_allclose(clipped.mass_terms(d, q)[0],
                                       clipped_mass_oracle(c, self.L_SHAPE, d, q),
                                       rtol=1e-14, atol=0.0)

    def test_event_outside_the_region_matches_a_lattice(self, unit_region):
        # its rays enter the box before they leave it: the mass is positive
        c = Catalog(np.array([1.0]), np.array([1.2]), np.array([0.5]), np.array([4.0]),
                    window_days=2.0, m0=4.0)
        mass = intensity._ClippedMass(c, unit_region).mass_terms(100.0, 1.5)[0, 0]
        lat = region_lattice(unit_region, 1000)
        x, y = unit_region.to_km(lat.lons[lat.inside], lat.lats[lat.inside])
        ex, ey = unit_region.to_km(c.lons, c.lats)
        lattice = np.sum(((x - ex) ** 2 + (y - ey) ** 2 + 100.0) ** -1.5
                         * lat.cell_km2[lat.inside])
        assert mass == pytest.approx(lattice, rel=2e-5)


class TestCompensator:
    @pytest.fixture
    def models(self, small_catalog, two_by_two_grid):
        params = HawkesParams(mu=1e-4, k=0.01, c=0.01, p=1.3, a=1.0, d=1.0, q=1.5, m0=4.0)
        rates = np.array([2.0, 0.2, 1.0, 0.1, 3.0, 0.3, 0.5, 0.05])
        # two of the four cells empty
        sparse = np.array([2.0, 0.2, 0.0, 0.0, 3.0, 0.3, 0.0, 0.0])
        quiet = HawkesParams(mu=1e-4, k=0.0, c=0.01, p=1.3, a=1.0, d=1.0, q=1.5, m0=4.0)
        return {"homogeneous": HomogeneousIntensity(2e-4),
                "grid": GridIntensity(GriddedForecast(two_by_two_grid, rates, 5.0)),
                "sparse grid": GridIntensity(GriddedForecast(two_by_two_grid, sparse, 5.0)),
                "hawkes": HawkesIntensity(params, small_catalog),
                "hawkes without triggering": HawkesIntensity(quiet, small_catalog)}

    @pytest.mark.parametrize("times", [2.5, [0.0, 1.0, 5.0], [[0.5, 1.5], [2.0, 4.0]]])
    def test_shape_of_times(self, unit_region, models, times):
        for m in models.values():
            assert np.shape(m.compensator(unit_region, times)) == np.shape(times)

    @pytest.mark.parametrize("name", ["grid", "sparse grid"])
    def test_exact_cell_area_sum(self, unit_region, models, integral_oracles, name):
        # every cell lies in the region: each density times the cell's exact
        # area, KM_PER_DEG^2 d(lon) (180 / pi) d(sin lat)
        m = models[name]
        b = m.grid.boxes
        areas = KM_PER_DEG ** 2 * (b[:, 1] - b[:, 0]) * np.degrees(
            np.sin(np.radians(b[:, 3])) - np.sin(np.radians(b[:, 2])))
        per_day = float(m.density @ areas)
        np.testing.assert_allclose(m.compensator(unit_region, [1.0, 0.5, 3.0]),
                                   [per_day, 0.5 * per_day, 3.0 * per_day], rtol=1e-13)
        # the 2000 x 2000 midpoint lattice has its edges on the cells' and
        # errs only by the midpoint rule in cos(latitude), at most h^2 / 24
        # relative for lattice rows h radians high
        lattice = integral_oracles.spatial_quadrature_rate(m, unit_region, n_grid=2000)
        assert lattice == pytest.approx(per_day, rel=math.radians(1.0 / 2000) ** 2 / 24 + 1e-13)

    def test_thin_cell_grid(self, unit_region):
        # a middle cell 0.004 degrees wide, between two 200 x 200 lattice
        # columns' midpoints
        boxes = np.array([[0.0, 0.003, 0.0, 1.0, 4.0, 5.0], [0.003, 0.007, 0.0, 1.0, 4.0, 5.0],
                          [0.007, 1.0, 0.0, 1.0, 4.0, 5.0]])
        m = GridIntensity(GriddedForecast(BinGrid(boxes), np.array([1.0, 40.0, 50.0]), 1.0))
        assert m.density[1] == pytest.approx(0.80699, rel=1e-5)
        assert m.bounds(unit_region) == (m.density[2], m.density[1])
        # the densities hold cell_area_km2's cos(mean latitude) areas, the
        # compensator exact ones: they differ by 1.3e-5 on a 1-degree row
        assert m.compensator(unit_region, 1.0) == pytest.approx(91.0, rel=2e-5)

    @pytest.mark.parametrize("mode", ["approx", "quadrature"])
    @pytest.mark.parametrize("name", ["hawkes", "hawkes without triggering"])
    def test_hawkes_window_integral(self, unit_region, small_catalog, models,
                                    integral_oracles, mode, name):
        m = models[name]
        want = integral_oracles.hawkes_integral(m.params, small_catalog, unit_region, mode)
        got = m.compensator(unit_region, small_catalog.window_days, mode=mode)
        assert got == pytest.approx(want, rel=1e-12)

    def test_unknown_mode(self, unit_region, models):
        with pytest.raises(ValueError, match="unknown integral mode"):
            models["hawkes"].compensator(unit_region, 1.0, mode="exact")


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

    @pytest.mark.parametrize("family", ["homogeneous", "hawkes"])
    def test_default_start_is_the_catalog_mean_rate(self, unit_region, small_catalog, family):
        c = small_catalog
        at = unit_region.area_km2 * max(c.window_days, 1e-12)
        start = (max(c.n, 1) / at if family == "homogeneous" else
                 HawkesParams(mu=0.5 * max(c.n, 1) / at, k=0.05, c=0.01, p=1.3, a=1.0,
                              d=1.0, q=1.5, m0=c.m0))
        got, want = (fit_mle(family, c, unit_region, init, max_iter=30)
                     for init in (None, start))
        assert serialize_fit(got) == serialize_fit(want)
        assert np.array_equal(got.information, want.information)

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
        calls, infinite = [], []

        def counting(*args, **kwargs):
            score = make(*args, **kwargs)

            def counted(theta):
                value, grad, hess = score(theta)
                calls.append(theta)
                if value == math.inf:
                    infinite.append(theta)
                return value, grad, hess

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
        # the likelihood has no interior maximum: it keeps rising as k and a
        # grow together and p falls to 1. The capped steps walk out to where
        # the objective overflows, and the line search stops once a decrease
        # is below the objective's resolution: 275 evaluations, where
        # uncapped steps halved down to a no-move step took 631 and scipy's
        # BFGS 154
        assert fit.message.startswith("step underflow")
        assert len(calls) <= 350

    def test_score_of_unpackable_parameters_is_infinite(self, unit_region,
                                                        small_catalog):
        score = hawkes_score(small_catalog, unit_region, 4.0)
        for theta in (np.full(7, 800.0), np.r_[-800.0, np.zeros(6)]):
            value, grad, hess = score(theta)
            assert value == math.inf and np.all(np.isnan(grad)) and np.all(np.isnan(hess))

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
        value, grad, _ = hawkes_score(cat, region, 4.0, mode)(theta)
        model = HawkesIntensity(hawkes_unpack(theta, 4.0), cat)
        assert value == pytest.approx(-log_likelihood(model, cat, region, mode=mode),
                                      rel=1e-12)
        oracle = central_gradient(hawkes_objective(cat, region, 4.0, mode), theta)
        scale = np.maximum(np.abs(grad), 1e-6 * np.max(np.abs(grad)))
        assert np.max(np.abs(grad - oracle) / scale) < 1e-4

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([0, 1, 2, 7, 40, 129, 182]),
           ties=st.booleans(), mode=st.sampled_from(["approx", "quadrature"]),
           spread=st.sampled_from([0.3, 3.0]))
    def test_score_matches_the_allocating_oracle(self, score_oracle, seed, n, ties, mode,
                                                 spread):
        # the blocks sum in another order than the oracle's whole-catalog
        # sums, so finite scores agree to rounding, and non-finite ones exactly
        region = Region.rectangle(0.0, 1.0, 0.0, 1.0)
        gen = np.random.default_rng(seed)
        times = gen.uniform(0.0, 10.0, n)
        if ties:
            times = np.floor(times)
        cat = Catalog(times, gen.uniform(0.0, 1.0, n), gen.uniform(0.0, 1.0, n),
                      gen.uniform(4.0, 6.0, n), 10.0, 4.0)
        base = hawkes_pack(HawkesParams(mu=1e-4, k=0.004, c=0.04, p=1.4, a=0.9,
                                        d=0.6, q=1.7, m0=4.0))
        score, oracle = hawkes_score(cat, region, 4.0, mode), score_oracle(cat, region, 4.0, mode)
        # several evaluations of one closure, some of them non-finite
        for _ in range(4):
            theta = base + gen.normal(0.0, spread, size=7)
            try:
                want_value, want_grad = oracle(theta)
            except OverflowError:
                # a Python float power overflowed; the closure scores inf
                want_value, want_grad = math.inf, np.full(7, np.nan)
            value, grad, _ = score(theta)
            if not math.isfinite(want_value):
                assert value == want_value
                assert np.array_equal(grad, want_grad, equal_nan=True)
                continue
            assert value == pytest.approx(want_value, rel=1e-13, abs=0.0)
            assert np.max(np.abs(grad - want_grad)) <= 1e-13 * np.max(np.abs(want_grad))

    @pytest.mark.parametrize("mode", ["approx", "quadrature"])
    def test_hessian_overflow_keeps_the_value_and_gradient(self, score_oracle, mode):
        # a draw of test_score_matches_the_allocating_oracle (seed 65204, n
        # 129, spread 3), at its third evaluation: p = 112.26 and c =
        # 0.001869, where c^(-p-1) overflows a float power in the Hessian alone
        region = Region.rectangle(0.0, 1.0, 0.0, 1.0)
        gen = np.random.default_rng(65204)
        times = gen.uniform(0.0, 10.0, 129)
        cat = Catalog(times, gen.uniform(0.0, 1.0, 129), gen.uniform(0.0, 1.0, 129),
                      gen.uniform(4.0, 6.0, 129), 10.0, 4.0)
        base = hawkes_pack(HawkesParams(mu=1e-4, k=0.004, c=0.04, p=1.4, a=0.9,
                                        d=0.6, q=1.7, m0=4.0))
        theta = [base + gen.normal(0.0, 3.0, size=7) for _ in range(3)][-1]
        score = hawkes_score(cat, region, 4.0, mode)
        value, grad, hess = score(theta)
        want_value, want_grad = score_oracle(cat, region, 4.0, mode)(theta)
        assert math.isfinite(want_value)
        assert value == pytest.approx(want_value, rel=1e-13, abs=0.0)
        assert np.max(np.abs(grad - want_grad)) <= 1e-13 * np.max(np.abs(want_grad))
        assert not np.isfinite(hess).all()
        # a start there is still rejected, as a non-finite score
        start = intensity.minimize(score, theta, 1e-6, 5)
        assert start.fun == math.inf and start.nit == 0

    @pytest.mark.parametrize("mode", ["approx", "quadrature"])
    @pytest.mark.parametrize("pairs", [1, 7, 64])
    def test_score_does_not_depend_on_the_block_size(self, monkeypatch, mode, pairs):
        # blocks of 1, 7 and 64 pairs, against the default: later-event
        # groups larger than a block stay whole
        region = Region.rectangle(0.0, 1.0, 0.0, 1.0)
        gen = np.random.default_rng(pairs)
        catalogs = [Catalog(np.sort(gen.uniform(0.0, 10.0, n)), gen.uniform(0.0, 1.0, n),
                            gen.uniform(0.0, 1.0, n), gen.uniform(4.0, 6.0, n), 10.0, 4.0)
                    for n in (0, 1, 2, 40)]
        # every event at one time, so no pairs at all, and a few tied times
        catalogs.append(Catalog(np.full(5, 3.0), gen.uniform(0.0, 1.0, 5),
                                gen.uniform(0.0, 1.0, 5), gen.uniform(4.0, 6.0, 5), 10.0, 4.0))
        catalogs.append(Catalog(np.floor(np.sort(gen.uniform(0.0, 10.0, 30))),
                                gen.uniform(0.0, 1.0, 30), gen.uniform(0.0, 1.0, 30),
                                gen.uniform(4.0, 6.0, 30), 10.0, 4.0))
        theta = hawkes_pack(HawkesParams(mu=1e-4, k=0.004, c=0.04, p=1.4, a=0.9,
                                         d=0.6, q=1.7, m0=4.0))
        for cat in catalogs:
            want = hawkes_score(cat, region, 4.0, mode)(theta)
            with monkeypatch.context() as mp:
                mp.setattr(intensity, "_GRAM_PAIRS", pairs)
                got = hawkes_score(cat, region, 4.0, mode)(theta)
            assert got[0] == pytest.approx(want[0], rel=1e-13, abs=0.0)
            for g, w in zip(got[1:], want[1:]):
                assert np.max(np.abs(g - w)) <= 1e-13 * np.max(np.abs(w))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 60),
           lat=st.sampled_from([0.0, -30.0, 35.0]), copies=st.integers(0, 5))
    def test_score_pairs_have_the_bits_of_km_distance2(self, earlier_pairs, seed, n, lat,
                                                       copies):
        gen = np.random.default_rng(seed)
        lons = gen.uniform(-2.0, 2.0, n)
        lats = lat + gen.uniform(-2.0, 2.0, n)
        # some events on another's epicentre
        if n:
            at = gen.integers(0, n, copies)
            lons[gen.integers(0, n, copies)] = lons[at]
            lats[gen.integers(0, n, copies)] = lats[at]
        times = np.sort(np.round(gen.uniform(0.0, 10.0, n), 1))
        cat = Catalog(times, lons, lats, gen.uniform(4.0, 6.0, n), 10.0, 4.0)
        dmag = cat.mags - 4.0
        _, dt, r2, earlier_dmag = intensity._pair_blocks(cat, dmag)
        i, j = earlier_pairs(cat.times)
        lons, lats, times = cat.lons, cat.lats, cat.times
        assert np.array_equal(r2, km_distance2(lons[i], lats[i], lons[j], lats[j]))
        assert np.array_equal(dt, times[j] - times[i])
        assert np.array_equal(earlier_dmag, dmag[i])

    def test_score_is_inf_where_a_float_power_overflows(self, small_catalog, unit_region):
        # c = 0.01 and p = 201 give c ** (1 - p) = 1e400 in temporal_mass
        theta = np.array([-5.0, -3.0, math.log(0.01), math.log(200.0), 0.0, 0.0, 0.0])
        value, grad, hess = hawkes_score(small_catalog, unit_region, 4.0)(theta)
        assert value == math.inf
        assert np.isnan(grad).all() and np.isnan(hess).all()

    def test_pack_unpack_round_trip(self):
        p = HawkesParams(mu=0.1, k=0.05, c=0.01, p=1.2, a=1.0, d=1.0, q=1.5,
                         m0=4.0)
        back = hawkes_unpack(hawkes_pack(p), 4.0)
        assert back.mu == pytest.approx(p.mu, rel=1e-14)
        assert back.p == pytest.approx(p.p, rel=1e-14)
        assert back.q == pytest.approx(p.q, rel=1e-14)


def _central_hessian(score, theta):
    """Central differences of the analytic gradient, column by column."""
    cols = []
    for i in range(theta.size):
        h = 1e-5 * max(1.0, abs(theta[i]))
        step = np.zeros_like(theta)
        step[i] = h
        cols.append((score(theta + step)[1] - score(theta - step)[1]) / (2.0 * h))
    return np.array(cols).T


def _first_events(cat, n):
    """The first n events of a catalog, the window closing midway to the next."""
    return Catalog(cat.times[:n], cat.lons[:n], cat.lats[:n], cat.mags[:n],
                   0.5 * (cat.times[n - 1] + cat.times[n]), cat.m0)


class TestNewtonFit:
    """The damped Newton fit on the exact Hessian: the Hessian against
    central differences, and the fit against the BFGS fit it replaced."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([0, 1, 2, 7, 25, 129, 182]),
           ties=st.booleans(), mode=st.sampled_from(["approx", "quadrature"]))
    def test_hessian_matches_central_differences(self, seed, n, ties, mode):
        region = Region.rectangle(0.0, 1.0, 0.0, 1.0)
        gen = np.random.default_rng(seed)
        times = gen.uniform(0.0, 10.0, n)
        if ties:
            times = np.floor(times)
        cat = Catalog(times, gen.uniform(0.0, 1.0, n), gen.uniform(0.0, 1.0, n),
                      gen.uniform(4.0, 6.0, n), 10.0, 4.0)
        theta = hawkes_pack(HawkesParams(mu=1e-4, k=0.004, c=0.04, p=1.4, a=0.9,
                                         d=0.6, q=1.7, m0=4.0)) \
            + gen.normal(0.0, 0.3, size=7)
        score = hawkes_score(cat, region, 4.0, mode)
        hess = score(theta)[2]
        assert np.array_equal(hess, hess.T)
        oracle = _central_hessian(score, theta)
        scale = np.maximum(np.abs(hess), 1e-5 * np.max(np.abs(hess)))
        assert np.max(np.abs(hess - oracle) / scale) < 1e-4

    def test_homogeneous_hessian_is_the_expected_count(self, unit_region, small_catalog):
        score = intensity._homog_score(small_catalog, unit_region)
        theta = np.array([math.log(3e-4)])
        value, grad, hess = score(theta)
        assert hess[0, 0] == pytest.approx(_central_hessian(score, theta)[0, 0], rel=1e-8)
        fit = fit_mle("homogeneous", small_catalog, unit_region, init=1e-5)
        # at the optimum mu * area * T equals the count
        assert fit.information[0, 0] == pytest.approx(small_catalog.n, rel=1e-9)

    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    def test_fit_at_least_bfgs_on_round_trip_catalogs(self, bfgs_fit, seed):
        from test_acceptance import _roundtrip_truth

        truth, region, t_max = _roundtrip_truth()
        cat = simulate_hawkes(truth, region, t_max, RngStream(seed), gr_b=1.0, mag_span=4.0)
        init = HawkesParams(mu=0.5 * cat.n / (region.area_km2 * t_max), k=truth.k * 1.7,
                            c=truth.c * 0.6, p=truth.p + 0.2, a=max(0.5, truth.a - 0.4),
                            d=truth.d * 1.8, q=truth.q - 0.3, m0=truth.m0)
        fit = fit_mle("hawkes", cat, region, init)
        assert fit.converged and fit.message == "gradient max-norm below gtol"
        assert fit.log_lik >= bfgs_fit(cat, region, init)[0] - 1e-9
        # the observed information is the score's Hessian at the fit
        hess = hawkes_score(cat, region, truth.m0)(hawkes_pack(fit.params))[2]
        np.testing.assert_allclose(fit.information, hess, rtol=1e-9, atol=1e-9 * np.abs(hess).max())

    def test_capped_fit_at_least_capped_bfgs(self, bfgs_fit):
        # the benchmark's fit: 450 events of the round-trip model, two
        # restarts, six iterations each
        from test_acceptance import _roundtrip_truth

        truth, region, _ = _roundtrip_truth()
        cat = _first_events(simulate_hawkes(truth, region, 700.0, RngStream(1003),
                                            gr_b=1.0, mag_span=4.0), 450)
        fit = fit_mle("hawkes", cat, region, truth, restarts=2, max_iter=6, rng=RngStream(7))
        want, _ = bfgs_fit(cat, region, truth, max_iter=6, restarts=2, rng=RngStream(7))
        assert fit.iterations <= 6
        assert fit.log_lik >= want - 1e-9

    def test_score_memory_in_pair_sized_arrays(self, earlier_pairs):
        """A score keeps three pair-sized arrays (dt, r^2 and the earlier
        event's dmag), building it peaks at no more than eight, and an
        evaluation adds no more than one block's workspace, whatever the
        number of pairs."""
        import tracemalloc

        from test_acceptance import _roundtrip_truth

        truth, region, _ = _roundtrip_truth()
        cat = simulate_hawkes(truth, region, 700.0, RngStream(1000), gr_b=1.0, mag_span=4.0)
        array = 8 * earlier_pairs(cat.times)[0].size
        assert array > 1_000_000
        # the eleven rows of a block's workspace
        block = 8 * 11 * intensity._GRAM_PAIRS
        tracemalloc.start()
        try:
            score = hawkes_score(cat, region, truth.m0)
            built, build_peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            assert math.isfinite(score(hawkes_pack(truth))[0])
            evaluated_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert build_peak <= 8 * array
        assert built <= 4 * array
        assert evaluated_peak - built <= block


class TestMinimize:
    @staticmethod
    def convex(x):
        # sum exp(x) - 2x, least at x = ln 2
        return float(np.sum(np.exp(x) - 2.0 * x)), np.exp(x) - 2.0, np.diag(np.exp(x))

    def test_converges_on_a_convex_function(self):
        res = intensity.minimize(self.convex, np.full(3, 3.0), 1e-10, 50)
        assert res.message == "gradient max-norm below gtol"
        np.testing.assert_allclose(res.x, math.log(2.0), rtol=1e-12)
        assert res.fun == self.convex(res.x)[0]

    def test_scores_every_point_once(self):
        seen = []

        def score(x):
            seen.append(tuple(x))
            return self.convex(x)

        res = intensity.minimize(score, np.array([4.0, -3.0]), 1e-10, 50)
        assert len(seen) == len(set(seen)) and res.nit < len(seen)

    def test_stops_at_the_iteration_limit(self):
        res = intensity.minimize(self.convex, np.full(2, 3.0), 1e-10, 1)
        assert (res.nit, res.message) == (1, "iteration limit reached")

    def test_steps_downhill_where_the_hessian_is_indefinite(self):
        # x^4/4 - x^2/2 has negative curvature at 0.1 and its minima at +-1
        def score(x):
            return float(x[0] ** 4 / 4 - x[0] ** 2 / 2), x ** 3 - x, np.array([[3 * x[0] ** 2 - 1]])

        res = intensity.minimize(score, np.array([0.1]), 1e-10, 50)
        assert res.message == "gradient max-norm below gtol"
        assert abs(res.x[0]) == pytest.approx(1.0, rel=1e-9)

    def test_rejects_non_finite_trials(self):
        # the objective is infinite beyond 1, where the full Newton step from
        # 0.9 toward the least point 10 lands
        def score(x):
            if x[0] > 1.0:
                return math.inf, np.full(1, np.nan), np.full((1, 1), np.nan)
            return float((x[0] - 10.0) ** 2), 2.0 * (x - 10.0), np.array([[2.0]])

        res = intensity.minimize(score, np.array([0.9]), 1e-10, 50)
        assert 0.9 < res.x[0] <= 1.0 and math.isfinite(res.fun)

    def test_reports_a_step_that_cannot_decrease(self):
        # a gradient of the wrong sign: no fraction of the step decreases
        def score(x):
            return float(x[0] ** 2), -2.0 * x, np.array([[2.0]])

        res = intensity.minimize(score, np.array([1.0]), 1e-10, 50)
        assert res.message.startswith("step underflow") and res.x[0] == 1.0

    def test_reports_a_non_finite_start(self):
        res = intensity.minimize(lambda x: (math.inf, np.full(1, np.nan), np.full((1, 1), np.nan)),
                                 np.zeros(1), 1e-6, 10)
        assert (res.nit, res.message) == (0, "the objective is not finite at the start")
