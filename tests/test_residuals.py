import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import cKDTree

from eqassess import (BinGrid, Catalog, GriddedForecast, GridIntensity,
                      HomogeneousIntensity, Region,
                      RngStream, bin_counts, cell_residuals_to_csv,
                      cell_residuals_to_geojson, deviance_residuals,
                      homogeneity_test, joint_log_likelihood,
                      pixel_residuals, rescale_times,
                      simulate_homogeneous, super_thin, superpose_residuals,
                      thin_residuals, voronoi_residuals,
                      voronoi_tessellation)
from eqassess import catalog, residuals
from eqassess.catalog import _stack_rings


@pytest.fixture
def single_band_grid():
    return BinGrid.regular(np.array([0.0, 0.5, 1.0]), np.array([0.0, 0.5, 1.0]),
                           np.array([4.0, 6.0]))


def peaked_grid_model(grid):
    """Unequal, positive cell rates on a 2 x 2 grid, 80 events a day in
    all, 72 of them in the north-east cell."""
    return GridIntensity(GriddedForecast(grid, np.array([2.0, 2.0, 4.0, 72.0]), 1.0))


class TestLatticeExtrema:
    def test_constant_model(self, unit_region):
        lo, hi = HomogeneousIntensity(3.5).bounds(unit_region)
        assert lo == 3.5 and hi == 3.5

    def test_peaked_model(self, unit_region, single_band_grid):
        m = peaked_grid_model(single_band_grid)
        lo, hi = m.bounds(unit_region)
        assert 0 < lo < hi
        # the lattice supremum is the north-east cell's rate
        assert hi == pytest.approx(m.rate_at(0.75, 0.75)[0], rel=0.01)

    def test_time_dependent_needs_t_max(self, unit_region, small_catalog):
        from eqassess import HawkesIntensity, HawkesParams
        p = HawkesParams(mu=1e-4, k=0.001, c=0.05, p=1.5, a=1.0, d=0.5,
                         q=1.8, m0=4.0)
        m = HawkesIntensity(p, small_catalog)
        with pytest.raises(ValueError, match="t_max"):
            m.bounds(unit_region)
        lo, hi = m.bounds(unit_region, t_max=5.0)
        assert hi > lo >= 1e-4


class TestThinning:
    def test_homogeneous_keeps_everything(self, unit_region):
        c = simulate_homogeneous(3e-4, unit_region, 10.0, RngStream(1), mag=4.0)
        r = thin_residuals(c, HomogeneousIntensity(3e-4), unit_region,
                           RngStream(2))
        assert r.n == c.n
        assert r.retained_mask().all()
        assert r.nominal_rate == pytest.approx(3e-4)

    def test_zero_infimum_degenerates(self, unit_region, two_by_two_grid):
        rates = np.array([4.0, 0.4, 0.0, 0.0, 2.0, 0.2, 1.0, 0.1])
        model = GridIntensity(GriddedForecast(two_by_two_grid, rates, 10.0))
        c = simulate_homogeneous(2e-4, unit_region, 10.0, RngStream(3), mag=4.5)
        r = thin_residuals(c, model, unit_region, RngStream(4))
        assert r.n == 0
        assert "degenerate" in r.note

    def test_retained_count_mean(self, unit_region, single_band_grid):
        # thinning an inhomogeneous field: mean retained = b * A * T
        model = peaked_grid_model(single_band_grid)
        b, _ = model.bounds(unit_region)
        sup = model.rate_at(0.75, 0.75)[0]
        kept = []
        for i in range(60):
            c = simulate_homogeneous(0.0, unit_region, 1.0, RngStream(5))
            from eqassess import simulate_inhomogeneous
            c = simulate_inhomogeneous(model, sup * 1.0001, unit_region, 1.0,
                                       RngStream(100).substream(i), mag=4.0)
            r = thin_residuals(c, model, unit_region,
                               RngStream(200).substream(i))
            kept.append(r.n)
        expect = b * unit_region.area_km2 * 1.0
        sd = math.sqrt(expect / 60)
        assert np.mean(kept) == pytest.approx(expect, abs=4 * sd)

    def test_deterministic(self, unit_region, single_band_grid):
        c = simulate_homogeneous(3e-4, unit_region, 10.0, RngStream(6), mag=4.0)
        model = peaked_grid_model(single_band_grid)
        a = thin_residuals(c, model, unit_region, RngStream(7))
        b = thin_residuals(c, model, unit_region, RngStream(7))
        np.testing.assert_array_equal(a.times, b.times)
        np.testing.assert_array_equal(a.lons, b.lons)


class TestSuperposition:
    def test_homogeneous_adds_nothing(self, unit_region):
        c = simulate_homogeneous(3e-4, unit_region, 10.0, RngStream(8), mag=4.0)
        r = superpose_residuals(c, HomogeneousIntensity(3e-4), unit_region,
                                RngStream(9))
        assert r.n == c.n
        assert r.retained_mask().all()

    def test_total_count_mean(self, unit_region, single_band_grid):
        # superposing on an inhomogeneous field: mean total = sup * A * T
        model = peaked_grid_model(single_band_grid)
        _, sup = model.bounds(unit_region)
        from eqassess import simulate_inhomogeneous
        totals = []
        for i in range(60):
            c = simulate_inhomogeneous(model, sup * 1.0001, unit_region, 1.0,
                                       RngStream(300).substream(i), mag=4.0)
            r = superpose_residuals(c, model, unit_region,
                                    RngStream(400).substream(i))
            totals.append(r.n)
        expect = sup * unit_region.area_km2 * 1.0
        sd = math.sqrt(expect / 60)
        assert np.mean(totals) == pytest.approx(expect, abs=4 * sd)

    def test_tags_present(self, unit_region, single_band_grid):
        model = peaked_grid_model(single_band_grid)
        from eqassess import simulate_inhomogeneous
        _, sup = model.bounds(unit_region)
        c = simulate_inhomogeneous(model, sup * 1.0001, unit_region, 1.0,
                                   RngStream(10), mag=4.0)
        r = superpose_residuals(c, model, unit_region, RngStream(11))
        assert set(np.unique(r.tags)) == {"retained", "superposed"}
        assert r.retained_mask().sum() == c.n


class TestHawkesBounds:
    def test_thinning_keeps_at_the_background_rate(self, unit_region,
                                                   aligned_history):
        from eqassess import HawkesIntensity
        params, history = aligned_history
        r = thin_residuals(history, HawkesIntensity(params, history),
                           unit_region, RngStream(30))
        assert r.nominal_rate == params.mu
        assert 0 < r.n < history.n

    def test_superposition_refuses_an_exploding_bound(self, unit_region,
                                                      aligned_history):
        from eqassess import HawkesIntensity, HawkesParams
        # d = 0.01 km^2 and c = 0.001 day put the certified sup near 2e6
        params = HawkesParams(mu=3e-4, k=0.004, c=0.001, p=1.5, a=1.0,
                              d=0.01, q=1.8, m0=4.0)
        _, history = aligned_history
        model = HawkesIntensity(params, history)
        _, sup = model.bounds(unit_region, history.window_days)
        assert sup * unit_region.area_km2 * history.window_days > 1e6
        with pytest.raises(ValueError, match="cap"):
            superpose_residuals(history, model, unit_region, RngStream(31))


class TestSuperThinning:
    def test_invalid_level(self, unit_region, small_catalog):
        with pytest.raises(ValueError, match="positive"):
            super_thin(small_catalog, HomogeneousIntensity(1.0), 0.0,
                       unit_region, RngStream(12))

    def test_at_rate_level_is_identity_for_homogeneous(self, unit_region):
        c = simulate_homogeneous(3e-4, unit_region, 10.0, RngStream(13), mag=4.0)
        r = super_thin(c, HomogeneousIntensity(3e-4), 3e-4, unit_region,
                       RngStream(14))
        assert r.n == c.n
        assert r.retained_mask().all()

    def test_level_above_rate_superposes(self, unit_region):
        c = simulate_homogeneous(2e-4, unit_region, 10.0, RngStream(15), mag=4.0)
        r = super_thin(c, HomogeneousIntensity(2e-4), 4e-4, unit_region,
                       RngStream(16))
        assert r.retained_mask().sum() == c.n  # keep prob 2 -> clamped at 1
        extra = r.n - c.n
        expect = 2e-4 * unit_region.area_km2 * 10.0
        assert extra == pytest.approx(expect, abs=4 * math.sqrt(expect))

    def test_level_below_rate_thins(self, unit_region):
        c = simulate_homogeneous(4e-4, unit_region, 10.0, RngStream(17), mag=4.0)
        r = super_thin(c, HomogeneousIntensity(4e-4), 1e-4, unit_region,
                       RngStream(18))
        assert (~r.retained_mask()).sum() == 0 or r.retained_mask().sum() < c.n
        expect = c.n / 4.0
        assert r.retained_mask().sum() == pytest.approx(
            expect, abs=4 * math.sqrt(expect))


class TestRescaledTimes:
    def test_constant_rate_is_linear_map(self, small_catalog):
        out = rescale_times(small_catalog, 2.0)
        np.testing.assert_allclose(out.taus, small_catalog.times * 2.0,
                                   atol=1e-12)
        assert out.total_mass == pytest.approx(2.0 * small_catalog.window_days)

    def test_linear_rate_closed_form(self, small_catalog):
        # rate alpha*t has the compensator alpha t^2/2
        alpha = 0.8
        out = rescale_times(small_catalog, lambda t: alpha * np.asarray(t) ** 2 / 2)
        np.testing.assert_allclose(out.taus, alpha * small_catalog.times ** 2 / 2,
                                   rtol=1e-9)
        assert out.total_mass == alpha * small_catalog.window_days ** 2 / 2

    def test_monotone(self, unit_region):
        # rate 1 + sin^2 t has the compensator 1.5 t - sin(2t)/4
        c = simulate_homogeneous(4e-4, unit_region, 10.0, RngStream(19), mag=4.0)
        out = rescale_times(c, lambda t: 1.5 * np.asarray(t) - np.sin(2 * np.asarray(t)) / 4)
        assert np.all(np.diff(out.taus) >= 0)

    def test_negative_compensator_rejected(self, small_catalog):
        with pytest.raises(ValueError):
            rescale_times(small_catalog, lambda t: -np.asarray(t))


class TestPixelResiduals:
    def test_forecast_path_exact(self, two_by_two_grid, small_catalog):
        rates = np.array([2.0, 0.2, 1.0, 0.1, 3.0, 0.3, 0.5, 0.05])
        f = GriddedForecast(two_by_two_grid, rates, small_catalog.window_days)
        raw, pearson = pixel_residuals(f, small_catalog)
        counts = bin_counts(small_catalog, two_by_two_grid).counts
        np.testing.assert_allclose(raw.values, counts - rates)
        np.testing.assert_allclose(pearson.values,
                                   (counts - rates) / np.sqrt(rates))
        assert not raw.flags.any()

    def test_zero_rate_cell_flagged(self, two_by_two_grid, small_catalog):
        rates = np.array([2.0, 0.0, 1.0, 0.1, 3.0, 0.3, 0.5, 0.05])
        f = GriddedForecast(two_by_two_grid, rates, small_catalog.window_days)
        raw, pearson = pixel_residuals(f, small_catalog)
        assert raw.flags[1] and pearson.flags[1]
        assert math.isnan(pearson.values[1])
        assert np.isfinite(raw.values[1])


class TestDevianceResiduals:
    def test_sum_equals_joint_difference(self, two_by_two_grid, small_catalog):
        ra = np.array([2.0, 0.2, 1.0, 0.1, 3.0, 0.3, 0.5, 0.05])
        rb = np.array([1.5, 0.4, 2.0, 0.3, 1.0, 0.1, 2.5, 0.9])
        fa = GriddedForecast(two_by_two_grid, ra, small_catalog.window_days)
        fb = GriddedForecast(two_by_two_grid, rb, small_catalog.window_days)
        rs = deviance_residuals(fa, fb, small_catalog)
        counts = bin_counts(small_catalog, two_by_two_grid).counts
        la = joint_log_likelihood(fa, counts)
        lb = joint_log_likelihood(fb, counts)
        assert rs.values.sum() == pytest.approx(la - lb, abs=1e-10)

    def test_zero_rate_with_count_flagged(self, two_by_two_grid):
        ra = np.array([0.0, 0.2, 1.0, 0.1, 3.0, 0.3, 0.5, 0.05])
        rb = np.ones(8)
        fa = GriddedForecast(two_by_two_grid, ra, 1.0)
        fb = GriddedForecast(two_by_two_grid, rb, 1.0)
        c = Catalog(np.array([0.5]), np.array([0.25]), np.array([0.25]),
                    np.array([4.5]), 1.0, 4.0)  # lands in the zero-rate cell
        rs = deviance_residuals(fa, fb, c)
        assert rs.flags[0]

    def test_csv_and_geojson_shapes(self, two_by_two_grid, small_catalog):
        fa = GriddedForecast(two_by_two_grid, np.ones(8), 5.0)
        fb = GriddedForecast(two_by_two_grid, np.full(8, 2.0), 5.0)
        rs = deviance_residuals(fa, fb, small_catalog)
        csv_text = cell_residuals_to_csv(rs)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "cell_id,kind,value,flag"
        assert len(lines) == 9
        doc = json.loads(cell_residuals_to_geojson(rs))
        assert doc["type"] == "FeatureCollection"
        assert len(doc["features"]) == 8
        ring = doc["features"][0]["geometry"]["coordinates"][0]
        assert ring[0] == ring[-1]  # closed ring


class TestVoronoi:
    def test_single_generator_owns_region(self, unit_region):
        tess = voronoi_tessellation([0.3], [0.7], unit_region)
        assert tess.n_cells == 1
        assert tess.areas_km2[0] == pytest.approx(unit_region.area_km2,
                                                  rel=1e-12)

    def test_two_point_symmetric_split(self, unit_region):
        tess = voronoi_tessellation([0.25, 0.75], [0.5, 0.5], unit_region)
        half = unit_region.area_km2 / 2.0
        assert tess.areas_km2[0] == pytest.approx(half, rel=1e-9)
        assert tess.areas_km2[1] == pytest.approx(half, rel=1e-9)
        assert tess.partition_defect < 1e-9

    def test_two_point_asymmetric_split(self, unit_region):
        # bisector of lon 0.2 and 0.6 is the vertical line lon = 0.4
        tess = voronoi_tessellation([0.2, 0.6], [0.5, 0.5], unit_region)
        frac = tess.areas_km2[0] / unit_region.area_km2
        assert frac == pytest.approx(0.4, rel=1e-9)

    def test_partition_identity_random(self, unit_region):
        for seed in range(5):
            gen = RngStream(500 + seed).generator()
            lons = gen.uniform(0, 1, 50)
            lats = gen.uniform(0, 1, 50)
            tess = voronoi_tessellation(lons, lats, unit_region)
            assert tess.partition_defect < 1e-6
            assert (tess.areas_km2 > 0).all()

    def test_coincident_generators_separated(self, unit_region):
        tess = voronoi_tessellation([0.5, 0.5, 0.2], [0.5, 0.5, 0.2],
                                    unit_region)
        assert tess.partition_defect < 1e-6

    @pytest.mark.parametrize("region", [Region.rectangle(0.0, 1.0, 0.0, 1.0),
                                        Region.rectangle(10.0, 11.0, 40.0, 41.0)])
    def test_repeated_epicentres_tessellate_as_their_distinct_set(self, region):
        # the copies come back as the one cell of their epicentre, in
        # first-appearance order, exactly as the distinct set alone gives it
        lon_min, lon_max, lat_min, lat_max = region.bbox
        gen = np.random.default_rng(24)
        u, v = gen.uniform(0, 1, 30), gen.uniform(0, 1, 30)
        pick = np.concatenate([np.arange(30), gen.integers(0, 30, 20)])
        gen.shuffle(pick)
        first = np.sort(np.unique(pick, return_index=True)[1])
        lons = lon_min + u[pick] * (lon_max - lon_min)
        lats = lat_min + v[pick] * (lat_max - lat_min)
        tess = voronoi_tessellation(lons, lats, region)
        ref = voronoi_tessellation(lons[first], lats[first], region)
        assert tess.n_cells == ref.n_cells == 30
        assert np.array_equal(tess.gen_lons, lons[first])
        assert np.array_equal(tess.gen_lats, lats[first])
        assert np.array_equal(tess.areas_km2, ref.areas_km2)
        assert all(np.array_equal(a, b) for a, b in zip(tess.polys_km, ref.polys_km))

    def test_four_copies_leave_no_partition_defect(self, unit_region):
        # the hypothesis draw that gave the 1e-9-degree nudges a defect of
        # 2.9e-10 km^2 per km^2
        tess = voronoi_tessellation([0.55859375] * 4 + [0.0], [0.55859375] * 4 + [0.0],
                                    unit_region)
        assert tess.n_cells == 2
        assert tess.partition_defect == 0.0

    def test_near_copies_on_a_line_partition_the_region(self, voronoi_oracle, unit_region):
        # four generators 1e-9 degree apart on the diagonal with (0, 0): on
        # one line to within rounding, but the rounding of their bisectors'
        # normals makes those meet inside the region, so they are not cut
        # as strips; the strips left a defect of 2.9e-10
        g = np.r_[0.55859375 + np.arange(4) * 1e-9, 0.0]
        tess = voronoi_tessellation(g, g, unit_region)
        _, areas = voronoi_oracle(g, g, unit_region)
        ref_defect = abs(float(areas.sum()) - unit_region.area_km2) / unit_region.area_km2
        assert tess.n_cells == 5
        assert tess.partition_defect <= ref_defect + 1e-12

    def test_nonconvex_region(self):
        region = Region([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        gen = RngStream(501).generator()
        pts = []
        while len(pts) < 20:
            x, y = gen.uniform(0, 2, 2)
            if region.contains(x, y):
                pts.append((x, y))
        lons = np.array([p[0] for p in pts])
        lats = np.array([p[1] for p in pts])
        tess = voronoi_tessellation(lons, lats, region)
        assert tess.partition_defect < 1e-6

    def test_lonlat_polys_consistent(self, unit_region):
        tess = voronoi_tessellation([0.25, 0.75], [0.5, 0.5], unit_region)
        for poly in tess.polys_lonlat():
            assert unit_region.contains(poly[:, 0] * 0.999 + 0.5 * 0.001,
                                        poly[:, 1] * 0.999 + 0.5 * 0.001).all()


_L_SHAPE = Region([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
_VORONOI_REGIONS = [Region.rectangle(0.0, 1.0, 0.0, 1.0),
                    Region.rectangle(10.0, 11.0, 40.0, 41.0), _L_SHAPE]
_UNIT = st.floats(0.0, 1.0, allow_nan=False)


@st.composite
def voronoi_problems(draw):
    """Generators in a region's bounding box: random, cocircular lattices,
    collinear, n = 1 to 3, or random with exact and 1e-9-degree-nudged
    duplicates and triplicates."""
    region = draw(st.sampled_from(_VORONOI_REGIONS))
    kind = draw(st.sampled_from(["random", "lattice", "collinear", "few",
                                 "duplicates"]))
    if kind in ("random", "few", "duplicates"):
        size = (1, 3) if kind == "few" else (1, 50)
        uv = np.array(draw(st.lists(st.tuples(_UNIT, _UNIT), min_size=size[0],
                                    max_size=size[1])))
    elif kind == "lattice":
        nu, nv = draw(st.integers(1, 8)), draw(st.integers(1, 8))
        u, v = np.meshgrid((np.arange(nu) + 0.5) / nu, (np.arange(nv) + 0.5) / nv)
        uv = np.column_stack([u.ravel(), v.ravel()])
    else:
        start = np.array(draw(st.tuples(_UNIT, _UNIT)))
        step = np.array(draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
                             | st.tuples(_UNIT, _UNIT).filter(lambda t: any(t))))
        ts = draw(st.lists(st.floats(-1.0, 1.0), min_size=2, max_size=12,
                           unique=True))
        uv = np.clip(start + np.outer(ts, step / np.max(np.abs(step))), 0.0, 1.0)
    if kind == "duplicates":
        picks = draw(st.lists(st.integers(0, uv.shape[0] - 1), min_size=1,
                              max_size=10))
        copies = [uv[i] for i in picks for _ in range(draw(st.integers(1, 2)))]
        nudge = draw(st.sampled_from([0.0, 1e-9]))
        uv = np.vstack([uv] + [c + nudge * (k + 1) for k, c in enumerate(copies)])
    lon_min, lon_max, lat_min, lat_max = region.bbox
    return (region, lon_min + uv[:, 0] * (lon_max - lon_min),
            lat_min + uv[:, 1] * (lat_max - lat_min))


def _collapse(ring, tol):
    """Drop each vertex within tol of the last one kept, cyclically."""
    kept = []
    for v in ring:
        if not kept or np.hypot(*(v - kept[-1])) > tol:
            kept.append(v)
    while len(kept) > 1 and np.hypot(*(kept[0] - kept[-1])) <= tol:
        kept.pop()
    return np.array(kept).reshape(-1, 2)


def _tolerances(tess):
    """(area atol in km^2, vertex tolerance in km or None) for comparing
    with the reference.

    Generators closer than 1e-6 of the region's extent L are
    near-coincident. Two bisectors of generators s apart meet at an angle
    of about s / L, so the vertex they define moves by about ulp(L) * L / s
    with the order of the clips. Three or more near-coincident generators
    are nearly collinear: the vertex where their cells meet is set by
    rounding and may lie anywhere along strips of width s, so only areas
    are compared there, to L times the cluster's largest separation.
    """
    pts = np.column_stack(tess.region.to_km(tess.gen_lons, tess.gen_lats))
    extent = float(np.hypot(*np.ptp(tess.region.ring_km, axis=0)))
    if pts.shape[0] < 2:
        return 1e-9, 1e-9
    pairs = cKDTree(pts).query_pairs(1e-6 * extent, output_type="ndarray")
    if pairs.shape[0] == 0:
        sep = float(cKDTree(pts).query(pts, k=2)[0][:, 1].min())
        return 1e-9, 1e-9 + 1e-15 * extent ** 2 / sep
    sep = np.hypot(*(pts[pairs[:, 0]] - pts[pairs[:, 1]]).T)
    if np.bincount(pairs.ravel()).max() >= 2:
        return 1e-9 + extent * float(sep.max()), None
    return 1e-9, 1e-9 + (1e-15 * extent ** 2 / sep.min() if sep.min() > 0 else np.inf)


def _same_ring(a, b, tol):
    """Every vertex of each ring within tol of one of the other's and, for
    tol below 1e-6 km, the same cycle up to rotation once vertices within
    tol of the previous one are merged."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return a.shape == b.shape
    dist = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    if max(dist.min(axis=1).max(), dist.min(axis=0).max()) > tol:
        return False
    if tol >= 1e-6:
        return True
    a, b = _collapse(a, tol), _collapse(b, tol)
    return a.shape == b.shape and any(
        np.max(np.hypot(*(np.roll(a, -s, axis=0) - b).T)) <= tol
        for s in range(a.shape[0]))


_COORD = st.floats(-200.0, 200.0, allow_nan=False)


def _clip_one(poly, normal, offset, keep_le):
    """catalog._clip_rings on the one ring poly."""
    out, sizes = catalog._clip_rings(poly[None], np.array([len(poly)]), normal[None],
                                     np.array([offset]), np.array([keep_le]))
    return out[0, :sizes[0]]


class TestClipAndAreas:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(_COORD, _COORD), min_size=0, max_size=12),
           st.tuples(_COORD, _COORD), st.floats(-1e-6, 1e6), st.booleans(),
           st.integers(-1, 11))
    def test_clip_equals_reference_walk(self, clip_oracle, verts, normal, scale,
                                       keep_le, through):
        poly = np.array(verts, dtype=float).reshape(-1, 2)
        normal = np.array(normal) * scale
        # offsets through a vertex put it exactly on the line
        offset = float(poly[through, 0] * normal[0] + poly[through, 1] * normal[1]) \
            if 0 <= through < len(verts) else 3.0
        got = _clip_one(poly, normal, offset, keep_le)
        want = clip_oracle(poly, normal, offset, keep_le)
        assert got.shape == want.shape and np.array_equal(got, want)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.lists(st.tuples(_COORD, _COORD), max_size=12),
                              st.tuples(_COORD, _COORD), st.floats(-1e-6, 1e6),
                              st.booleans(), st.integers(-1, 11)), max_size=10),
           st.floats(-1e3, 1e3) | st.just(np.nan))
    def test_batch_equals_each_ring_alone(self, cuts, pad):
        # mixed sizes, empty rings among them, padded with junk that must
        # not reach any result
        rings = [np.array(v, dtype=float).reshape(-1, 2) for v, *_ in cuts]
        counts = np.array([len(r) for r in rings], dtype=np.intp)
        xy = np.full((len(rings), counts.max(initial=0), 2), pad)
        for k, r in enumerate(rings):
            xy[k, :len(r)] = r
        normal = np.array([n for _, n, *_ in cuts], dtype=float).reshape(-1, 2) \
            * np.array([c[2] for c in cuts]).reshape(-1, 1)
        offset = np.array([r[t, 0] * n[0] + r[t, 1] * n[1] if 0 <= t < len(r) else 3.0
                           for r, n, (*_, t) in zip(rings, normal, cuts)])
        keep_le = np.array([c[3] for c in cuts], dtype=bool)
        out, sizes = catalog._clip_rings(xy, counts, normal, offset, keep_le)
        assert out.shape == (len(rings), sizes.max(initial=0), 2)
        for k, r in enumerate(rings):
            alone = _clip_one(r, normal[k], offset[k], keep_le[k])
            assert np.array_equal(out[k, :sizes[k]], alone)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.tuples(_COORD, _COORD), max_size=9), max_size=8))
    def test_areas_in_one_pass(self, shoelace_oracle, rings):
        polys = [np.array(r, dtype=float).reshape(-1, 2) for r in rings]
        got = catalog._poly_areas(*_stack_rings(polys))
        for area, p in zip(got, polys):
            # the summation order changed: allow rounding of the summed terms
            terms = p[:, 0] * np.roll(p[:, 1], -1) - np.roll(p[:, 0], -1) * p[:, 1]
            assert abs(area - shoelace_oracle(p)) <= 1e-13 * np.sum(np.abs(terms))
            assert p.shape[0] >= 3 or area == 0.0


class TestVoronoiAgainstReference:
    """The Delaunay-neighbour candidates give the cells of the reference
    that clips against every generator in reach."""

    @settings(max_examples=200, deadline=None)
    @given(voronoi_problems())
    def test_matches_reference(self, voronoi_oracle, problem):
        region, lons, lats = problem
        tess = voronoi_tessellation(lons, lats, region)
        # the oracle cuts the tessellation's own generators, the distinct
        # epicentres
        polys, areas = voronoi_oracle(tess.gen_lons, tess.gen_lats, region)
        assert tess.n_cells == len(polys)
        ref_defect = abs(float(areas.sum()) - region.area_km2) / region.area_km2
        assert tess.partition_defect <= ref_defect + 1e-12
        atol, vtol = _tolerances(tess)
        assert np.all(np.isclose(tess.areas_km2, areas, rtol=1e-9, atol=atol))
        if vtol is not None:
            for got, want in zip(tess.polys_km, polys):
                assert _same_ring(got, want, vtol)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_few_generators(self, voronoi_oracle, unit_region, n):
        lons, lats = np.linspace(0.2, 0.8, n), np.array([0.3, 0.7, 0.4][:n])
        tess = voronoi_tessellation(lons, lats, unit_region)
        _, areas = voronoi_oracle(lons, lats, unit_region)
        assert np.allclose(tess.areas_km2, areas, rtol=1e-12, atol=0.0)
        assert tess.partition_defect < 1e-12

    @pytest.mark.parametrize("n", [9, 60])
    def test_collinear_generators(self, voronoi_oracle, unit_region, n):
        lons = np.linspace(0.1, 0.9, n)
        tess = voronoi_tessellation(lons, 0.2 + 0.5 * lons, unit_region)
        _, areas = voronoi_oracle(lons, 0.2 + 0.5 * lons, unit_region)
        assert np.allclose(tess.areas_km2, areas, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("slope", [0.0, 0.37])
    def test_many_collinear_generators_as_strips(self, unit_region, slope):
        # Qhull cannot triangulate them; each cell is the strip between its
        # neighbours' bisectors, with no (cell, generator) pair search
        lons = np.linspace(0.0005, 0.9995, 1000)
        tracemalloc.start()
        try:
            tess = voronoi_tessellation(lons, 0.3 + slope * lons, unit_region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10e6
        assert tess.partition_defect < 1e-12
        assert np.all(tess.areas_km2 > 0.0)

    @pytest.mark.parametrize("m", [5, 10, 20])
    def test_lattice_rings_repeat_no_vertex(self, unit_region, monkeypatch, m):
        # four lattice cells meet at each inner vertex, and a cut through a
        # vertex can emit it twice; a zero-length edge adds exactly 0 to the
        # shoelace sum, so dropping it moves no area
        cut = []
        tessellation = residuals._tessellation

        def capture(lons, lats, rings, counts, region, cell_of):
            cut.append((rings[np.arange(rings.shape[1]) < counts[:, None]], counts.copy()))
            return tessellation(lons, lats, rings, counts, region, cell_of)

        monkeypatch.setattr(residuals, "_tessellation", capture)
        u = (np.arange(m) + 0.5) / m
        lons, lats = np.meshgrid(u, u)
        tess = voronoi_tessellation(lons.ravel(), lats.ravel(), unit_region)
        for ring in tess.polys_km:
            assert not np.any(np.all(ring == np.roll(ring, 1, axis=0), axis=1))
        xy, counts = cut[0]
        assert np.array_equal(tess.areas_km2, catalog._poly_areas(xy, counts))
        # the 10 x 10 and 20 x 20 lattices do cut through vertices
        assert (counts.sum() > sum(map(len, tess.polys_km))) == (m > 5)

    def test_nudged_copies_set_aside(self, voronoi_oracle, unit_region):
        # Qhull leaves the 1e-9-degree copies out of its triangulation; they
        # must still cut their neighbours' cells
        gen = np.random.default_rng(50)
        lons, lats = gen.uniform(0, 1, 50), gen.uniform(0, 1, 50)
        lons = np.concatenate([lons, lons[:5] + 1e-9, lons[:5] + 2e-9])
        lats = np.concatenate([lats, lats[:5] + 1e-9, lats[:5] + 2e-9])
        tess = voronoi_tessellation(lons, lats, unit_region)
        _, areas = voronoi_oracle(lons, lats, unit_region)
        assert np.all(np.isclose(tess.areas_km2, areas, rtol=1e-9, atol=1e-9))
        assert tess.partition_defect < 1e-12

    @pytest.mark.parametrize("region, lons, lats", [
        (Region.rectangle(10.0, 11.0, 40.0, 41.0), [10.125, 10.0, 10.0, 10.125, 10.125],
         [40.75, 40.0, 41.0, 40.75, 40.75]),
        (Region.rectangle(0.0, 1.0, 0.0, 1.0), [0.5, 1.0, 0.5, 0.5], [0.625] * 4),
    ])
    def test_nudged_triplicates(self, voronoi_oracle, region, lons, lats):
        # exact triplicates, which 1e-9-degree nudges once made collinear to
        # rounding, so that Qhull left out the edge between the outer two
        # (first case) or set the middle one aside (second); each is now one
        # generator, and its cells must still match the oracle's
        tess = voronoi_tessellation(lons, lats, region)
        _, areas = voronoi_oracle(tess.gen_lons, tess.gen_lats, region)
        assert tess.partition_defect < 1e-12
        assert np.allclose(tess.areas_km2, areas, rtol=1e-9, atol=1e-9)

    def test_qhull_simplex_outside_the_points(self, voronoi_oracle):
        # copies of one point about 1e-9 degree apart on a diagonal: Qhull
        # returns a simplex holding its point at infinity, and the neighbour
        # lists of that triangulation raise MemoryError
        region = Region.rectangle(10.0, 11.0, 40.0, 41.0)
        lons = [10.20462645100535, 10.20462645100535, 10.20462645200535,
                10.20462645300535, 10.20462645400535, 10.20462645500535,
                10.20462645600535, 10.20462645700535, 10.20462645800535,
                10.20462645900535, 10.20462646000535, 10.20462646100535,
                10.20462646200535, 10.20462646300535]
        lats = [40.079964003266745, 40.079964003266745, 40.07996400426675,
                40.079964005266746, 40.07996400626675, 40.079964007266746,
                40.07996400826675, 40.079964009266746, 40.07996401026675,
                40.079964011266746, 40.07996401226675, 40.079964013266746,
                40.07996401426675, 40.07996401526675]
        tess = voronoi_tessellation(lons, lats, region)
        _, areas = voronoi_oracle(tess.gen_lons, tess.gen_lats, region)
        assert tess.partition_defect < 1e-12
        assert np.isclose(tess.areas_km2.sum(), areas.sum(), rtol=1e-12)

    def test_nonconvex_region(self, voronoi_oracle):
        gen = RngStream(501).generator()
        pts = []
        while len(pts) < 20:
            x, y = gen.uniform(0, 2, 2)
            if _L_SHAPE.contains(x, y):
                pts.append((x, y))
        lons, lats = np.array(pts).T
        tess = voronoi_tessellation(lons, lats, _L_SHAPE)
        polys, areas = voronoi_oracle(lons, lats, _L_SHAPE)
        assert np.allclose(tess.areas_km2, areas, rtol=1e-9, atol=1e-9)
        assert all(_same_ring(a, b, 1e-9) for a, b in zip(tess.polys_km, polys))

    def test_clustered_scale_without_pair_sized_arrays(self, voronoi_oracle):
        # 3,000 generators in 30 tight clusters, with 50 exact and 50
        # 1e-9-degree copies: the big empty-space cells reach far, and the
        # copies cut their twins' cells
        region = Region.rectangle(10.0, 11.0, 40.0, 41.0)
        gen = np.random.default_rng(3000)
        centres = gen.uniform(0.1, 0.9, (30, 2))
        uv = np.clip(centres[gen.integers(0, 30, 2900)] + gen.normal(0, 0.02, (2900, 2)), 0, 1)
        uv = np.vstack([uv, uv[:50], uv[50:100] + 1e-9])
        lons, lats = 10.0 + uv[:, 0], 40.0 + uv[:, 1]
        tracemalloc.start()
        try:
            tess = voronoi_tessellation(lons, lats, region)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3000 ** 2 * 8 / 4  # a quarter of one pair-sized float array
        _, areas = voronoi_oracle(tess.gen_lons, tess.gen_lats, region)
        atol, _ = _tolerances(tess)
        assert np.all(np.isclose(tess.areas_km2, areas, rtol=1e-9, atol=atol))
        assert tess.partition_defect < 1e-12

    def test_generator_outside_region_gets_empty_cell(self, unit_region):
        tess = voronoi_tessellation([0.2, 0.8, 3.0], [0.5, 0.5, 0.5], unit_region)
        assert tess.polys_km[2].shape == (0, 2)
        assert tess.areas_km2[2] == 0.0
        assert tess.partition_defect < 1e-12



class TestVoronoiResiduals:
    def test_homogeneous_truth_unit_masses(self, unit_region):
        c = simulate_homogeneous(4e-4, unit_region, 10.0, RngStream(20), mag=4.0)
        rate = c.n / (unit_region.area_km2 * 10.0)
        rs = voronoi_residuals(HomogeneousIntensity(rate), c, unit_region)
        assert rs.n_cells == c.n
        assert not rs.flags.any()
        # expected masses average to one event per cell
        assert rs.expected.mean() == pytest.approx(1.0, rel=0.02)
        np.testing.assert_allclose(
            rs.values[~rs.flags],
            (1.0 - rs.expected[~rs.flags]) / np.sqrt(rs.expected[~rs.flags]))

    def test_copies_of_an_event_change_only_its_cell(self, unit_region):
        c = simulate_homogeneous(4e-4, unit_region, 10.0, RngStream(20), mag=4.0)
        model = HomogeneousIntensity(c.n / (unit_region.area_km2 * 10.0))
        one = voronoi_residuals(model, c, unit_region, n_grid=50)
        j, k = 3, 4
        idx = np.sort(np.concatenate([np.arange(c.n), np.full(k - 1, j)]))
        mags = c.mags[idx]
        mags[idx == j] += 0.1 * np.arange(k)  # not one event k times
        copies = Catalog(c.times[idx], c.lons[idx], c.lats[idx], mags, c.window_days, c.m0)
        many = voronoi_residuals(model, copies, unit_region, n_grid=50)
        assert np.array_equal(many.expected, one.expected)
        assert np.array_equal(many.counts, np.where(np.arange(c.n) == j, k, 1))
        others = np.arange(c.n) != j
        assert np.array_equal(many.values[others], one.values[others])
        lam = one.expected[j]
        assert many.values[j] == (k - lam) / np.sqrt(lam)
        assert one.values[j] == (1.0 - lam) / np.sqrt(lam)

    def test_hawkes_masses_match_sliced_reference(self, unit_region,
                                                   aligned_history, sliced):
        from eqassess import HawkesIntensity
        params, history = aligned_history
        model = HawkesIntensity(params, history)
        exact = voronoi_residuals(model, history, unit_region, n_grid=40)
        ref = voronoi_residuals(sliced(model), history, unit_region, n_grid=40)
        np.testing.assert_array_equal(exact.flags, ref.flags)
        np.testing.assert_allclose(exact.expected, ref.expected, rtol=1e-4)

    def test_empty_catalog_rejected(self, unit_region):
        from eqassess import empty_catalog
        with pytest.raises(ValueError, match="^tessellation needs at least one generator$"):
            voronoi_residuals(HomogeneousIntensity(1.0),
                              empty_catalog(1.0, m0=4.0), unit_region)

    @pytest.mark.parametrize("ell", [False, True], ids=["unit square", "ell"])
    @pytest.mark.parametrize("n_grid", [7, 40])
    def test_homogeneous_masses_are_cell_areas(self, box_area_oracle, unit_region, ell, n_grid):
        # Lambda_i = rate T area_i: the cell clipped by its own bounding box
        region = Region([(-3, 10), (1, 10), (1, 11), (-1, 11), (-1, 12), (-3, 12)]) \
            if ell else unit_region
        c = simulate_homogeneous(4e-4, region, 10.0, RngStream(20), mag=4.0)
        rs = voronoi_residuals(HomogeneousIntensity(1e-3), c, region, n_grid=n_grid)
        areas = [box_area_oracle(p, [(*np.sort(p[:, 0])[[0, -1]], *np.sort(p[:, 1])[[0, -1]])])[0]
                 for p in rs.cell_polys]
        np.testing.assert_allclose(rs.expected, 1e-3 * 10.0 * np.array(areas), rtol=1e-12)
        assert not rs.flags.any()

    @settings(max_examples=60, deadline=None)
    @given(voronoi_problems(), st.integers(1, 60))
    def test_cell_areas_add_up_to_the_region(self, problem, n_grid):
        region, lons, lats = problem
        tess = voronoi_tessellation(lons, lats, region)
        _, _, area, _ = catalog._lattice_areas(tess.polys_lonlat(), region, n_grid)
        whole = catalog.box_areas(region, [region.bbox])[0]
        # the defect is planar: where cells overlap (generators closer than
        # a float can tell apart), their excess in this measure is within 1 %
        assert abs(area.sum() - whole) <= (1.01 * tess.partition_defect + 1e-12) * whole

    def test_generators_that_share_a_km_point_share_a_cell(self, unit_region):
        # latitudes 0 and 1.4e-294 differ in degrees but not in km, where
        # keying cells by degrees gave three overlapping cells (defect 0.5)
        # and sum Lambda = 55.76 for rate T area = 37.18
        lons, lats = np.zeros(3), np.array([0.0, 1.0, 1.40441334e-294])
        c = Catalog(np.arange(3.0), lons, lats, np.full(3, 4.0), 3.0, 4.0)
        tess = voronoi_tessellation(lons, lats, unit_region)
        assert tess.n_cells == 2 and tess.partition_defect < 1e-12
        assert np.array_equal(tess.cell_of, [0, 1, 0])
        rs = voronoi_residuals(HomogeneousIntensity(1e-3), c, unit_region, n_grid=20)
        whole = catalog.box_areas(unit_region, [unit_region.bbox])[0]
        assert rs.expected.sum() == pytest.approx(1e-3 * 3.0 * whole, rel=1e-12)
        assert np.array_equal(rs.counts, [2, 1])

    def test_clustered_hawkes_catalog_has_no_flagged_cell(self, unit_region):
        # clusters of cells far smaller than the 5.6 km boxes, which the
        # nearest-generator lattice left without a point: 19 of 62 flagged
        from eqassess import HawkesIntensity, HawkesParams, simulate_hawkes
        params = HawkesParams(mu=1e-4, k=2e-4, c=0.01, p=1.3, a=1.0, d=0.01, q=1.8, m0=4.0)
        c = simulate_hawkes(params, unit_region, 20.0, RngStream(3))
        rs = voronoi_residuals(HawkesIntensity(params, c), c, unit_region, n_grid=20)
        assert rs.n_cells == c.n == 62
        assert not rs.flags.any() and np.all(rs.expected > 0)

    def test_model_is_evaluated_only_in_boxes_that_meet_a_cell(self):
        ell = Region([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        seen = []

        class Recording(HomogeneousIntensity):
            def integrate(self, lons, lats, t):
                seen.append(np.column_stack([lons, lats]))
                return super().integrate(lons, lats, t)

        c = simulate_homogeneous(2e-4, ell, 10.0, RngStream(21), mag=4.0)
        rs = voronoi_residuals(Recording(1e-3), c, ell, n_grid=4)
        pts = np.concatenate(seen)
        # the 4 boxes of the notch, lon and lat > 1, meet the region only
        # along its border
        assert len(pts) == 12 and not np.any((pts[:, 0] > 1) & (pts[:, 1] > 1))
        assert not rs.flags.any()


class TestHomogeneity:
    def test_uniform_pattern_passes_quadrat(self, unit_region):
        c = simulate_homogeneous(1e-2, unit_region, 1.0, RngStream(21), mag=4.0)
        assert c.n > 100
        r = homogeneity_test(c, unit_region)
        assert r.p_value > 0.01
        assert r.df is not None and r.df > 1
        # ten points make a 2 x 2 quadrat layout. Points on the box's east
        # and north edges count in the last column and row, points just
        # outside it in the nearest edge quadrat: the statistic is that of
        # the same counts at the quadrats' centres
        lons = np.array([1.0, 0.25, 1.0, 1.001, 0.25, -0.001, 0.75, 0.25, 0.75, 0.25])
        lats = np.array([0.25, 1.0, 1.0, 0.25, 1.001, 0.75, -0.001, 0.25, 0.75, 0.75])
        quadrat = np.array([1, 2, 3, 1, 2, 2, 1, 0, 3, 2])
        times = np.linspace(0.05, 0.95, 10)
        edge = Catalog(times, lons, lats, np.full(10, 4.0), 1.0, 4.0)
        centre = Catalog(times, 0.25 + 0.5 * (quadrat % 2),
                         0.25 + 0.5 * (quadrat // 2), np.full(10, 4.0), 1.0, 4.0)
        assert homogeneity_test(edge, unit_region) == homogeneity_test(centre, unit_region)

    @pytest.mark.parametrize("n", [452, 2000])
    def test_quadrat_counts_follow_exact_areas(self, n):
        # every quadrat of the 3 x 3 degree box lies in the region, so its
        # exact area is KM_PER_DEG^2 d(lon) (180 / pi) d(sin lat)
        m, pos, expected = residuals._quadrat_layout(Region.rectangle(0, 3, 0, 3), n)
        edges = np.linspace(0.0, 3.0, m + 1)
        areas = np.outer(np.diff(np.sin(np.radians(edges))), np.diff(edges)).ravel()
        assert pos.all()
        np.testing.assert_allclose(expected, n * areas / areas.sum(), rtol=1e-12)

    def test_clustered_pattern_fails_quadrat(self, unit_region):
        gen = RngStream(22).generator()
        pts = np.vstack([
            gen.normal(0.25, 0.02, (60, 2)),
            gen.normal(0.75, 0.02, (60, 2)),
        ])
        c = Catalog(np.linspace(0.01, 0.99, 120), pts[:, 0], pts[:, 1],
                    np.full(120, 4.0), 1.0, 4.0)
        r = homogeneity_test(c, unit_region)
        assert r.p_value < 1e-6

    def test_small_pattern_not_applicable(self, unit_region, small_catalog):
        r = homogeneity_test(small_catalog, unit_region)
        assert math.isnan(r.p_value)
        assert "fewer" in r.note
