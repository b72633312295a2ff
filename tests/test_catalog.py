import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eqassess import (BinGrid, Catalog, GriddedForecast, GridIntensity, Region, bin_counts,
                      empty_catalog, filter_catalog, km_distance, parse_catalog, parse_region,
                      region_lattice, serialize_catalog, serialize_region)
from eqassess import catalog
from eqassess.catalog import (KM_PER_DEG, _lattice_areas, box_areas, box_lattice_index,
                              km_distance2, km_factors, km_grid2)
from eqassess.residuals import voronoi_tessellation

# 80 x 50 disjoint unit boxes east of lon 10, lon-fastest
_FILLERS = BinGrid.regular(np.arange(10.0, 91.0), np.arange(0.0, 51.0),
                           np.array([4.0, 5.0])).boxes
# unit boxes along the diagonal: an edge lattice far larger than the cell count
_STAIRS = np.array([[i, i + 1.0, i, i + 1.0, 4.0, 5.0] for i in range(30)])


@st.composite
def _grids(draw):
    """A regular, masked and shuffled product grid, or an irregular grid of
    disjoint boxes with integer corners on two magnitude bands."""
    if draw(st.booleans()):
        edges = [np.cumsum(draw(st.lists(st.sampled_from([0.5, 1.0, 2.0]),
                                         min_size=k, max_size=k))) - lo
                 for k, lo in ((draw(st.integers(2, 5)), 3.0),
                               (draw(st.integers(2, 5)), -1.0),
                               (draw(st.integers(2, 4)), -4.0))]
        boxes = BinGrid.regular(*edges).boxes
        keep = draw(st.lists(st.booleans(), min_size=len(boxes), max_size=len(boxes)))
        boxes = boxes[np.asarray(keep, dtype=bool)] if any(keep) else boxes
        order = draw(st.permutations(range(len(boxes))))
        return BinGrid(boxes[list(order)])
    kept = []
    for x, w, y, h, m in draw(st.lists(
            st.tuples(st.integers(0, 6), st.integers(1, 3), st.integers(0, 6),
                      st.integers(1, 3), st.integers(0, 1)), min_size=1, max_size=15)):
        box = np.array([x, x + w, y, y + h, 4.0 + m, 5.0 + m], dtype=float)
        if all(np.any((box[0::2] >= k[1::2]) | (box[1::2] <= k[0::2])) for k in kept):
            kept.append(box)
    return BinGrid(np.array(kept))


class TestKmDistance:
    def test_one_degree_lon_at_equator(self):
        # mean latitude 0, so the lon degree is the full 111.32 km
        assert km_distance(0.0, 0.0, 1.0, 0.0) == pytest.approx(KM_PER_DEG)

    def test_one_degree_lat(self):
        assert km_distance(0.0, 0.0, 0.0, 1.0) == pytest.approx(KM_PER_DEG)

    def test_mean_latitude_scaling(self):
        # lon separation at lat 60 uses cos of the mean latitude
        d = km_distance(0.0, 60.0, 1.0, 60.0)
        assert d == pytest.approx(KM_PER_DEG * math.cos(math.radians(60.0)))

    def test_symmetry_and_zero(self):
        assert km_distance(3.0, 4.0, 3.0, 4.0) == 0.0
        assert km_distance(1.0, 2.0, 3.0, 4.0) == pytest.approx(
            km_distance(3.0, 4.0, 1.0, 2.0))

    @settings(max_examples=200, deadline=None)
    @given(coords=st.lists(st.tuples(st.floats(-180.0, 180.0), st.floats(-80.0, 80.0)),
                           min_size=2, max_size=12),
           pick=st.lists(st.integers(0, 11), min_size=2, max_size=12))
    def test_matches_per_pair_cosine_reference(self, km_oracle, coords, pick):
        # coordinates at 1e-9 degree resolution: a nonzero separation is
        # then far above the range where squaring it would underflow
        pts = np.round(np.array(coords), 9)
        # the second points are drawn from the first, so some pairs coincide
        # (where the reference is 0, the tolerance then asks for exactly 0)
        other = pts[np.resize(np.array(pick) % len(pts), len(pts))]
        lon, lat, olon, olat = pts[:, 0], pts[:, 1], other[:, 0], other[:, 1]
        cases = [(lon[0], lat[0], olon[0], olat[0]),          # scalars
                 (lon, lat, olon, olat),                      # equal-length pairs
                 (lon[:, None], lat[:, None], olon[None, :], olat[None, :])]  # outer
        for args in cases:
            want = km_oracle(*args)
            np.testing.assert_allclose(km_distance2(*args), want * want, rtol=1e-13, atol=0.0)
            np.testing.assert_allclose(km_distance(*args), want, rtol=1e-13, atol=0.0)
        # a point against itself is exactly 0, in every pairing
        assert np.all(km_distance2(lon, lat, lon, lat) == 0.0)
        assert np.all(np.diagonal(km_distance2(lon[:, None], lat[:, None],
                                               lon[None, :], lat[None, :])) == 0.0)


class TestKmGrid:
    @settings(max_examples=60, deadline=None)
    @given(m=st.sampled_from([1, 2, 63, 64, 65, 128]), n=st.integers(1, 450),
           seed=st.integers(0, 2 ** 32 - 1), span=st.sampled_from([0.01, 3.0, 180.0]),
           equator=st.booleans(), coincide=st.booleans())
    def test_matches_broadcast_bit_for_bit(self, km_grid_oracle, m, n, seed, span,
                                           equator, coincide):
        gen = np.random.default_rng(seed)
        # negative longitudes, and a hemisphere-straddling latitude band
        lon1, lon2 = gen.uniform(-span, span, m), gen.uniform(-span, span, n)
        lat1, lat2 = gen.uniform(-60.0, 60.0, m), gen.uniform(-60.0, 60.0, n)
        if equator:  # sin of the half-latitude is exactly 0
            lat1[::2], lat2[::3] = 0.0, 0.0
        if coincide:
            k = min(m, n)
            lon2[:k], lat2[:k] = lon1[:k], lat1[:k]
        want = km_grid_oracle(lon1[:, None], lat1[:, None], lon2[None, :], lat2[None, :])
        out, scratch = np.full((m, n), np.nan), np.full((m, n), np.nan)
        rows, cols = km_factors(lon1, lat1, rows=True), km_factors(lon2, lat2)
        assert km_grid2(rows, cols, out, scratch) is out
        assert np.array_equal(out, want)
        # slices of larger factor sets, as the Hawkes blocks take them
        pad = gen.uniform(-span, span, 7), gen.uniform(-60.0, 60.0, 7)
        rows = km_factors(np.r_[pad[0], lon1], np.r_[pad[1], lat1], rows=True)[..., 7:]
        cols = km_factors(np.r_[lon2, pad[0]], np.r_[lat2, pad[1]])[..., :n]
        assert np.array_equal(km_grid2(rows, cols, out, np.empty((m, n))), want)
        if coincide:
            assert np.all(np.diagonal(out) == 0.0)


class TestRegion:
    def test_rectangle_area(self, unit_region):
        # 1 deg x 1 deg at the equator, cos taken at the centroid lat 0.5
        expect = KM_PER_DEG ** 2 * math.cos(math.radians(0.5))
        assert unit_region.area_km2 == pytest.approx(expect, rel=1e-12)

    def test_contains_boundary_inclusive(self, unit_region):
        assert unit_region.contains(0.0, 0.0)
        assert unit_region.contains(1.0, 1.0)
        assert unit_region.contains(0.5, 0.0)
        assert unit_region.contains(0.5, 1.0)
        assert not unit_region.contains(1.0 + 1e-9, 0.5)

    def test_contains_nonconvex(self):
        # L-shape: the notch [1,2]x[1,2] is outside
        region = Region([(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)])
        assert region.contains(0.5, 1.5)
        assert region.contains(0.5, 0.5)
        assert not region.contains(1.5, 1.5)

    def test_round_trip_projection(self, unit_region):
        lons = np.array([0.1, 0.9, 0.5])
        lats = np.array([0.2, 0.8, 0.5])
        x, y = unit_region.to_km(lons, lats)
        back = unit_region.from_km(x, y)
        np.testing.assert_allclose(back[0], lons, rtol=1e-14)
        np.testing.assert_allclose(back[1], lats, rtol=1e-14)

    def test_explicit_closure_rejected(self):
        with pytest.raises(ValueError, match="closure"):
            Region([(0, 0), (1, 0), (1, 1), (0, 0)])

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            Region([(0, 0), (1, 1)])

    def test_region_serialization_round_trip(self, unit_region):
        text = serialize_region(unit_region)
        back = parse_region(text)
        assert back == unit_region


class TestCatalog:
    def test_sorted_on_construction(self):
        c = Catalog(np.array([2.0, 1.0]), np.array([0.1, 0.2]),
                    np.array([0.1, 0.2]), np.array([5.0, 4.0]), 3.0, 4.0)
        assert list(c.times) == [1.0, 2.0]
        assert list(c.mags) == [4.0, 5.0]

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Catalog(np.array([1.0, 1.0]), np.array([0.1, 0.1]),
                    np.array([0.1, 0.1]), np.array([4.0, 4.0]), 3.0, 4.0)

    def test_out_of_window_rejected(self):
        with pytest.raises(ValueError):
            Catalog(np.array([5.0]), np.array([0.0]), np.array([0.0]),
                    np.array([4.0]), 3.0, 4.0)

    def test_arrays_read_only(self, small_catalog):
        with pytest.raises(ValueError):
            small_catalog.times[0] = 99.0

    def test_empty(self):
        c = empty_catalog(2.0, m0=3.0)
        assert c.n == 0 and c.window_days == 2.0

    def test_csv_round_trip_exact(self, small_catalog):
        text = serialize_catalog(small_catalog)
        back = parse_catalog(text)
        np.testing.assert_array_equal(back.times, small_catalog.times)
        np.testing.assert_array_equal(back.lons, small_catalog.lons)
        np.testing.assert_array_equal(back.lats, small_catalog.lats)
        np.testing.assert_array_equal(back.mags, small_catalog.mags)
        assert back.window_days == small_catalog.window_days
        assert back.m0 == small_catalog.m0

    def test_iso_times_relative_to_earliest(self):
        text = ("time,lon,lat,mag\n"
                "2011-03-13T00:00:00Z,0.5,0.5,5.0\n"
                "2011-03-11T00:00:00Z,0.4,0.4,9.0\n")
        c = parse_catalog(text)
        assert list(c.times) == [0.0, 2.0]

    def test_malformed_row_names_index(self):
        text = "time,lon,lat,mag\n0.5,0.5,0.5,4.0\n0.7,bad,0.5,4.0\n"
        with pytest.raises(ValueError, match="row 2"):
            parse_catalog(text)

    def test_header_required(self):
        with pytest.raises(ValueError, match="header"):
            parse_catalog("t,x,y,m\n0.5,0.5,0.5,4.0\n")

    def test_mixed_time_formats_rejected(self):
        text = ("time,lon,lat,mag\n"
                "2011-03-13T00:00:00Z,0.5,0.5,5.0\n"
                "0.7,0.5,0.5,4.0\n")
        # decimal row in ISO mode: 0.7 is not a valid timestamp
        with pytest.raises(ValueError, match="row 2"):
            parse_catalog(text)

    @given(st.lists(st.tuples(
        st.floats(0.0, 9.99, allow_nan=False),
        st.floats(-10.0, 10.0, allow_nan=False),
        st.floats(-10.0, 10.0, allow_nan=False),
        st.floats(0.0, 9.0, allow_nan=False)), min_size=1, max_size=20,
        unique_by=lambda r: r[0]))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_property(self, rows):
        times = np.array([r[0] for r in rows])
        lons = np.array([r[1] for r in rows])
        lats = np.array([r[2] for r in rows])
        mags = np.array([r[3] for r in rows])
        c = Catalog(times, lons, lats, mags, 10.0, 0.0)
        back = parse_catalog(serialize_catalog(c))
        np.testing.assert_array_equal(back.times, c.times)
        np.testing.assert_array_equal(back.lons, c.lons)
        np.testing.assert_array_equal(back.lats, c.lats)
        np.testing.assert_array_equal(back.mags, c.mags)


class TestFilterCatalog:
    def test_time_window_half_open(self, small_catalog):
        out = filter_catalog(small_catalog, t0=0.5, t1=1.5)
        assert list(out.times) == [0.0, 0.25]
        assert out.window_days == 1.0

    def test_magnitude_floor(self, small_catalog):
        out = filter_catalog(small_catalog, m_min=4.5)
        assert out.n == 3
        assert out.m0 == 4.5

    def test_region_filter(self, small_catalog):
        region = Region.rectangle(0.0, 0.55, 0.0, 1.0)
        out = filter_catalog(small_catalog, region=region)
        assert out.n == 3


class TestBinGrid:
    def test_regular_ordering_lon_fastest_bands_innermost(self):
        g = BinGrid.regular(np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0]),
                            np.array([4.0, 5.0, 6.0]))
        # cell 0: first lon, first band; cell 1: first lon, second band
        np.testing.assert_array_equal(g.boxes[0], [0, 1, 0, 1, 4, 5])
        np.testing.assert_array_equal(g.boxes[1], [0, 1, 0, 1, 5, 6])
        np.testing.assert_array_equal(g.boxes[2], [1, 2, 0, 1, 4, 5])

    def test_overlap_rejected(self):
        boxes = np.array([
            [0.0, 1.0, 0.0, 1.0, 4.0, 5.0],
            [0.5, 1.5, 0.0, 1.0, 4.0, 5.0],
        ])
        with pytest.raises(ValueError, match="overlap"):
            BinGrid(boxes)

    def test_touching_boxes_allowed(self):
        boxes = np.array([
            [0.0, 1.0, 0.0, 1.0, 4.0, 5.0],
            [1.0, 2.0, 0.0, 1.0, 4.0, 5.0],
        ])
        g = BinGrid(boxes)
        assert g.n_cells == 2

    def test_inconsistent_banding_rejected(self):
        boxes = np.array([
            [0.0, 1.0, 0.0, 1.0, 4.0, 5.0],
            [1.0, 2.0, 0.0, 1.0, 4.5, 5.5],
        ])
        with pytest.raises(ValueError, match="band"):
            BinGrid(boxes)

    def test_mag_bands_sorted(self, two_by_two_grid):
        bands = two_by_two_grid.mag_bands
        np.testing.assert_array_equal(bands, [[4.0, 5.0], [5.0, 6.0]])

    def test_cell_area(self):
        g = BinGrid(np.array([[0.0, 1.0, 0.0, 1.0, 4.0, 5.0]]))
        expect = KM_PER_DEG ** 2 * math.cos(math.radians(0.5))
        assert g.cell_area_km2()[0] == pytest.approx(expect)


    @pytest.mark.parametrize("boxes, pair", [
        # 4000 disjoint fillers around an overlapping pair (lattice table)
        (np.concatenate([_FILLERS[:2000], [[0.0, 1.0, 0.0, 1.0, 4.0, 5.0]],
                         _FILLERS[2000:], [[0.5, 1.5, 0.0, 1.0, 4.0, 5.0]]]),
         (2000, 4001)),
        # a cover of the whole grid, after and before it (chunked table fill)
        (np.concatenate([_FILLERS[:100], [[10.0, 20.0, 0.0, 10.0, 4.0, 5.0]]]), (0, 100)),
        (np.concatenate([[[10.0, 20.0, 0.0, 10.0, 4.0, 5.0]], _FILLERS[:100]]), (0, 1)),
        # a staircase has no compact lattice (sweep)
        (np.concatenate([_STAIRS, [[7.5, 8.5, 7.5, 8.5, 4.0, 5.0]]]), (7, 30)),
    ])
    def test_overlap_rejected_at_every_size(self, boxes, pair):
        with pytest.raises(ValueError, match=f"grid cells {pair[0]} and {pair[1]} overlap"):
            BinGrid(boxes)

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(1, 3), st.integers(0, 5),
                              st.integers(1, 3), st.integers(0, 1)),
                    min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_overlap_names_lowest_clashing_pair(self, specs):
        boxes = np.array([[x, x + w, y, y + h, 4.0 + m, 5.0 + m]
                          for x, w, y, h, m in specs], dtype=float)
        lo, hi = boxes[:, 0::2], boxes[:, 1::2]
        clash = np.all((lo[:, None] < hi[None]) & (hi[:, None] > lo[None]), axis=2)
        clash &= np.tri(len(boxes), k=-1, dtype=bool)  # (j, i) with i < j
        if not clash.any():
            assert BinGrid(boxes).n_cells == len(boxes)
            return
        j = int(np.flatnonzero(clash.any(axis=1))[0])
        i = int(np.flatnonzero(clash[j])[0])
        with pytest.raises(ValueError, match=f"grid cells {i} and {j} overlap"):
            BinGrid(boxes)

    def test_regular_matches_literal_loop(self):
        lon = np.array([0.0, 0.5, 1.5, 2.0])
        lat = np.array([10.0, 11.0, 13.0])
        mag = np.array([4.0, 4.5, 5.0, 6.0])
        boxes = [(lon[ix], lon[ix + 1], lat[iy], lat[iy + 1], mag[im], mag[im + 1])
                 for iy in range(lat.size - 1) for ix in range(lon.size - 1)
                 for im in range(mag.size - 1)]
        np.testing.assert_array_equal(BinGrid.regular(lon, lat, mag).boxes, boxes)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_space_and_band_indices_match_first_appearance(self, data):
        g = data.draw(_grids())
        seen = {}
        for row in g.boxes[:, :4]:
            seen.setdefault(tuple(row), len(seen))
        np.testing.assert_array_equal(g.space_boxes, list(seen))
        np.testing.assert_array_equal(g.space_index(),
                                      [seen[tuple(r)] for r in g.boxes[:, :4]])
        bands = sorted({tuple(r) for r in g.boxes[:, 4:6]})
        np.testing.assert_array_equal(g.mag_bands, bands)
        np.testing.assert_array_equal(g.band_index(),
                                      [bands.index(tuple(r)) for r in g.boxes[:, 4:6]])


class TestLocate:
    """locate against the dense closed-box, lowest-index reference."""

    @staticmethod
    def _dense(b, lons, lats, mags=None):
        inside = ((b[:, 0:1] <= lons) & (lons <= b[:, 1:2])
                  & (b[:, 2:3] <= lats) & (lats <= b[:, 3:4]))
        if mags is not None:
            inside &= (b[:, 4:5] <= mags) & (mags <= b[:, 5:6])
        return np.where(inside.any(axis=0), inside.argmax(axis=0), -1)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_reference(self, data):
        g = data.draw(_grids())
        # faces, corners, the outer boundary, cell interiors and outside
        coords = []
        for a in range(3):
            e = np.unique(g.boxes[:, 2 * a:2 * a + 2])
            mids = 0.5 * (e[1:] + e[:-1])
            coords.append(np.concatenate([e, mids, [e[0] - 1.0, e[-1] + 1.0]]))
        n = data.draw(st.integers(1, 40))
        lons, lats, mags = (np.array(data.draw(st.lists(st.sampled_from(list(c)),
                                                        min_size=n, max_size=n)))
                            for c in coords)
        np.testing.assert_array_equal(g.locate(lons, lats, mags),
                                      self._dense(g.boxes, lons, lats, mags))
        np.testing.assert_array_equal(g.locate(lons, lats),
                                      self._dense(g.boxes, lons, lats))

    def test_both_lookup_paths_run(self):
        assert BinGrid(_FILLERS)._lattice is not None
        stairs = BinGrid(_STAIRS)
        assert stairs._lattice is None
        pts = np.array([0.0, 0.5, 1.0, 29.5, 30.0, 31.0])
        np.testing.assert_array_equal(stairs.locate(pts, pts, np.full(6, 5.0)),
                                      [0, 0, 0, 29, 29, -1])


class TestBinCounts:
    def test_basic_counts(self, small_catalog, two_by_two_grid):
        out = bin_counts(small_catalog, two_by_two_grid)
        assert out.counts.sum() + out.remainder == small_catalog.n
        assert out.remainder == 0

    def test_boundary_goes_to_lowest_index(self, two_by_two_grid):
        # event exactly on the shared lon edge 0.5 and band edge 5.0
        c = Catalog(np.array([0.1]), np.array([0.5]), np.array([0.25]),
                    np.array([5.0]), 1.0, 4.0)
        out = bin_counts(c, two_by_two_grid)
        hit = np.flatnonzero(out.counts)
        assert len(hit) == 1
        box = two_by_two_grid.boxes[hit[0]]
        candidates = [
            i for i, b in enumerate(two_by_two_grid.boxes)
            if b[0] <= 0.5 <= b[1] and b[2] <= 0.25 <= b[3] and b[4] <= 5.0 <= b[5]
        ]
        assert hit[0] == min(candidates)
        assert box[0] <= 0.5 <= box[1]

    def test_remainder_counts_strays(self, two_by_two_grid):
        c = Catalog(np.array([0.1, 0.2]), np.array([0.25, 5.0]),
                    np.array([0.25, 5.0]), np.array([4.5, 4.5]), 1.0, 4.0)
        out = bin_counts(c, two_by_two_grid)
        assert out.remainder == 1
        assert out.counts.sum() == 1

    @given(st.permutations(list(range(6))))
    @settings(max_examples=20, deadline=None)
    def test_counts_invariant_to_event_order(self, perm):
        grid = BinGrid.regular(np.array([0.0, 0.5, 1.0]),
                               np.array([0.0, 0.5, 1.0]),
                               np.array([4.0, 5.0, 6.0]))
        times = np.array([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        lons = np.array([0.1, 0.3, 0.6, 0.9, 0.2, 0.7])
        lats = np.array([0.2, 0.7, 0.4, 0.8, 0.5, 0.1])
        mags = np.array([4.2, 4.7, 5.1, 5.9, 4.4, 5.5])
        idx = np.array(perm)
        a = Catalog(times, lons, lats, mags, 1.0, 4.0)
        b = Catalog(times[idx], lons[idx], lats[idx], mags[idx], 1.0, 4.0)
        np.testing.assert_array_equal(bin_counts(a, grid).counts,
                                      bin_counts(b, grid).counts)


class TestRegionLattice:
    def test_lattice_area_converges(self, unit_region):
        lat = region_lattice(unit_region, 100)
        assert lat.cell_km2[lat.inside].sum() == pytest.approx(unit_region.area_km2, rel=1e-3)

    def test_inside_mask(self, unit_region):
        lat = region_lattice(unit_region, 10)
        assert lat.inside.all()  # bbox equals the region for a rectangle


# an L-shaped region whose bounding box is lon [-3, 1], lat [10, 12]
_ELL = Region([(-3, 10), (1, 10), (1, 11), (-1, 11), (-1, 12), (-3, 12)])


class TestBoxLatticeIndex:
    @pytest.mark.parametrize("n", [1, 7, 200])
    def test_lattice_points_index_themselves(self, n):
        lat = region_lattice(_ELL, n)
        np.testing.assert_array_equal(box_lattice_index(_ELL, lat.lons, lat.lats, n, n),
                                      np.arange(n * n))

    @pytest.mark.parametrize("region", [Region.rectangle(0.0, 1.0, 0.0, 1.0), _ELL],
                             ids=["unit square", "ell"])
    def test_closed_box_and_nearest_edge_cell(self, region):
        # a 4 x 3 lattice; points given as fractions of the box
        lon_min, lon_max, lat_min, lat_max = region.bbox
        fx = np.array([0.0, 1.0, 1.0, 0.0, 0.5, 1.0, 1.5, -0.5, 0.5, 0.5, 0.3, 0.99])
        fy = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.5, 1.5, -0.5, 0.4, 0.99])
        lons = lon_min + fx * (lon_max - lon_min)
        lats = lat_min + fy * (lat_max - lat_min)
        ix = np.array([0, 3, 3, 0, 2, 3, 3, 0, 2, 2, 1, 3])
        iy = np.array([0, 0, 2, 2, 2, 1, 1, 1, 2, 0, 1, 2])
        np.testing.assert_array_equal(box_lattice_index(region, lons, lats, 4, 3),
                                      iy * 4 + ix)

    def test_empty_input(self, unit_region):
        idx = box_lattice_index(unit_region, np.zeros(0), np.zeros(0), 5, 5)
        assert idx.shape == (0,) and idx.dtype.kind == "i"

    @settings(max_examples=200, deadline=None)
    @given(nx=st.integers(1, 30), ny=st.integers(1, 30),
           fx=st.lists(st.floats(-2.0, 3.0), min_size=1, max_size=20),
           fy=st.lists(st.floats(-2.0, 3.0), min_size=20, max_size=20))
    def test_truncation_agrees_after_the_clip(self, nx, ny, fx, fy):
        # flooring and truncating toward zero differ only below the box,
        # where the clip sends both to the first column or row
        lon_min, lon_max, lat_min, lat_max = _ELL.bbox
        lons = lon_min + np.asarray(fx) * (lon_max - lon_min)
        lats = lat_min + np.asarray(fy[:len(fx)]) * (lat_max - lat_min)
        ix = np.clip(((lons - lon_min) / (lon_max - lon_min) * nx).astype(int), 0, nx - 1)
        iy = np.clip(((lats - lat_min) / (lat_max - lat_min) * ny).astype(int), 0, ny - 1)
        np.testing.assert_array_equal(box_lattice_index(_ELL, lons, lats, nx, ny),
                                      iy * nx + ix)


def _ring_area(v):
    """The region's own cos(latitude)-weighted area: Green's theorem on its
    unclipped ring, d(lon) sin(mean lat) sinc(d(lat) / 2) per edge."""
    x, ph = v[:, 0], np.radians(v[:, 1])
    x1, ph1 = np.roll(x, -1), np.roll(ph, -1)
    s = np.sum((x1 - x) * np.sin(0.5 * (ph + ph1)) * np.sinc((ph1 - ph) / (2.0 * np.pi)))
    return KM_PER_DEG ** 2 * math.degrees(abs(s))


def _star_polygon(seed):
    """A random simple polygon: 3-12 vertices at random radii about a random
    centre, at angles 2 pi (k + u) / n, u in [0, 1/2), so that no two in turn
    are half a turn apart."""
    gen = np.random.default_rng(seed)
    n = int(gen.integers(3, 13))
    angles = (np.arange(n) + gen.uniform(0.0, 0.5, n)) * (2.0 * np.pi / n)
    r = gen.uniform(0.2, 1.0, n) * gen.uniform(0.05, 3.0)
    centre = gen.uniform([-170.0, -70.0], [170.0, 70.0])
    return Region(centre + np.column_stack([r * np.cos(angles), r * np.sin(angles)]))


def _cuts(gen, lo, hi, k):
    """lo, then k - 1 sorted random cuts between lo and hi, then hi."""
    return np.r_[lo, np.sort(gen.uniform(lo, hi, k - 1)), hi]


def _lattice_sum(lat, box):
    """The midpoint-lattice area of the region inside a box."""
    inside = lat.inside & (lat.lons >= box[0]) & (lat.lons <= box[1]) & \
        (lat.lats >= box[2]) & (lat.lats <= box[3])
    return float(lat.cell_km2[inside].sum())


def _lattice_error(region, box, lat):
    """A bound on the midpoint lattice's error for the region inside a box:
    only a lattice cell that the boundary of region or box crosses can be
    misclassified, a segment crosses at most |dx|/dlon + |dy|/dlat + 2 of
    them, and the cos(latitude) midpoint rule errs by at most dlat^2/24
    relative on the rest."""
    lon_min, lon_max, lat_min, lat_max = region.bbox
    dlon, dlat = (lon_max - lon_min) / lat.nx, (lat_max - lat_min) / lat.ny
    step = np.diff(np.vstack([region.vertices, region.vertices[:1]]), axis=0)
    crossed = np.sum(np.abs(step[:, 0]) / dlon + np.abs(step[:, 1]) / dlat + 2.0) \
        + 2.0 * (box[1] - box[0]) / dlon + 2.0 * (box[3] - box[2]) / dlat + 8.0
    midpoint = math.radians(dlat) ** 2 / 24.0 * lat.cell_km2.sum()
    return crossed * lat.cell_km2.max() + midpoint


class TestBoxAreas:
    def test_region_areas_in_the_ell(self):
        got = box_areas(_ELL, [_ELL.bbox, (-3, 1, 10, 11), (-3, -1, 11, 12)])
        np.testing.assert_allclose(got[0], got[1] + got[2], rtol=1e-14)
        np.testing.assert_allclose(got[0], _ring_area(_ELL.vertices), rtol=1e-14)
        # the lattice's edges fall on the ell's corners, so only the midpoint
        # rule in cos(latitude) separates the 2000 x 2000 sum from the area
        lat = region_lattice(_ELL, 2000)
        assert got[0] == pytest.approx(float(lat.cell_km2[lat.inside].sum()), rel=2e-11)

    def test_border_and_outside_boxes_are_empty(self):
        # the notch, boxes in it that share its sides, and boxes outside the
        # bounding box that share one of its sides or only a corner
        boxes = [(-1, 1, 11, 12), (-1, 0, 11, 11.5), (0, 1, 11.5, 12), (-0.5, 0.5, 11, 11.2),
                 (1, 2, 10, 11), (1, 3, 9, 10), (-5, -3, 9, 13), (-3, 1, 12, 14),
                 (-3, 1, 8, 10), (10, 11, 10, 12), (1, 2, 11, 12)]
        np.testing.assert_array_equal(box_areas(_ELL, boxes), np.zeros(len(boxes)))

    def test_border_boxes_where_the_clip_rounds(self):
        # a north edge through collinear vertices leaves a ring along the
        # box's south side whose d(lon) sum rounds to 6e-13 km^2 unless
        # read as 0; the crossing from (0.9, 0.2) back to the triangle's
        # west edge lands an ulp off lon 0.1 unless snapped to the side
        comb = Region([(0.1, 0.0), (0.7, 0.0), (0.7, 0.7), (0.3, 0.7), (0.2, 0.7), (0.1, 0.7)])
        assert box_areas(comb, [(0.1, 0.7, 0.7, 1.0)])[0] == 0.0
        triangle = Region([(0.1, -0.3), (0.9, 0.2), (0.1, 0.7)])
        assert box_areas(triangle, [(-0.9, 0.1, -1.3, 1.7)])[0] == 0.0
        # so the cell west of the triangle, which it only touches, sets no bound
        grid = BinGrid(np.array([[-0.9, 0.1, -1.3, 1.7, 4.0, 5.0],
                                 [0.1, 1.0, -1.3, 1.7, 4.0, 5.0]]))
        model = GridIntensity(GriddedForecast(grid, np.array([50.0, 1.0]), 1.0))
        assert model.bounds(triangle) == (model.density[1], model.density[1])

    def test_chunks_give_the_same_areas(self, monkeypatch):
        x, y = np.linspace(-3.0, 1.0, 9), np.linspace(10.0, 12.0, 6)
        tiles = [(x[i], x[i + 1], y[j], y[j + 1]) for i in range(8) for j in range(5)]
        whole = box_areas(_ELL, tiles)
        monkeypatch.setattr(catalog, "_CHUNK_ELEMENTS", (7 * len(_ELL.vertices)) << 4)
        np.testing.assert_allclose(box_areas(_ELL, tiles), whole, rtol=1e-14)

    def test_no_boxes(self):
        assert box_areas(_ELL, np.zeros((0, 4))).shape == (0,)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), ell=st.booleans())
    def test_tiles_cover_and_border(self, seed, ell):
        region = _ELL if ell else _star_polygon(seed)
        gen = np.random.default_rng(seed)
        lon_min, lon_max, lat_min, lat_max = region.bbox
        w, h = lon_max - lon_min, lat_max - lat_min
        own = _ring_area(region.vertices)
        # boxes that tile the bounding box sum to the region's own area
        x = _cuts(gen, lon_min, lon_max, int(gen.integers(1, 9)))
        y = _cuts(gen, lat_min, lat_max, int(gen.integers(1, 9)))
        tiles = [(x[i], x[i + 1], y[j], y[j + 1]) for i in range(len(x) - 1)
                 for j in range(len(y) - 1)]
        assert box_areas(region, tiles).sum() == pytest.approx(own, rel=1e-12)
        # a box over the region holds all of it; boxes beyond a side of the
        # bounding box, even sharing it, hold none of it
        pad = gen.uniform(0.0, 1.0, 4)
        cover = (lon_min - pad[0], lon_max + pad[1], lat_min - pad[2], lat_max + pad[3])
        outside = [(lon_max, lon_max + w, lat_min - h, lat_max + h),
                   (lon_min - pad[0] - w, lon_min - pad[0], lat_min, lat_max),
                   (lon_min, lon_max, lat_max, lat_max + pad[2] + 0.1),
                   (lon_min - w, lon_min, lat_min - h, lat_min)]
        got = box_areas(region, [cover] + outside)
        assert got[0] == pytest.approx(own, rel=1e-12)
        np.testing.assert_array_equal(got[1:], np.zeros(4))

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_boxes_match_the_lattice(self, seed):
        region = _star_polygon(seed)
        gen = np.random.default_rng(seed)
        lon_min, lon_max, lat_min, lat_max = region.bbox
        lat = region_lattice(region, 2000)
        lo = gen.uniform([lon_min, lat_min], [lon_max, lat_max], (5, 2))
        hi = lo + gen.uniform(0.05, 1.0, (5, 2)) * [lon_max - lon_min, lat_max - lat_min]
        boxes = np.column_stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]])
        for box, got in zip(boxes, box_areas(region, boxes)):
            assert abs(got - _lattice_sum(lat, box)) <= _lattice_error(region, box, lat)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), ell=st.booleans())
    def test_grid_that_misses_the_region_has_zero_bounds(self, seed, ell):
        # grid cells beyond the region's bounding box, the nearest sharing its
        # east side
        region = _ELL if ell else _star_polygon(seed)
        lon_min, lon_max, lat_min, lat_max = region.bbox
        edges = lon_max + np.r_[0.0, np.cumsum(np.random.default_rng(seed).uniform(0.1, 1.0, 3))]
        grid = BinGrid.regular(edges, np.linspace(lat_min - 1.0, lat_max + 1.0, 4),
                               np.array([4.0, 5.0]))
        model = GridIntensity(GriddedForecast(grid, np.arange(1.0, 10.0), 1.0))
        assert model.bounds(region) == (0.0, 0.0)
        assert model.compensator(region, 1.0) == 0.0


def _lattice_boxes(region, n):
    """The n x n boxes over the region's bounding box, in cell order iy * n + ix."""
    lon_min, lon_max, lat_min, lat_max = region.bbox
    xs, ys = np.linspace(lon_min, lon_max, n + 1), np.linspace(lat_min, lat_max, n + 1)
    iy, ix = np.divmod(np.arange(n * n), n)
    return np.column_stack([xs[ix], xs[ix + 1], ys[iy], ys[iy + 1]])


def _oracle_tolerance(boxes):
    """1e-12 of each box's area, and the rounding of the Green's terms that
    both the clip and the edge sum add, each up to the box's width times
    |sin(lat)| on its sides (nil near the equator)."""
    w, e, s, n = np.asarray(boxes, dtype=float).T
    scale = KM_PER_DEG ** 2 * math.degrees(1.0) * (e - w)
    south, north = np.sin(np.radians(s)), np.sin(np.radians(n))
    return scale * (1e-12 * (north - south) + 8 * np.finfo(float).eps * (abs(south) + abs(north)))


def _problem_region(kind, seed):
    gen = np.random.default_rng(seed)
    if kind == "ell":
        return _ELL
    if kind == "star":
        return _star_polygon(seed)
    # a rectangle whose edges lie on the lattice's outer box sides
    lon, lat = gen.uniform([-170.0, -70.0], [170.0, 70.0])
    w, h = gen.uniform(0.05, 3.0, 2)
    return Region.rectangle(lon, lon + w, lat, lat + h)


class TestLatticeAreas:
    """_lattice_areas, the walk behind the error diagram and the Voronoi
    masses, and box_areas, the edge sum behind the grid model and the
    quadrat test, against the clip that box_areas was (box_area_oracle)."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["ell", "star", "rectangle"]),
           n=st.integers(1, 60))
    # boxes 0.0051 deg wide at lon 94.39: the clip in absolute longitudes
    # erred by 1.4 tolerances there
    @example(seed=140, kind="star", n=14)
    def test_region_matches_the_clip(self, box_area_oracle, seed, kind, n):
        region = _problem_region(kind, seed)
        boxes = _lattice_boxes(region, n)
        want = box_area_oracle(region.vertices, boxes)
        ring, cell, area, _ = _lattice_areas([region.vertices], region, n)
        assert np.all(ring == 0) and np.all(np.diff(cell) > 0) and np.all(area > 0)
        got = np.zeros(n * n)
        got[cell] = area
        tol = _oracle_tolerance(boxes)
        assert np.all(np.abs(got - want) <= tol)
        assert np.all(np.abs(box_areas(region, boxes) - want) <= tol)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), star=st.booleans(), n=st.integers(1, 40),
           m=st.integers(1, 40))
    def test_voronoi_cells_match_the_clip(self, box_area_oracle, seed, star, n, m):
        # generators in and around the bounding box; a cell of one outside
        # the region may be empty
        region = _star_polygon(seed) if star else _ELL
        lon_min, lon_max, lat_min, lat_max = region.bbox
        pad = 0.1 * np.array([lon_max - lon_min, lat_max - lat_min])
        pts = np.random.default_rng(seed).uniform([lon_min, lat_min] - pad,
                                                  [lon_max, lat_max] + pad, (m, 2))
        polys = voronoi_tessellation(pts[:, 0], pts[:, 1], region).polys_lonlat()
        boxes = _lattice_boxes(region, n)
        ring, cell, area, _ = _lattice_areas(polys, region, n)
        assert np.all(np.diff(ring * n * n + cell) > 0) and np.all(area > 0)
        tol = _oracle_tolerance(boxes)
        for r, poly in enumerate(polys):
            got = np.zeros(n * n)
            got[cell[ring == r]] = area[ring == r]
            assert np.all(np.abs(got - box_area_oracle(poly, boxes)) <= tol)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), kind=st.sampled_from(["ell", "star", "rectangle"]))
    def test_random_boxes_match_the_clip(self, box_area_oracle, seed, kind):
        region = _problem_region(kind, seed)
        gen = np.random.default_rng(seed)
        lon_min, lon_max, lat_min, lat_max = region.bbox
        size = np.array([lon_max - lon_min, lat_max - lat_min])
        lo = gen.uniform([lon_min, lat_min] - size, [lon_max, lat_max], (20, 2))
        hi = lo + gen.uniform(0.01, 1.0, (20, 2)) * size
        boxes = np.column_stack([lo[:, 0], hi[:, 0], lo[:, 1], hi[:, 1]])
        got, want = box_areas(region, boxes), box_area_oracle(region.vertices, boxes)
        assert np.all(np.abs(got - want) <= _oracle_tolerance(boxes))

    def test_a_rectangle_on_box_sides_is_the_boxes(self, box_area_oracle):
        # the workloads' case: the region is its own bounding box, so every
        # box lies in it whole, and box_areas gives the clip's own bits
        region = Region.rectangle(10.0, 14.0, 40.0, 44.0)
        boxes = _lattice_boxes(region, 64)
        _, cell, area, _ = _lattice_areas([region.vertices], region, 64)
        np.testing.assert_array_equal(cell, np.arange(64 * 64))
        w, e, s, n = boxes.T
        whole = KM_PER_DEG ** 2 * math.degrees(1.0) * (e - w) \
            * (np.sin(np.radians(n)) - np.sin(np.radians(s)))
        np.testing.assert_allclose(area, whole, rtol=1e-12)
        np.testing.assert_array_equal(box_areas(region, boxes),
                                      box_area_oracle(region.vertices, boxes))

    def test_no_rings_and_empty_rings(self):
        assert all(a.size == 0 for a in _lattice_areas([], _ELL, 5)[:3])
        ring, cell, _, _ = _lattice_areas([np.empty((0, 2)), _ELL.vertices, np.empty((0, 2))],
                                       _ELL, 5)
        assert np.all(ring == 1) and cell.size > 0
