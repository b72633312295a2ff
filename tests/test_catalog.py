import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqassess import (BinGrid, Catalog, Region, bin_counts, empty_catalog,
                      filter_catalog, km_distance, parse_catalog, parse_region,
                      region_lattice, serialize_catalog, serialize_region)
from eqassess.catalog import KM_PER_DEG

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
        assert lat.area_km2 == pytest.approx(unit_region.area_km2, rel=1e-3)

    def test_inside_mask(self, unit_region):
        lat = region_lattice(unit_region, 10)
        assert lat.inside.all()  # bbox equals the region for a rectangle
