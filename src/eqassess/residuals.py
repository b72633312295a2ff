"""Residual analysis for fitted point-process models.

Point residuals (thinning, superposition, super-thinning, rescaled times)
transform the observed catalog so that, under the fitted model being
correct, the output is homogeneous Poisson (or unit-rate exponential for
rescaled inter-event times). Cell residuals compare observed and expected
counts per cell: raw/Pearson pixels and deviance on a gridded forecast's
cells, Voronoi on the model's integral over each event's cell.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import chdtrc

from .catalog import (_FIELD, BinGrid, Catalog, Region, _clip_rings, _distinct_rows,
                      _fill_rings, _format_distinct, _lattice_areas, _poly_areas, _stack_rings,
                      bin_counts, box_areas, box_lattice_index, csv_text, empty_catalog)
from .forecast import GriddedForecast, poisson_log_pmf
from .rng import RngStream
from .simulate import MAX_CASCADE, simulate_inhomogeneous

# --- shared evaluation helpers -------------------------------------------


class _Deficit:
    """max(0, level - model rate); the superposition target."""

    def __init__(self, model, level: float):
        self.model = model
        self.level = float(level)

    def rate_at(self, lons, lats, times=None):
        return np.maximum(0.0, self.level - self.model.rate_at(lons, lats, times))


# --- point residuals ------------------------------------------------------


@dataclass(frozen=True)
class ResidualPointSet:
    """Residual point pattern with provenance tags.

    tags hold "retained" for surviving observed events and "superposed" for
    simulated fill-in points; nominal_rate is the homogeneous rate the
    pattern should follow when the model is right.
    """

    times: np.ndarray
    lons: np.ndarray
    lats: np.ndarray
    tags: np.ndarray
    nominal_rate: float
    region: Region
    window_days: float
    note: str = ""

    @property
    def n(self) -> int:
        return self.times.size

    def retained_mask(self) -> np.ndarray:
        return self.tags == "retained"


def _pattern(c: Catalog, keep, sim: Catalog, rate: float, region: Region) -> ResidualPointSet:
    """The kept events of c, tagged retained, and sim's points, tagged
    superposed, sorted by (time, lon, lat, tag)."""
    t = np.concatenate([c.times[keep], sim.times])
    x = np.concatenate([c.lons[keep], sim.lons])
    y = np.concatenate([c.lats[keep], sim.lats])
    tags = np.concatenate([np.full(t.size - sim.n, "retained"), np.full(sim.n, "superposed")])
    idx = np.lexsort((tags, y, x, t))
    return ResidualPointSet(t[idx], x[idx], y[idx], tags[idx], rate, region, c.window_days)


def thin_residuals(c: Catalog, model, region: Region,
                   rng: RngStream) -> ResidualPointSet:
    """Keep each event with probability b / rate(event), b = the infimum
    from model.bounds.

    A correct model leaves a homogeneous Poisson pattern of rate b; the keep
    probability clamps at 1 for an event whose rate is below b (outside the
    region). b = 0 degenerates to an empty pattern, reported in note.
    """
    b, _ = model.bounds(region, c.window_days)
    if b <= 0:
        empty = np.array([])
        return ResidualPointSet(empty, empty, empty, empty.astype(str), 0.0,
                                region, c.window_days,
                                note="degenerate: rate infimum is 0")
    lam = model.rate_at(c.lons, c.lats, c.times)
    with np.errstate(divide="ignore"):
        probs = np.minimum(1.0, b / lam)
    gen = rng.generator()
    keep = gen.uniform(size=c.n) < probs
    return _pattern(c, keep, empty_catalog(c.window_days), b, region)


def superpose_residuals(c: Catalog, model, region: Region,
                        rng: RngStream) -> ResidualPointSet:
    """Fill the pattern up to the supremum C from model.bounds with
    simulated points at rate C - rate; observed plus simulated is
    Poisson(C) under a correct model, C * area * window points whatever
    the deficit's shape; more than MAX_CASCADE of them are refused."""
    _, sup = model.bounds(region, c.window_days)
    expected = sup * region.area_km2 * c.window_days
    if expected > MAX_CASCADE:
        raise ValueError(
            f"superposition needs the constant bound C = {sup!r} per km^2 per day, "
            f"which gives C*|A|*T = {expected:.6g} expected superposed points, "
            f"above the cap of {MAX_CASCADE}: the superposed pattern is Poisson(C) "
            "on region x window, so no bound that varies in space and time "
            "shrinks it; use super-thinning instead (residuals --kind superthin)")
    sim = simulate_inhomogeneous(_Deficit(model, sup), sup, region,
                                 c.window_days, rng)
    return _pattern(c, slice(None), sim, sup, region)


def super_thin(c: Catalog, model, k: float, region: Region,
               rng: RngStream) -> ResidualPointSet:
    """Thin where the rate exceeds k (keep probability k/rate) and superpose
    simulated points at rate max(0, k - rate) where it falls short; the
    result is Poisson(k) under a correct model."""
    if k <= 0:
        raise ValueError("super-thinning level k must be positive")
    lam = model.rate_at(c.lons, c.lats, c.times)
    gen = rng.substream(0).generator()
    with np.errstate(divide="ignore"):
        keep = gen.uniform(size=c.n) < np.minimum(1.0, k / lam)
    sim = simulate_inhomogeneous(_Deficit(model, k), k, region,
                                 c.window_days, rng.substream(1))
    return _pattern(c, keep, sim, k, region)


class RescaledTimes(NamedTuple):
    taus: np.ndarray
    total_mass: float


def rescale_times(c: Catalog, compensator) -> RescaledTimes:
    """Map each event time through the compensator Lambda(t), the expected
    count in [0, t]: a vectorized callable, such as
    lambda t: model.compensator(region, t), or a constant rate per day.
    Under a correct model the taus are a unit-rate Poisson process on
    [0, total_mass], total_mass = Lambda(window_days)."""
    if c.window_days == 0:
        raise ValueError("catalog window_days = 0 has no exposure to rescale by")
    ts = np.append(c.times, c.window_days)
    cum = np.asarray(compensator(ts) if callable(compensator) else float(compensator) * ts,
                     dtype=float)
    if cum.shape != ts.shape:
        raise ValueError("the compensator must return one value per time")
    if np.any(cum < 0) or not np.all(np.isfinite(cum)):
        raise ValueError("the compensator must be finite and non-negative")
    return RescaledTimes(cum[:-1], float(cum[-1]))


# --- cell residuals -------------------------------------------------------


@dataclass(frozen=True)
class CellResidualSet:
    """Per-cell residual values with geometry for rendering.

    flags mark cells where the residual is undefined (zero or non-finite
    integrated expectation); expected and counts ride along for reporting.
    """

    kind: str
    values: np.ndarray
    flags: np.ndarray
    cell_polys: list
    expected: np.ndarray
    counts: np.ndarray

    @property
    def n_cells(self) -> int:
        return self.values.size


def _box_rings(grid: BinGrid) -> list:
    """Each cell's box as the ring (lo, lo), (hi, lo), (hi, hi), (lo, hi) in
    (lon, lat), all cut from one array."""
    return list(grid.boxes[:, [0, 2, 1, 2, 1, 3, 0, 3]].reshape(-1, 4, 2))


def pixel_residuals(f: GriddedForecast, c: Catalog):
    """Raw (count - expectation) and Pearson (raw / sqrt expectation)
    residuals of the forecast's cells, the catalog binned on f.grid.
    Returns (raw, pearson) CellResidualSets; zero-expectation cells are
    flagged and their Pearson value is NaN."""
    counts = bin_counts(c, f.grid).counts
    expected = f.rates.copy()
    raw = counts - expected
    flags = expected <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        pearson = np.where(flags, np.nan, raw / np.sqrt(expected))
    polys = _box_rings(f.grid)
    return (
        CellResidualSet("raw", raw.astype(float), flags, polys, expected, counts),
        CellResidualSet("pearson", pearson, flags, polys, expected, counts),
    )


def deviance_residuals(fa: GriddedForecast, fb: GriddedForecast,
                       c: Catalog) -> CellResidualSet:
    """Per-cell log-likelihood difference (first minus second forecast).

    The factorial terms cancel cell-by-cell, so the values sum exactly to
    the joint log-likelihood difference; cells where either forecast gives
    a non-finite term are flagged.
    """
    if fa.grid != fb.grid:
        raise ValueError("deviance residuals need both forecasts on the same grid")
    counts = bin_counts(c, fa.grid).counts
    values = poisson_log_pmf(counts, fa.rates) - poisson_log_pmf(counts, fb.rates)
    flags = ~np.isfinite(values)
    polys = _box_rings(fa.grid)
    return CellResidualSet("deviance", values, flags, polys,
                           fa.rates - fb.rates, counts)


def cell_value_texts(rs: CellResidualSet) -> np.ndarray:
    """repr of each cell's value, one repr per distinct value: the value
    column that both cell writers share."""
    return _format_distinct(np.asarray(rs.values, dtype=float), repr)


def _cell_columns(rs: CellResidualSet, value_texts) -> dict:
    texts = cell_value_texts(rs) if value_texts is None else value_texts
    return {"cell_id": np.arange(rs.n_cells), "kind": [rs.kind] * rs.n_cells,
            "value": texts}


def cell_residuals_to_csv(rs: CellResidualSet, value_texts=None) -> str:
    """CSV of a cell map; value_texts, when given, is cell_value_texts(rs)."""
    return csv_text({**_cell_columns(rs, value_texts),
                     "flag": np.asarray(rs.flags, dtype=bool).astype(int)})


def geojson_features(xy, sizes, properties: dict, geometry: str = "Polygon") -> str:
    """GeoJSON FeatureCollection text with one feature per stacked ring
    (see _stack_rings), the i-th carrying the i-th entry of each property
    column. A Polygon's ring is closed by repeating its first vertex, an
    empty ring staying empty; a Point is a ring of one vertex.

    The text is json.dumps's with sorted keys and no whitespace: property
    floats by repr, non-finite ones as null; coordinates as json writes them
    (NaN, Infinity). Each distinct value is formatted once. A column of
    Python objects holds the JSON texts of its entries, written as they are.
    """
    names = sorted(properties)
    fmt = {"f": lambda v: repr(v) if math.isfinite(v) else "null", "i": str, "u": str}
    columns = [a if a.dtype.kind == "O" else _format_distinct(a, fmt.get(a.dtype.kind, json.dumps))
               for a in (np.asarray(properties[k]) for k in names)]
    props = ",".join(json.dumps(k) + ":" + _FIELD for k in names)
    vertex = f"[{_FIELD},{_FIELD}]"

    def feature(m):
        coords = vertex if geometry == "Point" else "[[" + ",".join([vertex] * (m + (m > 0))) + "]]"
        return (f'{{"geometry":{{"coordinates":{coords},"type":"{geometry}"}},'
                f'"properties":{{{props}}},"type":"Feature"}}')

    texts = _format_distinct(xy, lambda v: repr(v) if math.isfinite(v) else json.dumps(v))
    feats = _fill_rings(feature, texts, sizes, closed=geometry == "Polygon", columns=columns)
    return '{"features":[' + ",".join(feats) + '],"type":"FeatureCollection"}\n'


def cell_residuals_to_geojson(rs: CellResidualSet, value_texts=None) -> str:
    """GeoJSON of a cell map; value_texts, when given, is cell_value_texts(rs)."""
    columns = _cell_columns(rs, value_texts)
    # JSON has no nan or inf
    columns["value"] = np.where(np.isfinite(rs.values), columns["value"], "null")
    return geojson_features(*_stack_rings(rs.cell_polys),
                            {**columns, "flag": np.asarray(rs.flags, dtype=bool)})


def points_to_csv(ps: ResidualPointSet) -> str:
    return csv_text({"time": ps.times, "lon": ps.lons, "lat": ps.lats, "tag": ps.tags})


def points_to_geojson(ps: ResidualPointSet) -> str:
    return geojson_features(np.column_stack([ps.lons, ps.lats]), np.ones(ps.n, dtype=int),
                            {"time": ps.times, "tag": ps.tags}, geometry="Point")


# --- Voronoi --------------------------------------------------------------

@dataclass(frozen=True)
class VoronoiTessellation:
    gen_lons: np.ndarray
    gen_lats: np.ndarray
    polys_km: list
    areas_km2: np.ndarray
    region: Region
    cell_of: np.ndarray  # the cell of each generator given, in input order

    @property
    def n_cells(self) -> int:
        return self.gen_lons.size

    def polys_lonlat(self) -> list:
        xy, sizes = _stack_rings(self.polys_km)
        lonlat = np.column_stack(self.region.from_km(xy[:, 0], xy[:, 1]))
        return np.split(lonlat, np.cumsum(sizes)[:-1])

    @property
    def partition_defect(self) -> float:
        return abs(float(self.areas_km2.sum()) - self.region.area_km2) \
            / self.region.area_km2


def _tessellation_columns(tess: VoronoiTessellation) -> dict:
    return {"cell_id": np.arange(tess.n_cells), "gen_lon": tess.gen_lons,
            "gen_lat": tess.gen_lats, "area_km2": tess.areas_km2}


def tessellation_to_csv(tess: VoronoiTessellation) -> str:
    return csv_text(_tessellation_columns(tess), {"partition_defect": tess.partition_defect})


def tessellation_to_geojson(tess: VoronoiTessellation) -> str:
    return geojson_features(*_stack_rings(tess.polys_lonlat()), _tessellation_columns(tess))


def _bisectors(pts, i, j):
    """The bisector (normal, offset) of each pair of generators i, j, and
    whether i keeps its side n.p <= c. The line is computed from the pair
    (lo, hi), so both cells cut along the same floats."""
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    normal, mid = pts[hi] - pts[lo], 0.5 * (pts[lo] + pts[hi])
    return normal, normal[:, 0] * mid[:, 0] + normal[:, 1] * mid[:, 1], i == lo


def _d2(a, b):
    """Squared planar distance dx * dx + dy * dy from points b to points a."""
    dx, dy = a[..., 0] - b[..., 0], a[..., 1] - b[..., 1]
    return dx * dx + dy * dy


def _reach_sq(rings, counts, pts, cells):
    """Squared distance from each cell's generator to the farthest vertex of
    its ring; 0 for an empty ring."""
    xy = rings[cells, :counts[cells].max(initial=0)]
    valid = np.arange(xy.shape[1]) < counts[cells, None]
    return np.where(valid, _d2(xy, pts[cells, None]), 0.0).max(axis=1, initial=0.0)


def _cut_cells(rings, counts, pts, cell, other, stop: bool):
    """Cut ring rings[cell] by its bisector with other, in rounds: round r
    cuts every cell by its r-th pair in (d2, other) order. With stop, a
    cell's cuts end at its first pair with 0.25 * d2 beyond its ring's
    reach. Updates counts; returns the rings, widened as cuts need."""
    d2 = _d2(pts[other], pts[cell])
    order = np.lexsort((other, d2, cell))
    cell, other, d2 = cell[order], other[order], d2[order]
    rank = np.arange(cell.size) - np.searchsorted(cell, cell)
    alive = np.ones(counts.size, dtype=bool)
    for r in range(cell.size):
        idx = np.flatnonzero((rank == r) & alive[cell])
        if idx.size == 0:  # a cell with an r+1-th pair has an r-th
            break
        if stop:
            within = 0.25 * d2[idx] <= _reach_sq(rings, counts, pts, cell[idx])
            alive[cell[idx[~within]]] = False
            idx = idx[within]
        c = cell[idx]
        xy, counts[c] = _clip_rings(rings[c, :counts[c].max(initial=0)], counts[c],
                                    *_bisectors(pts, c, other[idx]))
        if xy.shape[1] > rings.shape[1]:
            rings = np.pad(rings, ((0, 0), (0, xy.shape[1] - rings.shape[1]), (0, 0)))
        rings[c, :xy.shape[1]] = xy
    return rings


def voronoi_tessellation(lons, lats, region: Region) -> VoronoiTessellation:
    """Region-clipped planar Voronoi diagram of the generators.

    Each cell is the region polygon cut by perpendicular bisector
    half-planes in the km projection. Only Delaunay neighbours share a
    Voronoi edge, so a cell is first cut by its neighbours in one Qhull
    Delaunay triangulation, nearest first. Qhull decides near-degenerate
    configurations within its own tolerance and sets near-duplicates aside,
    so every other generator whose bisector still cuts the cell is then
    applied, nearest first, until the rest are out of the cell's reach. A
    point Qhull set aside, and every point when Qhull cannot triangulate
    (fewer than 3 generators, nearly collinear ones that are not strips, or
    a simplex naming a point outside the input), has no neighbours and is
    cut by that second pass alone. Each pass cuts all cells at once, one
    neighbour rank a round.
    Three or more generators on one line (_strip_neighbours) are cut by
    their neighbours along it alone: the strips between those bisectors
    are the exact diagram, unless rounding could make two of them meet in
    the region (near-copies), which go the general way. The generators are
    the distinct km points of the rows, in first-appearance order: rows at
    one point share its cell, with the first one's lon and lat. A vertex
    equal to the one before it in its ring is dropped.
    """
    from scipy.spatial import Delaunay, QhullError, cKDTree  # here: `test` never pays its 0.15 s
    lonlat = np.column_stack([np.atleast_1d(np.asarray(v, dtype=float)) for v in (lons, lats)])
    if lonlat.shape[0] == 0:
        raise ValueError("tessellation needs at least one generator")
    pts, cell_of = _distinct_rows(np.column_stack(region.to_km(*lonlat.T)))
    lons, lats = lonlat[np.unique(cell_of, return_index=True)[1]].T
    n = pts.shape[0]
    rings, counts = np.tile(region.ring_km, (n, 1, 1)), np.full(n, region.ring_km.shape[0])
    strips = _strip_neighbours(pts, region.ring_km) if n >= 3 else None
    if strips is not None:
        rings = _cut_cells(rings, counts, pts, *strips, stop=False)
        return _tessellation(lons, lats, rings, counts, region, cell_of)
    try:
        tri = Delaunay(pts)
        if tri.simplices.max() >= n:
            # Qhull left its point at infinity in a simplex (seen on nearly
            # collinear near-duplicates); its neighbour lists are unusable
            raise QhullError("simplex outside the input points")
        indptr, neighbours = tri.vertex_neighbor_vertices
    except QhullError:
        indptr, neighbours = np.zeros(n + 1, dtype=int), np.zeros(0, dtype=int)
    cell = np.repeat(np.arange(n), np.diff(indptr))
    rings = _cut_cells(rings, counts, pts, cell, neighbours, stop=False)
    # the generators in reach, other than self and the Delaunay neighbours,
    # whose bisector leaves a vertex of the cell on their side (the tree's
    # radius is widened by 1e-9, so that its rounding loses none)
    reach2 = _reach_sq(rings, counts, pts, np.arange(n))
    near = cKDTree(pts).query_ball_point(pts, 2.0 * np.sqrt(reach2) * (1.0 + 1e-9))
    i = np.repeat(np.arange(n), np.fromiter(map(len, near), np.intp, n))
    j = np.fromiter(itertools.chain.from_iterable(near), np.intp, i.size)
    del near  # a Python int per pair
    keep = (j != i) & (_d2(pts[j], pts[i]) <= 4.0 * reach2[i]) \
        & ~np.isin(i * n + j, cell * n + neighbours)
    i, j = i[keep], j[keep]
    normal, offset, keep_le = _bisectors(pts, i, j)
    cuts = np.zeros(i.size, dtype=bool)
    for s in range(rings.shape[1]):  # vertex by vertex: no (pairs x vertices) array
        side = rings[i, s, 0] * normal[:, 0] + rings[i, s, 1] * normal[:, 1] - offset
        cuts |= (s < counts[i]) & (np.where(keep_le, side, -side) > 0)
    rings = _cut_cells(rings, counts, pts, i[cuts], j[cuts], stop=True)
    return _tessellation(lons, lats, rings, counts, region, cell_of)


def _strip_neighbours(pts, ring):
    """(cell, other) for each generator and its neighbours in order along
    the line through the two generators farthest apart on the longer
    coordinate axis, when all generators lie on that line so nearly that no
    two consecutive bisectors meet inside the region; None otherwise.

    With offsets |e| <= delta from the line, consecutive spacings along it
    of at least s, and the region within R of the line, consecutive
    bisectors stay at least s - 4 delta (delta + R) / s apart across the
    region. Where that is positive (here with a factor 2 to spare for
    rounding), each cell is the strip between its two bisectors, and no
    other generator cuts it. delta counts, besides the offsets, the
    rounding of each bisector's normal, a difference of two points: for
    generators 1e-9 degree apart it tilts the bisectors enough to meet."""
    axis = int(np.argmax(np.ptp(pts, axis=0)))
    a, b = int(np.argmin(pts[:, axis])), int(np.argmax(pts[:, axis]))
    u = pts[b] - pts[a]
    length = math.hypot(u[0], u[1])
    if length == 0.0:
        return None
    rel, reach = (pts - pts[a]) / length, (ring - pts[a]) / length
    along = rel[:, 0] * u[0] + rel[:, 1] * u[1]
    # a bisector's normal is a difference of points, which rounding may
    # move by an ulp of the largest coordinate: count that as an offset
    delta = np.abs(rel[:, 0] * u[1] - rel[:, 1] * u[0]).max() \
        + 4.0 * np.finfo(float).eps * np.abs(pts).max() / length
    r = np.abs(reach[:, 0] * u[1] - reach[:, 1] * u[0]).max()
    order = np.argsort(along, kind="stable")
    if np.diff(along[order]).min() ** 2 <= 8.0 * delta * (delta + r):
        return None
    return np.concatenate([order[:-1], order[1:]]), np.concatenate([order[1:], order[:-1]])


def _tessellation(lons, lats, rings, counts, region: Region, cell_of) -> VoronoiTessellation:
    """The tessellation of the cut rings, each without the vertices equal to
    the one before it (a cut through a vertex can emit that vertex twice),
    the last one kept compared with the first."""
    slot = np.arange(rings.shape[1])
    keep = slot < counts[:, None]
    keep[:, 1:] &= np.any(rings[:, 1:] != rings[:, :-1], axis=2)
    last = np.where(keep, slot, 0).max(axis=1, initial=0)
    wraps = (last > 0) & np.all(rings[np.arange(counts.size), last] == rings[:, 0], axis=1)
    keep[wraps, last[wraps]] = False
    xy, counts = rings[keep], keep.sum(axis=1)
    return VoronoiTessellation(lons, lats, np.split(xy, np.cumsum(counts)[:-1]),
                               _poly_areas(xy, counts), region, cell_of)


def voronoi_residuals(model, c: Catalog, region: Region,
                      n_grid: int = 200) -> CellResidualSet:
    """Voronoi cell residuals (k_i - Lambda_i) / sqrt(Lambda_i).

    Cell i is generated by the epicenter of its k_i events (the
    tessellation's cell_of; k_i = 1 unless events repeat an epicenter).
    Lambda_i is the sum over the boxes b of the n_grid x n_grid lattice
    over the region's bounding box of the model's window integral
    (model.integrate) at b's centre times the exact area of cell i in b
    (catalog._lattice_areas). Zero-mass cells are flagged.
    """
    if c.window_days == 0:
        raise ValueError("catalog window_days = 0 has no exposure to integrate the model over")
    tess = voronoi_tessellation(c.lons, c.lats, region)
    polys = tess.polys_lonlat()
    ring, cell, area, (lons, lats) = _lattice_areas(polys, region, n_grid)
    # the model is evaluated only in the boxes that meet a cell
    used = np.bincount(cell, minlength=lons.size) > 0
    rate = np.zeros(lons.size)
    rate[used] = model.integrate(lons[used], lats[used], c.window_days)
    lam = np.bincount(ring, rate[cell] * area, minlength=tess.n_cells)
    counts = np.bincount(tess.cell_of)
    flags = lam <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(flags, np.nan, (counts - lam) / np.sqrt(lam))
    return CellResidualSet("voronoi", values, flags, polys, lam, counts)


# --- homogeneity tests ----------------------------------------------------


@dataclass(frozen=True)
class HomogeneityResult:
    statistic: float
    p_value: float
    df: int | None = None
    note: str = ""


def _quadrat_layout(region: Region, n_points: int):
    """Quadrat grid size m, mask of positive-area quadrats, expected counts
    in proportion to each quadrat's exact area in the region (box_areas).

    m starts at floor(sqrt(n/5)) (bounded to [2, 25]) and shrinks until
    every positive-area quadrat expects at least 5 points.
    """
    lon_min, lon_max, lat_min, lat_max = region.bbox
    m = max(2, min(25, int(math.sqrt(n_points / 5.0))))
    while True:
        iy, ix = np.divmod(np.arange(m * m), m)  # box_lattice_index's quadrat iy * m + ix
        x, y = np.linspace(lon_min, lon_max, m + 1), np.linspace(lat_min, lat_max, m + 1)
        areas = box_areas(region, np.column_stack([x[ix], x[ix + 1], y[iy], y[iy + 1]]))
        pos = areas > 0
        expected = n_points * areas[pos] / areas[pos].sum()
        if m == 2 or expected.min() >= 5.0:
            return m, pos, expected
        m -= 1


def homogeneity_test(ps, region: Region) -> HomogeneityResult:
    """Quadrat chi-square test of a point pattern for spatial homogeneity,
    over an adaptive m x m grid (_quadrat_layout: expected counts in
    proportion to each quadrat's exact area in the region, at least 5 per
    quadrat). Points outside every positive-area quadrat add their count
    to the statistic."""
    lons = np.asarray(ps.lons, dtype=float)
    lats = np.asarray(ps.lats, dtype=float)
    n = lons.size
    if n < 10:
        return HomogeneityResult(math.nan, math.nan, note="fewer than 10 points")
    m, pos, expected = _quadrat_layout(region, n)
    obs = np.bincount(box_lattice_index(region, lons, lats, m, m),
                      minlength=m * m).astype(float)
    stray = float(obs[~pos].sum())
    chi2 = float(np.sum((obs[pos] - expected) ** 2 / expected)) + stray
    df = int(pos.sum()) - 1
    # chdtrc(0, x) is 0, where the chi-square law with no degree of freedom is undefined
    p = float(chdtrc(df, chi2)) if df > 0 else math.nan
    return HomogeneityResult(chi2, p, df=df)


def point_report(ps: ResidualPointSet, region: Region) -> str:
    """report.txt of a residual point pattern: its rate and counts, then
    the quadrat homogeneity test of the pattern."""
    lines = [f"nominal_rate = {ps.nominal_rate!r}",
             f"n_points = {ps.n}",
             f"n_retained = {int(np.sum(ps.tags == 'retained'))}",
             f"n_superposed = {int(np.sum(ps.tags == 'superposed'))}"]
    if ps.note:
        lines.append(f"note = {ps.note}")
    hom = homogeneity_test(ps, region)
    lines.append(f"quadrat_statistic = {hom.statistic!r}")
    lines.append(f"quadrat_p = {hom.p_value!r}")
    if hom.df is not None:
        lines.append(f"quadrat_df = {hom.df}")
    if hom.note:
        lines.append(f"quadrat_note = {hom.note}")
    return "\n".join(lines) + "\n"
