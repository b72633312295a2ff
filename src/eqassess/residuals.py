"""Residual analysis for fitted point-process models.

Point residuals (thinning, superposition, super-thinning, rescaled times)
transform the observed catalog so that, under the fitted model being
correct, the output is homogeneous Poisson (or unit-rate exponential for
rescaled inter-event times). Cell residuals (raw/Pearson pixels, deviance,
Voronoi) compare observed and integrated-expected counts per region cell.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import chdtrc
from scipy.spatial import Delaunay, QhullError, cKDTree

from .catalog import BinGrid, Catalog, Region, bin_counts, csv_text, region_lattice
from .forecast import GriddedForecast, forecast_from_intensity, poisson_log_pmf
from .rng import RngStream
from .simulate import MAX_CASCADE, simulate_homogeneous, simulate_inhomogeneous
from .summaries import _weighted_k_values

# --- shared evaluation helpers -------------------------------------------


def lattice_extrema(model, region: Region, t_max: float | None = None):
    """(inf, sup) of the model rate over region x [0, t_max], as given by
    model.bounds: a 200 x 200 lattice scan for time-independent models, a
    certified bound for Hawkes models."""
    return model.bounds(region, t_max)


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


def _order(times, lons, lats, tags):
    idx = np.lexsort((tags, lats, lons, times))
    return times[idx], lons[idx], lats[idx], tags[idx]


def thin_residuals(c: Catalog, model, region: Region,
                   rng: RngStream) -> ResidualPointSet:
    """Keep each event with probability b / rate(event), b = the infimum
    from model.bounds.

    A correct model leaves a homogeneous Poisson pattern of rate b. If the
    event's rate falls below b (off-lattice minimum), the keep probability
    clamps at 1. b = 0 degenerates to an empty pattern, reported in note.
    """
    b, _ = model.bounds(region, c.window_days)
    if b <= 0:
        empty = np.array([])
        return ResidualPointSet(empty, empty, empty, empty.astype(str), 0.0,
                                region, c.window_days,
                                note="degenerate: lattice infimum is 0")
    lam = model.rate_at(c.lons, c.lats, c.times)
    with np.errstate(divide="ignore"):
        probs = np.minimum(1.0, b / lam)
    gen = rng.generator()
    keep = gen.uniform(size=c.n) < probs
    tags = np.full(int(keep.sum()), "retained")
    t, x, y, g = _order(c.times[keep], c.lons[keep], c.lats[keep], tags)
    return ResidualPointSet(t, x, y, g, b, region, c.window_days)


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
    times = np.concatenate([c.times, sim.times])
    lons = np.concatenate([c.lons, sim.lons])
    lats = np.concatenate([c.lats, sim.lats])
    tags = np.concatenate([np.full(c.n, "retained"), np.full(sim.n, "superposed")])
    t, x, y, g = _order(times, lons, lats, tags)
    return ResidualPointSet(t, x, y, g, sup, region, c.window_days)


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
    times = np.concatenate([c.times[keep], sim.times])
    lons = np.concatenate([c.lons[keep], sim.lons])
    lats = np.concatenate([c.lats[keep], sim.lats])
    tags = np.concatenate([np.full(int(keep.sum()), "retained"),
                           np.full(sim.n, "superposed")])
    t, x, y, g = _order(times, lons, lats, tags)
    return ResidualPointSet(t, x, y, g, k, region, c.window_days)


class RescaledTimes(NamedTuple):
    taus: np.ndarray
    total_mass: float


def rescale_times(c: Catalog, rate_fn, n_grid: int = 20001) -> RescaledTimes:
    """Map each event time through the cumulative temporal rate.

    rate_fn is a vectorized rate-per-day callable (or a constant); under a
    correct model the transformed times are a unit-rate Poisson process on
    [0, total_mass]. Integration is trapezoidal on an n_grid time lattice.
    """
    if not callable(rate_fn):
        level = float(rate_fn)
        rate_fn = lambda t: np.full(np.shape(t), level)
    ts = np.linspace(0.0, c.window_days, n_grid)
    vals = np.asarray(rate_fn(ts), dtype=float)
    if vals.shape != ts.shape:
        raise ValueError("rate_fn must return one rate per time")
    if np.any(vals < 0) or not np.all(np.isfinite(vals)):
        raise ValueError("temporal rate must be finite and non-negative")
    dt = ts[1] - ts[0]
    cum = np.concatenate([[0.0], np.cumsum(0.5 * (vals[1:] + vals[:-1]) * dt)])
    taus = np.interp(c.times, ts, cum)
    return RescaledTimes(taus, float(cum[-1]))


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


def _box_ring(box) -> np.ndarray:
    lo_x, hi_x, lo_y, hi_y = box[:4]
    return np.array([[lo_x, lo_y], [hi_x, lo_y], [hi_x, hi_y], [lo_x, hi_y]])


def pixel_residuals(model_or_forecast, c: Catalog, grid: BinGrid,
                    region: Region | None = None, n_sub: int = 8):
    """Raw (count - expectation) and Pearson (raw / sqrt expectation) cell
    residuals. Returns (raw, pearson) CellResidualSets; zero-expectation
    cells are flagged and their Pearson value is NaN."""
    counts = bin_counts(c, grid).counts
    if isinstance(model_or_forecast, GriddedForecast):
        f = model_or_forecast
        if f.grid != grid:
            raise ValueError("forecast grid does not match the requested grid")
        expected = f.rates.copy()
    else:
        if grid.mag_bands.shape[0] != 1:
            raise ValueError("model-based cell expectations need a single-band grid")
        expected = forecast_from_intensity(model_or_forecast, grid, c.window_days,
                                           region, n_sub).rates
    raw = counts - expected
    flags = expected <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        pearson = np.where(flags, np.nan, raw / np.sqrt(expected))
    polys = [_box_ring(b) for b in grid.boxes]
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
    polys = [_box_ring(b) for b in fa.grid.boxes]
    return CellResidualSet("deviance", values, flags, polys,
                           fa.rates - fb.rates, counts)


def _cell_columns(rs: CellResidualSet) -> dict:
    return {"cell_id": np.arange(rs.n_cells), "kind": [rs.kind] * rs.n_cells,
            "value": np.asarray(rs.values, dtype=float)}


def cell_residuals_to_csv(rs: CellResidualSet) -> str:
    return csv_text({**_cell_columns(rs), "flag": np.asarray(rs.flags, dtype=bool).astype(int)})


def geojson_polygon(ring) -> dict:
    """GeoJSON Polygon geometry of an (m, 2) vertex array, its ring closed
    by repeating the first vertex; an empty array gives an empty ring."""
    coords = np.asarray(ring, dtype=float).tolist()
    if coords:
        coords.append(coords[0])
    return {"type": "Polygon", "coordinates": [coords]}


def geojson_features(geometries, properties: dict) -> str:
    """GeoJSON FeatureCollection text with one feature per geometry, the
    i-th carrying the i-th entry of each property column.

    Floats are written by repr and non-finite ones as null; booleans as
    true/false; keys are sorted and no whitespace is added.
    """
    columns = []
    for col in properties.values():
        a = np.asarray(col)
        values = a.tolist()
        if a.dtype.kind == "f":
            for i in np.flatnonzero(~np.isfinite(a)).tolist():
                values[i] = None
        columns.append(values)
    feats = [{"type": "Feature", "geometry": g, "properties": dict(zip(properties, row))}
             for g, row in zip(geometries, zip(*columns))]
    doc = {"type": "FeatureCollection", "features": feats}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def cell_residuals_to_geojson(rs: CellResidualSet) -> str:
    return geojson_features(map(geojson_polygon, rs.cell_polys),
                            {**_cell_columns(rs), "flag": np.asarray(rs.flags, dtype=bool)})


def points_to_csv(ps: ResidualPointSet) -> str:
    return csv_text({"time": ps.times, "lon": ps.lons, "lat": ps.lats, "tag": ps.tags})


def points_to_geojson(ps: ResidualPointSet) -> str:
    points = [{"type": "Point", "coordinates": xy}
              for xy in np.column_stack([ps.lons, ps.lats]).tolist()]
    return geojson_features(points, {"time": ps.times, "tag": ps.tags})


# --- Voronoi --------------------------------------------------------------

COINCIDENT_NUDGE_DEG = 1e-9  # step between exactly coincident generators
MAX_COINCIDENT = 1000


def _clip_halfplane(poly: np.ndarray, normal: np.ndarray, offset: float,
                    keep_le: bool) -> np.ndarray:
    """Sutherland-Hodgman clip of a polygon against n.x <= c (or >= c).
    The vertex walk runs on Python floats, which round each operation as
    numpy does."""
    if poly.shape[0] == 0:
        return poly
    d = poly @ normal - offset
    inside = d <= 0 if keep_le else d >= 0
    if inside.all():
        return poly
    d, inside, verts = d.tolist(), inside.tolist(), poly.tolist()
    out = []
    for i in range(len(verts)):
        j = i + 1 if i + 1 < len(verts) else 0
        if inside[i]:
            out.append(verts[i])
        if inside[i] != inside[j]:
            t = d[i] / (d[i] - d[j])
            (xi, yi), (xj, yj) = verts[i], verts[j]
            out.append([xi + t * (xj - xi), yi + t * (yj - yi)])
    return np.array(out) if out else np.empty((0, 2))


def _poly_areas(polys: list) -> np.ndarray:
    """Shoelace areas of all polygons in one pass over their stacked
    vertices; a polygon with fewer than 3 vertices has area 0."""
    areas = np.zeros(len(polys))
    full = [i for i, p in enumerate(polys) if p.shape[0] >= 3]
    if full:
        sizes = np.array([polys[i].shape[0] for i in full])
        starts = np.cumsum(sizes) - sizes
        xy = np.concatenate([polys[i] for i in full])
        nxt = np.arange(1, xy.shape[0] + 1)
        nxt[starts + sizes - 1] = starts
        x, y = xy[:, 0], xy[:, 1]
        areas[full] = np.abs(np.add.reduceat(x * y[nxt] - x[nxt] * y, starts)) / 2.0
    return areas


@dataclass(frozen=True)
class VoronoiTessellation:
    gen_lons: np.ndarray
    gen_lats: np.ndarray
    polys_km: list
    areas_km2: np.ndarray
    region: Region

    @property
    def n_cells(self) -> int:
        return self.gen_lons.size

    def polys_lonlat(self) -> list:
        out = []
        for poly in self.polys_km:
            if poly.shape[0] == 0:
                out.append(poly)
                continue
            lons, lats = self.region.from_km(poly[:, 0], poly[:, 1])
            out.append(np.column_stack([lons, lats]))
        return out

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
    return geojson_features(map(geojson_polygon, tess.polys_lonlat()),
                            _tessellation_columns(tess))


def _clip_bisector(poly: np.ndarray, pts: np.ndarray, i: int, j: int) -> np.ndarray:
    """The part of poly on generator i's side of its bisector with j. The
    line is computed from the pair (lo, hi), so both cells cut along the
    same floats."""
    lo, hi = (i, j) if i < j else (j, i)
    normal = pts[hi] - pts[lo]
    offset = float(normal @ (0.5 * (pts[lo] + pts[hi])))
    return _clip_halfplane(poly, normal, offset, keep_le=(i == lo))


def _reach2(poly: np.ndarray, p: np.ndarray) -> float:
    """Squared distance from p to the farthest vertex of poly; 0 if empty."""
    dx, dy = poly[:, 0] - p[0], poly[:, 1] - p[1]
    return float((dx * dx + dy * dy).max(initial=0.0))


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
    (fewer than 3 or all collinear generators, or a simplex naming a point
    outside the input), has no neighbours and is cut by that second pass
    alone. Exactly coincident generators are separated
    by deterministic 1e-9-degree nudges.
    """
    lons = np.atleast_1d(np.asarray(lons, dtype=float)).copy()
    lats = np.atleast_1d(np.asarray(lats, dtype=float)).copy()
    if lons.size == 0:
        raise ValueError("tessellation needs at least one generator")
    seen: dict = {}
    for i in range(lons.size):
        key = (lons[i], lats[i])
        k = seen.get(key, 0)
        if k:
            if k >= MAX_COINCIDENT:
                raise ValueError(f"more than {MAX_COINCIDENT} coincident generators")
            lons[i] += COINCIDENT_NUDGE_DEG * k
            lats[i] += COINCIDENT_NUDGE_DEG * k
        seen[key] = k + 1

    pts = np.column_stack(region.to_km(lons, lats))
    n = pts.shape[0]
    try:
        tri = Delaunay(pts)
        if tri.simplices.max() >= n:
            # Qhull left its point at infinity in a simplex (seen on nearly
            # collinear near-duplicates); its neighbour lists are unusable
            raise QhullError("simplex outside the input points")
        indptr, neighbours = tri.vertex_neighbor_vertices
    except QhullError:
        indptr, neighbours = np.zeros(n + 1, dtype=int), np.zeros(0, dtype=int)
    polys = []
    for i in range(n):
        dx, dy = pts[:, 0] - pts[i, 0], pts[:, 1] - pts[i, 1]
        d2 = dx * dx + dy * dy
        first = np.sort(neighbours[indptr[i]:indptr[i + 1]])
        poly = region.ring_km
        for j in first[np.argsort(d2[first], kind="stable")]:
            poly = _clip_bisector(poly, pts, i, j)
        d2[first] = np.inf
        d2[i] = np.inf
        # the generators in reach whose bisector leaves a cell vertex on
        # their side
        near = np.flatnonzero(d2 <= 4.0 * _reach2(poly, pts[i]))
        lo, hi = pts[np.minimum(near, i)], pts[np.maximum(near, i)]
        normal = hi - lo
        side = poly @ normal.T - np.sum(normal * (0.5 * (lo + hi)), axis=1)
        cuts = near[(np.where(near > i, side, -side) > 0).any(axis=0)]
        for j in cuts[np.argsort(d2[cuts], kind="stable")]:
            if 0.25 * d2[j] > _reach2(poly, pts[i]):
                break  # the remaining bisectors are out of reach
            poly = _clip_bisector(poly, pts, i, j)
        polys.append(poly)
    return VoronoiTessellation(lons, lats, polys, _poly_areas(polys), region)


def voronoi_residuals(model, c: Catalog, region: Region,
                      n_grid: int = 200) -> CellResidualSet:
    """Voronoi cell residuals (1 - Lambda_i) / sqrt(Lambda_i).

    Cells are generated by the catalog epicenters themselves, so each holds
    exactly one event; Lambda_i integrates the model's window integral
    (model.integrate) over the cell by lattice quadrature, owned lattice
    points decided by nearest generator. Zero-mass cells are flagged.
    """
    if c.n == 0:
        raise ValueError("voronoi residuals need at least one event")
    tess = voronoi_tessellation(c.lons, c.lats, region)
    lat = region_lattice(region, n_grid)
    lons = lat.lons[lat.inside]
    lats = lat.lats[lat.inside]
    da = lat.cell_km2[lat.inside]
    gx, gy = region.to_km(tess.gen_lons, tess.gen_lats)
    qx, qy = region.to_km(lons, lats)
    tree = cKDTree(np.column_stack([gx, gy]))
    _, owner = tree.query(np.column_stack([qx, qy]))
    lam = np.zeros(tess.n_cells)
    np.add.at(lam, owner, model.integrate(lons, lats, c.window_days) * da)
    flags = lam <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(flags, np.nan, (1.0 - lam) / np.sqrt(lam))
    return CellResidualSet("voronoi", values, flags, tess.polys_lonlat(),
                           lam, np.ones(tess.n_cells, dtype=int))


# --- homogeneity tests ----------------------------------------------------


@dataclass(frozen=True)
class HomogeneityResult:
    method: str
    statistic: float
    p_value: float
    df: int | None = None
    note: str = ""


def _quadrat_index(region: Region, lons, lats, m: int) -> np.ndarray:
    """Index iy * m + ix of the m x m bounding-box quadrat holding each point."""
    lon_min, lon_max, lat_min, lat_max = region.bbox
    ix = np.clip(((lons - lon_min) / (lon_max - lon_min) * m).astype(int), 0, m - 1)
    iy = np.clip(((lats - lat_min) / (lat_max - lat_min) * m).astype(int), 0, m - 1)
    return iy * m + ix


def _quadrat_layout(region: Region, n_points: int, n_lattice: int = 200):
    """Quadrat grid size m, mask of positive-area quadrats, expected counts.

    m starts at floor(sqrt(n/5)) (bounded to [2, 25]) and shrinks until
    every positive-area quadrat expects at least 5 points.
    """
    lat = region_lattice(region, n_lattice)
    m = max(2, min(25, int(math.sqrt(n_points / 5.0))))
    while True:
        qidx = _quadrat_index(region, lat.lons, lat.lats, m)
        areas = np.zeros(m * m)
        np.add.at(areas, qidx[lat.inside], lat.cell_km2[lat.inside])
        pos = areas > 0
        expected = n_points * areas[pos] / areas[pos].sum()
        if m == 2 or expected.min() >= 5.0:
            return m, pos, expected
        m -= 1


def homogeneity_test(ps, region: Region, method: str = "quadrat",
                     rng: RngStream | None = None, n_sim: int = 199,
                     nominal_rate: float | None = None) -> HomogeneityResult:
    """Test a point pattern for spatial homogeneity.

    "quadrat": chi-square over an adaptive m x m grid (expected counts
    proportional to region-clipped quadrat area, at least 5 per quadrat).
    "kfunction": centered K-function at 5 lags against envelopes from
    n_sim homogeneous simulations at nominal_rate (defaults to the
    pattern's empirical rate); p by rank of the max deviation. Pairs come
    from a k-d tree search, in O(pairs within the largest lag) memory.
    """
    lons = np.asarray(ps.lons, dtype=float)
    lats = np.asarray(ps.lats, dtype=float)
    n = lons.size
    if method == "quadrat":
        if n < 10:
            return HomogeneityResult("quadrat", math.nan, math.nan,
                                     note="fewer than 10 points")
        m, pos, expected = _quadrat_layout(region, n)
        obs = np.bincount(_quadrat_index(region, lons, lats, m),
                          minlength=m * m).astype(float)
        stray = float(obs[~pos].sum())
        chi2 = float(np.sum((obs[pos] - expected) ** 2 / expected)) + stray
        df = int(pos.sum()) - 1
        # chdtrc(0, x) is 0, where the chi-square law with no degree of freedom is undefined
        p = float(chdtrc(df, chi2)) if df > 0 else math.nan
        return HomogeneityResult("quadrat", chi2, p, df=df)

    if method == "kfunction":
        if rng is None:
            raise ValueError("kfunction homogeneity test needs an RngStream")
        if n < 2:
            return HomogeneityResult("kfunction", math.nan, math.nan,
                                     note="fewer than 2 points")
        T = float(getattr(ps, "window_days", 1.0))
        area = region.area_km2
        if nominal_rate is None:
            nominal_rate = n / (area * T)
        lags = math.sqrt(area) * np.array([0.02, 0.04, 0.06, 0.08, 0.10])

        def k_hat(xlon, xlat):
            x, y = region.to_km(xlon, xlat)
            n_ordered = max(xlon.size * (xlon.size - 1), 1)  # K = 0 below 2 points
            return area * _weighted_k_values(x, y, None, lags) / n_ordered

        k_obs = k_hat(lons, lats)
        k_sims = np.empty((n_sim, lags.size))
        for s in range(n_sim):
            sim = simulate_homogeneous(nominal_rate, region, T, rng.substream(s))
            k_sims[s] = k_hat(sim.lons, sim.lats)
        center = k_sims.mean(axis=0)
        dev_obs = float(np.max(np.abs(k_obs - center)))
        dev_sims = np.max(np.abs(k_sims - center), axis=1)
        p = (1.0 + float(np.sum(dev_sims >= dev_obs))) / (n_sim + 1.0)
        return HomogeneityResult("kfunction", dev_obs, p)

    raise ValueError(f"unknown homogeneity method {method!r}")


def point_report(ps: ResidualPointSet, region: Region) -> str:
    """report.txt of a residual point pattern: its rate and counts, then
    the quadrat homogeneity test of the pattern."""
    lines = [f"nominal_rate = {ps.nominal_rate!r}",
             f"n_points = {ps.n}",
             f"n_retained = {int(np.sum(ps.tags == 'retained'))}",
             f"n_superposed = {int(np.sum(ps.tags == 'superposed'))}"]
    if ps.note:
        lines.append(f"note = {ps.note}")
    hom = homogeneity_test(ps, region, method="quadrat")
    lines.append(f"quadrat_statistic = {hom.statistic!r}")
    lines.append(f"quadrat_p = {hom.p_value!r}")
    if hom.df is not None:
        lines.append(f"quadrat_df = {hom.df}")
    if hom.note:
        lines.append(f"quadrat_note = {hom.note}")
    return "\n".join(lines) + "\n"
