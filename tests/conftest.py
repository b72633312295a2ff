import math

import numpy as np
import pytest

from eqassess import BinGrid, Catalog, Region


@pytest.fixture
def unit_region():
    """1 degree x 1 degree box at the equator."""
    return Region.rectangle(0.0, 1.0, 0.0, 1.0)


@pytest.fixture
def small_catalog():
    times = np.array([0.25, 0.5, 0.75, 1.5, 3.0])
    lons = np.array([0.2, 0.4, 0.6, 0.8, 0.5])
    lats = np.array([0.3, 0.5, 0.7, 0.2, 0.5])
    mags = np.array([4.1, 4.5, 5.2, 4.0, 4.8])
    return Catalog(times, lons, lats, mags, window_days=5.0, m0=4.0)


@pytest.fixture
def two_by_two_grid():
    return BinGrid.regular(
        lon_edges=np.array([0.0, 0.5, 1.0]),
        lat_edges=np.array([0.0, 0.5, 1.0]),
        mag_edges=np.array([4.0, 5.0, 6.0]),
    )


class SlicedIntegral:
    """Reference for the intensity protocol's integrate: the midpoint rule
    over n_time slices of [0, t], the method the exact integrals replaced.
    It delegates rate_at, so it can stand in for the model it wraps."""

    def __init__(self, model, n_time: int = 2000):
        self.model = model
        self.n_time = n_time

    def rate_at(self, lons, lats, times=None):
        return self.model.rate_at(lons, lats, times)

    def integrate(self, lons, lats, t):
        lons = np.atleast_1d(np.asarray(lons, dtype=float))
        acc = np.zeros(lons.shape)
        for j in range(self.n_time):
            acc += self.model.rate_at(lons, lats,
                                      np.full(lons.shape, (j + 0.5) * t / self.n_time))
        return acc * (t / self.n_time)


@pytest.fixture
def sliced():
    return SlicedIntegral


def dense_pair_sums(x, y, weights, lags):
    """Reference for summaries._weighted_k_values: the dense n x n distance
    matrix masked once per lag, the method the k-d tree search replaced."""
    dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    np.fill_diagonal(dist, np.inf)
    pair_w = np.ones(dist.shape) if weights is None \
        else weights[:, None] * weights[None, :]
    return np.array([float(np.sum(pair_w[dist <= h])) for h in lags])


@pytest.fixture(scope="session")
def dense_pairs():
    return dense_pair_sums


def reference_clip_halfplane(poly, normal, offset, keep_le):
    """Reference for residuals._clip_halfplane: the Sutherland-Hodgman walk
    over numpy rows that the walk on Python floats replaced."""
    if poly.shape[0] == 0:
        return poly
    d = poly @ normal - offset
    inside = d <= 0 if keep_le else d >= 0
    m = poly.shape[0]
    out = []
    for i in range(m):
        j = (i + 1) % m
        if inside[i]:
            out.append(poly[i])
        if inside[i] != inside[j]:
            t = d[i] / (d[i] - d[j])
            out.append(poly[i] + t * (poly[j] - poly[i]))
    return np.asarray(out) if out else np.empty((0, 2))


def reference_shoelace(poly):
    """Reference for residuals._poly_areas: one polygon at a time."""
    if poly.shape[0] < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))) / 2.0


def reference_voronoi(lons, lats, region):
    """Reference for residuals.voronoi_tessellation: each cell clipped
    against every other generator in distance order until the bisectors are
    out of reach, the method the Delaunay-neighbour candidates replaced.
    Returns (polys_km, areas_km2)."""
    lons = np.atleast_1d(np.asarray(lons, dtype=float)).copy()
    lats = np.atleast_1d(np.asarray(lats, dtype=float)).copy()
    seen: dict = {}
    for i in range(lons.size):
        key = (lons[i], lats[i])
        k = seen.get(key, 0)
        if k:
            lons[i] += 1e-9 * k
            lats[i] += 1e-9 * k
        seen[key] = k + 1
    px, py = region.to_km(lons, lats)
    pts = np.column_stack([px, py])
    polys = []
    for i in range(pts.shape[0]):
        poly = region.ring_km
        d2 = np.sum((pts - pts[i]) ** 2, axis=1)
        for j in np.argsort(d2, kind="stable"):
            if j == i or poly.shape[0] == 0:
                continue
            reach = np.sqrt(np.max(np.sum((poly - pts[i]) ** 2, axis=1)))
            if 0.5 * math.sqrt(d2[j]) > reach:
                break
            lo, hi = (i, j) if i < j else (j, i)
            normal = pts[hi] - pts[lo]
            offset = float(normal @ (0.5 * (pts[lo] + pts[hi])))
            poly = reference_clip_halfplane(poly, normal, offset, keep_le=(i == lo))
        polys.append(poly)
    return polys, np.array([reference_shoelace(p) for p in polys])


@pytest.fixture(scope="session")
def voronoi_oracle():
    return reference_voronoi


@pytest.fixture(scope="session")
def clip_oracle():
    return reference_clip_halfplane


@pytest.fixture(scope="session")
def shoelace_oracle():
    return reference_shoelace


@pytest.fixture
def aligned_history(unit_region):
    """A clustered 5-day Hawkes catalog with its times moved onto the
    2000-slice grid of the window.

    The rate jumps at each event; with the jumps on slice boundaries the
    midpoint reference errs only by its smooth-part bound h^2/24 * sum of
    |f''| integrals, about 2e-5 of the integral for c = 0.1, p = 1.5.
    """
    from eqassess import HawkesParams, RngStream, simulate_hawkes
    params = HawkesParams(mu=3e-4, k=0.004, c=0.1, p=1.5, a=1.0, d=0.5,
                          q=1.8, m0=4.0)
    cat = simulate_hawkes(params, unit_region, 5.0, RngStream(11))
    h = 5.0 / 2000
    times = np.round(cat.times / h) * h
    return params, Catalog(times, cat.lons, cat.lats, cat.mags, 5.0, 4.0)


# --- output writers -------------------------------------------------------
# The row loops that csv_text, geojson_features and render's _to_px/_pairs
# replaced, kept as the oracles of tests/test_writers.py. Each takes the
# same object as the writer it checks.


def _ref_fmt(x):
    return repr(float(x))


def reference_serialize_catalog(c):
    out = [f"# window_days = {_ref_fmt(c.window_days)}", f"# m0 = {_ref_fmt(c.m0)}",
           "time,lon,lat,mag"]
    for i in range(c.n):
        out.append(f"{_ref_fmt(c.times[i])},{_ref_fmt(c.lons[i])},"
                   f"{_ref_fmt(c.lats[i])},{_ref_fmt(c.mags[i])}")
    return "\n".join(out) + "\n"


def reference_serialize_region(region):
    out = ["lon,lat"]
    for lon, lat in region.vertices:
        out.append(f"{_ref_fmt(lon)},{_ref_fmt(lat)}")
    return "\n".join(out) + "\n"


def reference_serialize_forecast(f):
    from eqassess import FORECAST_HEADER
    out = [",".join(FORECAST_HEADER)]
    for box, rate in zip(f.grid.boxes, f.rates):
        out.append(",".join(_ref_fmt(v) for v in box) + f",{_ref_fmt(rate)},1")
    return "\n".join(out) + "\n"


def reference_results_to_csv(results):
    from eqassess import TestResult
    out = ["test,statistic,quantile_or_p,n_sim,decision"]
    for r in results:
        score = r.quantile if isinstance(r, TestResult) else r.p_value
        out.append(f"{r.name},{repr(float(r.statistic))},{repr(float(score))},"
                   f"{r.n_sim},{r.decision}")
    return "\n".join(out) + "\n"


def reference_sims_csv(results):
    rows = ["test,rep,statistic"]
    for r in results:
        sims = getattr(r, "sim_statistics", None)
        if sims is None:
            continue
        for i, v in enumerate(sims):
            rows.append(f"{r.name},{i},{repr(float(v))}")
    return "\n".join(rows) + "\n"


def reference_float_csv(header, *columns):
    """summaries._float_csv, behind kfunction.csv and errordiag.csv."""
    rows = (",".join(repr(float(v)) for v in row) for row in zip(*columns))
    return "\n".join([header, *rows]) + "\n"


def reference_taus_csv(lam):
    rows = [f"# total_mass = {float(lam[-1])!r}", "tau"]
    rows += [repr(float(t)) for t in lam[:-1]]
    return "\n".join(rows) + "\n"


def reference_cell_residuals_to_csv(rs):
    out = ["cell_id,kind,value,flag"]
    for i in range(rs.n_cells):
        v = repr(float(rs.values[i]))
        out.append(f"{i},{rs.kind},{v},{int(bool(rs.flags[i]))}")
    return "\n".join(out) + "\n"


def reference_points_csv(ps):
    out = ["time,lon,lat,tag"]
    for i in range(ps.n):
        out.append(f"{repr(float(ps.times[i]))},{repr(float(ps.lons[i]))},"
                   f"{repr(float(ps.lats[i]))},{ps.tags[i]}")
    return "\n".join(out) + "\n"


def reference_areas_csv(tess):
    rows = [f"# partition_defect = {tess.partition_defect!r}",
            "cell_id,gen_lon,gen_lat,area_km2"]
    for i in range(tess.n_cells):
        rows.append(f"{i},{repr(float(tess.gen_lons[i]))},"
                    f"{repr(float(tess.gen_lats[i]))},"
                    f"{repr(float(tess.areas_km2[i]))}")
    return "\n".join(rows) + "\n"


def _ref_collection(feats):
    import json
    doc = {"type": "FeatureCollection", "features": feats}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _ref_polygon(ring):
    coords = [[float(x), float(y)] for x, y in np.asarray(ring, dtype=float)]
    if coords:
        coords.append(coords[0])
    return {"type": "Polygon", "coordinates": [coords]}


def reference_points_geojson(ps):
    feats = []
    for i in range(ps.n):
        feats.append({
            "type": "Feature",
            "geometry": {"type": "Point",
                         "coordinates": [float(ps.lons[i]), float(ps.lats[i])]},
            "properties": {"time": float(ps.times[i]), "tag": str(ps.tags[i])},
        })
    return _ref_collection(feats)


def reference_cell_residuals_to_geojson(rs):
    feats = []
    for i in range(rs.n_cells):
        feats.append({
            "type": "Feature",
            "geometry": _ref_polygon(rs.cell_polys[i]),
            "properties": {
                "cell_id": i,
                "kind": rs.kind,
                "value": None if not math.isfinite(float(rs.values[i]))
                         else float(rs.values[i]),
                "flag": bool(rs.flags[i]),
            },
        })
    return _ref_collection(feats)


def reference_cells_geojson(tess):
    feats = []
    polys = tess.polys_lonlat()
    for i in range(tess.n_cells):
        feats.append({
            "type": "Feature",
            "geometry": _ref_polygon(polys[i]),
            "properties": {"cell_id": i,
                           "gen_lon": float(tess.gen_lons[i]),
                           "gen_lat": float(tess.gen_lats[i]),
                           "area_km2": float(tess.areas_km2[i])},
        })
    return _ref_collection(feats)


_W, _H, _PAD = 640, 480, 52


def _ref_f(x):
    return f"{x:.2f}"


def _text(*args, **kwargs):
    from eqassess.render import _text
    return _text(*args, **kwargs)


def _ref_head(title, defs=""):
    """The old renderers' opening: SVG element, background, defs, title."""
    out = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
           f'height="{_H}" viewBox="0 0 {_W} {_H}">\n'
           f'<rect width="{_W}" height="{_H}" fill="white"/>\n', defs]
    if title:
        out.append(_text(_W / 2, 24, title, anchor="middle", size=14))
    return out


def reference_render_map(rs, title=""):
    from eqassess.render import _diverging_color
    polys = [np.asarray(p, dtype=float) for p in rs.cell_polys]
    pts = np.concatenate([p for p in polys if p.shape[0]], axis=0)
    lon_min, lat_min = pts.min(axis=0)
    lon_max, lat_max = pts.max(axis=0)
    span_x = max(lon_max - lon_min, 1e-12)
    span_y = max(lat_max - lat_min, 1e-12)
    scale = min((_W - 2 * _PAD) / span_x, (_H - 2 * _PAD - 20) / span_y)

    def to_px(lon, lat):
        return (_PAD + (lon - lon_min) * scale,
                (_H - _PAD) - (lat - lat_min) * scale)

    finite = rs.values[np.isfinite(rs.values)]
    vmax = float(np.max(np.abs(finite))) if finite.size else 0.0
    out = _ref_head(title, '<defs><pattern id="hatch" width="8" height="8" '
                           'patternUnits="userSpaceOnUse">'
                           '<rect width="8" height="8" fill="white"/>'
                           '<path d="M0,8 L8,0" stroke="#555555" stroke-width="1"/>'
                           '</pattern></defs>\n')
    for i, poly in enumerate(polys):
        if poly.shape[0] < 3:
            continue
        coords = " ".join(f"{_ref_f(px)},{_ref_f(py)}" for px, py in
                          (to_px(x, y) for x, y in poly))
        if rs.flags[i]:
            fill = "url(#hatch)"
        else:
            fill = _diverging_color(float(rs.values[i]), vmax)
        out.append(f'<polygon points="{coords}" fill="{fill}" '
                   f'stroke="#333333" stroke-width="0.5"/>\n')
    bar_x, bar_y, bar_w, bar_h = _PAD, _H - 30, 200, 10
    steps = 40
    for s in range(steps):
        v = vmax * (2 * (s + 0.5) / steps - 1)
        out.append(f'<rect x="{_ref_f(bar_x + s * bar_w / steps)}" y="{bar_y}" '
                   f'width="{_ref_f(bar_w / steps + 0.5)}" height="{bar_h}" '
                   f'fill="{_diverging_color(v, vmax)}"/>\n')
    out.append(_text(bar_x, bar_y - 4, f"-{vmax:.3g}"))
    out.append(_text(bar_x + bar_w, bar_y - 4, f"+{vmax:.3g}", anchor="end"))
    out.append(_text(bar_x + bar_w / 2, bar_y - 4, "0", anchor="middle"))
    out.append("</svg>\n")
    return "".join(out)


def reference_render_point_map(lons, lats, tags, region, title=""):
    lons = np.asarray(lons, dtype=float)
    lats = np.asarray(lats, dtype=float)
    ring = region.vertices
    lon_min = min(float(ring[:, 0].min()), float(lons.min()) if lons.size else math.inf)
    lon_max = max(float(ring[:, 0].max()), float(lons.max()) if lons.size else -math.inf)
    lat_min = min(float(ring[:, 1].min()), float(lats.min()) if lats.size else math.inf)
    lat_max = max(float(ring[:, 1].max()), float(lats.max()) if lats.size else -math.inf)
    scale = min((_W - 2 * _PAD) / max(lon_max - lon_min, 1e-12),
                (_H - 2 * _PAD) / max(lat_max - lat_min, 1e-12))

    def to_px(lon, lat):
        return (_PAD + (lon - lon_min) * scale,
                (_H - _PAD) - (lat - lat_min) * scale)

    out = _ref_head(title)
    outline = " ".join(f"{_ref_f(px)},{_ref_f(py)}" for px, py in
                       (to_px(x, y) for x, y in ring))
    out.append(f'<polygon points="{outline}" fill="none" stroke="black"/>\n')
    colors = {"retained": "#21448f", "superposed": "#b2182b"}
    for i in range(lons.size):
        px, py = to_px(lons[i], lats[i])
        color = colors.get(str(tags[i]), "#333333")
        out.append(f'<circle cx="{_ref_f(px)}" cy="{_ref_f(py)}" r="2.5" '
                   f'fill="{color}" fill-opacity="0.8"/>\n')
    out.append(_text(_W - _PAD, 24, f"n={lons.size}", anchor="end"))
    out.append("</svg>\n")
    return "".join(out)


def _ref_unit_xy(u, v):
    return _PAD + u * (_W - 2 * _PAD), (_H - _PAD) - v * (_H - 2 * _PAD)


def reference_render_error_diagram(diag, title=""):
    from eqassess.render import _axes_1x1
    out = _ref_head(title)
    out.append(_axes_1x1("alarm fraction", "miss fraction"))
    p0 = _ref_unit_xy(0.0, 1.0)
    p1 = _ref_unit_xy(1.0, 0.0)
    out.append(f'<line x1="{_ref_f(p0[0])}" y1="{_ref_f(p0[1])}" x2="{_ref_f(p1[0])}" '
               f'y2="{_ref_f(p1[1])}" stroke="#999999" stroke-dasharray="4,4"/>\n')
    pts = " ".join(
        f"{_ref_f(px)},{_ref_f(py)}" for px, py in
        (_ref_unit_xy(a, m) for a, m in zip(diag.alarm_fractions,
                                            diag.miss_fractions)))
    out.append(f'<polyline points="{pts}" fill="none" stroke="#21448f" '
               f'stroke-width="1.5"/>\n')
    out.append(_text(_W - _PAD, 24, f"n={diag.n_events}", anchor="end"))
    out.append("</svg>\n")
    return "".join(out)


def reference_render_k_curve(curve, title=""):
    lags = curve.lags_km
    ref = curve.reference()
    series = [curve.k_values, ref]
    if curve.envelope_lo is not None:
        series += [curve.envelope_lo, curve.envelope_hi]
    y_max = max(float(np.max(s)) for s in series) or 1.0
    x_max = float(lags.max()) or 1.0

    def to_px(h, k):
        return (_PAD + (h / x_max) * (_W - 2 * _PAD),
                (_H - _PAD) - (k / y_max) * (_H - 2 * _PAD))

    out = _ref_head(title)
    out.append(f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" '
               f'height="{_H - 2 * _PAD}" fill="none" stroke="black"/>\n')
    for frac in (0.0, 0.5, 1.0):
        out.append(_text(_PAD + frac * (_W - 2 * _PAD), _H - _PAD + 18,
                         f"{frac * x_max:.3g}", anchor="middle"))
        out.append(_text(_PAD - 6, (_H - _PAD) - frac * (_H - 2 * _PAD) + 4,
                         f"{frac * y_max:.3g}", anchor="end"))
    out.append(_text((_W) / 2, _H - 12, "lag (km)", anchor="middle"))
    if curve.envelope_lo is not None:
        band = [to_px(h, k) for h, k in zip(lags, curve.envelope_lo)]
        band += [to_px(h, k) for h, k in
                 zip(lags[::-1], curve.envelope_hi[::-1])]
        coords = " ".join(f"{_ref_f(px)},{_ref_f(py)}" for px, py in band)
        out.append(f'<polygon points="{coords}" fill="#c6d4f2" '
                   f'fill-opacity="0.6" stroke="none"/>\n')
    ref_pts = " ".join(f"{_ref_f(px)},{_ref_f(py)}" for px, py in
                       (to_px(h, k) for h, k in zip(lags, ref)))
    out.append(f'<polyline points="{ref_pts}" fill="none" stroke="#999999" '
               f'stroke-dasharray="4,4"/>\n')
    obs_pts = " ".join(f"{_ref_f(px)},{_ref_f(py)}" for px, py in
                       (to_px(h, k) for h, k in zip(lags, curve.k_values)))
    out.append(f'<polyline points="{obs_pts}" fill="none" stroke="#b2182b" '
               f'stroke-width="1.5"/>\n')
    out.append(_text(_W - _PAD, 24, f"n={curve.n_points}", anchor="end"))
    out.append("</svg>\n")
    return "".join(out)


def reference_render_histogram(sim_statistics, observed, title="", n_bins=30):
    sims = np.asarray(sim_statistics, dtype=float)
    sims = sims[np.isfinite(sims)]
    if sims.size == 0:
        sims = np.array([0.0])
    lo, hi = float(sims.min()), float(sims.max())
    if math.isfinite(observed):
        lo, hi = min(lo, observed), max(hi, observed)
    if hi <= lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    counts, edges = np.histogram(sims, bins=n_bins, range=(lo, hi))
    c_max = int(counts.max()) or 1

    def to_px(x, frac):
        return (_PAD + (x - lo) / (hi - lo) * (_W - 2 * _PAD),
                (_H - _PAD) - frac * (_H - 2 * _PAD))

    out = _ref_head(title)
    out.append(f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" '
               f'height="{_H - 2 * _PAD}" fill="none" stroke="black"/>\n')
    for i in range(n_bins):
        if counts[i] == 0:
            continue
        x_l, _ = to_px(edges[i], 0)
        x_r, _ = to_px(edges[i + 1], 0)
        _, y_t = to_px(edges[i], counts[i] / c_max)
        out.append(f'<rect x="{_ref_f(x_l)}" y="{_ref_f(y_t)}" '
                   f'width="{_ref_f(x_r - x_l)}" height="{_ref_f(_H - _PAD - y_t)}" '
                   f'fill="#7a9bd4" stroke="#333333" stroke-width="0.5"/>\n')
    marker = observed
    if not math.isfinite(marker):
        marker = lo if marker < 0 else hi
    mx, _ = to_px(marker, 0)
    out.append(f'<line x1="{_ref_f(mx)}" y1="{_PAD}" x2="{_ref_f(mx)}" '
               f'y2="{_H - _PAD}" stroke="#b2182b" stroke-width="1.5"/>\n')
    out.append(_text(_W - _PAD, 24, f"obs={observed:.6g}", anchor="end"))
    for frac in (0.0, 0.5, 1.0):
        out.append(_text(_PAD + frac * (_W - 2 * _PAD), _H - _PAD + 18,
                         f"{lo + frac * (hi - lo):.4g}", anchor="middle"))
    out.append("</svg>\n")
    return "".join(out)


@pytest.fixture(scope="session")
def writer_oracles():
    import types
    return types.SimpleNamespace(**{
        name[len("reference_"):]: fn for name, fn in globals().items()
        if name.startswith("reference_") and callable(fn)})
