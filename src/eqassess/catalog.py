"""Earthquake catalogs, study regions, and space-magnitude binning.

Coordinates are geographic (lon/lat degrees); distances use an
equirectangular approximation in km. Times are decimal days measured from
the start of the study window.
"""

from __future__ import annotations

import datetime as _dt
import io
import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

KM_PER_DEG = 111.32


def km_distance2(lon1, lat1, lon2, lat2):
    """Squared planar km distance, equirectangular at the pair's mean latitude.

    cos of the mean latitude is cos(a/2) cos(b/2) - sin(a/2) sin(b/2), each
    factor taken on its own argument's shape: an outer call (m x 1 against
    1 x n) takes m + n cosines and m + n sines, not m * n cosines."""
    lon1, lat1, lon2, lat2 = (np.asarray(v, dtype=float) for v in (lon1, lat1, lon2, lat2))
    half1, half2 = np.radians(0.5 * lat1), np.radians(0.5 * lat2)
    # dx = cos(mean lat) * dlon and dy = dlat, in km
    dx = (KM_PER_DEG * np.cos(half1) * np.cos(half2)
          - KM_PER_DEG * np.sin(half1) * np.sin(half2)) * (lon2 - lon1)
    dy = KM_PER_DEG * (lat2 - lat1)
    return dx * dx + dy * dy


def km_factors(lons, lats, rows: bool = False):
    """Per-point factors of km_grid2, shape (4, 2, n), for the points as the
    grid's rows (rows=True) or as its columns; a caller that builds many
    blocks takes them once and passes slices [..., lo:hi]."""
    lons, lats = np.asarray(lons, dtype=float), np.asarray(lats, dtype=float)
    half = np.radians(0.5 * lats)
    cos, sin, one, zero = np.cos(half), np.sin(half), np.ones_like(lons), np.zeros_like(lons)
    if rows:
        return np.stack([KM_PER_DEG * cos, zero, KM_PER_DEG * sin, zero,
                         one, -lons, one, -lats]).reshape(4, 2, -1)
    return np.stack([cos, zero, sin, zero, lons, one, lats, one]).reshape(4, 2, -1)


def km_grid2(rows, cols, out, scratch):
    """km_distance2 of every row point against every column point, from
    km_factors, written into out (scratch is overwritten), with the bits of
    the broadcast outer call.

    Each of km_distance2's rank-2 grids (the cosine and sine products, the
    lon and lat differences) is a K = 2 matrix product, several times
    faster than a broadcast ufunc. One of its two terms is exact (a product
    with 0 or 1), so each entry is rounded once, as by the ufunc, with or
    without FMA. Hence the cosine and sine products are padded with a zero
    term: merged into one [c, -s] @ [c; s] product, FMA moves an ulp, and a
    K = 1 product takes numpy's slow path."""
    np.matmul(rows[0].T, cols[0], out=out)
    out -= np.matmul(rows[1].T, cols[1], out=scratch)
    out *= np.matmul(rows[2].T, cols[2], out=scratch)
    out *= out
    dy = np.matmul(rows[3].T, cols[3], out=scratch)
    dy *= KM_PER_DEG
    out += np.multiply(dy, dy, out=dy)
    return out


def km_distance(lon1, lat1, lon2, lat2):
    """Planar km distance between points: the square root of km_distance2."""
    return np.sqrt(km_distance2(lon1, lat1, lon2, lat2))


@dataclass(frozen=True)
class Event:
    time: float
    lon: float
    lat: float
    mag: float


class Region:
    """Simple polygon study region (lon/lat ring, implicitly closed).

    The boundary counts as inside. Area and projections use an
    equirectangular km plane anchored at the vertex centroid.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError("region needs at least 3 lon/lat vertices")
        if not np.all(np.isfinite(v)):
            raise ValueError("region vertices must be finite")
        if np.array_equal(v[0], v[-1]):
            raise ValueError("region ring must not repeat the first vertex; closure is implicit")
        self.vertices = v
        self.ref_lon = float(v[:, 0].mean())
        self.ref_lat = float(v[:, 1].mean())
        self._cos_ref = math.cos(math.radians(self.ref_lat))
        x, y = self.to_km(v[:, 0], v[:, 1])
        self._ring_km = np.column_stack([x, y])
        area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        self._area_km2 = float(abs(area2)) / 2.0
        if self._area_km2 <= 0:
            raise ValueError("region polygon has zero area")

    @classmethod
    def rectangle(cls, lon_min, lon_max, lat_min, lat_max) -> "Region":
        return cls([(lon_min, lat_min), (lon_max, lat_min), (lon_max, lat_max), (lon_min, lat_max)])

    def to_km(self, lons, lats):
        x = KM_PER_DEG * self._cos_ref * (np.asarray(lons, dtype=float) - self.ref_lon)
        y = KM_PER_DEG * (np.asarray(lats, dtype=float) - self.ref_lat)
        return x, y

    def from_km(self, x, y):
        lons = self.ref_lon + np.asarray(x, dtype=float) / (KM_PER_DEG * self._cos_ref)
        lats = self.ref_lat + np.asarray(y, dtype=float) / KM_PER_DEG
        return lons, lats

    @property
    def area_km2(self) -> float:
        return self._area_km2

    @property
    def ring_km(self) -> np.ndarray:
        return self._ring_km

    @property
    def bbox(self):
        v = self.vertices
        return float(v[:, 0].min()), float(v[:, 0].max()), float(v[:, 1].min()), float(v[:, 1].max())

    def contains(self, lons, lats):
        """Even-odd point-in-polygon test; points on an edge count as inside."""
        px = np.atleast_1d(np.asarray(lons, dtype=float))
        py = np.atleast_1d(np.asarray(lats, dtype=float))
        v = self.vertices
        x1, y1 = v[:, 0], v[:, 1]
        x2, y2 = np.roll(x1, -1), np.roll(y1, -1)
        inside = np.zeros(px.shape, dtype=bool)
        on_edge = np.zeros(px.shape, dtype=bool)
        scale = max(np.abs(v).max(), 1.0)
        tol = 1e-12 * scale * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, b, c, d in zip(x1, y1, x2, y2):
                cross = (c - a) * (py - b) - (d - b) * (px - a)
                within = (px >= min(a, c) - 1e-15) & (px <= max(a, c) + 1e-15) & \
                         (py >= min(b, d) - 1e-15) & (py <= max(b, d) + 1e-15)
                on_edge |= within & (np.abs(cross) <= tol)
                crosses = ((b > py) != (d > py)) & (px < a + (c - a) * (py - b) / (d - b))
                inside ^= crosses
        result = inside | on_edge
        if np.isscalar(lons) or np.asarray(lons).ndim == 0:
            return bool(result[0])
        return result

    def __eq__(self, other):
        return isinstance(other, Region) and np.array_equal(self.vertices, other.vertices)

    def __repr__(self):
        return f"Region({self.vertices.shape[0]} vertices, {self._area_km2:.6g} km^2)"


def parse_region(text: str) -> Region:
    rows = _read_numeric_csv(text, ("lon", "lat"), "region", _region_record)
    if not len(rows):
        raise ValueError("region: no data rows")
    return Region(rows)


def serialize_region(region: Region) -> str:
    return csv_text({"lon": region.vertices[:, 0], "lat": region.vertices[:, 1]})


@dataclass(frozen=True)
class Catalog:
    """Columnar event catalog, sorted by (time, lon, lat, mag), no duplicates.

    times are days in [0, window_days]; m0 is the magnitude floor the
    catalog is declared complete above.
    """

    times: np.ndarray
    lons: np.ndarray
    lats: np.ndarray
    mags: np.ndarray
    window_days: float
    m0: float = 0.0

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        x = np.asarray(self.lons, dtype=float)
        y = np.asarray(self.lats, dtype=float)
        m = np.asarray(self.mags, dtype=float)
        if not (t.shape == x.shape == y.shape == m.shape) or t.ndim != 1:
            raise ValueError("catalog columns must be 1-d arrays of equal length")
        for name, col in (("time", t), ("lon", x), ("lat", y), ("mag", m),
                          ("window_days", self.window_days), ("m0", self.m0)):
            if not np.all(np.isfinite(col)):
                raise ValueError(f"non-finite {name} value in catalog")
        if self.window_days < 0:
            raise ValueError(f"negative catalog window: window_days = {float(self.window_days)!r}")
        if t.size and (t.min() < 0 or t.max() > self.window_days):
            raise ValueError("event time outside the declared window")
        order = np.lexsort((m, y, x, t))
        t, x, y, m = t[order], x[order], y[order], m[order]
        if t.size > 1:
            same = (np.diff(t) == 0) & (np.diff(x) == 0) & (np.diff(y) == 0) & (np.diff(m) == 0)
            if same.any():
                i = int(np.flatnonzero(same)[0])
                raise ValueError(f"duplicate event (time={float(t[i])!r}, lon={float(x[i])!r}, "
                                 f"lat={float(y[i])!r}, mag={float(m[i])!r})")
        for name, col in (("times", t), ("lons", x), ("lats", y), ("mags", m)):
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        object.__setattr__(self, "window_days", float(self.window_days))
        object.__setattr__(self, "m0", float(self.m0))

    @property
    def n(self) -> int:
        return self.times.size

    def __len__(self) -> int:
        return self.times.size

    def __iter__(self) -> Iterator[Event]:
        for i in range(self.times.size):
            yield Event(float(self.times[i]), float(self.lons[i]),
                        float(self.lats[i]), float(self.mags[i]))

    def __eq__(self, other):
        return (isinstance(other, Catalog)
                and self.window_days == other.window_days
                and self.m0 == other.m0
                and np.array_equal(self.times, other.times)
                and np.array_equal(self.lons, other.lons)
                and np.array_equal(self.lats, other.lats)
                and np.array_equal(self.mags, other.mags))

    def __repr__(self):
        return f"Catalog({self.n} events, window={self.window_days!r} d, m0={self.m0!r})"


def empty_catalog(window_days: float, m0: float = 0.0) -> Catalog:
    z = np.array([], dtype=float)
    return Catalog(z, z, z, z, window_days, m0)


_COMMENT_LINE = re.compile(r"^[ \t]*#[^\n]*", re.MULTILINE)
_PLAIN_BYTES = b"0123456789+-.eE, \t\r\n"


def _read_numeric_csv(text: str, header: tuple, what: str, parse_record,
                      valid=None) -> np.ndarray:
    """Read a comment-tolerant numeric CSV into an (n, len(header)) float array.

    Lines are stripped; blank lines and lines starting with '#' are skipped,
    the first other line must be the header, and every later one is a data
    row. A plain file is converted in one C-level pass (_bulk_rows), and
    valid, when given, checks the whole array at once. On any failure there
    the row loop runs instead: _csv_records checks the header and the field
    counts, and parse_record(row_number, fields) converts and checks one row
    or raises. The row loop is the only source of error messages, so both
    paths return the same array and raise the same errors.
    """
    rows = _bulk_rows(text, header)
    if rows is not None and (valid is None or valid(rows)):
        return rows
    rows = [parse_record(i, rec) for i, rec in _csv_records(text, header, what)]
    return np.array(rows, dtype=float).reshape(len(rows), len(header))


def _bulk_rows(text: str, header: tuple) -> np.ndarray | None:
    """The data rows of a plain numeric CSV from one np.loadtxt pass, or None.

    Plain means: a body of digits, signs, points, exponents, commas, spaces,
    tabs and line ends apart from whole comment lines, no line holding only
    whitespace, and exactly len(header) decimal numbers on every row.
    Anything else gives None and is left to the row loop.
    """
    start = 0
    while True:
        end = text.find("\n", start)
        line = (text[start:] if end < 0 else text[start:end]).strip()
        if line and not line.startswith("#"):
            break
        if end < 0:
            return None
        start = end + 1
    if tuple(h.strip(" ") for h in line.split(",")) != header:
        return None
    body = "" if end < 0 else text[end + 1:]
    if "#" in body:
        body = _COMMENT_LINE.sub("", body)
    if not body.isascii() or not body or body.isspace():
        return None
    data = body.encode("ascii")
    if data.translate(None, _PLAIN_BYTES):
        return None
    try:
        rows = np.loadtxt(io.BytesIO(data), dtype=float, delimiter=",",
                          comments=None, ndmin=2)
    except ValueError:
        return None
    return rows if rows.shape[1] == len(header) else None


def csv_text(columns: dict, comments: dict | None = None) -> str:
    """CSV text of equal-length columns under a header of their names.

    Each comment becomes a leading `# name = value` line with a float value.
    Floats are written by repr, the shortest string that round-trips the
    double (nan, inf and -0.0 included), and the entries of every other
    column by str. Each column is formatted in one pass over its
    ndarray.tolist(); the rows are then joined from those strings.
    """
    lines = [f"# {name} = {float(v)!r}" for name, v in (comments or {}).items()]
    lines.append(",".join(columns))
    cells = [_column_text(col) for col in columns.values()]
    lines.extend(map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def _column_text(col) -> list:
    a = np.asarray(col)
    return list(map(repr if a.dtype.kind == "f" else str, a.tolist()))


def _format_distinct(values, fmt) -> np.ndarray:
    """fmt(v) of each entry of an array, as an object array of its shape,
    with one fmt call per distinct value; floats are told apart by their
    64-bit pattern, so -0.0 and 0.0 keep their own strings."""
    a = np.asarray(values)
    is_float = a.dtype.kind == "f"
    distinct, inverse = np.unique(a.astype(float).view(np.int64) if is_float else a,
                                  return_inverse=True)
    texts = list(map(fmt, (distinct.view(float) if is_float else distinct).tolist()))
    return np.array(texts, dtype=object)[inverse].reshape(a.shape)


def _stack_rings(polys):
    """The vertices of (m, 2) rings stacked in one float array, and the
    sizes m; a ring without vertices, of any shape, has size 0."""
    sizes = np.array([len(p) for p in polys], dtype=int)
    rings = list(itertools.compress(polys, sizes))
    return (np.concatenate(rings, dtype=float) if rings else np.empty((0, 2))), sizes


def _clip_rings(xy, counts, normal, offset, keep_le):
    """Sutherland-Hodgman clip of k rings at once, each by its own line.

    Ring r is xy[r, :counts[r]] of the padded (k, cap, 2) array. It keeps
    the side n.p <= c of the line n = normal[r], c = offset[r] where
    keep_le[r] holds, and n.p >= c elsewhere. Returns the clipped rings as
    (xy, counts), padded to the longest. Each ring is the vertex walk's:
    every kept vertex, each followed by the crossing on the edge to the
    next vertex where one end is kept and the other not, at
    xi + t * (xj - xi) with t = di / (di - dj). Output slots are the
    running count of those emits. Side values are x * nx + y * ny - c
    elementwise, so a vertex's value depends on neither its ring's length
    nor the padding.
    """
    d = xy[..., 0] * normal[:, :1] + xy[..., 1] * normal[:, 1:] - offset[:, None]
    slot = np.arange(xy.shape[1])
    valid = slot < counts[:, None]
    inside = valid & np.where(keep_le[:, None], d <= 0, d >= 0)
    nxt = np.where(slot + 1 < counts[:, None], slot + 1, 0)
    cross = valid & (inside != np.take_along_axis(inside, nxt, axis=1))
    emit = inside + cross.astype(np.intp)
    end, sizes = np.cumsum(emit, axis=1), emit.sum(axis=1)
    out = np.zeros((len(xy), sizes.max(initial=0), 2))
    r, i = np.nonzero(inside)
    out[r, end[r, i] - emit[r, i]] = xy[r, i]
    (r, i), j = np.nonzero(cross), nxt[cross]
    t = d[r, i] / (d[r, i] - d[r, j])
    out[r, end[r, i] - 1] = xy[r, i] + t[:, None] * (xy[r, j] - xy[r, i])
    return out, sizes


def _poly_areas(xy, sizes) -> np.ndarray:
    """Shoelace areas of stacked polygons (see _stack_rings) in one pass; a
    polygon with fewer than 3 vertices has area 0."""
    full = sizes >= 3
    areas = np.zeros(sizes.size)
    if full.any():
        xy, sizes = xy[np.repeat(full, sizes)], sizes[full]
        starts = np.cumsum(sizes) - sizes
        nxt = np.arange(1, xy.shape[0] + 1)
        nxt[starts + sizes - 1] = starts
        x, y = xy[:, 0], xy[:, 1]
        areas[full] = np.abs(np.add.reduceat(x * y[nxt] - x[nxt] * y, starts)) / 2.0
    return areas


def _lon_at(x0, y0, x1, y1, lat):
    """The lon of each edge (x0, y0) -> (x1, y1) at lat, x1 at its end."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(lat == y1, x1, x0 + (lat - y0) * (x1 - x0) / (y1 - y0))


def _band_terms(lon_lo, lat_lo, lon_hi, lat_hi, west, east):
    """The integral of cos(lat) g d(lat), g = clamp(lon - west, 0, east -
    west), lat in radians, up each straight piece (lon_lo, lat_lo) ->
    (lon_hi, lat_hi) (degrees, broadcast with the box sides), and the sum of
    its three terms' magnitudes, the scale of its rounding. Summed over a
    ring's pieces in a box's band, it is the ring's area in the box by
    Green's theorem. By parts, it is g(hi) sin(hi) - g(lo) sin(lo) less
    (g(hi) - g(lo)) sin(mid) sinc(half height) over the lats a, b where the
    lon crosses west and east."""
    g_lo, g_hi = (np.clip(v - west, 0.0, east - west) for v in (lon_lo, lon_hi))
    with np.errstate(divide="ignore", invalid="ignore"):
        a, b = (np.radians(np.where(lon_hi == lon_lo, lat_lo, np.clip(
            lat_lo + (side - lon_lo) * (lat_hi - lat_lo) / (lon_hi - lon_lo), lat_lo, lat_hi)))
            for side in (west, east))
    at_hi, at_lo = g_hi * np.sin(np.radians(lat_hi)), g_lo * np.sin(np.radians(lat_lo))
    mid = (g_hi - g_lo) * np.sin(0.5 * (a + b)) * np.sinc((b - a) / (2 * np.pi))
    return at_hi - at_lo - mid, np.abs(at_hi) + np.abs(at_lo) + np.abs(mid)


def box_areas(region: Region, boxes) -> np.ndarray:
    """Area (km^2) of the region inside each (lon_min, lon_max, lat_min,
    lat_max) box, exactly: the cos(latitude)-weighted km^2 of cell_area_km2,
    the sum of the _band_terms of the part of each edge in the box's band,
    with no clipping. A sum within 8 eps of its terms' magnitudes is 0: a
    box that meets the region only along its border has area 0."""
    (x0, y0), (x1, y1) = region.vertices.T, np.roll(region.vertices, -1, axis=0).T
    b = np.asarray(boxes, dtype=float).reshape(-1, 4)
    out, step = [], max(1, (_CHUNK_ELEMENTS >> 4) // x0.size)
    for west, east, south, north in (bb.T[:, :, None] for bb in
                                     np.split(b, np.arange(step, len(b), step))):
        lo, hi = (np.clip(y, south, north) for y in (np.minimum(y0, y1), np.maximum(y0, y1)))
        with np.errstate(invalid="ignore"):  # an edge that misses the band has no lon there
            terms, scale = _band_terms(_lon_at(x0, y0, x1, y1, lo), lo,
                                       _lon_at(x0, y0, x1, y1, hi), hi, west, east)
        crosses = hi > lo
        area = np.abs(np.where(crosses, np.sign(y1 - y0) * terms, 0.0).sum(axis=1))
        scale = np.where(crosses, scale, 0.0).sum(axis=1)
        out.append(np.where(area > 8 * np.finfo(float).eps * scale, area, 0.0))
    return KM_PER_DEG ** 2 * (180.0 / np.pi) * np.concatenate(out)


def _lattice_areas(rings, region: Region, n: int):
    """(ring, cell, area) of each positive area (km^2) of a lon/lat ring in a
    box of the n x n lattice over the region's bounding box, in (ring, cell)
    order, cells numbered iy * n + ix as in box_lattice_index; and the box
    centres (lons, lats). Edges are cut at the lattice's parallels. A piece
    adds its _band_terms to each box its lon range meets, and its band
    integral times the box width to each box of its row west of those, by
    a running sum per (ring, row). Areas are 0 within rounding, as in
    box_areas."""
    lon_min, lon_max, lat_min, lat_max = region.bbox
    xs, ys = np.linspace(lon_min, lon_max, n + 1), np.linspace(lat_min, lat_max, n + 1)
    centres = [g.ravel() for g in np.meshgrid(*(lo + (hi - lo) / n * (np.arange(n) + 0.5) for lo, hi
                                                in ((lon_min, lon_max), (lat_min, lat_max))))]
    xy, sizes = _stack_rings(rings)
    lon, lat = np.ascontiguousarray(xy.T)
    nxt, ends = np.arange(1, len(xy) + 1), np.cumsum(sizes)[sizes > 0]
    nxt[ends - 1] = ends - sizes[sizes > 0]
    bottom, top = np.minimum(lat, lat[nxt]), np.maximum(lat, lat[nxt])
    r0 = np.maximum(np.searchsorted(ys, bottom, "right") - 1, 0)
    e, k = _runs(np.maximum(np.minimum(np.searchsorted(ys, top, "left"), n) - r0, 0))
    key = np.repeat(np.arange(sizes.size), sizes)[e] * n + r0[e] + k
    order = np.argsort(key, kind="stable")
    e, key = e[order], key[order]
    x0, y0, x1, y1, row = lon[e], lat[e], lon[nxt[e]], lat[nxt[e]], key % n
    lo, hi = np.maximum(bottom[e], ys[row]), np.minimum(top[e], ys[row + 1])
    lon_lo, lon_hi = _lon_at(x0, y0, x1, y1, lo), _lon_at(x0, y0, x1, y1, hi)
    c0 = np.searchsorted(xs, np.minimum(lon_lo, lon_hi), "right") - 1
    c1 = np.minimum(np.searchsorted(xs, np.maximum(lon_lo, lon_hi), "left") - 1, n - 1)
    # a run of slots per (ring, row) segment: one for each column its
    # pieces reach, from first, and one more; a column's slot is base + col
    new = np.diff(key, prepend=-1) != 0
    starts, seg = np.flatnonzero(new), np.cumsum(new) - 1
    first = np.minimum.reduceat(np.clip(c0, 0, n - 1), starts)
    size = np.maximum(np.maximum.reduceat(np.maximum(c1, c0 - 1), starts) - first + 2, 1)
    stop = np.cumsum(size) - 1
    base = stop - size + 1 - first
    p, off = _runs(np.maximum(c1 - np.maximum(c0, 0) + 1, 0))
    col = np.maximum(c0, 0)[p] + off
    term, scale = _band_terms(lon_lo[p], lo[p], lon_hi[p], hi[p], xs[col], xs[col + 1])
    # a piece's band fills each box of its segment west of c0: the running
    # sum at the segment's last slot less the one at the box's
    at = base[seg] + np.clip(c0, first[seg], stop[seg] - base[seg])
    slot_seg = np.repeat(np.arange(starts.size), size)
    slot_col = np.arange(size.sum()) - base[slot_seg]
    width = np.append(np.diff(xs), 0.0)[slot_col]

    def total(partial, band):
        cum = np.cumsum(np.bincount(at, band, minlength=slot_col.size))
        return np.abs(np.bincount(base[seg[p]] + col, partial, minlength=slot_col.size)
                      + width * (np.repeat(cum[stop], size) - cum))

    sign, s_lo, s_hi = np.sign(y1 - y0), np.sin(np.radians(lo)), np.sin(np.radians(hi))
    area = total(sign[p] * term, sign * (s_hi - s_lo))
    keep = area > 8 * np.finfo(float).eps * total(scale, np.abs(s_lo) + np.abs(s_hi))
    keep[stop] = False
    seg_ring, seg_row = np.divmod(key[starts], n)
    return (seg_ring[slot_seg[keep]], seg_row[slot_seg[keep]] * n + slot_col[keep],
            KM_PER_DEG ** 2 * (180.0 / np.pi) * area[keep], centres)


_FIELD = "\x00"  # marks a field in a _fill_rings template, whose own text never holds it


def _fill_rings(template, texts, sizes, closed: bool = False, columns=()) -> list:
    """One string per stacked ring of m vertices: template(m) with its
    _FIELDs filled by the ring's vertex texts x0, y0, ..., x(m-1), y(m-1)
    (then x0, y0 again if closed and m > 0) and its entry of each column.
    texts holds one (x, y) row per stacked vertex. Rings of one size are
    joined in one pass from one template's pieces."""
    starts = np.cumsum(sizes) - sizes
    out = np.empty(len(sizes), dtype=object)
    for m in np.unique(sizes).tolist():
        rings = np.flatnonzero(sizes == m)
        verts = starts[rings, None] + np.arange(m + (closed and m > 0)) % max(m, 1)
        pieces = template(m).split(_FIELD)
        parts = np.empty((rings.size, 2 * len(pieces) - 1), dtype=object)
        parts[:, 0::2] = pieces
        parts[:, 1::2] = np.column_stack([texts[verts].reshape(rings.size, -1)]
                                         + [np.asarray(c, dtype=object)[rings] for c in columns])
        out[rings] = list(map("".join, parts.tolist()))
    return out.tolist()


def _csv_records(text: str, header: tuple, what: str):
    """Yield (row number, fields) for each data row, in the row loop's checks.

    Lines are stripped, and blank lines and lines starting with '#' are
    skipped. A line that csv cannot split (a carriage return inside it)
    raises ValueError with its line number in the file."""
    import csv

    numbers, lines = [], []
    for number, raw in enumerate(io.StringIO(text), start=1):
        s = raw.strip()
        if s and not s.startswith("#"):
            numbers.append(number)
            lines.append(s)
    if not lines:
        raise ValueError(f"{what}: empty file")
    reader = csv.reader(lines)

    def fields():
        """The next record, or None at the end."""
        try:
            return next(reader, None)
        except csv.Error as e:
            # csv's message ends in advice on opening files, which does not apply
            problem = str(e).partition(" - ")[0]
            raise ValueError(f"{what}: line {numbers[reader.line_num - 1]}: {problem}") from None

    got = tuple(h.strip() for h in fields() or ())
    if got != header:
        raise ValueError(f"{what}: expected header {','.join(header)!r}, got {','.join(got)!r}")
    for i, rec in enumerate(iter(fields, None), start=1):
        if len(rec) != len(header):
            raise ValueError(f"{what}: row {i}: expected {len(header)} fields, got {len(rec)}")
        yield i, rec


def _region_record(i: int, rec: list) -> list:
    try:
        return [float(v) for v in rec]
    except ValueError:
        bad = next(v for v in rec if not _is_float(v))
        raise ValueError(f"region: row {i}: malformed value {bad!r}") from None


def _is_float(s: str) -> bool:
    try:
        float(s)
        return True
    except ValueError:
        return False


def _parse_iso_days(value: str) -> float:
    ts = _dt.datetime.fromisoformat(value.replace("Z", "+00:00"))
    if ts.tzinfo is None:
        ts = ts.replace(tzinfo=_dt.timezone.utc)
    return ts.timestamp() / 86400.0


def parse_catalog(text: str) -> Catalog:
    """Parse a catalog CSV (header time,lon,lat,mag).

    The time column is either decimal days or ISO-8601 timestamps; the
    format is detected from the first data row and must be consistent
    within the file. ISO times are converted to days since the earliest
    timestamp. Rows are read by _read_numeric_csv: a plain decimal file in
    one pass, anything else by the row loop, whose record function holds
    the first row's time format. Optional comment lines (# window_days = …,
    # m0 = …) carry catalog metadata; without them the window ends at the
    last event and m0 is the smallest magnitude.
    """
    meta = {}
    for raw in io.StringIO(text):
        body = raw.strip()
        if body.startswith("#") and "=" in body:
            k, _, val = body[1:].partition("=")
            meta[k.strip()] = val.strip()
    iso_mode = None

    def record(i: int, rec: list) -> list:
        nonlocal iso_mode
        t_raw = rec[0].strip()
        if iso_mode is None:
            iso_mode = not _is_float(t_raw)
        try:
            t = _parse_iso_days(t_raw) if iso_mode else float(t_raw)
        except ValueError:
            kind = "ISO-8601 time" if iso_mode else "time"
            raise ValueError(f"catalog: row {i}: malformed {kind} {t_raw!r}") from None
        for name, v in zip(("lon", "lat", "mag"), rec[1:]):
            if not _is_float(v):
                raise ValueError(f"catalog: row {i}: malformed {name} {v.strip()!r}")
        return [t, *map(float, rec[1:])]

    times, lons, lats, mags = _read_numeric_csv(text, ("time", "lon", "lat", "mag"),
                                                "catalog", record).T
    if iso_mode and times.size:
        times = times - times.min()
    for key in ("window_days", "m0"):
        if key in meta and not _is_float(meta[key]):
            raise ValueError(f"catalog: malformed {key} {meta[key]!r}")
    if "window_days" in meta:
        window = float(meta["window_days"])
    else:
        window = float(times.max()) if times.size else 0.0
    if "m0" in meta:
        m0 = float(meta["m0"])
    else:
        m0 = float(mags.min()) if mags.size else 0.0
    return Catalog(times, lons, lats, mags, window, m0)


def serialize_catalog(c: Catalog) -> str:
    return csv_text({"time": c.times, "lon": c.lons, "lat": c.lats, "mag": c.mags},
                    {"window_days": c.window_days, "m0": c.m0})


def filter_catalog(c: Catalog, region: Region | None = None, t0: float = 0.0,
                   t1: float | None = None, m_min: float | None = None) -> Catalog:
    """Restrict a catalog to region x [t0, t1) x mag >= m_min.

    Times are re-expressed relative to t0; the polygon boundary counts as
    inside. The result's m0 is m_min when given.
    """
    if t1 is None:
        t1 = c.window_days
    keep = (c.times >= t0) & (c.times < t1)
    if m_min is not None:
        keep &= c.mags >= m_min
    if region is not None and keep.any():
        idx = np.flatnonzero(keep)
        keep[idx] = region.contains(c.lons[idx], c.lats[idx])
    m0 = c.m0 if m_min is None else float(m_min)
    return Catalog(c.times[keep] - t0, c.lons[keep], c.lats[keep], c.mags[keep],
                   float(t1 - t0), m0)


class BinCounts(NamedTuple):
    counts: np.ndarray
    remainder: int


# A grid whose elementary lattice (the product of each axis's distinct edges)
# has more than this many cells per grid cell is located by a closed-box scan
# rather than through a lattice table.
_LATTICE_PER_CELL = 8
# elements in one chunk of point-by-cell or box-pair comparisons
_CHUNK_ELEMENTS = 1 << 22


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _unique_rows(rows):
    """np.unique(rows, axis=0, return_index=True, return_inverse=True) by a
    stable lexsort of the columns, many times faster than unique's sort of
    row records."""
    order = np.lexsort(rows.T[::-1])
    s = rows[order]
    new = np.concatenate([[True], np.any(s[1:] != s[:-1], axis=1)])
    inverse = np.empty(rows.shape[0], dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    return s[new], order[new], inverse


def _distinct_rows(rows):
    """Distinct rows in first-appearance order, and each row's index into them."""
    uniq, first, inverse = _unique_rows(rows)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return _frozen(uniq[order]), _frozen(rank[inverse])


def _runs(lengths):
    """For consecutive runs of the given lengths: each element's run and its offset in the run."""
    run = np.repeat(np.arange(lengths.size), lengths)
    return run, np.arange(run.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _chunks(weights, budget):
    """(start, stop) spans of consecutive items whose weights sum to at most
    budget; an item heavier than the budget is a span of its own."""
    cum = np.cumsum(weights)
    start = 0
    while start < cum.size:
        base = cum[start - 1] if start else 0
        stop = max(int(np.searchsorted(cum, base + budget, side="right")), start + 1)
        yield start, stop
        start = stop


def _overlap_error(b, j: int) -> ValueError:
    """The error naming cell j and the lowest-index earlier cell it overlaps."""
    # open intervals meeting on every axis means positive shared measure
    meet = np.all((b[:j, 0::2] < b[j, 1::2]) & (b[:j, 1::2] > b[j, 0::2]), axis=1)
    return ValueError(f"grid cells {int(np.argmax(meet))} and {j} overlap")


@dataclass(frozen=True)
class BinGrid:
    """Space-magnitude bins: closed boxes (lon, lat, mag), non-overlapping.

    Cells are ordered row-major by (space cell, then magnitude band) when
    built from a regular product; arbitrary (e.g. masked) cell lists are
    allowed as long as the magnitude banding is globally consistent.

    Points are located through the elementary lattice spanned by the sorted
    distinct edges of each axis, with a table of the cell owning each lattice
    cell. Grids whose lattice is much larger than the cell count take a
    chunked closed-box scan instead.
    """

    boxes: np.ndarray  # (n_cells, 6): lon_min, lon_max, lat_min, lat_max, mag_min, mag_max

    def __post_init__(self):
        b = np.asarray(self.boxes, dtype=float)
        if b.ndim != 2 or b.shape[1] != 6 or b.shape[0] == 0:
            raise ValueError("grid needs an (n, 6) box array")
        if not np.all(np.isfinite(b)):
            raise ValueError("grid boxes must be finite")
        if np.any(b[:, 0] >= b[:, 1]) or np.any(b[:, 2] >= b[:, 3]) or np.any(b[:, 4] >= b[:, 5]):
            raise ValueError("grid boxes must have positive extent in lon, lat, and mag")
        object.__setattr__(self, "boxes", _frozen(b.copy()))
        edges = tuple(np.unique(b[:, 2 * a:2 * a + 2]) for a in range(3))
        if math.prod(e.size - 1 for e in edges) <= _LATTICE_PER_CELL * b.shape[0]:
            lattice = (edges, self._owner_table(edges))
        else:
            self._sweep_overlap()
            lattice = None
        object.__setattr__(self, "_lattice", lattice)
        self._check_banding()

    def _owner_table(self, edges) -> np.ndarray:
        """Index of the cell owning each lattice cell (n_cells where none
        does); a lattice cell claimed twice means two cells overlap."""
        b = self.boxes
        n = b.shape[0]
        shape = tuple(e.size - 1 for e in edges)
        lo = np.column_stack([np.searchsorted(edges[a], b[:, 2 * a]) for a in range(3)])
        ext = np.column_stack([np.searchsorted(edges[a], b[:, 2 * a + 1]) for a in range(3)]) - lo
        vol = ext.prod(axis=1)
        owner = np.full(math.prod(shape), n, dtype=np.intp)
        # disjoint cells claim at most owner.size lattice cells in all, so a
        # valid grid is filled in one chunk
        for start, stop in _chunks(vol, owner.size):
            run, off = _runs(vol[start:stop])
            cell = start + run
            flat = np.zeros(cell.size, dtype=np.intp)
            for a in range(3):
                flat = flat * shape[a] + lo[cell, a] + off % ext[cell, a]
                off = off // ext[cell, a]
            taken = owner[flat] < n
            if taken.any() or np.bincount(flat).max() > 1:
                order = np.lexsort((cell, flat))
                again = np.zeros(cell.size, dtype=bool)
                again[order[1:]] = flat[order[1:]] == flat[order[:-1]]
                raise _overlap_error(b, int(cell[taken | again].min()))
            owner[flat] = cell
        return owner.reshape(shape)

    def _sweep_overlap(self):
        """Raise if two cells overlap, testing only the pairs whose extents
        meet on the axis where the fewest such pairs exist."""
        b = self.boxes
        n = b.shape[0]
        best = None
        for a in range(3):
            order = np.argsort(b[:, 2 * a], kind="stable")
            stop = np.searchsorted(b[order, 2 * a], b[order, 2 * a + 1], side="left")
            later = stop - np.arange(n) - 1
            if best is None or later.sum() < best[1].sum():
                best = (order, later)
        order, later = best
        j = n
        for start, stop in _chunks(later, _CHUNK_ELEMENTS):
            run, off = _runs(later[start:stop])
            p = order[start + run]
            q = order[start + run + 1 + off]
            meet = np.all((b[p, 0::2] < b[q, 1::2]) & (b[q, 0::2] < b[p, 1::2]), axis=1)
            if meet.any():
                j = min(j, int(np.maximum(p, q)[meet].min()))
        if j < n:
            raise _overlap_error(b, j)

    def _check_banding(self):
        bands = self.mag_bands
        if np.any(bands[1:, 0] < bands[:-1, 1]):
            raise ValueError("inconsistent magnitude banding: bands overlap")

    @classmethod
    def regular(cls, lon_edges, lat_edges, mag_edges) -> "BinGrid":
        """Full product grid; space cells run lon-fastest, bands innermost."""
        lon_edges = np.asarray(lon_edges, dtype=float)
        lat_edges = np.asarray(lat_edges, dtype=float)
        mag_edges = np.asarray(mag_edges, dtype=float)
        iy, ix, im = (g.ravel() for g in np.meshgrid(
            np.arange(lat_edges.size - 1), np.arange(lon_edges.size - 1),
            np.arange(mag_edges.size - 1), indexing="ij"))
        return cls(np.column_stack([lon_edges[ix], lon_edges[ix + 1],
                                    lat_edges[iy], lat_edges[iy + 1],
                                    mag_edges[im], mag_edges[im + 1]]))

    def _cached(self, name: str, build):
        if name not in self.__dict__:
            object.__setattr__(self, name, build())
        return self.__dict__[name]

    def _space(self):
        return self._cached("_space_cache", lambda: _distinct_rows(self.boxes[:, :4]))

    def _bands(self):
        def build():
            bands, _, index = _unique_rows(self.boxes[:, 4:6])
            return _frozen(bands), _frozen(index)
        return self._cached("_band_cache", build)

    @property
    def n_cells(self) -> int:
        return self.boxes.shape[0]

    @property
    def mag_bands(self) -> np.ndarray:
        """Distinct magnitude bands, sorted."""
        return self._bands()[0]

    @property
    def space_boxes(self) -> np.ndarray:
        """Distinct spatial boxes in first-appearance order."""
        return self._space()[0]

    @property
    def mag_min(self) -> float:
        return float(self.boxes[:, 4].min())

    def space_index(self) -> np.ndarray:
        """Index of each cell's spatial box within space_boxes."""
        return self._space()[1]

    def band_index(self) -> np.ndarray:
        """Index of each cell's band within mag_bands."""
        return self._bands()[1]

    def locate(self, lons, lats, mags=None) -> np.ndarray:
        """Index of the cell holding each point, or -1 for points in no cell.

        Boxes are closed on every face; a point on a shared face goes to the
        lowest-index cell holding it. With mags=None the magnitude is
        ignored: a point goes to the lowest-index cell whose lon/lat box
        holds it.
        """
        coords = (lons, lats) if mags is None else (lons, lats, mags)
        shape = np.shape(lons)
        pts = [np.asarray(v, dtype=float).ravel() for v in coords]
        if self._lattice is None:
            return self._scan(pts).reshape(shape)
        edges, owner = self._lattice
        n = self.n_cells
        inside = np.ones(pts[0].size, dtype=bool)
        ranges = []
        for e, p in zip(edges, pts):
            # the one or two lattice intervals whose closure holds p
            first = np.maximum(np.searchsorted(e, p, side="left") - 1, 0)
            last = np.minimum(np.searchsorted(e, p, side="right") - 1, e.size - 2)
            inside &= first <= last
            ranges.append((first, np.maximum(last, 0), 2))
        if mags is None:
            ranges.append((0, owner.shape[2] - 1, owner.shape[2]))
        table = owner.ravel()
        best = np.full(pts[0].size, n, dtype=np.intp)
        for step in itertools.product(*(range(k) for _, _, k in ranges)):
            flat = 0
            for (first, last, _), d, size in zip(ranges, step, owner.shape):
                flat = flat * size + np.minimum(first + d, last)
            best = np.minimum(best, table[flat])
        return np.where(inside & (best < n), best, -1).reshape(shape)

    def _scan(self, pts) -> np.ndarray:
        """Closed-box, lowest-index location by chunks of points against every cell."""
        b = self.boxes
        out = np.full(pts[0].size, -1, dtype=np.intp)
        step = max(1, _CHUNK_ELEMENTS // b.shape[0])
        for lo in range(0, out.size, step):
            inside = np.ones((b.shape[0], min(step, out.size - lo)), dtype=bool)
            for a, p in enumerate(pts):
                q = p[lo:lo + step]
                inside &= (b[:, 2 * a, None] <= q) & (q <= b[:, 2 * a + 1, None])
            hit = inside.any(axis=0)
            out[lo:lo + step][hit] = inside.argmax(axis=0)[hit]
        return out

    def cell_area_km2(self) -> np.ndarray:
        b = self.boxes
        lat_mid = np.radians(0.5 * (b[:, 2] + b[:, 3]))
        return (KM_PER_DEG * np.cos(lat_mid) * (b[:, 1] - b[:, 0])) * (KM_PER_DEG * (b[:, 3] - b[:, 2]))

    def __eq__(self, other):
        return self is other or (isinstance(other, BinGrid)
                                 and np.array_equal(self.boxes, other.boxes))


def bin_counts(c: Catalog, g: BinGrid) -> BinCounts:
    """Count events per grid cell.

    Boxes are closed on every face; an event on a shared boundary goes to
    the lowest-index cell containing it. Events in no cell land in the
    remainder count.
    """
    cell = g.locate(c.lons, c.lats, c.mags)
    hit = cell[cell >= 0]
    return BinCounts(np.bincount(hit, minlength=g.n_cells), c.n - hit.size)


@dataclass(frozen=True)
class RegionLattice:
    """Midpoint evaluation lattice over a region's bounding box.

    Flattened cell centers with an inside-region mask and per-cell km^2
    areas (latitude-dependent). No command uses it: the error diagram and
    the Voronoi masses weigh their boxes by exact areas (_lattice_areas).
    It is kept as the tests' midpoint quadrature oracle and as a target of
    the benchmark's tracer.
    """

    lons: np.ndarray
    lats: np.ndarray
    inside: np.ndarray
    cell_km2: np.ndarray
    nx: int
    ny: int


def region_lattice(region: Region, n: int = 200) -> RegionLattice:
    lon_min, lon_max, lat_min, lat_max = region.bbox
    dlon = (lon_max - lon_min) / n
    dlat = (lat_max - lat_min) / n
    cx = lon_min + dlon * (np.arange(n) + 0.5)
    cy = lat_min + dlat * (np.arange(n) + 0.5)
    gx, gy = np.meshgrid(cx, cy)
    lons = gx.ravel()
    lats = gy.ravel()
    inside = region.contains(lons, lats)
    cell = (KM_PER_DEG * np.cos(np.radians(lats)) * dlon) * (KM_PER_DEG * dlat)
    return RegionLattice(lons, lats, inside, cell, n, n)


def box_lattice_index(region: Region, lons, lats, nx: int, ny: int) -> np.ndarray:
    """Flat index iy * nx + ix of the cell of the nx x ny lattice over the
    region's bounding box that holds each point. The box is closed: its
    east and north edges fall in the last column and row, and a point
    outside it goes to the nearest edge cell."""
    lon_min, lon_max, lat_min, lat_max = region.bbox
    ix = np.floor((lons - lon_min) / (lon_max - lon_min) * nx)
    iy = np.floor((lats - lat_min) / (lat_max - lat_min) * ny)
    return np.clip(iy, 0, ny - 1).astype(int) * nx + np.clip(ix, 0, nx - 1).astype(int)
