"""Static SVG rendering for residual maps, diagrams, and histograms.

Every renderer is a pure function from data to an SVG string so outputs
are byte-reproducible; no external plotting stack is involved.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .catalog import _FIELD, _fill_rings, _format_distinct, _stack_rings

if TYPE_CHECKING:  # annotations only: rendering needs no summaries code
    from .summaries import ErrorDiagram, KFunctionCurve

_W, _H = 640, 480
_PAD = 52
_HIST_BINS = 30
# the plot area's outline
_FRAME = (f'<rect x="{_PAD}" y="{_PAD}" width="{_W - 2 * _PAD}" '
          f'height="{_H - 2 * _PAD}" fill="none" stroke="black"/>\n')


_f = "{:.2f}".format  # one pixel coordinate


def _svg_open(title: str = "", defs: str = "") -> str:
    """The SVG element, its white background, any defs, then the title."""
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
            f'height="{_H}" viewBox="0 0 {_W} {_H}">\n'
            f'<rect width="{_W}" height="{_H}" fill="white"/>\n' + defs)
    if title:
        head += _text(_W / 2, 24, title, anchor="middle", size=14)
    return head


def _to_px(x, y, lo=(0.0, 0.0), span=(1.0, 1.0), size=(_W - 2 * _PAD, _H - 2 * _PAD)):
    """Pixel coordinates of data points: the data box from lo spanning span
    fills size pixels right of the left pad and up from the bottom pad.
    Whole arrays map as _PAD + (x - lo) / span * size in that order of float
    operations, so a point maps to the same pixel as one at a time."""
    px = _PAD + (np.asarray(x, dtype=float) - lo[0]) / span[0] * size[0]
    py = (_H - _PAD) - (np.asarray(y, dtype=float) - lo[1]) / span[1] * size[1]
    return px, py


def _px_texts(px, py) -> np.ndarray:
    """(n, 2) texts of pixel points by _f, each distinct value formatted once."""
    return _format_distinct(np.column_stack([px, py]), _f)


def _pairs(px, py) -> list:
    """'x,y' pixel pairs to 2 decimals."""
    return list(map(",".join, _px_texts(px, py).tolist()))


def _text(x, y, s, anchor="start", size=12) -> str:
    return (f'<text x="{_f(x)}" y="{_f(y)}" font-family="monospace" '
            f'font-size="{size}" text-anchor="{anchor}">{s}</text>\n')


def _diverging_colors(values, vmax: float) -> np.ndarray:
    """'#rrggbb' fill of each value: white at 0, saturating blue for
    positive and red for negative at |v| >= vmax; white for a non-finite
    value or vmax <= 0. Channels round half to even, as round() does."""
    v = np.asarray(values, dtype=float).reshape(-1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ratio = np.abs(v) / vmax
    t = np.where(ratio < 1.0, ratio, 1.0)  # min(1.0, ratio), nan giving 1.0
    target = np.where((v >= 0)[:, None], [33, 68, 160], [178, 24, 43])
    rgb = np.round(255 + t[:, None] * (target - 255)).astype(int)
    code = rgb @ np.array([1 << 16, 1 << 8, 1])
    code[~np.isfinite(v) | (vmax <= 0)] = 0xffffff
    return _format_distinct(code, "#{:06x}".format)


def _axes_1x1(x_label: str, y_label: str) -> str:
    """Unit-square axes with quarter ticks, in _to_px's default mapping."""
    out = [_FRAME]
    x0, y0 = _PAD, _H - _PAD
    x1, y1 = _W - _PAD, _PAD
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        px = x0 + frac * (x1 - x0)
        py = y0 - frac * (y0 - y1)
        out.append(_text(px, y0 + 18, f"{frac:g}", anchor="middle"))
        out.append(_text(x0 - 6, py + 4, f"{frac:g}", anchor="end"))
    out.append(_text((x0 + x1) / 2, _H - 12, x_label, anchor="middle"))
    out.append(f'<g transform="translate(16,{(y0 + y1) / 2}) rotate(-90)">'
               f'<text font-family="monospace" font-size="12" '
               f'text-anchor="middle">{y_label}</text></g>\n')
    return "".join(out)


_HATCH = ('<defs><pattern id="hatch" width="8" height="8" '
          'patternUnits="userSpaceOnUse">'
          '<rect width="8" height="8" fill="white"/>'
          '<path d="M0,8 L8,0" stroke="#555555" stroke-width="1"/>'
          '</pattern></defs>\n')


def render_map(rs, title: str = "") -> str:
    """Choropleth of a CellResidualSet on its cell polygons.

    Positive values shade blue, negative red, centered white at zero;
    flagged (undefined) cells are cross-hatched. The legend reports the
    symmetric color-scale limit.
    """
    xy, sizes = _stack_rings(rs.cell_polys)
    lon_min, lat_min = xy.min(axis=0)
    lon_max, lat_max = xy.max(axis=0)
    span_x = max(lon_max - lon_min, 1e-12)
    span_y = max(lat_max - lat_min, 1e-12)
    scale = min((_W - 2 * _PAD) / span_x, (_H - 2 * _PAD - 20) / span_y)
    texts = _px_texts(*_to_px(xy[:, 0], xy[:, 1], (lon_min, lat_min), size=(scale, scale)))

    finite = rs.values[np.isfinite(rs.values)]
    vmax = float(np.max(np.abs(finite))) if finite.size else 0.0
    fills = np.where(np.asarray(rs.flags, dtype=bool), "url(#hatch)",
                     _diverging_colors(rs.values, vmax))
    drawn = sizes >= 3  # rings of fewer vertices are not drawn
    out = [_svg_open(title, _HATCH), *_fill_rings(
        lambda m: (f'<polygon points="{" ".join([_FIELD + "," + _FIELD] * m)}" '
                   f'fill="{_FIELD}" stroke="#333333" stroke-width="0.5"/>\n'),
        texts[np.repeat(drawn, sizes)], sizes[drawn], columns=[fills[drawn]])]
    # legend: thin gradient bar, negative (red) to positive (blue)
    bar_x, bar_y, bar_w, bar_h = _PAD, _H - 30, 200, 10
    steps = 40
    legend = _diverging_colors(vmax * (2 * (np.arange(steps) + 0.5) / steps - 1), vmax)
    for s, fill in enumerate(legend.tolist()):
        out.append(f'<rect x="{_f(bar_x + s * bar_w / steps)}" y="{bar_y}" '
                   f'width="{_f(bar_w / steps + 0.5)}" height="{bar_h}" '
                   f'fill="{fill}"/>\n')
    out.append(_text(bar_x, bar_y - 4, f"-{vmax:.3g}"))
    out.append(_text(bar_x + bar_w, bar_y - 4, f"+{vmax:.3g}", anchor="end"))
    out.append(_text(bar_x + bar_w / 2, bar_y - 4, "0", anchor="middle"))
    out.append("</svg>\n")
    return "".join(out)


def render_point_map(lons, lats, tags, region, title: str = "") -> str:
    """Point pattern over the region outline; retained points draw blue,
    superposed red."""
    lons = np.asarray(lons, dtype=float)
    lats = np.asarray(lats, dtype=float)
    ring = region.vertices
    lon_min = min(float(ring[:, 0].min()), float(lons.min()) if lons.size else math.inf)
    lon_max = max(float(ring[:, 0].max()), float(lons.max()) if lons.size else -math.inf)
    lat_min = min(float(ring[:, 1].min()), float(lats.min()) if lats.size else math.inf)
    lat_max = max(float(ring[:, 1].max()), float(lats.max()) if lats.size else -math.inf)
    scale = min((_W - 2 * _PAD) / max(lon_max - lon_min, 1e-12),
                (_H - 2 * _PAD) / max(lat_max - lat_min, 1e-12))
    lo, size = (lon_min, lat_min), (scale, scale)

    out = [_svg_open(title)]
    outline = " ".join(_pairs(*_to_px(ring[:, 0], ring[:, 1], lo, size=size)))
    out.append(f'<polygon points="{outline}" fill="none" stroke="black"/>\n')
    colors = {"retained": "#21448f", "superposed": "#b2182b"}
    texts = _px_texts(*_to_px(lons, lats, lo, size=size))
    fills = _format_distinct(np.asarray(tags), lambda tag: colors.get(str(tag), "#333333"))
    out.extend(map('<circle cx="{}" cy="{}" r="2.5" fill="{}" fill-opacity="0.8"/>\n'.format,
                   texts[:, 0].tolist(), texts[:, 1].tolist(), fills.tolist()))
    out.append(_text(_W - _PAD, 24, f"n={lons.size}", anchor="end"))
    out.append("</svg>\n")
    return "".join(out)


def render_error_diagram(diag: ErrorDiagram, title: str = "") -> str:
    out = [_svg_open(title)]
    out.append(_axes_1x1("alarm fraction", "miss fraction"))
    (x0, x1), (y0, y1) = _to_px([0.0, 1.0], [1.0, 0.0])
    out.append(f'<line x1="{_f(x0)}" y1="{_f(y0)}" x2="{_f(x1)}" '
               f'y2="{_f(y1)}" stroke="#999999" stroke-dasharray="4,4"/>\n')
    pts = " ".join(_pairs(*_to_px(diag.alarm_fractions, diag.miss_fractions)))
    out.append(f'<polyline points="{pts}" fill="none" stroke="#21448f" '
               f'stroke-width="1.5"/>\n')
    out.append(_text(_W - _PAD, 24, f"n={diag.n_events}", anchor="end"))
    out.append("</svg>\n")
    return "".join(out)


def render_k_curve(curve: KFunctionCurve, title: str = "") -> str:
    lags = curve.lags_km
    ref = curve.reference()
    series = [curve.k_values, ref]
    if curve.envelope_lo is not None:
        series += [curve.envelope_lo, curve.envelope_hi]
    y_max = max(float(np.max(s)) for s in series) or 1.0
    x_max = float(lags.max()) or 1.0
    span = (x_max, y_max)

    out = [_svg_open(title)]
    out.append(_FRAME)
    for frac in (0.0, 0.5, 1.0):
        out.append(_text(_PAD + frac * (_W - 2 * _PAD), _H - _PAD + 18,
                         f"{frac * x_max:.3g}", anchor="middle"))
        out.append(_text(_PAD - 6, (_H - _PAD) - frac * (_H - 2 * _PAD) + 4,
                         f"{frac * y_max:.3g}", anchor="end"))
    out.append(_text((_W) / 2, _H - 12, "lag (km)", anchor="middle"))
    if curve.envelope_lo is not None:
        band = _to_px(np.concatenate([lags, lags[::-1]]),
                      np.concatenate([curve.envelope_lo, curve.envelope_hi[::-1]]),
                      span=span)
        out.append(f'<polygon points="{" ".join(_pairs(*band))}" fill="#c6d4f2" '
                   f'fill-opacity="0.6" stroke="none"/>\n')
    ref_pts = " ".join(_pairs(*_to_px(lags, ref, span=span)))
    out.append(f'<polyline points="{ref_pts}" fill="none" stroke="#999999" '
               f'stroke-dasharray="4,4"/>\n')
    obs_pts = " ".join(_pairs(*_to_px(lags, curve.k_values, span=span)))
    out.append(f'<polyline points="{obs_pts}" fill="none" stroke="#b2182b" '
               f'stroke-width="1.5"/>\n')
    out.append(_text(_W - _PAD, 24, f"n={curve.n_points}", anchor="end"))
    out.append("</svg>\n")
    return "".join(out)


def render_histogram(sim_statistics, observed: float, title: str = "") -> str:
    """Histogram of simulated statistics, in _HIST_BINS (30) bins, with the
    observed value marked.

    A non-finite observed value is pinned to the nearest edge and labeled
    with its actual value so the marker stays on-canvas.
    """
    sims = np.asarray(sim_statistics, dtype=float)
    sims = sims[np.isfinite(sims)]
    if sims.size == 0:
        sims = np.array([0.0])
    lo, hi = float(sims.min()), float(sims.max())
    if math.isfinite(observed):
        lo, hi = min(lo, observed), max(hi, observed)
    pad = 0.05 * (hi - lo)
    edges = np.linspace(lo - pad, hi + pad, _HIST_BINS + 1)
    # an empty range, or one too narrow for _HIST_BINS distinct finite bins
    if not np.all(edges[1:] > edges[:-1]):
        lo, hi = lo - 0.5, hi + 0.5
        pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    counts, edges = np.histogram(sims, bins=_HIST_BINS, range=(lo, hi))
    c_max = int(counts.max()) or 1

    marker = observed
    if not math.isfinite(marker):
        marker = lo if marker < 0 else hi
    lo_xy, span = (lo, 0.0), (hi - lo, 1.0)
    xs, _ = _to_px(np.append(edges, marker), 0.0, lo_xy, span)
    _, tops = _to_px(edges[:-1], counts / c_max, lo_xy, span)

    out = [_svg_open(title)]
    out.append(_FRAME)
    for i in np.flatnonzero(counts).tolist():
        out.append(f'<rect x="{_f(xs[i])}" y="{_f(tops[i])}" '
                   f'width="{_f(xs[i + 1] - xs[i])}" height="{_f(_H - _PAD - tops[i])}" '
                   f'fill="#7a9bd4" stroke="#333333" stroke-width="0.5"/>\n')
    out.append(f'<line x1="{_f(xs[-1])}" y1="{_PAD}" x2="{_f(xs[-1])}" '
               f'y2="{_H - _PAD}" stroke="#b2182b" stroke-width="1.5"/>\n')
    out.append(_text(_W - _PAD, 24, f"obs={observed:.6g}", anchor="end"))
    for frac in (0.0, 0.5, 1.0):
        out.append(_text(_PAD + frac * (_W - 2 * _PAD), _H - _PAD + 18,
                         f"{lo + frac * (hi - lo):.4g}", anchor="middle"))
    out.append("</svg>\n")
    return "".join(out)
