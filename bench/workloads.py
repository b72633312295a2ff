"""Workload definitions: input generation and the eqassess commands of a pass.

Every input is generated here with numpy from the workload seed. The
program's own simulators are never used, so a change to their random draws
cannot change what the benchmark feeds the program. Sizes are fixed per
workload (fixed event counts, fixed lattices, capped optimizer iterations),
so the work in a pass does not depend on the seed.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

KM_PER_DEG = 111.32
SPLIT = {"csep-test": 1, "hawkes-eval": 2, "grid-diagnostics": 3}
# events stay this share of a cell width away from every cell face, so the
# floor-division binning of the checks and the closed-box rule agree
EDGE_MARGIN = 1e-6


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([SPLIT[workload], seed]))


def _fmt(x) -> str:
    return repr(float(x))


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def region_text(lon0, lon1, lat0, lat1) -> str:
    rows = ["lon,lat"] + [f"{_fmt(x)},{_fmt(y)}" for x, y in
                          ((lon0, lat0), (lon1, lat0), (lon1, lat1), (lon0, lat1))]
    return "\n".join(rows) + "\n"


def catalog_text(times, lons, lats, mags, window_days, m0) -> str:
    order = np.lexsort((mags, lats, lons, times))
    rows = [f"# window_days = {_fmt(window_days)}", f"# m0 = {_fmt(m0)}",
            "time,lon,lat,mag"]
    rows += [f"{_fmt(times[i])},{_fmt(lons[i])},{_fmt(lats[i])},{_fmt(mags[i])}"
             for i in order]
    return "\n".join(rows) + "\n"


def forecast_text(lon_edges, lat_edges, mag_edges, rates) -> str:
    """Regular product grid, space cells lon-fastest, bands innermost."""
    nx, ny, nm = lon_edges.size - 1, lat_edges.size - 1, mag_edges.size - 1
    lon_s = [_fmt(v) for v in lon_edges]
    lat_s = [_fmt(v) for v in lat_edges]
    mag_s = [_fmt(v) for v in mag_edges]
    rate_s = [_fmt(v) for v in np.asarray(rates).ravel()]
    rows = ["lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate,mask"]
    i = 0
    for iy in range(ny):
        for ix in range(nx):
            head = f"{lon_s[ix]},{lon_s[ix + 1]},{lat_s[iy]},{lat_s[iy + 1]}"
            for im in range(nm):
                rows.append(f"{head},{mag_s[im]},{mag_s[im + 1]},{rate_s[i]},1")
                i += 1
    return "\n".join(rows) + "\n"


def smooth_field(gen, lon_c, lat_c, n_sources, widths, floor):
    """Sum of Gaussian blobs at random sources plus a uniform floor,
    normalised to sum 1 over the given cell centres (one value per centre)."""
    lon0, lon1 = lon_c.min(), lon_c.max()
    lat0, lat1 = lat_c.min(), lat_c.max()
    sx = gen.uniform(lon0, lon1, n_sources)
    sy = gen.uniform(lat0, lat1, n_sources)
    amp = gen.exponential(1.0, n_sources)
    out = np.zeros(lon_c.size)
    for x, y, a in zip(sx, sy, amp):
        for w in widths:
            out += a * np.exp(-0.5 * ((lon_c - x) ** 2 + (lat_c - y) ** 2) / (w * w))
    out /= out.sum()
    return (1.0 - floor) * out + floor / out.size


def _events_in_cells(gen, cells, x_edges, y_edges, nx):
    """Uniform points inside the given space cells, kept off the cell faces."""
    ix, iy = cells % nx, cells // nx
    u = EDGE_MARGIN + (1.0 - 2.0 * EDGE_MARGIN) * gen.uniform(size=(2, cells.size))
    lons = x_edges[ix] + u[0] * (x_edges[ix + 1] - x_edges[ix])
    lats = y_edges[iy] + u[1] * (y_edges[iy + 1] - y_edges[iy])
    return lons, lats


# --- ETAS truth and simulator ---------------------------------------------


def criterion6_truth():
    """The ETAS parameters of acceptance criterion 6: c and d at the
    unit-elasticity points, branching ratio 0.60, ~520 events expected on a
    3x3 degree box over 350 days before clipping to the box."""
    p, q, a, nbar, n_target, m0, span = 2.0, 2.5, 1.0, 0.60, 520, 4.0, 4.0
    beta = math.log(10.0)
    c = math.exp(-1.0 / (p - 1.0))
    d = math.exp(-1.0 / (q - 1.0))
    tmass = c ** (1.0 - p) / (p - 1.0)
    smass = math.pi * d ** (1.0 - q) / (q - 1.0)
    boost = (beta / (beta - a)) * (1.0 - math.exp(-(beta - a) * span)) \
        / (1.0 - math.exp(-beta * span))
    k = nbar / (boost * tmass * smass)
    area = planar_area_km2((0.0, 3.0, 3.0, 0.0), (0.0, 0.0, 3.0, 3.0))
    mu = n_target * (1.0 - nbar) / (area * 350.0)
    return dict(mu=mu, k=k, c=c, p=p, a=a, d=d, q=q, m0=m0)


def planar_area_km2(lons, lats) -> float:
    """Shoelace area in the equirectangular km plane at the vertex centroid."""
    x = np.asarray(lons, dtype=float)
    y = np.asarray(lats, dtype=float)
    cos_ref = math.cos(math.radians(y.mean()))
    px = KM_PER_DEG * cos_ref * (x - x.mean())
    py = KM_PER_DEG * (y - y.mean())
    return abs(float(np.sum(px * np.roll(py, -1) - np.roll(px, -1) * py))) / 2.0


def _gr_mags(gen, n, m0, b=1.0, span=4.0):
    beta = b * math.log(10.0)
    return m0 - np.log1p(-gen.uniform(size=n) * (1.0 - math.exp(-beta * span))) / beta


def simulate_etas(gen, prm, box, horizon):
    """Branching ETAS realisation; background uniform per km^2 in the box,
    offspring unbounded in space, all events up to the horizon returned."""
    lon0, lon1, lat0, lat1 = box
    area = planar_area_km2((lon0, lon1, lon1, lon0), (lat0, lat0, lat1, lat1))
    n_bg = int(gen.poisson(prm["mu"] * area * horizon))
    xs, ys = [], []
    cmax = max(math.cos(math.radians(lat0)), math.cos(math.radians(lat1)))
    got = 0
    while got < n_bg:
        x = gen.uniform(lon0, lon1, 2 * n_bg)
        y = gen.uniform(lat0, lat1, 2 * n_bg)
        keep = gen.uniform(size=2 * n_bg) < np.cos(np.radians(y)) / cmax
        xs.append(x[keep])
        ys.append(y[keep])
        got += int(keep.sum())
    px = np.concatenate(xs)[:n_bg]
    py = np.concatenate(ys)[:n_bg]
    pt = gen.uniform(0.0, horizon, n_bg)
    pm = _gr_mags(gen, n_bg, prm["m0"])
    parts = [(pt, px, py, pm)]
    tmass = prm["c"] ** (1.0 - prm["p"]) / (prm["p"] - 1.0)
    smass = math.pi * prm["d"] ** (1.0 - prm["q"]) / (prm["q"] - 1.0)
    while pt.size:
        rho = prm["k"] * np.exp(prm["a"] * (pm - prm["m0"])) * tmass * smass
        counts = gen.poisson(rho)
        rep = np.repeat(np.arange(pt.size), counts)
        n = rep.size
        if n == 0:
            break
        lag = prm["c"] * ((1.0 - gen.uniform(size=n)) ** (-1.0 / (prm["p"] - 1.0)) - 1.0)
        r = np.sqrt(prm["d"] * ((1.0 - gen.uniform(size=n)) ** (-1.0 / (prm["q"] - 1.0)) - 1.0))
        phi = gen.uniform(0.0, 2.0 * math.pi, n)
        ct = pt[rep] + lag
        cy = py[rep] + r * np.sin(phi) / KM_PER_DEG
        cx = px[rep] + r * np.cos(phi) / (KM_PER_DEG * np.cos(np.radians(py[rep])))
        cm = _gr_mags(gen, n, prm["m0"])
        live = ct <= horizon
        pt, px, py, pm = ct[live], cx[live], cy[live], cm[live]
        parts.append((pt, px, py, pm))
    t, x, y, m = (np.concatenate(col) for col in zip(*parts))
    inside = (x >= lon0) & (x <= lon1) & (y >= lat0) & (y <= lat1)
    return t[inside], x[inside], y[inside], m[inside]


def params_text(prm) -> str:
    rows = ["# family = hawkes"]
    rows += [f"{name} = {prm[name]!r}" for name in ("mu", "k", "c", "p", "a", "d", "q", "m0")]
    return "\n".join(rows) + "\n"


# --- workloads ----------------------------------------------------------------


@dataclass(frozen=True)
class CsepTest:
    """`eqassess test` with N, L, M, S, R (both ways), T and W at CSEP scale."""

    name: str = "csep-test"
    lon0: float = -125.0
    lat0: float = 32.0
    n_lon: int = 100
    n_lat: int = 100
    cell_deg: float = 0.1
    mag_edges: tuple = tuple(round(5.0 + 0.1 * i, 1) for i in range(11))
    gr_b: float = 1.0
    window_days: float = 365.0
    total_a: float = 40.0
    total_b: float = 36.0
    n_sim: int = 24

    def edges(self):
        lon = self.lon0 + self.cell_deg * np.arange(self.n_lon + 1)
        lat = self.lat0 + self.cell_deg * np.arange(self.n_lat + 1)
        return lon, lat, np.asarray(self.mag_edges, dtype=float)

    def generate(self, d: str, seed: int) -> None:
        gen = _rng(self.name, seed)
        lon_e, lat_e, mag_e = self.edges()
        cx, cy = np.meshgrid(0.5 * (lon_e[1:] + lon_e[:-1]), 0.5 * (lat_e[1:] + lat_e[:-1]))
        cx, cy = cx.ravel(), cy.ravel()
        band = 10.0 ** (-self.gr_b * (mag_e[:-1] - mag_e[0]))
        band /= band.sum()
        space_a = smooth_field(gen, cx, cy, 14, (0.25, 0.8), 0.05)
        space_b = smooth_field(gen, cx, cy, 14, (0.4, 1.2), 0.10)
        rates_a = self.total_a * space_a[:, None] * band[None, :]
        rates_b = self.total_b * space_b[:, None] * band[None, :]
        _write(os.path.join(d, "forecast_a.csv"), forecast_text(lon_e, lat_e, mag_e, rates_a))
        _write(os.path.join(d, "forecast_b.csv"), forecast_text(lon_e, lat_e, mag_e, rates_b))
        # observed catalog: round(total_b) events placed by forecast B
        n_obs = int(round(self.total_b))
        flat = rates_b.ravel() / rates_b.sum()
        cells = np.repeat(np.arange(flat.size), gen.multinomial(n_obs, flat))
        space, bands = cells // band.size, cells % band.size
        lons, lats = _events_in_cells(gen, space, lon_e, lat_e, self.n_lon)
        u = EDGE_MARGIN + (1.0 - 2.0 * EDGE_MARGIN) * gen.uniform(size=n_obs)
        mags = mag_e[bands] + u * (mag_e[bands + 1] - mag_e[bands])
        times = gen.uniform(0.0, self.window_days, n_obs)
        _write(os.path.join(d, "catalog.csv"),
               catalog_text(times, lons, lats, mags, self.window_days, mag_e[0]))

    def commands(self, d: str, o: str, seed: int) -> list:
        return [("test", ["test", "--catalog", f"{d}/catalog.csv",
                          "--forecast-a", f"{d}/forecast_a.csv",
                          "--forecast-b", f"{d}/forecast_b.csv",
                          "--tests", "n,l,m,s,r,t,w", "--n-sim", str(self.n_sim),
                          "--sims-out", "--seed", str(seed), "--jobs", "1",
                          "--out", f"{o}/test"])]


@dataclass(frozen=True)
class HawkesEval:
    """Hawkes fit, residuals, error diagram, K envelopes and tessellation on
    an ETAS catalog with the criterion-6 truth."""

    name: str = "hawkes-eval"
    box: tuple = (0.0, 3.0, 0.0, 3.0)
    n_events: int = 450
    restarts: int = 2
    max_iter: int = 6
    voronoi_grid: int = 50
    errordiag_grid: int = 50
    k_sims: int = 39
    truth: dict = field(default_factory=criterion6_truth)

    def generate(self, d: str, seed: int) -> None:
        gen = _rng(self.name, seed)
        horizon = 700.0
        while True:
            t, x, y, m = simulate_etas(gen, self.truth, self.box, horizon)
            if t.size > self.n_events:
                break
            horizon *= 2.0
        # the first n_events events, the window closing midway to the next
        order = np.argsort(t, kind="stable")[: self.n_events + 1]
        window = 0.5 * (t[order[-2]] + t[order[-1]])
        keep = order[:-1]
        _write(os.path.join(d, "catalog.csv"),
               catalog_text(t[keep], x[keep], y[keep], m[keep], window, self.truth["m0"]))
        _write(os.path.join(d, "region.csv"), region_text(*self.box))
        _write(os.path.join(d, "truth.txt"), params_text(self.truth))

    def commands(self, d: str, o: str, seed: int) -> list:
        cat = ["--catalog", f"{d}/catalog.csv", "--region", f"{d}/region.csv"]
        common = ["--seed", str(seed), "--jobs", "1"]
        fitted = ["--params", f"{o}/fit/params.txt"]
        return [
            ("fit", ["fit", *cat, "--family", "hawkes", "--init", f"{d}/truth.txt",
                     "--restarts", str(self.restarts), "--max-iter", str(self.max_iter),
                     *common, "--out", f"{o}/fit"]),
            ("superthin", ["residuals", "--kind", "superthin", *cat, *fitted, *common,
                           "--out", f"{o}/superthin"]),
            ("rescale", ["residuals", "--kind", "rescale", *cat, *fitted, *common,
                         "--out", f"{o}/rescale"]),
            ("voronoi", ["residuals", "--kind", "voronoi", *cat, *fitted,
                         "--n-grid", str(self.voronoi_grid), *common, "--out", f"{o}/voronoi"]),
            ("errordiag", ["errordiag", *cat, *fitted, "--n-grid", str(self.errordiag_grid),
                           *common, "--out", f"{o}/errordiag"]),
            ("kfn", ["kfn", *cat, *fitted, "--envelope", "--n-sim", str(self.k_sims),
                     *common, "--out", f"{o}/kfn"]),
            ("tessellate", ["tessellate", *cat, *common, "--out", f"{o}/tessellate"]),
        ]


@dataclass(frozen=True)
class GridDiagnostics:
    """Grid-forecast diagnostics at paper scale: point-in-cell lookups,
    K-function pair counts and 4k-cell CSV, GeoJSON and SVG output."""

    name: str = "grid-diagnostics"
    lon0: float = 10.0
    lat0: float = 40.0
    n_side: int = 64
    cell_deg: float = 0.0625
    mag_edges: tuple = (4.0, 9.0)
    window_days: float = 365.0
    n_events: int = 500
    k_sims: int = 59
    voronoi_grid: int = 100

    def edges(self):
        lon = self.lon0 + self.cell_deg * np.arange(self.n_side + 1)
        lat = self.lat0 + self.cell_deg * np.arange(self.n_side + 1)
        return lon, lat, np.asarray(self.mag_edges, dtype=float)

    def region(self):
        span = self.cell_deg * self.n_side
        return (self.lon0, self.lon0 + span, self.lat0, self.lat0 + span)

    def generate(self, d: str, seed: int) -> None:
        gen = _rng(self.name, seed)
        lon_e, lat_e, mag_e = self.edges()
        cx, cy = np.meshgrid(0.5 * (lon_e[1:] + lon_e[:-1]), 0.5 * (lat_e[1:] + lat_e[:-1]))
        cx, cy = cx.ravel(), cy.ravel()
        space_a = smooth_field(gen, cx, cy, 8, (0.15, 0.5), 0.05)
        space_b = smooth_field(gen, cx, cy, 8, (0.2, 0.7), 0.10)
        n = self.n_events
        _write(os.path.join(d, "forecast_a.csv"), forecast_text(lon_e, lat_e, mag_e, n * space_a))
        _write(os.path.join(d, "forecast_b.csv"), forecast_text(lon_e, lat_e, mag_e, n * space_b))
        # the catalog follows an even mixture of the two forecasts
        truth = 0.5 * (space_a + space_b)
        cells = np.repeat(np.arange(truth.size), gen.multinomial(n, truth / truth.sum()))
        lons, lats = _events_in_cells(gen, cells, lon_e, lat_e, self.n_side)
        mags = 4.0 + gen.exponential(1.0 / math.log(10.0), n).clip(0.0, 4.9)
        times = gen.uniform(0.0, self.window_days, n)
        _write(os.path.join(d, "catalog.csv"),
               catalog_text(times, lons, lats, mags, self.window_days, mag_e[0]))
        _write(os.path.join(d, "region.csv"), region_text(*self.region()))
        lo0, lo1, la0, la1 = self.region()
        area = planar_area_km2((lo0, lo1, lo1, lo0), (la0, la0, la1, la1))
        _write(os.path.join(d, "homogeneous.txt"),
               f"# family = homogeneous\nmu = {n / (area * self.window_days)!r}\n")

    def commands(self, d: str, o: str, seed: int) -> list:
        cat = ["--catalog", f"{d}/catalog.csv", "--region", f"{d}/region.csv"]
        common = ["--seed", str(seed), "--jobs", "1"]
        fa = f"{d}/forecast_a.csv"
        return [
            ("errordiag", ["errordiag", *cat, "--forecast", fa, *common, "--out", f"{o}/errordiag"]),
            ("kfn", ["kfn", *cat, "--forecast", fa, "--envelope", "--n-sim", str(self.k_sims),
                     *common, "--out", f"{o}/kfn"]),
            ("pixel", ["residuals", "--kind", "pixel", *cat, "--forecast-a", fa, *common,
                       "--out", f"{o}/pixel"]),
            ("deviance", ["residuals", "--kind", "deviance", *cat, "--forecast-a", fa,
                          "--forecast-b", f"{d}/forecast_b.csv", *common, "--out", f"{o}/deviance"]),
            ("voronoi", ["residuals", "--kind", "voronoi", *cat, "--params", f"{d}/homogeneous.txt",
                         "--n-grid", str(self.voronoi_grid), *common, "--out", f"{o}/voronoi"]),
            ("tessellate", ["tessellate", *cat, *common, "--out", f"{o}/tessellate"]),
            ("simulate", ["simulate", "--kind", "grid", "--forecast", fa,
                          "--window", _fmt(self.window_days), *common, "--out", f"{o}/simulate"]),
        ]


WORKLOADS = {w.name: w for w in (CsepTest(), HawkesEval(), GridDiagnostics())}
