"""Output checks, each computed apart from the program.

Every check reads the workload's input files and one command's output
files, recomputes what the output must hold with the benchmark's own code
(numpy, scipy.stats), and raises CheckFailed when it does not. No check
compares against a stored copy of earlier output.

`CHECKS[workload][op]` lists the checks of each operation; `run_checks`
returns the failures per operation.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import stats

from workloads import KM_PER_DEG, planar_area_km2

REL = 1e-9   # recomputed sums over many terms, in another order
LEVEL = 0.05


class CheckFailed(AssertionError):
    pass


def expect(ok, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def close(a, b, rel=REL, abs_=1e-9) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= abs_ + rel * np.abs(b)))


# --- readers -----------------------------------------------------------------


def read_table(path):
    """(comments, columns) of a CSV with '# key = value' comment lines."""
    comments, lines = {}, []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            s = raw.strip()
            if not s:
                continue
            if s.startswith("#"):
                key, _, val = s[1:].partition("=")
                comments[key.strip()] = val.strip()
            else:
                lines.append(s.split(","))
    header, rows = lines[0], lines[1:]
    cols = {}
    for j, name in enumerate(header):
        vals = [r[j] for r in rows]
        try:
            cols[name] = np.array([float(v) for v in vals])
        except ValueError:
            cols[name] = np.array(vals)
    return comments, cols


def read_catalog(path):
    meta, cols = read_table(path)
    return (cols["time"], cols["lon"], cols["lat"], cols["mag"],
            float(meta["window_days"]), float(meta["m0"]))


def read_forecast(path):
    _, cols = read_table(path)
    boxes = np.column_stack([cols[k] for k in ("lon_min", "lon_max", "lat_min", "lat_max",
                                               "mag_min", "mag_max")])
    return boxes, cols["rate"]


def read_region(path):
    _, cols = read_table(path)
    return cols["lon"], cols["lat"]


def read_params(path):
    meta, vals = {}, {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            s = raw.strip()
            if not s:
                continue
            target = meta if s.startswith("#") else vals
            key, _, val = s.lstrip("#").partition("=")
            target[key.strip()] = val.strip()
    return meta, {k: float(v) for k, v in vals.items()}


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# --- independent geometry and model maths ----------------------------------


class Plane:
    """Equirectangular km plane anchored at the region's vertex centroid."""

    def __init__(self, lons, lats):
        self.lon0 = float(np.mean(lons))
        self.lat0 = float(np.mean(lats))
        self.kx = KM_PER_DEG * math.cos(math.radians(self.lat0))
        self.area = planar_area_km2(lons, lats)

    def xy(self, lons, lats):
        return (self.kx * (np.asarray(lons) - self.lon0),
                KM_PER_DEG * (np.asarray(lats) - self.lat0))


def inside_polygon(px, py, vx, vy) -> np.ndarray:
    """Even-odd ray test; the benchmark's points never sit on an edge."""
    px, py = np.atleast_1d(px), np.atleast_1d(py)
    out = np.zeros(px.shape, dtype=bool)
    for a, b, c, d in zip(vx, vy, np.roll(vx, -1), np.roll(vy, -1)):
        if b == d:
            continue
        hit = ((b > py) != (d > py)) & (px < a + (c - a) * (py - b) / (d - b))
        out ^= hit
    return out


def shoelace(x, y) -> float:
    return abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))) / 2.0


def pair_km(lons, lats):
    """Pairwise km distances, equirectangular at each pair's mean latitude."""
    mid = np.radians(0.5 * (lats[:, None] + lats[None, :]))
    dx = KM_PER_DEG * np.cos(mid) * (lons[None, :] - lons[:, None])
    dy = KM_PER_DEG * (lats[None, :] - lats[:, None])
    return np.hypot(dx, dy)


def etas_rates(prm, t, x, y, m):
    """Conditional ETAS intensity at each event from its strict past."""
    dt = t[:, None] - t[None, :]
    past = dt > 0
    r2 = pair_km(x, y) ** 2
    g = (np.where(past, dt, 1.0) + prm["c"]) ** -prm["p"] * (r2 + prm["d"]) ** -prm["q"]
    kappa = prm["k"] * np.exp(prm["a"] * (m - prm["m0"]))
    return prm["mu"] + np.where(past, g, 0.0) @ kappa


def etas_compensator(prm, t, m, T, area):
    """Closed-form integral of the ETAS rate over region x [0, T], with each
    event's triggering mass taken over the whole plane."""
    kappa = prm["k"] * np.exp(prm["a"] * (m - prm["m0"]))
    c, p, d, q = prm["c"], prm["p"], prm["d"], prm["q"]
    tmass = (c ** (1.0 - p) - (T - t + c) ** (1.0 - p)) / (p - 1.0)
    smass = math.pi * d ** (1.0 - q) / (q - 1.0)
    return prm["mu"] * area * T + float(np.sum(kappa * tmass)) * smass


def etas_loglik(prm, t, x, y, m, T, area):
    return float(np.sum(np.log(etas_rates(prm, t, x, y, m)))) - \
        etas_compensator(prm, t, m, T, area)


def weighted_k(xy, w, lags, area):
    x, y = xy
    dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    np.fill_diagonal(dist, np.inf)
    ww = w[:, None] * w[None, :]
    order = np.argsort(dist, axis=None)
    cum = np.concatenate([[0.0], np.cumsum(ww.ravel()[order])])
    return cum[np.searchsorted(dist.ravel()[order], lags, side="right")] / area


def regular_cells(lons, lats, mags, lon_e, lat_e, mag_e):
    """Cell index per event by floor division on a regular product grid
    (space cells lon-fastest, bands innermost)."""
    ix = np.floor((lons - lon_e[0]) / (lon_e[1] - lon_e[0])).astype(int)
    iy = np.floor((lats - lat_e[0]) / (lat_e[1] - lat_e[0])).astype(int)
    nb = mag_e.size - 1
    ib = np.floor((mags - mag_e[0]) / (mag_e[1] - mag_e[0])).astype(int) if nb > 1 \
        else np.zeros(lons.size, dtype=int)
    return (iy * (lon_e.size - 1) + ix) * nb + ib


def logpmf(counts, rates):
    return stats.poisson.logpmf(counts, rates)


class Run:
    """One workload's inputs and outputs; parsed files are kept per Run."""

    def __init__(self, wl, inp: str, out: str):
        self.wl, self.inp, self.out = wl, inp, out
        self._memo = {}

    def get(self, build):
        if build not in self._memo:
            self._memo[build] = build(self)
        return self._memo[build]

    def catalog(self):
        return read_catalog(f"{self.inp}/catalog.csv")

    def plane(self):
        return Plane(*read_region(f"{self.inp}/region.csv"))

    def binned(self, boxes):
        """Counts per forecast cell, binned by floor division on the edges."""
        t, x, y, m, T, _ = self.catalog()
        cells = regular_cells(x, y, m, *self.wl.edges())
        b = boxes[cells]
        expect(np.all((b[:, 0] <= x) & (x <= b[:, 1]) & (b[:, 2] <= y) & (y <= b[:, 3])
                      & (b[:, 4] <= m) & (m <= b[:, 5])),
               "floor-division binning disagrees with the forecast's cell boxes")
        return cells, np.bincount(cells, minlength=boxes.shape[0])


# --- csep-test ---------------------------------------------------------------


class Csep:
    """Recomputed counts and the reported results of the csep-test pass."""

    def __init__(self, r: Run):
        boxes, self.ra = read_forecast(f"{r.inp}/forecast_a.csv")
        _, self.rb = read_forecast(f"{r.inp}/forecast_b.csv")
        _, self.counts = r.binned(boxes)
        self.nb = len(r.wl.mag_edges) - 1
        self.n_sim = r.wl.n_sim
        _, res = read_table(f"{r.out}/test/results.csv")
        self.res = {str(n): (s, q, int(k), str(d)) for n, s, q, k, d in
                    zip(res["test"], res["statistic"], res["quantile_or_p"],
                        res["n_sim"], res["decision"])}
        _, sims = read_table(f"{r.out}/test/sims.csv")
        self.sims = {name: sims["statistic"][sims["test"] == name]
                     for name in ("l", "m", "s", "r_ab", "r_ba")}

    def marginal(self, axis):
        c = self.counts.reshape(-1, self.nb).sum(axis=axis)
        rate = self.ra.reshape(-1, self.nb).sum(axis=axis)
        return float(np.sum(logpmf(c, rate * (c.sum() / rate.sum()))))


def csep_statistics(r):
    """N, L, M, S and R statistics and the N quantile, recomputed."""
    ctx = r.get(Csep)
    n = int(ctx.counts.sum())
    la = float(np.sum(logpmf(ctx.counts, ctx.ra)))
    lb = float(np.sum(logpmf(ctx.counts, ctx.rb)))
    want = {"n": n, "l": la, "m": ctx.marginal(0), "s": ctx.marginal(1),
            "r_ab": la - lb, "r_ba": lb - la}
    for name, value in want.items():
        expect(close(ctx.res[name][0], value),
               f"{name} statistic {ctx.res[name][0]!r} != recomputed {value!r}")
    mu = float(ctx.ra.sum())
    q = min(stats.poisson.sf(n - 1, mu), stats.poisson.cdf(n, mu))
    expect(close(ctx.res["n"][1], q), f"n quantile {ctx.res['n'][1]!r} != {q!r}")
    expect(ctx.res["r_ab"][0] == -ctx.res["r_ba"][0], "r_ab is not -r_ba")


def csep_t_w(r):
    """T from scipy's one-sample t test, W from rankdata with the tie-corrected
    normal approximation, on the per-cell log-likelihood differences."""
    ctx = r.get(Csep)
    x = logpmf(ctx.counts, ctx.ra) - logpmf(ctx.counts, ctx.rb)
    x = x[np.isfinite(x)]
    tt = stats.ttest_1samp(x, 0.0)
    expect(close(ctx.res["t"][0], tt.statistic, rel=1e-7),
           f"t statistic {ctx.res['t'][0]!r} != scipy {tt.statistic!r}")
    expect(close(ctx.res["t"][1], tt.pvalue, rel=1e-6, abs_=1e-12), "t p-value mismatch")
    nz = x[x != 0.0]
    ranks = stats.rankdata(np.abs(nz))
    w = float(ranks[nz > 0].sum())
    n = nz.size
    _, ties = np.unique(np.abs(nz), return_counts=True)
    var = n * (n + 1) * (2 * n + 1) / 24.0 - float(np.sum(ties ** 3.0 - ties)) / 48.0
    p = math.erfc(abs(w - n * (n + 1) / 4.0) / math.sqrt(var) / math.sqrt(2.0))
    expect(close(ctx.res["w"][0], w), f"w statistic {ctx.res['w'][0]!r} != ranks {w!r}")
    expect(close(ctx.res["w"][1], p, rel=1e-6, abs_=1e-12), "w p-value mismatch")


def csep_quantiles(r):
    """Each simulated quantile is the share of its sims.csv statistics at or
    below the observed statistic."""
    ctx = r.get(Csep)
    for name, sims in ctx.sims.items():
        stat, q, n_sim, _ = ctx.res[name]
        expect(sims.size == ctx.n_sim == n_sim,
               f"{name}: {sims.size} simulated statistics, {ctx.n_sim} requested")
        share = float(np.mean(sims <= stat))
        expect(q == share, f"{name} quantile {q!r} != share at or below {share!r}")


def csep_decisions(r):
    ctx = r.get(Csep)
    for name, (_, q, _, decision) in ctx.res.items():
        cut = LEVEL / 2.0 if name == "n" else LEVEL
        want = "reject" if q < cut else "consistent"
        expect(decision == want, f"{name} decision {decision} at score {q!r}")


def csep_null_mean(r):
    """The mean simulated L statistic lies within 6 standard errors of the
    analytic expectation sum_i E[log p(N_i; r_i)], computed per cell."""
    ctx = r.get(Csep)
    rate = ctx.ra
    n = np.arange(int(rate.max() + 10.0 * math.sqrt(rate.max()) + 12) + 1)[None, :]
    lp = logpmf(n, rate[:, None])
    p = np.exp(lp)
    mean = np.sum(p * lp, axis=1)
    var = np.sum(p * lp * lp, axis=1) - mean ** 2
    sims = ctx.sims["l"]
    se = math.sqrt(float(var.sum()) / sims.size)
    z = (float(sims.mean()) - float(mean.sum())) / se
    expect(abs(z) <= 6.0, f"mean simulated L is {z:.2f} standard errors from its expectation")


# --- hawkes-eval -------------------------------------------------------------


def fitted(r):
    return read_params(f"{r.out}/fit/params.txt")


def hawkes_fit(r):
    """The reported log-likelihood equals the dense ETAS log-likelihood at
    the fitted parameters and is no lower than at the generating ones."""
    t, x, y, m, T, _ = r.catalog()
    area = r.plane().area
    meta, prm = fitted(r)
    reported = float(meta["log_likelihood"])
    own = etas_loglik(prm, t, x, y, m, T, area)
    expect(close(reported, own, abs_=1e-6),
           f"reported log-likelihood {reported!r} != dense recomputation {own!r}")
    _, truth = read_params(f"{r.inp}/truth.txt")
    at_truth = etas_loglik(truth, t, x, y, m, T, area)
    expect(reported >= at_truth - 1e-6, f"fitted log-likelihood {reported!r} is below the "
           f"generating parameters' {at_truth!r}")


def hawkes_superthin(r):
    """Points lie in the region and the window; every retained point is an
    observed event."""
    t, x, y, m, T, _ = r.catalog()
    rx, ry = read_region(f"{r.inp}/region.csv")
    _, pts = read_table(f"{r.out}/superthin/points.csv")
    expect(pts["time"].size > 0, "no super-thinned points")
    expect(np.all(np.isin(pts["tag"], ["retained", "superposed"])), "unknown point tag")
    expect(np.all((pts["time"] >= 0) & (pts["time"] <= T)), "a point lies outside the window")
    expect(np.all(inside_polygon(pts["lon"], pts["lat"], rx, ry)),
           "a point lies outside the region")
    kept = pts["tag"] == "retained"
    events = set(zip(t.tolist(), x.tolist(), y.tolist()))
    got = set(zip(pts["time"][kept].tolist(), pts["lon"][kept].tolist(),
                  pts["lat"][kept].tolist()))
    expect(got <= events, "a retained point is not an observed event")
    expect(len(got) == int(kept.sum()), "a retained event appears twice")


def hawkes_rescale(r):
    """total_mass matches the closed-form compensator within the trapezoid
    rule's error bound on the CLI's 20001-point time lattice."""
    t, x, y, m, T, _ = r.catalog()
    _, prm = fitted(r)
    meta, cols = read_table(f"{r.out}/rescale/taus.csv")
    total = float(meta["total_mass"])
    exact = etas_compensator(prm, t, m, T, r.plane().area)
    # event i adds f(s) = K_i (s - t_i + c)^-p for s > t_i. On the lattice
    # interval holding t_i the rule sees 0 and f(t_i + delta), so its error
    # there is known exactly; after it, f is smooth and each interval errs by
    # at most h^3/12 max|f''|, which sums to h^2/12 (h f''(first) + int |f''|)
    h = T / 20000.0
    c, p = prm["c"], prm["p"]
    K = prm["k"] * np.exp(prm["a"] * (m - prm["m0"])) * \
        math.pi * prm["d"] ** (1.0 - prm["q"]) / (prm["q"] - 1.0)
    delta = (np.floor(t / h) + 1.0) * h - t
    jump = np.abs(0.5 * h * K * (delta + c) ** -p
                  - K * (c ** (1.0 - p) - (delta + c) ** (1.0 - p)) / (p - 1.0))
    smooth = h * h / 12.0 * K * p * (h * (p + 1.0) * (delta + c) ** (-p - 2.0)
                                     + (delta + c) ** (-p - 1.0))
    bound = float(np.sum(jump + smooth))
    expect(abs(total - exact) <= bound + 1e-9 * exact,
           f"total_mass {total!r} is {abs(total - exact):.3g} from the closed form "
           f"{exact!r}; trapezoid bound {bound:.3g}")
    taus = cols["tau"]
    expect(taus.size == t.size and np.all(np.diff(taus) >= 0) and taus[0] >= 0
           and taus[-1] <= total, "rescaled times are not increasing within [0, total_mass]")


def partition(features, plane: Plane, what: str):
    areas = []
    for f in features:
        ring = np.asarray(f["geometry"]["coordinates"][0], dtype=float)
        areas.append(shoelace(*plane.xy(ring[:, 0], ring[:, 1])))
    areas = np.asarray(areas)
    defect = abs(float(areas.sum()) - plane.area) / plane.area
    expect(defect < 1e-6, f"{what} cells cover the region with defect {defect:.3g}")
    return areas


def tessellation(r):
    """Cells partition the region to a defect below 1e-6, one cell per
    event, each cell holding its own generator."""
    t, x, y, m, T, _ = r.catalog()
    plane = r.plane()
    meta, cols = read_table(f"{r.out}/tessellate/areas.csv")
    expect(cols["cell_id"].size == t.size, f"{cols['cell_id'].size} cells for {t.size} events")
    expect(float(meta["partition_defect"]) < 1e-6, "reported partition defect >= 1e-6")
    expect(sorted(zip(cols["gen_lon"].tolist(), cols["gen_lat"].tolist()))
           == sorted(zip(x.tolist(), y.tolist())), "generators are not the catalog epicentres")
    feats = read_json(f"{r.out}/tessellate/cells.geojson")["features"]
    expect(len(feats) == t.size, "cells.geojson has the wrong number of cells")
    areas = partition(feats, plane, "Voronoi")
    expect(close(areas, cols["area_km2"], rel=1e-6), "cell areas disagree with the polygons")
    for f in feats:
        ring = np.asarray(f["geometry"]["coordinates"][0], dtype=float)
        pr = f["properties"]
        expect(inside_polygon(pr["gen_lon"], pr["gen_lat"], ring[:-1, 0], ring[:-1, 1])[0],
               f"cell {pr['cell_id']} does not hold its generator")


def voronoi_cells(r):
    """One residual per event, on cells that partition the region; exactly
    the flagged (zero-mass) cells have no value."""
    _, cols = read_table(f"{r.out}/voronoi/voronoi.csv")
    v = cols["value"]
    expect(v.size == r.catalog()[0].size, f"{v.size} Voronoi residuals for "
           f"{r.catalog()[0].size} events")
    expect(np.array_equal(cols["flag"] == 1, ~np.isfinite(v)),
           "Voronoi residual flags do not mark exactly the cells without a value")
    partition(read_json(f"{r.out}/voronoi/voronoi.geojson")["features"], r.plane(),
              "Voronoi residual")
    return v


def error_diagram_shape(r):
    """The error diagram runs monotonically from (0, 1) to (1, 0)."""
    _, cols = read_table(f"{r.out}/errordiag/errordiag.csv")
    a, mf, u = cols["alarm_fraction"], cols["miss_fraction"], cols["threshold"]
    expect(a[0] == 0.0 and mf[0] == 1.0, "error diagram does not start at (0, 1)")
    expect(a[-1] == 1.0 and mf[-1] == 0.0, "error diagram does not end at (1, 0)")
    expect(np.all(np.diff(a) >= 0) and np.all(np.diff(mf) <= 0) and np.all(np.diff(u) < 0),
           "error diagram is not monotone")
    return cols


def k_curve(r, weights):
    """Weighted K values equal the benchmark's own pair sum."""
    t, x, y, m, T, _ = r.catalog()
    plane = r.plane()
    _, cols = read_table(f"{r.out}/kfn/kfunction.csv")
    lags = cols["lag_km"]
    expect(close(lags, math.sqrt(plane.area) * np.linspace(0.01, 0.10, 10)), "unexpected K lags")
    expect(close(cols["reference"], math.pi * lags ** 2), "K reference is not pi h^2")
    expect(np.all(cols["envelope_lo"] <= cols["envelope_hi"]), "K envelope is inverted")
    want = weighted_k(plane.xy(x, y), weights, lags, plane.area)
    expect(close(cols["k_value"], want), "weighted K differs from the recomputed pair sum")


def hawkes_kfn(r):
    t, x, y, m, T, _ = r.catalog()
    _, prm = fitted(r)
    k_curve(r, 1.0 / (etas_rates(prm, t, x, y, m) * T))


# --- grid-diagnostics ------------------------------------------------------


class Grid:
    """Forecast cells, counts and per-event cell lookups by floor division."""

    def __init__(self, r: Run):
        self.boxes, self.ra = read_forecast(f"{r.inp}/forecast_a.csv")
        _, self.rb = read_forecast(f"{r.inp}/forecast_b.csv")
        self.event_cell, self.counts = r.binned(self.boxes)
        self.T = r.catalog()[4]
        b = self.boxes
        self.cell_km2 = (KM_PER_DEG * np.cos(np.radians(0.5 * (b[:, 2] + b[:, 3]))) *
                         (b[:, 1] - b[:, 0])) * (KM_PER_DEG * (b[:, 3] - b[:, 2]))
        self.density = self.ra / (self.cell_km2 * self.T)


def grid_errordiag(r):
    """Miss and alarm fractions equal the shares recomputed from the cell
    densities; a value within 1e-12 of a threshold may fall either side."""
    g = r.get(Grid)
    cols = error_diagram_shape(r)
    ev = g.density[g.event_cell]
    n = ev.size
    total = g.cell_km2.sum()
    for u, a, mf in zip(cols["threshold"], cols["alarm_fraction"], cols["miss_fraction"]):
        lo, hi = u * (1.0 - 1e-12), u * (1.0 + 1e-12)
        expect(np.sum(ev < lo) <= mf * n + 1e-9 and mf * n <= np.sum(ev < hi) + 1e-9,
               f"miss fraction {mf!r} at threshold {u!r}")
        a_lo = g.cell_km2[g.density >= hi].sum() / total
        a_hi = g.cell_km2[g.density >= lo].sum() / total
        expect(a_lo - 1e-12 <= a <= a_hi + 1e-12, f"alarm fraction {a!r} at threshold {u!r}")


def grid_kfn(r):
    g = r.get(Grid)
    k_curve(r, 1.0 / (g.density[g.event_cell] * g.T))


def grid_pixel(r):
    """Raw residuals are counts minus rates, Pearson ones raw / sqrt(rate)."""
    g = r.get(Grid)
    raw = g.counts - g.ra
    _, rc = read_table(f"{r.out}/pixel/raw.csv")
    _, pc = read_table(f"{r.out}/pixel/pearson.csv")
    expect(close(rc["value"], raw, rel=1e-12, abs_=1e-12), "raw residuals != counts - rates")
    expect(close(pc["value"], raw / np.sqrt(g.ra), rel=1e-12, abs_=1e-12),
           "Pearson residuals != raw / sqrt(rate)")
    expect(not rc["flag"].any(), "a positive-rate cell is flagged")
    feats = read_json(f"{r.out}/pixel/raw.geojson")["features"]
    expect(len(feats) == g.ra.size, "raw.geojson has the wrong number of cells")


def grid_deviance(r):
    """Deviance residuals are per-cell log-likelihood differences and sum to
    L_A - L_B."""
    g = r.get(Grid)
    la_cell = logpmf(g.counts, g.ra)
    lb_cell = logpmf(g.counts, g.rb)
    _, d = read_table(f"{r.out}/deviance/deviance.csv")
    expect(close(d["value"], la_cell - lb_cell, abs_=1e-12), "deviance residuals differ per cell")
    total = float(d["value"].sum())
    want = float(la_cell.sum()) - float(lb_cell.sum())
    expect(close(total, want), f"deviance residuals sum to {total!r}, L_A - L_B = {want!r}")


def grid_voronoi(r):
    """With a homogeneous model the cell expectations add up to mu T A."""
    v = voronoi_cells(r)
    _, prm = read_params(f"{r.inp}/homogeneous.txt")
    # inverts (1 - L) / sqrt(L); a flagged cell owns no lattice point, L = 0
    lam = np.where(np.isfinite(v), ((np.sqrt(v * v + 4.0) - v) / 2.0) ** 2, 0.0)
    total = prm["mu"] * r.catalog()[4] * r.plane().area
    expect(abs(float(lam.sum()) - total) <= 1e-2 * total,
           f"cell expectations sum to {float(lam.sum())!r}, model total {total!r}")


def grid_simulate(r):
    """Simulated events lie in the grid and the window, and their number is
    within 6 sigma of the forecast total."""
    boxes, ra = read_forecast(f"{r.inp}/forecast_a.csv")
    t, x, y, m, T, _ = read_catalog(f"{r.out}/simulate/catalog.csv")
    lo = boxes.min(axis=0)
    hi = boxes.max(axis=0)
    expect(np.all((x >= lo[0]) & (x <= hi[1]) & (y >= lo[2]) & (y <= hi[3])
                  & (m >= lo[4]) & (m <= hi[5])), "a simulated event lies outside the grid")
    expect(T == r.wl.window_days and np.all((t >= 0) & (t <= T)), "simulated window mismatch")
    lam = float(ra.sum())
    expect(abs(t.size - lam) <= 6.0 * math.sqrt(lam),
           f"{t.size} simulated events, {lam:.1f} expected")


CHECKS = {
    "csep-test": {"test": [csep_statistics, csep_t_w, csep_quantiles, csep_decisions,
                           csep_null_mean]},
    "hawkes-eval": {
        "fit": [hawkes_fit],
        "superthin": [hawkes_superthin],
        "rescale": [hawkes_rescale],
        "voronoi": [voronoi_cells],
        "errordiag": [error_diagram_shape],
        "kfn": [hawkes_kfn],
        "tessellate": [tessellation],
    },
    "grid-diagnostics": {
        "errordiag": [grid_errordiag],
        "kfn": [grid_kfn],
        "pixel": [grid_pixel],
        "deviance": [grid_deviance],
        "voronoi": [grid_voronoi],
        "tessellate": [tessellation],
        "simulate": [grid_simulate],
    },
}


# checks that fail on every pass through a fault of the program (see
# CHANGES.md): the operation counts as failed, but the run stays correct
# when these are its only failures
KNOWN_FAULTS = {
    # a time-dependent model's diagram scores events by their instantaneous
    # rate but sets thresholds from the time-averaged surface
    ("hawkes-eval", "errordiag"): {"error_diagram_shape"},
}


def run_checks(wl, inp: str, out: str, ops) -> dict:
    """Failure messages per operation, for the operations named in ops."""
    r = Run(wl, inp, out)
    failures = {}
    for op in ops:
        failures[op] = []
        for check in CHECKS[wl.name].get(op, []):
            try:
                check(r)
            except Exception as e:  # an unreadable output fails its check too
                failures[op].append(f"{check.__name__}: {type(e).__name__}: {e}")
    return failures
