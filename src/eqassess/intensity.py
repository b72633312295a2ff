"""Intensity models: kernel smoothers, piecewise grids, and Hawkes clustering.

All rates are event densities per km^2 per day. Every model exposes one
protocol on vectorized, equal-length arrays:

- rate_at(lons, lats, times): the rate at each point and time
  (time-independent models ignore times);
- integrate(lons, lats, t): the exact integral of the rate over [0, t] at
  each point;
- bounds(region, t_max): (inf, sup) of the rate over region x [0, t_max].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .catalog import Catalog, Region, km_distance, region_lattice
from .forecast import GriddedForecast, marginal_space
from .rng import RngStream

# bytes of one float64 temporary (rows x columns) in the chunked kernel sums
_CHUNK_BYTES = 1 << 22
# BLAS matrix-vector kernels sum rows in blocks (4 on x86-64 OpenBLAS); spans
# that are whole multiples of this many rows keep every row in the same
# kind of block, so results do not depend on the span size
_ROW_ALIGN = 64


def _row_spans(n_rows: int, n_cols: int):
    """(lo, hi) row spans whose rows x n_cols float64 block fits _CHUNK_BYTES,
    in multiples of _ROW_ALIGN rows (at least one multiple)."""
    step = max(_ROW_ALIGN, _CHUNK_BYTES // (8 * max(n_cols, 1))
               // _ROW_ALIGN * _ROW_ALIGN)
    for lo in range(0, n_rows, step):
        yield lo, min(lo + step, n_rows)


def kernel_density(r, d: float):
    """Isotropic power-law kernel d/(2*pi) * (r^2 + d^2)^(-3/2).

    Normalized to integrate to 1 over the plane; d (km) controls the width.
    """
    if d <= 0:
        raise ValueError("kernel bandwidth d must be positive")
    r = np.asarray(r, dtype=float)
    return (d / (2.0 * math.pi)) * (r * r + d * d) ** -1.5


def kernel_disk_mass(radius: float, d: float) -> float:
    """Kernel mass inside a disk of the given radius: 1 - d/sqrt(r^2+d^2)."""
    return 1.0 - d / math.hypot(radius, d)


class _Stationary:
    """The protocol for a rate that does not change in time."""

    def integrate(self, lons, lats, t):
        return self.rate_at(lons, lats) * t

    def bounds(self, region: Region, t_max: float | None = None):
        """(inf, sup) of the rate over a 200 x 200 lattice inside the region."""
        lat = region_lattice(region, 200)
        vals = self.rate_at(lat.lons[lat.inside], lat.lats[lat.inside])
        return float(vals.min()), float(vals.max())


class HomogeneousIntensity(_Stationary):
    """Constant rate (events per km^2 per day)."""

    def __init__(self, rate: float):
        if rate < 0:
            raise ValueError("rate must be non-negative")
        self.rate = float(rate)

    def rate_at(self, lons, lats, times=None):
        return np.full(np.shape(np.asarray(lons)), self.rate, dtype=float)

    def compensator(self, region: Region, times):
        """Expected count in region x [0, t] for each t."""
        return self.rate * region.area_km2 * np.asarray(times, dtype=float)

    def __repr__(self):
        return f"HomogeneousIntensity({self.rate!r})"


class KernelIntensity(_Stationary):
    """Sum of power-law kernels centered on source points.

    With scale=1 the plane integral equals the number of sources; scale
    rescales the whole field (used for background rates calibrated to a
    target count).
    """

    def __init__(self, src_lons, src_lats, d: float, scale: float = 1.0):
        self.src_lons = np.atleast_1d(np.asarray(src_lons, dtype=float))
        self.src_lats = np.atleast_1d(np.asarray(src_lats, dtype=float))
        if self.src_lons.shape != self.src_lats.shape or self.src_lons.size == 0:
            raise ValueError("kernel model needs matching, non-empty source arrays")
        if d <= 0:
            raise ValueError("kernel bandwidth d must be positive")
        self.d = float(d)
        self.scale = float(scale)

    def rate_at(self, lons, lats, times=None):
        lons = np.atleast_1d(np.asarray(lons, dtype=float))
        lats = np.atleast_1d(np.asarray(lats, dtype=float))
        out = np.empty(lons.shape, dtype=float)
        for lo, hi in _row_spans(lons.size, self.src_lons.size):
            r = km_distance(lons[lo:hi, None], lats[lo:hi, None],
                            self.src_lons[None, :], self.src_lats[None, :])
            out[lo:hi] = kernel_density(r, self.d).sum(axis=1)
        return self.scale * out


class GridIntensity(_Stationary):
    """Piecewise-constant spatial rate from a gridded forecast.

    Cell rate over the forecast window becomes a density (per km^2 per day);
    magnitude bands are summed. Points outside every cell have rate 0;
    boundary points follow the lowest-index-cell rule.
    """

    def __init__(self, f: GriddedForecast):
        marg = marginal_space(f)
        self.grid = marg.grid
        self.density = marg.rates / (marg.grid.cell_area_km2() * f.window_days)
        self.window_days = f.window_days

    def rate_at(self, lons, lats, times=None):
        cell = self.grid.locate(np.atleast_1d(lons), np.atleast_1d(lats))
        return np.where(cell >= 0, self.density[cell], 0.0)


@dataclass(frozen=True)
class HawkesParams:
    """ETAS-style triggering parameters.

    mu: background rate (events/km^2/day); k: triggering productivity;
    c (days) and p > 1 shape the temporal decay (t+c)^-p; a >= 0 scales
    productivity with magnitude above the floor m0; d (km^2) and q > 1
    shape the spatial decay (r^2+d)^-q.
    """

    mu: float
    k: float
    c: float
    p: float
    a: float
    d: float
    q: float
    m0: float = 0.0

    def __post_init__(self):
        if self.mu <= 0:
            raise ValueError("mu must be positive")
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.c <= 0:
            raise ValueError("c must be positive")
        if self.p <= 1:
            raise ValueError("p must exceed 1")
        if self.a < 0:
            raise ValueError("a must be non-negative")
        if self.d <= 0:
            raise ValueError("d must be positive")
        if self.q <= 1:
            raise ValueError("q must exceed 1")


def temporal_mass(u, c: float, p: float):
    """Integral of the lag kernel (s+c)^-p over s in [0, u]; u = inf gives
    the whole mass c^(1-p)/(p-1)."""
    return (c ** (1.0 - p) - (u + c) ** (1.0 - p)) / (p - 1.0)


def spatial_mass(d: float, q: float) -> float:
    """Integral of the distance kernel (r^2+d)^-q over the whole plane."""
    return math.pi * d ** (1.0 - q) / (q - 1.0)


def branching_ratio(params: HawkesParams, mag: float) -> float:
    """Expected direct offspring of an event of the given magnitude."""
    temporal = temporal_mass(math.inf, params.c, params.p)
    spatial = spatial_mass(params.d, params.q)
    return params.k * math.exp(params.a * (mag - params.m0)) * temporal * spatial


def mean_branching_ratio(params: HawkesParams, b: float = 1.0, mag_span: float = 4.0) -> float:
    """Branching ratio averaged over truncated Gutenberg-Richter magnitudes."""
    beta = b * math.log(10.0)
    a = params.a
    if abs(beta - a) < 1e-12:
        boost = beta * mag_span / (1.0 - math.exp(-beta * mag_span))
    else:
        boost = (beta / (beta - a)) * (1.0 - math.exp(-(beta - a) * mag_span)) \
            / (1.0 - math.exp(-beta * mag_span))
    return branching_ratio(params, params.m0) * boost


def temporal_trigger_cdf(u, c: float, p: float):
    """CDF of the normalized lag density (t+c)^-p at lag u >= 0."""
    u = np.asarray(u, dtype=float)
    return 1.0 - (c / (u + c)) ** (p - 1.0)


def radial_trigger_cdf(r, d: float, q: float):
    """CDF of the offspring distance density 2*pi*r*(r^2+d)^-q at radius r."""
    r = np.asarray(r, dtype=float)
    return 1.0 - (d / (r * r + d)) ** (q - 1.0)


class HawkesIntensity:
    """Conditional intensity mu(s) + sum over strictly earlier events of
    k * (dt+c)^-p * exp(a*(M-m0)) * (r^2+d)^-q."""

    def __init__(self, params: HawkesParams, history: Catalog, background=None):
        self.params = params
        self.history = history
        self.background = background  # None -> constant params.mu

    def _productivity(self) -> np.ndarray:
        p = self.params
        return p.k * np.exp(p.a * (self.history.mags - p.m0))

    def _parts(self, lons, lats, times, lag_kernel):
        """(background rate, triggered sum) at each point; the sum runs over
        history events of productivity x lag_kernel(t - t_i) x (r^2+d)^-q."""
        p = self.params
        h = self.history
        lons = np.atleast_1d(np.asarray(lons, dtype=float))
        lats = np.atleast_1d(np.asarray(lats, dtype=float))
        times = np.broadcast_to(np.asarray(times, dtype=float), lons.shape)
        if self.background is None:
            bg = np.full(lons.shape, p.mu, dtype=float)
        else:
            bg = self.background.rate_at(lons, lats).astype(float)
        out = np.zeros(lons.shape)
        if h.n == 0 or p.k == 0:
            return bg, out
        prod = self._productivity()
        for lo, hi in _row_spans(lons.size, h.n):
            dt = times[lo:hi, None] - h.times[None, :]
            r = km_distance(lons[lo:hi, None], lats[lo:hi, None],
                            h.lons[None, :], h.lats[None, :])
            out[lo:hi] = (lag_kernel(dt) * (r * r + p.d) ** -p.q) @ prod
        return bg, out

    def rate_at(self, lons, lats, times):
        p = self.params

        def lag(dt):
            active = dt > 0
            return np.where(active, (np.where(active, dt, 1.0) + p.c) ** -p.p, 0.0)

        bg, trig = self._parts(lons, lats, times, lag)
        return bg + trig

    def integrate(self, lons, lats, t):
        """Exact integral of the rate over [0, t] at each point."""
        p = self.params
        bg, trig = self._parts(lons, lats, t, lambda dt: temporal_mass(
            np.maximum(dt, 0.0), p.c, p.p))
        return bg * t + trig

    def bounds(self, region: Region, t_max: float | None = None):
        """(inf, sup) of the rate over region x [0, t_max].

        inf is the background's infimum, below which the rate never falls.
        sup is certified: (r^2+d)^-q <= d^-q everywhere, and the temporal
        sum only decays between events, so it peaks just after an event j
        at sum over t_i <= t_j of kappa_i (t_j - t_i + c)^-p.
        """
        if t_max is None:
            raise ValueError("Hawkes bounds need t_max")
        p = self.params
        if self.background is None:
            lo, hi = p.mu, p.mu
        else:
            lo, hi = self.background.bounds(region, t_max)
        before = self.history.times < t_max
        t = self.history.times[before]
        kappa = self._productivity()[before]
        peak = 0.0
        for s, e in _row_spans(t.size, t.size):
            dt = t[s:e, None] - t[None, :]
            lag = np.where(dt >= 0, (np.maximum(dt, 0.0) + p.c) ** -p.p, 0.0)
            peak = max(peak, float(np.max(lag @ kappa)))
        return lo, hi + p.d ** -p.q * peak

    def compensator(self, region: Region, times):
        """Expected count in region x [0, t] for each t, with each event's
        triggering mass taken over the whole plane (Ogata 1988)."""
        p = self.params
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if self.background is None:
            bg = p.mu * region.area_km2
        else:
            bg = _spatial_quadrature_rate(self.background, region, 200)
        kappa = self._productivity() * spatial_mass(p.d, p.q)
        out = bg * times
        for lo, hi in _row_spans(times.size, self.history.n):
            dt = times[lo:hi, None] - self.history.times[None, :]
            out[lo:hi] += temporal_mass(np.maximum(dt, 0.0), p.c, p.p) @ kappa
        return out


# --- likelihood ---------------------------------------------------------


def _spatial_quadrature_rate(model, region: Region, n_grid: int) -> float:
    """Integral of a time-independent model over the region, per day."""
    lat = region_lattice(region, n_grid)
    vals = model.rate_at(lat.lons[lat.inside], lat.lats[lat.inside])
    return float(np.sum(vals * lat.cell_km2[lat.inside]))


def _ray_segments(origin_xy, ring_km, n_angles: int):
    """Radii where rays from origin cross the polygon boundary.

    Returns (radii, signs): per crossing, +1 starts an inside run and -1
    ends one, so the region-clipped mass along each ray is an alternating
    sum of the radial antiderivative. The origin must lie inside.
    """
    ax = ring_km[:, 0]
    ay = ring_km[:, 1]
    bx = np.roll(ax, -1)
    by = np.roll(ay, -1)
    ex = bx - ax
    ey = by - ay
    theta = (np.arange(n_angles) + 0.5) * (2.0 * math.pi / n_angles)
    ux, uy = np.cos(theta), np.sin(theta)
    px, py = float(origin_xy[0]), float(origin_xy[1])
    # solve p + t u = a + s e per (angle, edge)
    denom = ux[:, None] * ey[None, :] - uy[:, None] * ex[None, :]
    rx = ax[None, :] - px
    ry = ay[None, :] - py
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rx * ey[None, :] - ry * ex[None, :]) / denom
        s = (rx * uy[:, None] - ry * ux[:, None]) / denom
    valid = (np.abs(denom) > 1e-300) & (t > 0) & (s >= 0.0) & (s < 1.0)
    radii, signs = [], []
    for k in range(n_angles):
        tk = np.sort(t[k][valid[k]])
        if tk.size == 0:
            continue
        # the origin is inside, so crossings alternate exit, entry, exit, ...
        sg = np.where(np.arange(tk.size) % 2 == 0, 1.0, -1.0)
        radii.append(tk)
        signs.append(sg)
    if not radii:
        return np.array([]), np.array([])
    return np.concatenate(radii), np.concatenate(signs)


class _ClippedMass:
    """Per-event region-clipped integral of (r^2+d)^-q over the region.

    Geometry (ray crossing radii per event) is precomputed; evaluation for
    any (d, q) is an exact radial antiderivative summed over ray wedges.
    """

    def __init__(self, c: Catalog, region: Region, n_angles: int = 720):
        x, y = region.to_km(c.lons, c.lats)
        self.n_angles = n_angles
        self.n_events = c.n
        ev_idx, radii, signs = [], [], []
        for i in range(c.n):
            r, s = _ray_segments((x[i], y[i]), region.ring_km, n_angles)
            ev_idx.append(np.full(r.size, i))
            radii.append(r)
            signs.append(s)
        self.ev = np.concatenate(ev_idx) if ev_idx else np.array([], dtype=int)
        self.radii = np.concatenate(radii) if radii else np.array([])
        self.signs = np.concatenate(signs) if signs else np.array([])

    def _per_event(self, wedge: np.ndarray) -> np.ndarray:
        # each of n_angles wedges spans 2*pi/n_angles of arc
        return np.bincount(self.ev, weights=self.signs * wedge,
                           minlength=self.n_events) * (2.0 * math.pi / self.n_angles)

    def masses(self, d: float, q: float) -> np.ndarray:
        # wedge integral 0..R of r (r^2+d)^-q dr = (d^(1-q) - (R^2+d)^(1-q)) / (2(q-1))
        seg = (d ** (1.0 - q) - (self.radii ** 2 + d) ** (1.0 - q)) / (2.0 * (q - 1.0))
        return self._per_event(seg)

    def mass_partials(self, d: float, q: float):
        """d * dm/dd and (q-1) * dm/dq of masses(d, q) = m, per event."""
        s = self.radii ** 2 + d
        tail = s ** (1.0 - q)
        head = d ** (1.0 - q)
        seg = (head - tail) / (2.0 * (q - 1.0))
        d_d = -0.5 * (head - d * tail / s)
        d_q = 0.5 * (np.log(s) * tail - math.log(d) * head) - seg
        return self._per_event(d_d), self._per_event(d_q)


def _hawkes_integral(params: HawkesParams, c: Catalog, region: Region,
                     mode: str, n_grid: int, clipped: "_ClippedMass | None",
                     background=None) -> float:
    p = params
    T = c.window_days
    if background is None:
        bg = p.mu * region.area_km2 * T
    else:
        bg = _spatial_quadrature_rate(background, region, n_grid) * T
    if c.n == 0 or p.k == 0:
        return bg
    prod = p.k * np.exp(p.a * (c.mags - p.m0))
    ti = temporal_mass(T - c.times, p.c, p.p)
    if mode == "approx":
        trig = float(np.sum(prod * ti) * spatial_mass(p.d, p.q))
    elif mode == "quadrature":
        if clipped is None:
            clipped = _ClippedMass(c, region)
        trig = float(np.sum(prod * ti * clipped.masses(p.d, p.q)))
    else:
        raise ValueError(f"unknown integral mode {mode!r}")
    return bg + trig


def log_likelihood(model, c: Catalog, region: Region, mode: str = "approx",
                   n_grid: int = 100) -> float:
    """Point-process log-likelihood: sum of log rates at the events minus
    the integrated rate over region x window.

    mode selects how the Hawkes triggering integral is computed: "approx"
    uses each event's total triggering mass truncated to the window;
    "quadrature" clips the spatial part to the region exactly in radius with
    angular quadrature. Time-independent models integrate by midpoint
    quadrature on an n_grid x n_grid lattice (homogeneous models exactly).
    """
    lam = model.rate_at(c.lons, c.lats, c.times)
    with np.errstate(divide="ignore"):
        point = float(np.sum(np.log(lam)))
    if isinstance(model, HawkesIntensity):
        integral = _hawkes_integral(model.params, c, region, mode, n_grid, None,
                                    model.background)
    elif isinstance(model, HomogeneousIntensity):
        integral = model.rate * region.area_km2 * c.window_days
    else:
        integral = _spatial_quadrature_rate(model, region, n_grid) * c.window_days
    return point - integral


# --- fitting ------------------------------------------------------------


class FitResult(NamedTuple):
    params: object
    log_lik: float
    iterations: int
    grad_norm: float
    converged: bool
    family: str
    message: str


def central_gradient(f: Callable, x: np.ndarray, rel_step: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient with per-coordinate relative steps."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        h = rel_step * max(1.0, abs(x[i]))
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def hawkes_pack(params: HawkesParams) -> np.ndarray:
    """Transform to unconstrained space: logs of positives, log(p-1), log(q-1)."""
    return np.array([
        math.log(params.mu), math.log(params.k), math.log(params.c),
        math.log(params.p - 1.0), math.log(params.a), math.log(params.d),
        math.log(params.q - 1.0),
    ])


def hawkes_unpack(theta: np.ndarray, m0: float) -> HawkesParams:
    t = np.asarray(theta, dtype=float)
    return HawkesParams(
        mu=math.exp(t[0]), k=math.exp(t[1]), c=math.exp(t[2]),
        p=1.0 + math.exp(t[3]), a=math.exp(t[4]), d=math.exp(t[5]),
        q=1.0 + math.exp(t[6]), m0=m0,
    )


def _earlier_pairs(times: np.ndarray):
    """(i, j) for every event i strictly earlier than event j of a
    time-sorted catalog; events at the same time do not trigger each other."""
    first = np.searchsorted(times, times, side="left")
    later = np.repeat(np.arange(times.size), first)
    earlier = np.arange(later.size) - np.repeat(np.cumsum(first) - first, first)
    return earlier, later


def hawkes_score(c: Catalog, region: Region, m0: float, mode: str = "approx") -> Callable:
    """(negative log-likelihood, its gradient) over the packed parameters
    of hawkes_pack, as one closure (the ETAS score of Ogata 1998).

    The strictly-earlier event pairs, with their lags and squared
    distances, and the region-clipping geometry are precomputed once. A
    parameter vector that does not unpack, or gives a non-finite value,
    scores inf with a nan gradient.
    """
    if mode not in ("approx", "quadrature"):
        raise ValueError(f"unknown integral mode {mode!r}")
    earlier, later = _earlier_pairs(c.times)
    dt = c.times[later] - c.times[earlier]
    r2 = km_distance(c.lons[earlier], c.lats[earlier], c.lons[later], c.lats[later]) ** 2
    dmag = c.mags - m0
    left = c.window_days - c.times
    at = region.area_km2 * c.window_days
    clipped = _ClippedMass(c, region) if mode == "quadrature" else None

    def score(theta: np.ndarray):
        try:
            prm = hawkes_unpack(theta, m0)
        except (OverflowError, ValueError):
            return math.inf, np.full(7, np.nan)
        mu, k, cc, p, a, d, q = prm.mu, prm.k, prm.c, prm.p, prm.a, prm.d, prm.q
        with np.errstate(all="ignore"):
            log_lag = np.log(dt + cc)
            log_dist = np.log(r2 + d)
            prod = k * np.exp(a * dmag)
            term = prod[earlier] * np.exp(-p * log_lag - q * log_dist)
            lam = mu + np.bincount(later, weights=term, minlength=c.n)
            point = float(np.sum(np.log(lam)))
            # the window's temporal mass per event, and its partials in c and p
            ti = temporal_mass(left, cc, p)
            tail = (left + cc) ** (1.0 - p)
            ti_c = cc * ((left + cc) ** -p - cc ** -p)
            ti_p = np.log(left + cc) * tail - math.log(cc) * cc ** (1.0 - p) - ti
            if mode == "approx":
                smass = spatial_mass(d, q)
                mass = np.full(c.n, smass)
                mass_d = np.full(c.n, -(q - 1.0) * smass)
                mass_q = np.full(c.n, -smass * ((q - 1.0) * math.log(d) + 1.0))
            else:
                mass = clipped.masses(d, q)
                mass_d, mass_q = clipped.mass_partials(d, q)
            trig_i = prod * ti * mass
            trig = float(np.sum(trig_i))
            value = -(point - (mu * at + trig))
            if not math.isfinite(value):
                return math.inf, np.full(7, np.nan)
            # each pair's share of its later event's rate
            w = term / lam[later]
            grad = np.array([
                mu * (at - np.sum(1.0 / lam)),
                trig - np.sum(w),
                cc * p * np.sum(w / (dt + cc)) + np.sum(prod * ti_c * mass),
                (p - 1.0) * np.sum(w * log_lag) + np.sum(prod * ti_p * mass),
                a * (np.sum(trig_i * dmag) - np.sum(w * dmag[earlier])),
                d * q * np.sum(w / (r2 + d)) + np.sum(prod * ti * mass_d),
                (q - 1.0) * np.sum(w * log_dist) + np.sum(prod * ti * mass_q),
            ])
        return value, grad

    return score


def hawkes_objective(c: Catalog, region: Region, m0: float,
                     mode: str = "approx") -> Callable:
    """Negative log-likelihood over the transformed parameter vector: the
    value of hawkes_score."""
    score = hawkes_score(c, region, m0, mode)
    return lambda theta: score(theta)[0]


def _homog_score(c: Catalog, region: Region) -> Callable:
    n = c.n
    at = region.area_km2 * c.window_days

    def score(theta: np.ndarray):
        mu = math.exp(float(theta[0]))
        value = -(n * math.log(mu) - mu * at) if n else mu * at
        return value, np.array([mu * at - n])

    return score


def minimize(*args, **kwargs):
    """scipy.optimize.minimize, imported on the first fit: the import costs
    every process about 0.1 s, and only fit_mle needs it."""
    from scipy.optimize import minimize as scipy_minimize

    return scipy_minimize(*args, **kwargs)


def fit_mle(family: str, c: Catalog, region: Region, init,
            mode: str = "approx", gtol: float = 1e-6,
            max_iter: int = 500, restarts: int = 0,
            rng: RngStream | None = None) -> FitResult:
    """Maximize the log-likelihood by quasi-Newton ascent in transformed space.

    family is "homogeneous" (init: rate) or "hawkes" (init: HawkesParams;
    the magnitude floor is taken from init and held fixed). Convergence is
    declared when the analytic gradient's max-norm drops below gtol,
    up to max_iter iterations. restarts > 0 adds that many jittered starts
    (multiplicative log-normal, sigma 0.1) and keeps the best optimum.
    """
    if family == "homogeneous":
        rate0 = init.rate if isinstance(init, HomogeneousIntensity) else float(init)
        if rate0 <= 0:
            raise ValueError("homogeneous fit needs a positive starting rate")
        score = _homog_score(c, region)
        theta0 = np.array([math.log(rate0)])
        unpack = lambda t: HomogeneousIntensity(math.exp(float(t[0])))
    elif family == "hawkes":
        if not isinstance(init, HawkesParams):
            raise ValueError("hawkes fit needs HawkesParams as the start")
        if init.k <= 0 or init.a <= 0:
            raise ValueError("hawkes fit needs strictly positive k and a at the start")
        score = hawkes_score(c, region, init.m0, mode)
        theta0 = hawkes_pack(init)
        unpack = lambda t: hawkes_unpack(t, init.m0)
    else:
        raise ValueError(f"unknown model family {family!r}")

    starts = [theta0]
    if restarts > 0:
        if rng is None:
            raise ValueError("restarts need an RngStream")
        for k in range(restarts):
            gen = rng.substream(k).generator()
            starts.append(theta0 + gen.normal(0.0, 0.1, size=theta0.size))

    best = None
    for theta_s in starts:
        res = minimize(score, theta_s, method="BFGS", jac=True,
                       options={"gtol": gtol, "maxiter": max_iter})
        if best is None or res.fun < best.fun:
            best = res
    grad_norm = float(np.max(np.abs(best.jac)))
    return FitResult(
        params=unpack(best.x),
        log_lik=-float(best.fun),
        iterations=int(best.nit),
        grad_norm=grad_norm,
        converged=bool(grad_norm < gtol),
        family=family,
        message=str(best.message),
    )


# --- kernel background utilities ----------------------------------------


class BandwidthSelection(NamedTuple):
    d: float
    scores: np.ndarray


def select_bandwidth(c: Catalog, candidates) -> BandwidthSelection:
    """Pick the kernel width maximizing leave-one-out log-likelihood.

    Score(d) = sum_i log(sum_{j != i} kernel(r_ij, d)); ties go to the
    first candidate in the given order.
    """
    candidates = np.asarray(candidates, dtype=float)
    if candidates.size == 0 or np.any(candidates <= 0):
        raise ValueError("bandwidth candidates must be positive")
    if c.n < 2:
        raise ValueError("bandwidth selection needs at least 2 events")
    r = km_distance(c.lons[:, None], c.lats[:, None], c.lons[None, :], c.lats[None, :])
    off = ~np.eye(c.n, dtype=bool)
    scores = np.empty(candidates.size)
    for i, d in enumerate(candidates):
        dens = kernel_density(r, float(d))
        loo = (dens * off).sum(axis=1)
        with np.errstate(divide="ignore"):
            scores[i] = float(np.sum(np.log(loo)))
    return BandwidthSelection(float(candidates[int(np.argmax(scores))]), scores)


def background_from_catalog(training: Catalog, d: float, region: Region,
                            events_per_day: float, n_grid: int = 200) -> KernelIntensity:
    """Kernel field over training epicenters scaled so its region integral
    equals events_per_day."""
    if events_per_day <= 0:
        raise ValueError("target background rate must be positive")
    base = KernelIntensity(training.lons, training.lats, d)
    integral = _spatial_quadrature_rate(base, region, n_grid)
    if integral <= 0:
        raise ValueError("kernel field integrates to zero over the region")
    return KernelIntensity(training.lons, training.lats, d, scale=events_per_day / integral)


# --- parameter file round trip ------------------------------------------


_HAWKES_NAMES = ("mu", "k", "c", "p", "a", "d", "q", "m0")


def _params_text(values: dict, fit: FitResult | None) -> str:
    lines = []
    if fit is not None:
        lines.append(f"# log_likelihood = {fit.log_lik!r}")
        lines.append(f"# iterations = {fit.iterations}")
        lines.append(f"# grad_norm = {fit.grad_norm!r}")
        lines.append(f"# converged = {str(fit.converged).lower()}")
    lines += [f"{name} = {v!r}" for name, v in values.items()]
    return "\n".join(lines) + "\n"


def serialize_hawkes_params(params: HawkesParams, fit: FitResult | None = None) -> str:
    return _params_text({name: getattr(params, name) for name in _HAWKES_NAMES}, fit)


def serialize_fit(fit: FitResult) -> str:
    """A params file of a fit: `# family = ...`, the fit's diagnostics as
    comments, then the fitted parameters (`mu = ...` alone for the
    homogeneous family)."""
    if fit.family == "homogeneous":
        return "# family = homogeneous\n" + _params_text({"mu": fit.params.rate}, fit)
    return "# family = hawkes\n" + serialize_hawkes_params(fit.params, fit)


def parse_hawkes_params(text: str) -> HawkesParams:
    vals = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"params: line {lineno}: expected 'name = value'")
        name, _, v = s.partition("=")
        name = name.strip()
        try:
            vals[name] = float(v.strip())
        except ValueError:
            raise ValueError(f"params: line {lineno}: malformed value {v.strip()!r}") from None
    missing = [n for n in _HAWKES_NAMES if n not in vals]
    if missing:
        raise ValueError(f"params: missing {', '.join(missing)}")
    extra = [n for n in vals if n not in _HAWKES_NAMES]
    if extra:
        raise ValueError(f"params: unknown names {', '.join(sorted(extra))}")
    return HawkesParams(**vals)


def parse_model_params(text: str, history: Catalog):
    """The intensity model of a params file.

    The file's first `# family = ...` comment picks the model (hawkes when
    there is none); a Hawkes model conditions on history as its event
    history.
    """
    family = "hawkes"
    for raw in text.splitlines():
        key, eq, value = raw.strip().partition("=")
        if eq and key.startswith("#") and key[1:].strip() == "family":
            family = value.strip()
            break
    if family == "homogeneous":
        for raw in text.splitlines():
            s = raw.strip()
            if not s or s.startswith("#"):
                continue
            name, _, value = s.partition("=")
            if name.strip() == "mu":
                try:
                    return HomogeneousIntensity(float(value.strip()))
                except ValueError as e:
                    raise ValueError(f"params: {e}") from None
        raise ValueError("params: homogeneous file needs a mu line")
    if family != "hawkes":
        raise ValueError(f"params: unknown family {family!r}")
    return HawkesIntensity(parse_hawkes_params(text), history)
