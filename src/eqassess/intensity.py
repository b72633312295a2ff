"""Intensity models: constant rates, piecewise grids, and Hawkes clustering.

All rates are event densities per km^2 per day. Every model exposes one
protocol on vectorized, equal-length arrays:

- rate_at(lons, lats, times): the rate at each point and time
  (time-independent models ignore times);
- integrate(lons, lats, t): the exact integral of the rate over [0, t] at
  each point;
- bounds(region, t_max): (inf, sup) of the rate over region x [0, t_max],
  exact for constant and grid models (the grid's from catalog.box_areas);
- compensator(region, times): the expected count in region x [0, t] for
  each t, in the shape of times, exact for constant and grid models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .catalog import (_CHUNK_ELEMENTS, KM_PER_DEG, Catalog, Region, box_areas, km_factors,
                      km_grid2)
from .forecast import GriddedForecast, marginal_space
from .rng import RngStream

# bytes of one float64 temporary (rows x columns) in the chunked Hawkes sums.
# 256 KB keeps a block's few temporaries inside a 2 MB per-core L2 cache: on
# an x86-64 host with that L2, the 40 Hawkes rate_at calls of a 39-catalog K
# envelope on 450 events took 0.61-0.66 s at 256 KB and 0.78-0.94 s at 4 MB
# (dense sums). Smaller blocks also cut the causal staircase of
# HawkesIntensity._parts closer to the diagonal.
_CHUNK_BYTES = 1 << 18
# BLAS matrix-vector kernels sum rows in blocks (4 on x86-64 OpenBLAS); spans
# that are whole multiples of this many rows keep every row in the same
# kind of block, so results do not depend on the span size
_ROW_ALIGN = 64
# pairs per block of hawkes_score, which holds whole later-event groups.
# At the 101,025 pairs of a 450-event catalog, one evaluation took
# 2.07-2.21 ms in blocks of 8192 pairs, whose 700 KB workspace stays in a
# 2 MB per-core L2 cache, against 2.34-2.52 ms at 4096 and 2.15-2.27 ms at
# 16384 (interleaved, single-threaded x86-64 OpenBLAS)
_GRAM_PAIRS = 8192
# rays per event in the region-clipped kernel masses of _ClippedMass
_N_ANGLES = 720


def _row_spans(n_rows: int, n_cols: int):
    """(lo, hi) row spans whose rows x n_cols float64 block fits _CHUNK_BYTES,
    in multiples of _ROW_ALIGN rows (at least one multiple).

    A lone last row joins the span before it: numpy sends a one-row product
    down another BLAS path, whose sum would then depend on the budget."""
    step = max(_ROW_ALIGN, _CHUNK_BYTES // (8 * max(n_cols, 1))
               // _ROW_ALIGN * _ROW_ALIGN)
    starts = list(range(0, n_rows, step))
    if len(starts) > 1 and starts[-1] == n_rows - 1:
        starts.pop()
    return zip(starts, starts[1:] + [n_rows])


class HomogeneousIntensity:
    """Constant, finite rate (events per km^2 per day)."""

    def __init__(self, rate: float):
        if not 0 <= rate < math.inf:
            raise ValueError("rate must be finite and non-negative")
        self.rate = float(rate)

    def rate_at(self, lons, lats, times=None):
        return np.full(np.shape(np.asarray(lons)), self.rate, dtype=float)

    def integrate(self, lons, lats, t):
        return self.rate_at(lons, lats) * t

    def bounds(self, region: Region, t_max: float | None = None):
        """(rate, rate), exactly."""
        return self.rate, self.rate

    def compensator(self, region: Region, times):
        """Expected count in region x [0, t] for each t, exactly."""
        return self.rate * region.area_km2 * np.asarray(times, dtype=float)

    def __repr__(self):
        return f"HomogeneousIntensity({self.rate!r})"


class GridIntensity:
    """Piecewise-constant spatial rate from a gridded forecast.

    Cell rate over the forecast window becomes a density (per km^2 per day);
    magnitude bands are summed. Points outside every cell have rate 0;
    boundary points follow the lowest-index-cell rule.
    """

    def __init__(self, f: GriddedForecast):
        marg = marginal_space(f)
        self.grid = marg.grid
        self.density = marg.rates / (marg.grid.cell_area_km2() * f.window_days)

    def rate_at(self, lons, lats, times=None):
        cell = self.grid.locate(np.atleast_1d(lons), np.atleast_1d(lats))
        return np.where(cell >= 0, self.density[cell], 0.0)

    def integrate(self, lons, lats, t):
        return self.rate_at(lons, lats) * t

    def bounds(self, region: Region, t_max: float | None = None):
        """(inf, sup) of the rate over the region, exactly: the extreme densities
        of the cells with area in it, and 0 where the region leaves the grid."""
        areas = box_areas(region, self.grid.boxes[:, :4])
        leaves = areas.sum() < (1.0 - 1e-12) * box_areas(region, [region.bbox])[0]
        vals = np.append(self.density[areas > 0], [0.0] * int(leaves))
        return float(vals.min()), float(vals.max())

    def compensator(self, region: Region, times):
        """Expected count in region x [0, t] for each t, exactly: each cell's
        density times its area inside the region, times t."""
        area_rate = float(self.density @ box_areas(region, self.grid.boxes[:, :4]))
        return area_rate * np.asarray(times, dtype=float)


@dataclass(frozen=True)
class HawkesParams:
    """ETAS-style triggering parameters.

    mu: background rate (events/km^2/day); k: triggering productivity;
    c (days) and p > 1 shape the temporal decay (t+c)^-p; a >= 0 scales
    productivity with magnitude above the floor m0; d (km^2) and q > 1
    shape the spatial decay (r^2+d)^-q. Every field is finite.
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
        for name, value in vars(self).items():
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
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


def _causal_log_lag(log_lag, dt, first: int):
    """log_lag(dt), with -inf wherever dt <= 0; only the columns from first
    on may hold such lags."""
    late = dt[..., first:] <= 0
    with np.errstate(divide="ignore", invalid="ignore"):
        logs = log_lag(dt)
    logs[..., first:] = np.where(late, -np.inf, logs[..., first:])
    return logs


def _lag_factors(times, history_times):
    """Rows [t, 1] and columns [1; -t_i]: their K = 2 product is the lag grid
    t - t_i, with the bits of np.subtract.outer."""
    return (np.stack([times, np.ones_like(times)], 1),
            np.stack([np.ones_like(history_times), -history_times]))


class HawkesIntensity:
    """Conditional intensity mu + sum over strictly earlier events of
    k * (dt+c)^-p * exp(a*(M-m0)) * (r^2+d)^-q."""

    def __init__(self, params: HawkesParams, history: Catalog):
        self.params = params
        self.history = history

    def _productivity(self) -> np.ndarray:
        p = self.params
        return p.k * np.exp(p.a * (self.history.mags - p.m0))

    def _parts(self, lons, lats, times, log_lag):
        """(background rate mu, triggered sum) at each point; the sum runs over
        the history events strictly earlier than the point, of productivity
        x lag(t - t_i) x (r^2+d)^-q, each term built in the log domain as
        exp(log lag - q log(r^2+d)). log_lag(dt) gives the log of the lag
        factor at lags dt > 0 and may overwrite dt; lags <= 0 get -inf, a
        factor of exactly 0.

        The points are taken in time order (a stable sort), in _row_spans
        blocks. A block builds the kernel only over its longest
        strictly-earlier prefix of m history events, and its product with
        the weights takes n columns, the last n - m of them zeros: n is m
        rounded up to a multiple of _ROW_ALIGN (at most history.n), so a
        point's sum does not depend on the block it falls in. Every block
        is built in the same two buffers, allocated once per call.

        A scalar time is folded into the weights: the lag factor then
        depends on the history event alone, so it is taken once, and the
        blocks build only the spatial kernel.

        The blocks' distance and lag grids are exact K = 2 matrix products
        (km_grid2, _lag_factors) of per-point factors taken once per call,
        sliced per block: rebuilt per block, they gave back 40 % of the gain.
        """
        p = self.params
        h = self.history
        lons = np.atleast_1d(np.asarray(lons, dtype=float))
        lats = np.atleast_1d(np.asarray(lats, dtype=float))
        shared = np.ndim(times) == 0
        times = np.broadcast_to(np.asarray(times, dtype=float), lons.shape)
        bg = np.full(lons.shape, p.mu, dtype=float)
        out = np.zeros(lons.shape)
        if h.n == 0 or p.k == 0 or lons.size == 0:
            return bg, out
        order = np.argsort(times, kind="stable")
        prefix = np.searchsorted(h.times, times[order], side="left")
        spans = [(lo, hi, int(prefix[hi - 1])) for lo, hi in _row_spans(lons.size, h.n)]
        spans = [(lo, hi, m, min(-(-m // _ROW_ALIGN) * _ROW_ALIGN, h.n)) for lo, hi, m in spans]
        size = max((hi - lo) * n for lo, hi, _, n in spans)
        kernel_buf, work_buf = np.empty(size), np.empty(size)
        weights = self._productivity()
        if shared:
            weights *= np.exp(_causal_log_lag(log_lag, times[0] - h.times, prefix[0]))
        else:
            time_f, history_t = _lag_factors(times[order], h.times)
        point_f, history_f = km_factors(lons[order], lats[order], True), km_factors(h.lons, h.lats)
        for lo, hi, m, n in spans:
            # the kernel is built in the first m columns, contiguous: the
            # in-place ufuncs on a column slice of a wider block were 3-7
            # times slower
            kernel = kernel_buf[:(hi - lo) * m].reshape(hi - lo, m)
            work = work_buf[:kernel.size].reshape(kernel.shape)
            km_grid2(point_f[..., lo:hi], history_f[..., :m], out=kernel, scratch=work)
            np.log(np.add(kernel, p.d, out=kernel), out=kernel)
            kernel *= -p.q
            if not shared:
                # rows are time-sorted: every column before the first
                # row's prefix is strictly earlier for the whole block
                dt = np.matmul(time_f[lo:hi], history_t[:, :m], out=work)
                kernel += _causal_log_lag(log_lag, dt, prefix[lo])
            padded = work_buf[:(hi - lo) * n].reshape(hi - lo, n)
            np.exp(kernel, out=padded[:, :m])
            padded[:, m:] = 0.0
            out[order[lo:hi]] = padded @ weights[:n]
        return bg, out

    def rate_at(self, lons, lats, times):
        p = self.params

        def log_lag(dt):
            np.log(np.add(dt, p.c, out=dt), out=dt)
            return np.multiply(dt, -p.p, out=dt)

        bg, trig = self._parts(lons, lats, times, log_lag)
        return bg + trig

    def integrate(self, lons, lats, t):
        """Exact integral of the rate over [0, t] at each point."""
        p = self.params
        bg, trig = self._parts(lons, lats, t, lambda dt: np.log(
            temporal_mass(dt, p.c, p.p)))
        return bg * t + trig

    def bounds(self, region: Region, t_max: float | None = None):
        """(inf, sup) of the rate over region x [0, t_max].

        inf is the background rate mu, below which the rate never falls.
        sup is certified: (r^2+d)^-q <= d^-q everywhere, and the temporal
        sum only decays between events, so it peaks just after an event j
        at sum over t_i <= t_j of kappa_i (t_j - t_i + c)^-p.
        """
        if t_max is None:
            raise ValueError("Hawkes bounds need t_max")
        p = self.params
        before = self.history.times < t_max
        t = self.history.times[before]
        kappa = self._productivity()[before]
        peak = 0.0
        for s, e in _row_spans(t.size, t.size):
            dt = t[s:e, None] - t[None, :]
            lag = np.where(dt >= 0, (np.maximum(dt, 0.0) + p.c) ** -p.p, 0.0)
            peak = max(peak, float(np.max(lag @ kappa)))
        return p.mu, p.mu + p.d ** -p.q * peak

    def compensator(self, region: Region, times, mode: str = "approx"):
        """Expected count in region x [0, t] for each t: the background's
        mu * area * t plus each earlier event's triggering mass (Ogata 1988),
        its spatial part over the whole plane (mode "approx") or clipped to
        the region by _ClippedMass (mode "quadrature")."""
        p = self.params
        if mode == "approx":
            mass = spatial_mass(p.d, p.q)
        elif mode == "quadrature":
            mass = _ClippedMass(self.history, region).mass_terms(p.d, p.q)[0]
        else:
            raise ValueError(f"unknown integral mode {mode!r}")
        kappa = self._productivity() * mass
        flat = np.asarray(times, dtype=float).reshape(-1)
        out = p.mu * region.area_km2 * flat
        for lo, hi in _row_spans(flat.size, self.history.n):
            dt = flat[lo:hi, None] - self.history.times[None, :]
            out[lo:hi] += temporal_mass(np.maximum(dt, 0.0), p.c, p.p) @ kappa
        return out.reshape(np.shape(times))


# --- likelihood ---------------------------------------------------------


class _ClippedMass:
    """Per-event integral of (r^2+d)^-q over the region, r the distance
    from the event, with its first and second partials, in one pass
    (mass_terms): row 0 for the compensator, every row for hawkes_score.

    _N_ANGLES (720) rays leave each event, one through the middle of each
    wedge of 2*pi/_N_ANGLES. Along a ray the integral is a signed sum over its
    boundary crossings of the wedge integral out to the crossing: + where
    the ray leaves the region, - where it enters, as the sign of the ray x
    edge cross product times the ring's orientation says. So an event
    outside the region is measured too, and no crossings need sorting. The
    crossings of all events, angles and edges are found at once, in chunks
    of at most _CHUNK_ELEMENTS; any (d, q) is then exact in radius.
    """

    def __init__(self, c: Catalog, region: Region):
        x, y = region.to_km(c.lons, c.lats)
        ax, ay = region.ring_km[:, 0], region.ring_km[:, 1]
        ex, ey = np.roll(ax, -1) - ax, np.roll(ay, -1) - ay
        theta = (np.arange(_N_ANGLES) + 0.5) * (2.0 * math.pi / _N_ANGLES)
        ux, uy = np.cos(theta)[:, None], np.sin(theta)[:, None]
        # solve p + t u = a + s e per (event, angle, edge)
        denom = ux * ey - uy * ex
        crosses = np.abs(denom) > 1e-300
        sign = np.where(denom * np.sum(ax * ey - ay * ex) > 0, 1.0, -1.0)
        self.n_events = c.n
        ev, radii, signs = [np.zeros(0, dtype=np.intp)], [np.zeros(0)], [np.zeros(0)]
        step = max(1, _CHUNK_ELEMENTS // denom.size)
        for lo in range(0, c.n, step):
            rx, ry = ax - x[lo:lo + step, None], ay - y[lo:lo + step, None]
            with np.errstate(divide="ignore", invalid="ignore"):
                t = (rx * ey - ry * ex)[:, None, :] / denom
                s = (rx[:, None, :] * uy - ry[:, None, :] * ux) / denom
            i, k, e = np.nonzero(crosses & (t > 0) & (s >= 0.0) & (s < 1.0))
            ev.append(lo + i)
            radii.append(t[i, k, e])
            signs.append(sign[k, e])
        self.ev, self.radii, self.signs = map(np.concatenate, (ev, radii, signs))

    def _per_event(self, wedge: np.ndarray) -> np.ndarray:
        # each of _N_ANGLES wedges spans 2*pi/_N_ANGLES of arc
        return np.bincount(self.ev, weights=self.signs * wedge,
                           minlength=self.n_events) * (2.0 * math.pi / _N_ANGLES)

    def mass_terms(self, d: float, q: float):
        """Rows m, d dm/dd, (q-1) dm/dq, then m's dd, dq, qq in (ln d, ln(q-1)),
        m the per-event mass. A crossing at radius R adds the wedge integral
        0..R of r (r^2+d)^-q dr = (d^(1-q) - (R^2+d)^(1-q)) / (2(q-1))."""
        s = self.radii ** 2 + d
        tail, log_s = s ** (1.0 - q), np.log(s)
        head, log_d = d ** (1.0 - q), math.log(d)
        seg = (head - tail) / (2.0 * (q - 1.0))
        seg_d = -0.5 * (head - d * tail / s)
        seg_q = 0.5 * (log_s * tail - log_d * head) - seg
        dd = -0.5 * ((1.0 - q) * head - d * tail / s + q * d * d * tail / (s * s))
        dq = 0.5 * (q - 1.0) * (log_d * head - d * log_s * tail / s)
        qq = 0.5 * (q - 1.0) * (log_d ** 2 * head - log_s ** 2 * tail) - seg_q
        return np.array([self._per_event(v) for v in (seg, seg_d, seg_q, dd, dq, qq)])


def log_likelihood(model, c: Catalog, region: Region, mode: str = "approx") -> float:
    """Point-process log-likelihood: sum of log rates at the events minus
    the model's compensator over region x window.

    A mode other than "approx" goes to the compensator, which only a
    Hawkes model takes (HawkesIntensity.compensator).
    """
    lam = model.rate_at(c.lons, c.lats, c.times)
    with np.errstate(divide="ignore"):
        point = float(np.sum(np.log(lam)))
    options = {} if mode == "approx" else {"mode": mode}
    return point - float(model.compensator(region, c.window_days, **options))


# --- fitting ------------------------------------------------------------


class FitResult(NamedTuple):
    params: object
    log_lik: float
    iterations: int
    grad_norm: float
    converged: bool
    family: str
    message: str
    # the Hessian of the negative log-likelihood in the packed parameters
    # at the fit (hawkes_pack; the log rate for the homogeneous family)
    information: np.ndarray | None = None


def fit_uncertainty(information: np.ndarray) -> tuple:
    """(standard errors, correlation matrix) of the packed parameters from
    the inverse of the observed information. Raises ValueError when the
    information is not finite or not positive definite."""
    information = np.asarray(information, dtype=float)
    if not np.isfinite(information).all():
        raise ValueError("observed information is not finite")
    try:
        low = np.linalg.cholesky(information)
    except np.linalg.LinAlgError:
        raise ValueError("observed information is not positive definite") from None
    root = np.linalg.solve(low, np.eye(low.shape[0]))
    cov = root.T @ root
    se = np.sqrt(np.diag(cov))
    return se, cov / np.outer(se, se)


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


def _not_finite(size: int):
    """The score of a point where the objective is not finite."""
    return math.inf, np.full(size, np.nan), np.full((size, size), np.nan)


def _power(x: float, y: float) -> float:
    """x ** y for a positive result, inf where the Python float power overflows."""
    try:
        return x ** y
    except OverflowError:
        return math.inf


def _pair_blocks(c: Catalog, dmag: np.ndarray):
    """The strictly-earlier event pairs of a time-sorted catalog, in blocks.

    Event j is triggered by the events before its time, 0 .. first_j - 1,
    and its pairs (its group) are stored together, groups in event order;
    events at the same time do not trigger each other. Returns (blocks, dt,
    r2, earlier dmag), the last three one value per pair. A block is (lo,
    hi, owners, group_at, sizes): the pairs lo .. hi - 1, which are the
    whole groups of the events owners, starting at group_at (from lo) with
    sizes pairs each. A group goes to the block of _GRAM_PAIRS pairs that its
    first pair falls in, so no group is split.

    r2 has the bits of km_distance2 on the pair vectors: the cosines and
    sines of the half latitudes are taken once per event and gathered per
    pair, in km_distance2's order of operations."""
    first = np.searchsorted(c.times, c.times, side="left")
    owners = np.flatnonzero(first)
    sizes = first[owners]
    ends = np.cumsum(sizes)
    starts = ends - sizes
    cuts = np.flatnonzero(np.diff(starts // _GRAM_PAIRS, prepend=-1))
    blocks = [(int(starts[g]), int(ends[h - 1]), owners[g:h], starts[g:h] - starts[g], sizes[g:h])
              for g, h in zip(cuts, np.r_[cuts[1:], owners.size])]
    n_pairs = int(ends[-1]) if owners.size else 0
    dt, r2, earlier_dmag = np.empty(n_pairs), np.empty(n_pairs), np.empty(n_pairs)
    half = np.radians(0.5 * c.lats)
    cos, sin = np.cos(half), np.sin(half)
    km_cos, km_sin = KM_PER_DEG * cos, KM_PER_DEG * sin
    for lo, hi, own, group_at, size in blocks:
        later = np.repeat(own, size)
        earlier = np.arange(hi - lo) - np.repeat(group_at, size)
        dt[lo:hi] = c.times[later] - c.times[earlier]
        earlier_dmag[lo:hi] = dmag[earlier]
        dx = (km_cos[earlier] * cos[later] - km_sin[earlier] * sin[later]) \
            * (c.lons[later] - c.lons[earlier])
        dy = KM_PER_DEG * (c.lats[later] - c.lats[earlier])
        r2[lo:hi] = dx * dx + dy * dy
    return blocks, dt, r2, earlier_dmag


def hawkes_score(c: Catalog, region: Region, m0: float, mode: str = "approx") -> Callable:
    """(negative log-likelihood, its gradient, its Hessian) over the packed
    parameters of hawkes_pack, as one closure (the ETAS score of Ogata 1998).

    The strictly-earlier event pairs are precomputed once, in the blocks of
    _pair_blocks, and the closure keeps three pair-sized arrays: each
    pair's lag dt, squared distance r^2 and earlier event's magnitude above
    m0. The region-clipping geometry is precomputed too. An evaluation is
    one pass over the blocks, in one workspace of a block's size allocated
    with the closure. A parameter vector that does not unpack, overflows a
    float power of the value or gradient, or gives a non-finite value scores
    inf with a nan gradient and Hessian; one that overflows a Hessian term
    alone (_power) keeps its value and gradient, with a non-finite Hessian.

    The Hessian is exact. A block writes each pair's factor rows log(dt+c),
    log(r^2+d), dmag, 1/(dt+c) and 1/(r^2+d); a pair's term is k exp((-p,
    -q, a) . the first three). Over (c, p, a, d, q), a pair's log-term
    gradient g is scale times the rows 1/(dt+c), log(dt+c), dmag, 1/(r^2+d)
    and log(r^2+d); over k it is 1. Every second derivative of
    the log term is a combination of g and its squares. A block holds whole
    later-event groups, so each lam_j is complete in its block, and w, a
    pair's share of its later event's rate, follows there. One product (w *
    rows) @ rows^T per block sums the pair part sum w g g^T, and one
    reduceat of w * rows over the groups gives sum_i w_ij g_ij per event.
    Those give the gradient's w-sums and the event part sum_j u_j u_j^T,
    with u_j = (mu/lam_j, 1 - mu/lam_j, sum_i w_ij g_ij).
    """
    if mode not in ("approx", "quadrature"):
        raise ValueError(f"unknown integral mode {mode!r}")
    dmag = c.mags - m0
    blocks, dt, r2, earlier_dmag = _pair_blocks(c, dmag)
    left = c.window_days - c.times
    at = region.area_km2 * c.window_days
    clipped = _ClippedMass(c, region) if mode == "quadrature" else None
    # one block's factor rows log(dt+c), log(r^2+d), dmag, 1/(dt+c) and
    # 1/(r^2+d) (the last two hold dt+c and r^2+d until their logs are
    # taken), then w, then w times each factor row
    width = max((hi - lo for lo, hi, *_ in blocks), default=0)
    work = np.empty((11, width))
    rows, w, w_rows = work[:5], work[5], work[6:]
    # (c, p, a, d, q) from the rows' order
    to_packed = [3, 0, 2, 4, 1]

    def evaluate(prm: HawkesParams):
        mu, k, cc, p, a, d, q = prm.mu, prm.k, prm.c, prm.p, prm.a, prm.d, prm.q
        with np.errstate(all="ignore"):
            coef = np.array([-p, -q, a])
            lam = np.full(c.n, mu)
            sums = np.zeros((5, c.n))
            gram = np.zeros((5, 5))
            for lo, hi, own, group_at, size in blocks:
                r, w_b, w_r = rows[:, :hi - lo], w[:hi - lo], w_rows[:, :hi - lo]
                np.add(dt[lo:hi], cc, out=r[3])
                np.add(r2[lo:hi], d, out=r[4])
                np.log(r[3:], out=r[:2])
                np.copyto(r[2], earlier_dmag[lo:hi])
                # a pair's term over k, exp(-p log(dt+c) - q log(r^2+d) + a dmag)
                np.exp(np.matmul(coef, r[:3], out=w_b), out=w_b)
                lam[own] = lam_b = mu + k * np.add.reduceat(w_b, group_at)
                np.multiply(w_b, np.repeat(k / lam_b, size), out=w_b)
                np.reciprocal(r[3:], out=r[3:])
                np.multiply(r, w_b, out=w_r)
                gram += w_r @ r.T
                sums[:, own] = np.add.reduceat(w_r, group_at, axis=1)
            point = float(np.sum(np.log(lam)))
            # the temporal mass per event, its c and p partials and their second partials
            lc = left + cc
            tail, lag, log_lc = lc ** (1.0 - p), lc ** -p, np.log(lc)
            head, c_lag, log_c = cc ** (1.0 - p), cc ** -p, math.log(cc)
            ti = (head - tail) / (p - 1.0)
            ti_c = cc * (lag - c_lag)
            ti_p = log_lc * tail - log_c * head - ti
            ti_2 = np.array([
                ti_c + p * cc * cc * (_power(cc, -p - 1.0) - lc ** (-p - 1.0)),
                (p - 1.0) * cc * (log_c * c_lag - log_lc * lag),
                (p - 1.0) * (log_c ** 2 * head - log_lc ** 2 * tail) - ti_p,
            ])
            # the rows of _ClippedMass.mass_terms; over the whole plane, the mass times factors
            if mode == "approx":
                smass, qm, ln_d = spatial_mass(d, q), q - 1.0, math.log(d)
                terms = np.outer([1.0, -qm, -(qm * ln_d + 1.0), _power(qm, 2), _power(qm, 2) * ln_d,
                                  _power(qm * ln_d + 1.0, 2) - qm * ln_d], np.full(c.n, smass))
            else:
                terms = clipped.mass_terms(d, q)
            (mass, mass_d, mass_q), mass_2 = terms[:3], terms[3:]
            prod = k * np.exp(a * dmag)
            trig_i = prod * ti * mass
            trig = float(np.sum(trig_i))
            value = -(point - (mu * at + trig))
            if not math.isfinite(value):
                return _not_finite(7)
            # u_j over (mu, k, c, p, a, d, q): sum_i w_ij = 1 - mu/lam_j
            u = np.empty((7, c.n))
            np.divide(mu, lam, out=u[0])
            np.subtract(1.0, u[0], out=u[1])
            sums = sums[to_packed]
            w_sum, w_x = np.sum(u[1]), np.sum(sums, axis=1)
            w_lag, w_log_lag, w_mag, w_dist, w_log_dist = w_x
            grad = np.array([
                mu * (at - np.sum(1.0 / lam)),
                trig - w_sum,
                cc * p * w_lag + np.sum(prod * ti_c * mass),
                (p - 1.0) * w_log_lag + np.sum(prod * ti_p * mass),
                a * (np.sum(trig_i * dmag) - w_mag),
                d * q * w_dist + np.sum(prod * ti * mass_d),
                (q - 1.0) * w_log_dist + np.sum(prod * ti * mass_q),
            ])

            # the log terms' part over (k, c, p, a, d, q): sum w g g^T, and
            # sum w times the log term's second derivatives, which are (c, c)
            # = g_c + g_c^2/p, (c, p) = (p-1)/p g_c, (p, p) = g_p, (a, a) =
            # g_a, the same for (d, q), and none in k or across the groups
            scale = np.array([-p * cc, 1.0 - p, a, -q * d, 1.0 - q])
            np.multiply(sums, scale[:, None], out=u[2:])
            w_g = scale * w_x
            pair = np.empty((6, 6))
            pair[0, 0] = w_sum
            pair[0, 1:] = pair[1:, 0] = w_g
            # gram has sum (w x) y above and sum (w y) x below the diagonal
            gram = 0.5 * (gram + gram.T)
            pair[1:, 1:] = gram[np.ix_(to_packed, to_packed)] * np.outer(scale, scale)
            curv = np.diag(np.r_[0.0, w_g])
            curv[1, 1] += pair[1, 1] / p
            curv[1, 2] = curv[2, 1] = (p - 1.0) / p * w_g[0]
            curv[4, 4] += pair[4, 4] / q
            curv[4, 5] = curv[5, 4] = (q - 1.0) / q * w_g[3]

            # the compensator's part: trig_i is prod (in k and a) times ti
            # (in c and p) times mass (in d and q); the partials of prod are
            # prod, am * prod and (am + am^2) * prod
            am = a * dmag
            first = np.array([trig_i, prod * ti_c * mass, prod * ti_p * mass, am * trig_i,
                              prod * ti * mass_d, prod * ti * mass_q])
            comp = np.zeros((6, 6))
            # the symmetric 2 x 2 blocks of the rows (xx, xy, yy)
            comp[1:3, 1:3] = (ti_2 @ (prod * mass))[[0, 1, 1, 2]].reshape(2, 2)
            comp[4:, 4:] = (mass_2 @ (prod * ti))[[0, 1, 1, 2]].reshape(2, 2)
            comp[1:3, 4:] = (prod * np.array([ti_c, ti_p])) @ np.array([mass_d, mass_q]).T
            comp[4:, 1:3] = comp[1:3, 4:].T
            comp[3] = comp[:, 3] = first @ am
            comp[3, 3] += np.sum(first[3])
            comp[0] = comp[:, 0] = np.sum(first, axis=1)

            hess = u @ u.T
            hess[0, 0] += mu * at - np.sum(u[0])
            hess[1:, 1:] += comp - pair - curv
        return value, grad, hess

    def score(theta: np.ndarray):
        try:
            return evaluate(hawkes_unpack(theta, m0))
        except (OverflowError, ValueError):
            return _not_finite(7)

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
        try:
            mu = math.exp(float(theta[0]))
            value = -(n * math.log(mu) - mu * at) if n else mu * at
        except (OverflowError, ValueError):  # exp overflows, or log of an underflow
            return _not_finite(1)
        return value, np.array([mu * at - n]), np.array([[mu * at]])

    return score


class Minimum(NamedTuple):
    """Where minimize stopped: the point, the score there, the Newton
    iterations taken and why it stopped."""
    x: np.ndarray
    fun: float
    jac: np.ndarray
    hess: np.ndarray
    nit: int
    message: str


# eigenvalues of a Hessian that is not positive definite are taken by
# absolute value and floored at this fraction of the largest
_EIG_FLOOR = 1e-8
# the Armijo condition's fraction of the predicted decrease
_ARMIJO = 1e-4
# the longest Newton step, in the 2-norm of the packed log-parameters. A
# likelihood without an interior maximum (a Hawkes fit to a catalog without
# clustering) has nearly flat directions, along which uncapped steps land
# in float overflow and are halved back one evaluation at a time
_MAX_STEP = 2.0
# the relative change of the objective that the line search still tells
# from rounding: the Hawkes objective sums thousands of rounded logs
_RESOLUTION = 1e-12


def _newton_step(grad: np.ndarray, hess: np.ndarray) -> np.ndarray:
    """-hess^-1 grad by a Cholesky solve, shortened to _MAX_STEP; a Hessian
    that is not positive definite is replaced by its eigendecomposition
    with each eigenvalue's absolute value floored at _EIG_FLOOR times the
    largest, which keeps the step a descent direction."""
    try:
        low = np.linalg.cholesky(hess)
        step = -np.linalg.solve(low.T, np.linalg.solve(low, grad))
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(hess)
        size = np.abs(vals)
        size = np.maximum(size, _EIG_FLOOR * size.max())
        step = -(vecs @ ((vecs.T @ grad) / size))
    length = np.linalg.norm(step)
    return step * (_MAX_STEP / length) if length > _MAX_STEP else step


def _finite(fun, jac, hess) -> bool:
    return math.isfinite(fun) and bool(np.isfinite(jac).all() and np.isfinite(hess).all())


def _backtrack(score: Callable, x: np.ndarray, fun: float, jac: np.ndarray, step: np.ndarray):
    """(point, its score) of the first of step, step/2, step/4, ... from x
    that meets the Armijo condition with a finite score. A full step whose
    predicted decrease is below the objective's resolution (_RESOLUTION of
    its size) cannot be judged by value and is taken when its score is
    finite. None once a halved step predicts a decrease below that
    resolution, or no longer moves x."""
    slope = float(jac @ step)
    floor = _RESOLUTION * max(1.0, abs(fun))
    t = 1.0
    while True:
        trial = x + t * step
        if np.array_equal(trial, x):
            return None
        got = score(trial)
        if _finite(*got) and (got[0] <= fun + _ARMIJO * t * slope or -slope <= floor):
            return trial, got
        t *= 0.5
        if -t * slope <= floor:
            return None


def minimize(score: Callable, theta0, gtol: float, max_iter: int) -> Minimum:
    """Minimize score(theta) -> (value, gradient, Hessian) by damped Newton
    steps (Nocedal & Wright 2006, ch. 3): each Newton step, no longer than
    _MAX_STEP, is halved until it meets the Armijo condition, and a trial
    whose value, gradient or Hessian is not finite counts as rejected.
    Stops when the gradient's max-norm falls below gtol, after max_iter
    Newton iterations, or when the step underflows: no halving decreases
    the objective by more than its resolution. Every point is scored once."""
    x = np.array(theta0, dtype=float)
    fun, jac, hess = score(x)
    if not _finite(fun, jac, hess):
        return Minimum(x, *_not_finite(x.size), 0,
                       "the objective is not finite at the start")
    nit = 0
    while True:
        if np.max(np.abs(jac)) < gtol:
            return Minimum(x, fun, jac, hess, nit, "gradient max-norm below gtol")
        if nit >= max_iter:
            return Minimum(x, fun, jac, hess, nit, "iteration limit reached")
        step = _newton_step(jac, hess)
        found = _backtrack(score, x, fun, jac, step) if np.isfinite(step).all() else None
        if found is None:
            return Minimum(x, fun, jac, hess, nit, "step underflow: no decrease along the Newton step")
        x, (fun, jac, hess) = found
        nit += 1


def fit_mle(family: str, c: Catalog, region: Region, init=None,
            mode: str = "approx", gtol: float = 1e-6,
            max_iter: int = 500, restarts: int = 0,
            rng: RngStream | None = None) -> FitResult:
    """Maximize the log-likelihood by damped Newton steps on the exact
    Hessian (minimize) in transformed space.

    family is "homogeneous" (init: rate) or "hawkes" (init: HawkesParams;
    the magnitude floor is taken from init and held fixed). A catalog with
    a 0-day window is refused. Without init the start is the catalog's
    mean rate n/(|A| T) (n floored at 1), or for Hawkes mu at half that
    with k=0.05, c=0.01, p=1.3, a=1, d=1, q=1.5 and the catalog's m0.
    Convergence is declared when the analytic gradient's max-norm drops
    below gtol, up to max_iter Newton iterations. restarts > 0 adds that many jittered
    starts (multiplicative log-normal, sigma 0.1) and keeps the best
    optimum, whose Hessian is the fit's observed information.
    """
    if c.window_days == 0:
        raise ValueError("catalog window_days = 0 has no exposure to fit")
    if init is None:
        at = region.area_km2 * c.window_days
        init = (max(c.n, 1) / at if family == "homogeneous" else
                HawkesParams(mu=0.5 * max(c.n, 1) / at, k=0.05, c=0.01,
                             p=1.3, a=1.0, d=1.0, q=1.5, m0=c.m0))
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
        res = minimize(score, theta_s, gtol, max_iter)
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
        information=best.hess,
    )


# --- parameter file round trip ------------------------------------------


_HAWKES_NAMES = ("mu", "k", "c", "p", "a", "d", "q", "m0")


# the coordinates of hawkes_pack, of which the homogeneous fit has the first
_PACKED_NAMES = ("ln mu", "ln k", "ln c", "ln(p-1)", "ln a", "ln d", "ln(q-1)")


def _uncertainty_lines(information: np.ndarray) -> list:
    """`# se(...)` comments: each packed parameter's standard error and its
    strongest correlation with another, or one `# se = unavailable`."""
    try:
        se, corr = fit_uncertainty(information)
    except ValueError as e:
        return [f"# se = unavailable ({e})"]
    lines = []
    for i, name in enumerate(_PACKED_NAMES[:se.size]):
        line = f"# se({name}) = {se[i]:.6g}"
        if se.size > 1:
            j = max((j for j in range(se.size) if j != i), key=lambda j: abs(corr[i, j]))
            line += f", strongest correlation {corr[i, j]:+.4f} with {_PACKED_NAMES[j]}"
        lines.append(line)
    return lines


def _params_text(values: dict, fit: FitResult | None) -> str:
    lines = []
    if fit is not None:
        lines.append(f"# log_likelihood = {fit.log_lik!r}")
        lines.append(f"# iterations = {fit.iterations}")
        lines.append(f"# grad_norm = {fit.grad_norm!r}")
        lines.append(f"# converged = {str(fit.converged).lower()}")
        if fit.information is not None:
            lines += _uncertainty_lines(fit.information)
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


def _read_params(text: str, names: tuple) -> dict:
    """A params file's `name = value` lines as floats, exactly one for each
    of names. Blank and `#` lines are skipped; any other line is refused."""
    vals = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ValueError(f"params: line {lineno}: expected 'name = value'")
        name, _, v = s.partition("=")
        name = name.strip()
        if name in vals:
            raise ValueError(f"params: line {lineno}: {name} given twice")
        try:
            vals[name] = float(v.strip())
        except ValueError:
            raise ValueError(f"params: line {lineno}: malformed value {v.strip()!r}") from None
    missing = [n for n in names if n not in vals]
    if missing:
        raise ValueError(f"params: missing {', '.join(missing)}")
    extra = [n for n in vals if n not in names]
    if extra:
        raise ValueError(f"params: unknown names {', '.join(sorted(extra))}")
    return vals


def parse_hawkes_params(text: str) -> HawkesParams:
    return HawkesParams(**_read_params(text, _HAWKES_NAMES))


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
        return HomogeneousIntensity(_read_params(text, ("mu",))["mu"])
    if family != "hawkes":
        raise ValueError(f"params: unknown family {family!r}")
    return HawkesIntensity(parse_hawkes_params(text), history)
