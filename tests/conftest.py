import math

import numpy as np
import pytest

from eqassess import BinGrid, Catalog, Region
from eqassess.catalog import KM_PER_DEG, _clip_rings, km_distance2, region_lattice
from eqassess.intensity import (_ClippedMass, _row_spans, hawkes_pack,
                                hawkes_unpack, spatial_mass, temporal_mass)
from eqassess import simulate
from eqassess.simulate import simulate_homogeneous
from eqassess.summaries import _weighted_k_values


def km_distance_reference(lon1, lat1, lon2, lat2):
    """Reference for catalog.km_distance: the cosine of each pair's mean
    latitude, then np.hypot, the formula km_distance2's per-point factors
    replaced."""
    lat_mid = np.radians(0.5 * (np.asarray(lat1) + np.asarray(lat2)))
    dx = KM_PER_DEG * np.cos(lat_mid) * (np.asarray(lon2) - np.asarray(lon1))
    dy = KM_PER_DEG * (np.asarray(lat2) - np.asarray(lat1))
    return np.hypot(dx, dy)


@pytest.fixture(scope="session")
def km_oracle():
    return km_distance_reference


def km_distance2_broadcast(lon1, lat1, lon2, lat2):
    """Reference for catalog.km_grid2: km_distance2's broadcast form, each
    rank-2 grid one ufunc over broadcast operands."""
    lon1, lat1, lon2, lat2 = (np.asarray(v, dtype=float) for v in (lon1, lat1, lon2, lat2))
    half1, half2 = np.radians(0.5 * lat1), np.radians(0.5 * lat2)
    dx = KM_PER_DEG * np.cos(half1) * np.cos(half2) - KM_PER_DEG * np.sin(half1) * np.sin(half2)
    dx = dx * (lon2 - lon1)
    dy = KM_PER_DEG * (lat2 - lat1)
    return dx * dx + dy * dy


@pytest.fixture(scope="session")
def km_grid_oracle():
    return km_distance2_broadcast


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


def per_catalog_k_envelope(model, c, region, lags_km, rng, n_sim):
    """Reference for weighted_k's envelope: one model call per simulated
    catalog, the loop the grouped evaluation replaced."""
    area = region.area_km2
    rate = c.n / (area * c.window_days)
    sims = np.empty((n_sim, lags_km.size))
    for s in range(n_sim):
        sim = simulate_homogeneous(rate, region, c.window_days, rng.substream(s))
        sw = 1.0 / (model.rate_at(sim.lons, sim.lats, sim.times) * c.window_days)
        sx, sy = region.to_km(sim.lons, sim.lats)
        sims[s] = _weighted_k_values(sx, sy, sw, lags_km) / area
    return np.quantile(sims, 0.025, axis=0), np.quantile(sims, 0.975, axis=0)


@pytest.fixture(scope="session")
def envelope_oracle():
    return per_catalog_k_envelope


def reference_clip_halfplane(poly, normal, offset, keep_le):
    """Reference for catalog._clip_rings: the Sutherland-Hodgman walk
    over numpy rows of one ring, with side values x * nx + y * ny - c
    taken elementwise."""
    if poly.shape[0] == 0:
        return poly
    d = poly[:, 0] * normal[0] + poly[:, 1] * normal[1] - offset
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


def reference_box_areas(ring, boxes):
    """Reference for catalog.box_areas and catalog._lattice_areas: the area
    (km^2) of a lon/lat ring inside each (lon_min, lon_max, lat_min, lat_max)
    box, the ring clipped by the box's sides (_clip_rings) and measured by
    Green's theorem, d(lon) sin(mean lat) sinc(d(lat) / 2) per edge.
    Clipped vertices within rounding of a side sit on it, and a sum within
    rounding of 0 is 0. This was box_areas before the clip-free edge sum.

    Each box is clipped and summed in longitudes relative to its west side:
    near the box the shift is exact (Sterbenz's lemma), and it keeps the
    rounding of a narrow box far from lon 0 to the box's own width."""
    v, eps = np.asarray(ring, dtype=float).reshape(-1, 2), np.finfo(float).eps
    b = np.asarray(boxes, dtype=float).reshape(-1, 1, 4)
    if len(v) == 0:
        return np.zeros(len(b))
    k, tol = len(b), 4 * eps * np.abs(v).max()
    west = b[..., :1] * [1.0, 0.0]
    xy, counts = v - west, np.full(k, len(v))
    b = b - b[..., :1] * [1.0, 1.0, 0.0, 0.0]
    for side in range(4):
        xy, counts = _clip_rings(xy, counts, np.eye(2)[[side // 2] * k], b[:, 0, side],
                                 np.full(k, side % 2 == 1))
    low, high = b[..., 0::2], b[..., 1::2]
    xy = np.select([xy < low + tol, xy > high - tol], [low, high], xy)
    slot = np.arange(xy.shape[1])
    nxt = np.where(slot < counts[:, None], (slot + 1) % np.maximum(counts, 1)[:, None], slot)
    x, ph = xy[..., 0], np.radians(xy[..., 1])
    x1, ph1 = np.take_along_axis(x, nxt, 1), np.take_along_axis(ph, nxt, 1)
    t = (x1 - x) * np.sin(0.5 * (ph + ph1)) * np.sinc((ph1 - ph) / (2.0 * np.pi))
    s = np.abs(t.sum(axis=1))
    s = np.where(s > 8 * slot.size * eps * np.abs(t).sum(axis=1), s, 0.0)
    return KM_PER_DEG ** 2 * (180.0 / np.pi) * s


@pytest.fixture(scope="session")
def box_area_oracle():
    return reference_box_areas


def reference_shoelace(poly):
    """Reference for catalog._poly_areas: one polygon at a time."""
    if poly.shape[0] < 3:
        return 0.0
    x, y = poly[:, 0], poly[:, 1]
    return abs(float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))) / 2.0


def reference_voronoi(lons, lats, region):
    """Reference for residuals.voronoi_tessellation: each cell clipped
    against every other generator in distance order until the bisectors are
    out of reach, the method the Delaunay-neighbour candidates replaced.
    The generators must be distinct. Returns (polys_km, areas_km2)."""
    px, py = region.to_km(np.atleast_1d(np.asarray(lons, dtype=float)),
                          np.atleast_1d(np.asarray(lats, dtype=float)))
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


def reference_simulate_hawkes(params, region, t_max, rng, gr_b=1.0, mag_span=4.0):
    """Reference for simulate.simulate_hawkes: the loop that kept four
    lists of columns and each generation's parents and children apart,
    behind both criticality checks, the one at the mean magnitude first.
    It reads simulate.MAX_CASCADE at call time, as the simulator does."""
    from eqassess.intensity import (HomogeneousIntensity, branching_ratio,
                                    mean_branching_ratio, spatial_mass,
                                    temporal_trigger_cdf)
    from eqassess.simulate import gutenberg_richter_magnitudes, mean_gr_magnitude

    mean_mag = mean_gr_magnitude(params.m0, gr_b, mag_span)
    if branching_ratio(params, mean_mag) >= 1.0:
        raise ValueError("supercritical triggering: branching ratio at the "
                         "mean magnitude is >= 1")
    nbar = mean_branching_ratio(params, gr_b, mag_span)
    bg_mean = float(HomogeneousIntensity(params.mu).compensator(region, t_max))
    if nbar >= 1.0 or bg_mean / (1.0 - nbar) > simulate.MAX_CASCADE:
        raise ValueError("expected cascade size exceeds the event cap")

    p = params
    gen = rng.substream(0).generator()
    n_bg = int(gen.poisson(bg_mean))
    lons, lats = simulate._uniform_in_region(gen, region, n_bg)
    times = gen.uniform(0.0, t_max, size=n_bg)
    mags = gutenberg_richter_magnitudes(gen, n_bg, p.m0, gr_b, mag_span)

    all_t = [times]
    all_x = [lons]
    all_y = [lats]
    all_m = [mags]
    total = times.size
    gener = 0
    par_t, par_x, par_y, par_m = times, lons, lats, mags
    while par_t.size:
        gener += 1
        gen = rng.substream(gener).generator()
        trunc = temporal_trigger_cdf(t_max - par_t, p.c, p.p)
        rho = p.k * np.exp(p.a * (par_m - p.m0)) \
            * temporal_mass(math.inf, p.c, p.p) * spatial_mass(p.d, p.q)
        counts = gen.poisson(rho * trunc)
        nt = int(counts.sum())
        if nt == 0:
            break
        total += nt
        if total > simulate.MAX_CASCADE:
            raise ValueError("cascade exceeded the event cap")
        rep = np.repeat(np.arange(par_t.size), counts)
        # lag from the window-truncated (t+c)^-p law, inverse CDF
        y = gen.uniform(size=nt) * trunc[rep]
        lag = p.c * ((1.0 - y) ** (-1.0 / (p.p - 1.0)) - 1.0)
        u_r = gen.uniform(size=nt)
        radius = np.sqrt(p.d * ((1.0 - u_r) ** (-1.0 / (p.q - 1.0)) - 1.0))
        phi = gen.uniform(0.0, 2.0 * math.pi, size=nt)
        dx = radius * np.cos(phi)
        dy = radius * np.sin(phi)
        ch_t = par_t[rep] + lag
        ch_y = par_y[rep] + dy / KM_PER_DEG
        ch_x = par_x[rep] + dx / (KM_PER_DEG * np.cos(np.radians(par_y[rep])))
        ch_m = gutenberg_richter_magnitudes(gen, nt, p.m0, gr_b, mag_span)
        all_t.append(ch_t)
        all_x.append(ch_x)
        all_y.append(ch_y)
        all_m.append(ch_m)
        par_t, par_x, par_y, par_m = ch_t, ch_x, ch_y, ch_m

    t = np.concatenate(all_t)
    x = np.concatenate(all_x)
    y = np.concatenate(all_y)
    m = np.concatenate(all_m)
    keep = region.contains(x, y) & (t <= t_max)
    return Catalog(t[keep], x[keep], y[keep], m[keep], t_max, p.m0)


@pytest.fixture(scope="session")
def hawkes_simulation_oracle():
    return reference_simulate_hawkes


class DenseHawkes:
    """Reference for HawkesIntensity.rate_at and integrate: the full query x
    history rectangle in _row_spans blocks, with every lag <= 0 zeroed by
    the lag kernel, the loop the causal staircase replaced."""

    def __init__(self, model):
        self.model = model

    def _parts(self, lons, lats, times, lag_kernel):
        m = self.model
        p = m.params
        h = m.history
        lons = np.atleast_1d(np.asarray(lons, dtype=float))
        lats = np.atleast_1d(np.asarray(lats, dtype=float))
        times = np.broadcast_to(np.asarray(times, dtype=float), lons.shape)
        bg = np.full(lons.shape, p.mu, dtype=float)
        out = np.zeros(lons.shape)
        if h.n == 0 or p.k == 0:
            return bg, out
        prod = m._productivity()
        for lo, hi in _row_spans(lons.size, h.n):
            dt = times[lo:hi, None] - h.times[None, :]
            r2 = km_distance2(lons[lo:hi, None], lats[lo:hi, None],
                              h.lons[None, :], h.lats[None, :])
            out[lo:hi] = (lag_kernel(dt) * (r2 + p.d) ** -p.q) @ prod
        return bg, out

    def rate_at(self, lons, lats, times):
        p = self.model.params

        def lag(dt):
            active = dt > 0
            return np.where(active, (np.where(active, dt, 1.0) + p.c) ** -p.p, 0.0)

        bg, trig = self._parts(lons, lats, times, lag)
        return bg + trig

    def integrate(self, lons, lats, t):
        p = self.model.params
        bg, trig = self._parts(lons, lats, t, lambda dt: temporal_mass(
            np.maximum(dt, 0.0), p.c, p.p))
        return bg * t + trig


@pytest.fixture(scope="session")
def dense_hawkes():
    return DenseHawkes


def _earlier_pairs(times):
    """(i, j) for every event i strictly earlier than event j of a
    time-sorted catalog; events at the same time do not trigger each other."""
    first = np.searchsorted(times, times, side="left")
    later = np.repeat(np.arange(times.size), first)
    earlier = np.arange(later.size) - np.repeat(np.cumsum(first) - first, first)
    return earlier, later


@pytest.fixture(scope="session")
def earlier_pairs():
    return _earlier_pairs


def allocating_hawkes_score(c, region, m0, mode="approx"):
    """Reference for intensity.hawkes_score: the closure that allocated its
    pair-sized temporaries afresh on every evaluation."""
    earlier, later = _earlier_pairs(c.times)
    dt = c.times[later] - c.times[earlier]
    r2 = km_distance2(c.lons[earlier], c.lats[earlier], c.lons[later], c.lats[later])
    dmag = c.mags - m0
    left = c.window_days - c.times
    at = region.area_km2 * c.window_days
    clipped = _ClippedMass(c, region) if mode == "quadrature" else None

    def score(theta):
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
                mass = clipped.mass_terms(d, q)[0]
                mass_d, mass_q = clipped.mass_terms(d, q)[1:3]
            trig_i = prod * ti * mass
            trig = float(np.sum(trig_i))
            value = -(point - (mu * at + trig))
            if not math.isfinite(value):
                return math.inf, np.full(7, np.nan)
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


@pytest.fixture(scope="session")
def score_oracle():
    return allocating_hawkes_score


def bfgs_hawkes_fit(c, region, init, mode="approx", gtol=1e-6, max_iter=500,
                    restarts=0, rng=None):
    """Reference for intensity.fit_mle's Hawkes fit: scipy's BFGS on the
    score's value and gradient from the same starts, the optimizer the
    Newton loop replaced. Returns (log-likelihood, packed parameters) of
    the best start."""
    from scipy.optimize import minimize

    score = allocating_hawkes_score(c, region, init.m0, mode)
    theta0 = hawkes_pack(init)
    starts = [theta0] + [theta0 + rng.substream(k).generator().normal(0.0, 0.1, size=7)
                         for k in range(restarts)]
    best = min((minimize(score, s, method="BFGS", jac=True,
                         options={"gtol": gtol, "maxiter": max_iter}) for s in starts),
               key=lambda res: res.fun)
    return -float(best.fun), best.x


@pytest.fixture(scope="session")
def bfgs_fit():
    return bfgs_hawkes_fit


# --- window integrals -----------------------------------------------------
# The integrals that every model's compensator replaced.


def _spatial_quadrature_rate(model, region, n_grid=200):
    """Integral of a time-independent model over the region, per day: the
    midpoint sum over an n_grid x n_grid lattice."""
    lat = region_lattice(region, n_grid)
    vals = model.rate_at(lat.lons[lat.inside], lat.lats[lat.inside])
    return float(np.sum(vals * lat.cell_km2[lat.inside]))


def _hawkes_integral(params, c, region, mode):
    """The integral of a Hawkes rate over region x [0, c.window_days], with
    the triggering of c's own events: what log_likelihood subtracted."""
    p = params
    T = c.window_days
    bg = p.mu * region.area_km2 * T
    if c.n == 0 or p.k == 0:
        return bg
    prod = p.k * np.exp(p.a * (c.mags - p.m0))
    ti = temporal_mass(T - c.times, p.c, p.p)
    if mode == "approx":
        trig = float(np.sum(prod * ti) * spatial_mass(p.d, p.q))
    else:
        trig = float(np.sum(prod * ti * _ClippedMass(c, region).mass_terms(p.d, p.q)[0]))
    return bg + trig


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


def sorted_ray_masses(c, region, d, q, n_angles=720):
    """Reference for row 0 of intensity._ClippedMass.mass_terms on events
    inside the region: each event's rays cut one at a time, their crossings
    sorted by radius and signed +1, -1, +1, ... from the first, the wedge
    integral out to each crossing summed with those signs."""
    x, y = region.to_km(c.lons, c.lats)
    ev, radii, signs = [np.zeros(0, dtype=int)], [np.zeros(0)], [np.zeros(0)]
    for i in range(c.n):
        r, sg = _ray_segments((x[i], y[i]), region.ring_km, n_angles)
        ev.append(np.full(r.size, i))
        radii.append(r)
        signs.append(sg)
    ev, radii, signs = map(np.concatenate, (ev, radii, signs))
    seg = (d ** (1.0 - q) - (radii ** 2 + d) ** (1.0 - q)) / (2.0 * (q - 1.0))
    return np.bincount(ev, weights=signs * seg, minlength=c.n) * (2.0 * math.pi / n_angles)


@pytest.fixture(scope="session")
def clipped_mass_oracle():
    return sorted_ray_masses


@pytest.fixture(scope="session")
def integral_oracles():
    import types
    return types.SimpleNamespace(spatial_quadrature_rate=_spatial_quadrature_rate,
                                 hawkes_integral=_hawkes_integral)


# --- output writers -------------------------------------------------------
# The row loops that csv_text, geojson_features and render's _to_px/_pairs
# and _diverging_colors replaced, kept as the oracles of tests/test_writers.py. Each takes the
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


def reference_diverging_color(v, vmax):
    """render._diverging_colors one value at a time, as render_map called
    it per cell: white at 0, saturating blue for positive and red for
    negative."""
    if not math.isfinite(v) or vmax <= 0:
        return "#ffffff"
    t = min(1.0, abs(v) / vmax)
    if v >= 0:
        target = (33, 68, 160)
    else:
        target = (178, 24, 43)
    r, g, b = (round(255 + t * (ch - 255)) for ch in target)
    return f"#{r:02x}{g:02x}{b:02x}"


def reference_render_map(rs, title=""):
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
            fill = reference_diverging_color(float(rs.values[i]), vmax)
        out.append(f'<polygon points="{coords}" fill="{fill}" '
                   f'stroke="#333333" stroke-width="0.5"/>\n')
    bar_x, bar_y, bar_w, bar_h = _PAD, _H - 30, 200, 10
    steps = 40
    for s in range(steps):
        v = vmax * (2 * (s + 0.5) / steps - 1)
        out.append(f'<rect x="{_ref_f(bar_x + s * bar_w / steps)}" y="{bar_y}" '
                   f'width="{_ref_f(bar_w / steps + 0.5)}" height="{bar_h}" '
                   f'fill="{reference_diverging_color(v, vmax)}"/>\n')
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
    pad = 0.05 * (hi - lo)
    edges = np.linspace(lo - pad, hi + pad, n_bins + 1)
    # an empty range, or one too narrow for n_bins distinct finite bins
    if not np.all(edges[1:] > edges[:-1]):
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
