"""Catalog simulators: per-bin Poisson, homogeneous/inhomogeneous planar
Poisson, and Hawkes branching cascades.

Each routine consumes a single RngStream in a fixed draw order, so outputs
are bit-identical for identical (master_seed, stream_index) regardless of
host, schedule, or parallelism.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import KM_PER_DEG, Catalog, Region
from .forecast import GriddedForecast
from .intensity import (HawkesParams, HomogeneousIntensity, branching_ratio,
                        mean_branching_ratio, spatial_mass, temporal_mass,
                        temporal_trigger_cdf)
from .rng import RngStream

MAX_CASCADE = 1_000_000


def gutenberg_richter_magnitudes(gen: np.random.Generator, n: int, m0: float,
                                 b: float = 1.0, span: float = 4.0) -> np.ndarray:
    """Inverse-CDF draws from an exponential magnitude law truncated to
    [m0, m0+span]."""
    beta = b * math.log(10.0)
    u = gen.uniform(size=n)
    return m0 - np.log1p(-u * (1.0 - math.exp(-beta * span))) / beta


def mean_gr_magnitude(m0: float, b: float = 1.0, span: float = 4.0) -> float:
    beta = b * math.log(10.0)
    return m0 + 1.0 / beta - span * math.exp(-beta * span) / (1.0 - math.exp(-beta * span))


def simulate_poisson_grid(f: GriddedForecast, rng: RngStream) -> Catalog:
    """Independent Poisson counts per cell; events uniform in the cell box,
    magnitude band, and time window."""
    gen = rng.generator()
    counts = gen.poisson(f.rates)
    n = int(counts.sum())
    cell = np.repeat(np.arange(f.grid.n_cells), counts)
    b = f.grid.boxes[cell]
    lons = b[:, 0] + gen.uniform(size=n) * (b[:, 1] - b[:, 0])
    lats = b[:, 2] + gen.uniform(size=n) * (b[:, 3] - b[:, 2])
    mags = b[:, 4] + gen.uniform(size=n) * (b[:, 5] - b[:, 4])
    times = gen.uniform(0.0, f.window_days, size=n)
    return Catalog(times, lons, lats, mags, f.window_days, f.grid.mag_min)


def _uniform_in_region(gen: np.random.Generator, region: Region, n: int):
    """Uniform-per-km^2 points via rejection from the bounding box.

    Latitude weighting (cos lat) keeps the density uniform in area rather
    than in degrees.
    """
    lon_min, lon_max, lat_min, lat_max = region.bbox
    if lat_min <= 0.0 <= lat_max:
        cmax = 1.0
    else:
        cmax = max(math.cos(math.radians(lat_min)), math.cos(math.radians(lat_max)))
    out_x = np.empty(n)
    out_y = np.empty(n)
    got = 0
    while got < n:
        m = max(64, 2 * (n - got))
        xs = gen.uniform(lon_min, lon_max, size=m)
        ys = gen.uniform(lat_min, lat_max, size=m)
        u = gen.uniform(size=m)
        keep = (u < np.cos(np.radians(ys)) / cmax) & region.contains(xs, ys)
        k = min(int(keep.sum()), n - got)
        idx = np.flatnonzero(keep)[:k]
        out_x[got:got + k] = xs[idx]
        out_y[got:got + k] = ys[idx]
        got += k
    return out_x, out_y


def simulate_homogeneous(rate: float, region: Region, t_max: float,
                         rng: RngStream, mag: float = 0.0) -> Catalog:
    """Homogeneous Poisson with the given rate (events/km^2/day); all events
    carry the constant magnitude `mag`."""
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if t_max <= 0:
        raise ValueError("window length must be positive")
    gen = rng.generator()
    n = int(gen.poisson(rate * region.area_km2 * t_max))
    lons, lats = _uniform_in_region(gen, region, n)
    times = gen.uniform(0.0, t_max, size=n)
    return Catalog(times, lons, lats, np.full(n, float(mag)), t_max, float(mag))


def simulate_inhomogeneous(model, bound: float, region: Region, t_max: float,
                           rng: RngStream, mag: float = 0.0) -> Catalog:
    """Thinning: homogeneous candidates at `bound`, kept with probability
    rate/bound. The caller asserts bound >= sup of the rate; a candidate
    where the rate exceeds the bound raises with its location, and more
    than MAX_CASCADE expected candidates raise before any is drawn."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    expected = bound * region.area_km2 * t_max
    if expected > MAX_CASCADE:
        raise ValueError(f"bound {bound!r} gives {expected:.3g} expected "
                         f"candidates, above the cap of {MAX_CASCADE}")
    gen = rng.generator()
    n = int(gen.poisson(expected))
    lons, lats = _uniform_in_region(gen, region, n)
    times = gen.uniform(0.0, t_max, size=n)
    u = gen.uniform(size=n)
    lam = model.rate_at(lons, lats, times)
    over = lam > bound * (1.0 + 1e-9)
    if np.any(over):
        i = int(np.argmax(over))
        raise ValueError(
            f"rate {lam[i]!r} exceeds bound {bound!r} at lon={lons[i]!r}, "
            f"lat={lats[i]!r}, t={times[i]!r}")
    keep = u < lam / bound
    return Catalog(times[keep], lons[keep], lats[keep],
                   np.full(int(keep.sum()), float(mag)), t_max, float(mag))


def simulate_hawkes(params: HawkesParams, region: Region, t_max: float,
                    rng: RngStream, gr_b: float = 1.0, mag_span: float = 4.0) -> Catalog:
    """Branching-construction Hawkes catalog over region x [0, t_max].

    Background events (constant rate mu, uniform over the region) get
    truncated Gutenberg-Richter magnitudes; each event spawns
    Poisson(branching_ratio(M) x window-truncation) direct offspring with
    power-law temporal lags and radial offsets. Parents outside the region
    still spawn; the final catalog is clipped to the region. Supercritical
    parameters or an expected cascade beyond MAX_CASCADE events raise.
    """
    mean_mag = mean_gr_magnitude(params.m0, gr_b, mag_span)
    if branching_ratio(params, mean_mag) >= 1.0:
        raise ValueError("supercritical triggering: branching ratio at the "
                         "mean magnitude is >= 1")
    nbar = mean_branching_ratio(params, gr_b, mag_span)
    bg_mean = float(HomogeneousIntensity(params.mu).compensator(region, t_max))
    if nbar >= 1.0 or bg_mean / (1.0 - nbar) > MAX_CASCADE:
        raise ValueError("expected cascade size exceeds the event cap")

    p = params
    gen = rng.substream(0).generator()
    n_bg = int(gen.poisson(bg_mean))
    lons, lats = _uniform_in_region(gen, region, n_bg)
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
        if total > MAX_CASCADE:
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
