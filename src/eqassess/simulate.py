"""Catalog simulators: per-bin Poisson, homogeneous/inhomogeneous planar
Poisson, and Hawkes branching cascades.

Each routine consumes a single RngStream in a fixed draw order, so outputs
are bit-identical for identical (master_seed, stream_index) regardless of
host, schedule, or parallelism. Every homogeneous pattern on region x
window (a homogeneous catalog, thinning candidates, a Hawkes background)
comes from one drawer, _poisson_points.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import KM_PER_DEG, Catalog, Region
from .forecast import GriddedForecast
from .intensity import (HawkesParams, HomogeneousIntensity, mean_branching_ratio,
                        spatial_mass, temporal_mass, temporal_trigger_cdf)
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


def _poisson_points(gen: np.random.Generator, mean: float, region: Region, t_max: float):
    """(lons, lats, times) of a Poisson pattern of the given mean count,
    uniform on region x [0, t_max]: drawn count, then epicentres, then times."""
    n = int(gen.poisson(mean))
    lons, lats = _uniform_in_region(gen, region, n)
    return lons, lats, gen.uniform(0.0, t_max, size=n)


def simulate_homogeneous(rate: float, region: Region, t_max: float,
                         rng: RngStream, mag: float = 0.0) -> Catalog:
    """Homogeneous Poisson with the given rate (events/km^2/day); all events
    carry the constant magnitude `mag`."""
    if rate < 0:
        raise ValueError("rate must be non-negative")
    if t_max <= 0:
        raise ValueError("window length must be positive")
    lons, lats, times = _poisson_points(rng.generator(), rate * region.area_km2 * t_max,
                                        region, t_max)
    return Catalog(times, lons, lats, np.full(times.size, float(mag)), t_max, float(mag))


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
    lons, lats, times = _poisson_points(gen, expected, region, t_max)
    u = gen.uniform(size=times.size)
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

    Background events (constant rate mu, from _poisson_points) get truncated
    Gutenberg-Richter magnitudes; each event spawns Poisson(branching_ratio(M)
    x window-truncation) direct offspring with power-law temporal lags and
    radial offsets, generation g from substream g as one (time, lon, lat, mag)
    array. Parents outside the region still spawn; the final catalog is
    clipped to the region. A mean branching ratio nbar >= 1 (supercritical)
    or an expected cascade beyond MAX_CASCADE events raises.
    """
    nbar = mean_branching_ratio(params, gr_b, mag_span)
    if nbar >= 1.0:
        raise ValueError(f"supercritical triggering: mean branching ratio nbar = {nbar:.6g} >= 1")
    bg_mean = float(HomogeneousIntensity(params.mu).compensator(region, t_max))
    if bg_mean / (1.0 - nbar) > MAX_CASCADE:
        raise ValueError("expected cascade size exceeds the event cap")

    p = params
    gen = rng.substream(0).generator()
    lons, lats, times = _poisson_points(gen, bg_mean, region, t_max)
    mags = gutenberg_richter_magnitudes(gen, times.size, p.m0, gr_b, mag_span)
    generations = [np.array([times, lons, lats, mags])]
    total = times.size
    while generations[-1].shape[1]:
        par_t, par_x, par_y, par_m = generations[-1]
        gen = rng.substream(len(generations)).generator()
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
        radius = np.sqrt(p.d * ((1.0 - gen.uniform(size=nt)) ** (-1.0 / (p.q - 1.0)) - 1.0))
        phi = gen.uniform(0.0, 2.0 * math.pi, size=nt)
        generations.append(np.array([
            par_t[rep] + lag,
            par_x[rep] + radius * np.cos(phi) / (KM_PER_DEG * np.cos(np.radians(par_y[rep]))),
            par_y[rep] + radius * np.sin(phi) / KM_PER_DEG,
            gutenberg_richter_magnitudes(gen, nt, p.m0, gr_b, mag_span)]))

    t, x, y, m = np.concatenate(generations, axis=1)
    keep = region.contains(x, y) & (t <= t_max)
    return Catalog(t[keep], x[keep], y[keep], m[keep], t_max, p.m0)
