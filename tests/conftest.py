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
