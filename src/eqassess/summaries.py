"""Second-order and alarm-based summaries of fitted models.

The weighted K-function reweights pairs by the fitted intensity so a
correct model yields the homogeneous-Poisson curve pi h^2; error diagrams
trade alarm measure against miss fraction as the alarm threshold sweeps
the fitted rate surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .catalog import Catalog, Region, csv_text, region_lattice
from .forecast import GriddedForecast, marginal_space
from .rng import RngStream
from .simulate import simulate_homogeneous

# --- weighted K-function --------------------------------------------------


@dataclass(frozen=True)
class KFunctionCurve:
    lags_km: np.ndarray
    k_values: np.ndarray
    n_points: int
    envelope_lo: np.ndarray | None = None
    envelope_hi: np.ndarray | None = None

    def reference(self) -> np.ndarray:
        """The homogeneous-Poisson expectation pi h^2."""
        return math.pi * self.lags_km ** 2


def _weighted_k_values(x, y, weights, lags):
    """Sum of w_i * w_j over ordered pairs i != j with d_ij <= h, per lag h
    (w = 1 if weights is None). A k-d tree finds the pairs within the largest
    lag, in memory O(those pairs); binning each pair's np.hypot distance by
    the sorted lags gives every lag exactly the pairs with d_ij <= h."""
    order = np.argsort(lags)
    # the hair keeps the tree's squared-distance test a superset of hypot's
    reach = np.nextafter(lags.max(initial=0.0), np.inf) * (1.0 + 1e-9)
    i, j = cKDTree(np.column_stack([x, y])).query_pairs(
        reach, output_type="ndarray").T
    d = np.hypot(x[i] - x[j], y[i] - y[j])
    pair_w = None if weights is None else weights[i] * weights[j]
    per_lag = np.bincount(np.searchsorted(lags[order], d, side="left"),
                          pair_w, minlength=lags.size + 1)
    sums = np.empty(lags.size)
    sums[order] = 2.0 * np.cumsum(per_lag[:-1])
    return sums


def weighted_k(model, c: Catalog, region: Region,
               lags_km: np.ndarray | None = None,
               rng: RngStream | None = None,
               n_sim: int = 199) -> KFunctionCurve:
    """Intensity-weighted K-function of the catalog under the model.

    Each ordered pair within lag h contributes 1/(rho_i * rho_j) where rho
    is the per-window spatial intensity (model rate times window length;
    the instantaneous rate at the event's own time for time-dependent
    models), scaled by 1/region area, so a correct model reduces to the
    homogeneous expectation pi h^2. No edge correction is applied, which
    biases the curve low by a boundary-dependent factor (about
    2*P*h/(3*pi*A) for perimeter P and area A). Pairs come from a k-d tree
    search, in O(pairs within the largest lag) memory, not O(n^2). With an
    RngStream, pointwise envelopes are attached from n_sim homogeneous
    simulations at the catalog's mean rate, re-evaluating the model
    intensity at the simulated points.
    """
    if c.n < 2:
        raise ValueError("weighted K needs at least 2 events")
    area = region.area_km2
    if lags_km is None:
        side = math.sqrt(area)
        lags_km = side * np.linspace(0.01, 0.10, 10)
    lags_km = np.asarray(lags_km, dtype=float)

    def weights_at(lons, lats, times):
        lam = model.rate_at(lons, lats, times)
        if np.any(lam <= 0):
            raise ValueError("model rate is zero at an observed event")
        return 1.0 / (lam * c.window_days)

    w = weights_at(c.lons, c.lats, c.times)
    x, y = region.to_km(c.lons, c.lats)
    k_obs = _weighted_k_values(x, y, w, lags_km) / area

    lo = hi = None
    if rng is not None:
        rate = c.n / (area * c.window_days)
        sims = np.empty((n_sim, lags_km.size))
        for s in range(n_sim):
            sim = simulate_homogeneous(rate, region, c.window_days,
                                       rng.substream(s))
            sw = weights_at(sim.lons, sim.lats, sim.times)
            sx, sy = region.to_km(sim.lons, sim.lats)
            sims[s] = _weighted_k_values(sx, sy, sw, lags_km) / area
        lo = np.quantile(sims, 0.025, axis=0)
        hi = np.quantile(sims, 0.975, axis=0)
    return KFunctionCurve(lags_km, k_obs, c.n, lo, hi)


def k_curve_to_csv(curve: KFunctionCurve) -> str:
    columns = {"lag_km": curve.lags_km, "k_value": curve.k_values,
               "reference": curve.reference()}
    if curve.envelope_lo is not None:
        columns.update(envelope_lo=curve.envelope_lo, envelope_hi=curve.envelope_hi)
    return csv_text(columns)


# --- error diagrams -------------------------------------------------------


@dataclass(frozen=True)
class ErrorDiagram:
    """Alarm-fraction / miss-fraction pairs over descending thresholds.

    thresholds[0] exceeds the surface supremum (empty alarm, all missed)
    and the last threshold is 0 (full alarm, nothing missed), so the curve
    runs from (0, 1) to (1, 0).
    """

    thresholds: np.ndarray
    alarm_fractions: np.ndarray
    miss_fractions: np.ndarray
    n_events: int

    def area_under(self) -> float:
        return float(np.trapezoid(self.miss_fractions, self.alarm_fractions))


def _diagram_from_values(values, measure, event_values, n_thresholds):
    total = float(measure.sum())
    if total <= 0:
        raise ValueError("alarm surface has zero total measure")
    uniq = np.unique(values)
    if uniq.size > n_thresholds - 2:
        take = np.linspace(0, uniq.size - 1, n_thresholds - 2).round().astype(int)
        uniq = uniq[np.unique(take)]
    sup = float(uniq[-1]) if uniq.size else 0.0
    above = sup * 2.0 if sup > 0 else 1.0
    thresh = np.concatenate([[above], uniq[::-1], [0.0]])
    thresh = np.unique(thresh)[::-1]
    n_ev = event_values.size
    alarm = np.empty(thresh.size)
    miss = np.empty(thresh.size)
    for i, u in enumerate(thresh):
        sel = values >= u
        alarm[i] = float(measure[sel].sum()) / total
        if n_ev:
            miss[i] = float(np.sum(event_values < u)) / n_ev
        else:
            miss[i] = 1.0
    return thresh, alarm, miss


def error_diagram(model_or_forecast, c: Catalog, region: Region,
                  n_grid: int = 200, n_thresholds: int = 512) -> ErrorDiagram:
    """Error diagram of a rate surface against observed epicenters.

    The surface is a forecast's cell densities, or a model's rate averaged
    exactly over the window at the centres of an n_grid^2 region lattice.
    The alarm region at threshold u is the set of cells whose value is
    >= u; its size is measured in area as a fraction of the region, and the
    miss fraction is the share of events outside the alarm. Each event
    scores the value of the cell holding it; events in no cell, or in
    zero-rate cells, count as value 0 and are missed by every positive
    threshold. The diagram is invariant to positive rescaling of the
    surface.
    """
    if isinstance(model_or_forecast, GriddedForecast):
        marg = marginal_space(model_or_forecast)
        measure = marg.grid.cell_area_km2()
        values = marg.rates / (measure * marg.window_days)
        cell = marg.grid.locate(c.lons, c.lats)
    else:
        lat = region_lattice(region, n_grid)
        lons = lat.lons[lat.inside]
        lats = lat.lats[lat.inside]
        measure = lat.cell_km2[lat.inside]
        values = model_or_forecast.integrate(lons, lats, c.window_days) / c.window_days
        # the lattice cell holding each event, numbered among inside cells;
        # the bounding box is closed, its east and north edges in the last cells
        lon_min, lon_max, lat_min, lat_max = region.bbox
        ix = np.floor((c.lons - lon_min) / (lon_max - lon_min) * lat.nx).astype(int)
        iy = np.floor((c.lats - lat_min) / (lat_max - lat_min) * lat.ny).astype(int)
        flat = np.clip(iy, 0, lat.ny - 1) * lat.nx + np.clip(ix, 0, lat.nx - 1)
        number = np.cumsum(lat.inside) - 1
        in_box = ((c.lons >= lon_min) & (c.lons <= lon_max)
                  & (c.lats >= lat_min) & (c.lats <= lat_max))
        cell = np.where(in_box & lat.inside[flat], number[flat], -1)
    ev = np.where(cell >= 0, values[cell], 0.0)
    thresh, alarm, miss = _diagram_from_values(values, measure, ev, n_thresholds)
    return ErrorDiagram(thresh, alarm, miss, c.n)


def error_diagram_to_csv(diag: ErrorDiagram) -> str:
    return csv_text({"threshold": diag.thresholds, "alarm_fraction": diag.alarm_fractions,
                     "miss_fraction": diag.miss_fractions})
