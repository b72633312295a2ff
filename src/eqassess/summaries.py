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

from .catalog import Catalog, Region, _lattice_areas, box_lattice_index, csv_text
from .forecast import GriddedForecast
from .intensity import GridIntensity
from .rng import RngStream
from .simulate import simulate_homogeneous

# --- weighted K-function --------------------------------------------------

# simulated points a K envelope evaluates in one model call: 39 catalogs of
# 450 events take one call, and --n-sim 999 on a large catalog stays bounded
_ENVELOPE_POINTS = 1 << 15
# most thresholds an error diagram keeps, its two end points included
_N_THRESHOLDS = 512


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
    from scipy.spatial import cKDTree  # on first use, as in residuals.voronoi_tessellation
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
    RngStream, pointwise envelopes are attached from n_sim >= 1 homogeneous
    simulations at the catalog's mean rate, re-evaluating the model
    intensity at the simulated points. Simulation s draws from
    rng.substream(s). The model is called once per group of simulations,
    closed at _ENVELOPE_POINTS points, on their points joined: a rate at a
    point does not depend on the points evaluated with it. A catalog with
    a 0-day window, which gives no weight, is refused."""
    if c.n < 2:
        raise ValueError("weighted K needs at least 2 events")
    if c.window_days == 0:
        raise ValueError("catalog window_days = 0 has no exposure to weight K by")
    if rng is not None and n_sim < 1:
        raise ValueError(f"the K envelope needs n_sim >= 1, got {n_sim}")
    area = region.area_km2
    if lags_km is None:
        side = math.sqrt(area)
        lags_km = side * np.linspace(0.01, 0.10, 10)
    lags_km = np.asarray(lags_km, dtype=float)

    def weights_at(lons, lats, times, where):
        lam = model.rate_at(lons, lats, times)
        if np.any(lam <= 0):
            raise ValueError(f"model rate is zero at {where}")
        return 1.0 / (lam * c.window_days)

    w = weights_at(c.lons, c.lats, c.times, "an observed event")
    x, y = region.to_km(c.lons, c.lats)
    k_obs = _weighted_k_values(x, y, w, lags_km) / area

    lo = hi = None
    if rng is not None:
        rate = c.n / (area * c.window_days)
        curves, group = [], []
        for s in range(n_sim):
            group.append(simulate_homogeneous(rate, region, c.window_days, rng.substream(s)))
            if s < n_sim - 1 and sum(g.n for g in group) < _ENVELOPE_POINTS:
                continue
            sw = weights_at(*(np.concatenate([getattr(g, a) for g in group])
                              for a in ("lons", "lats", "times")), "a simulated envelope point")
            for sim, gw in zip(group, np.split(sw, np.cumsum([g.n for g in group])[:-1])):
                sx, sy = region.to_km(sim.lons, sim.lats)
                curves.append(_weighted_k_values(sx, sy, gw, lags_km) / area)
            group = []
        lo = np.quantile(curves, 0.025, axis=0)
        hi = np.quantile(curves, 0.975, axis=0)
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


def _diagram_from_values(values, measure, event_values):
    total = float(measure.sum())
    if total <= 0:
        raise ValueError("alarm surface has zero total measure")
    uniq = np.unique(values)
    if uniq.size > _N_THRESHOLDS - 2:
        take = np.linspace(0, uniq.size - 1, _N_THRESHOLDS - 2).round().astype(int)
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
                  n_grid: int = 200) -> ErrorDiagram:
    """Error diagram of a rate surface against observed epicenters.

    The surface is a forecast's cell densities, or a model's rate averaged
    exactly over the catalog's window (not of 0 days) at the centres of the
    boxes of the n_grid x n_grid lattice over the region's bounding box that
    have area in the region, each weighed by that area (catalog._lattice_areas).
    The alarm region at threshold u is the set of cells whose value is
    >= u; its size is measured in area as a fraction of the region, and the
    miss fraction is the share of events outside the alarm. Each event
    scores the value of the cell holding it (a model's: the box of
    box_lattice_index, for events in the closed bounding box); events in
    no cell, in a box without area, or in zero-rate cells count as value 0
    and are missed by every positive threshold. The thresholds are the
    distinct values, evenly subsampled to at most _N_THRESHOLDS (512) with
    one above them all and 0. The diagram is invariant to positive
    rescaling of the surface.
    """
    if isinstance(model_or_forecast, GriddedForecast):
        model = GridIntensity(model_or_forecast)
        values, measure = model.density, model.grid.cell_area_km2()
        ev = model.rate_at(c.lons, c.lats)
    elif c.window_days == 0:
        raise ValueError("catalog window_days = 0 has no exposure to average the model over")
    else:
        _, cell, measure, (lons, lats) = _lattice_areas([region.vertices], region, n_grid)
        values = model_or_forecast.integrate(lons[cell], lats[cell], c.window_days) / c.window_days
        surface = np.zeros(n_grid * n_grid)
        surface[cell] = values
        lon_min, lon_max, lat_min, lat_max = region.bbox
        in_box = ((c.lons >= lon_min) & (c.lons <= lon_max)
                  & (c.lats >= lat_min) & (c.lats <= lat_max))
        ev = np.where(in_box, surface[box_lattice_index(region, c.lons, c.lats, n_grid, n_grid)],
                      0.0)
    thresh, alarm, miss = _diagram_from_values(values, measure, ev)
    return ErrorDiagram(thresh, alarm, miss, c.n)


def error_diagram_to_csv(diag: ErrorDiagram) -> str:
    return csv_text({"threshold": diag.thresholds, "alarm_fraction": diag.alarm_fractions,
                     "miss_fraction": diag.miss_fractions})
