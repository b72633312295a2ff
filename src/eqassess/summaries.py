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

from .catalog import Catalog, Region, region_lattice
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


def _weighted_k_values(x, y, weights, lags, area):
    dist = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
    np.fill_diagonal(dist, np.inf)
    pair_w = weights[:, None] * weights[None, :]
    return np.array([
        float(np.sum(pair_w[dist <= h])) / area for h in lags
    ])


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
    2*P*h/(3*pi*A) for perimeter P and area A). With an RngStream,
    pointwise envelopes are attached from n_sim homogeneous simulations at
    the catalog's mean rate, re-evaluating the model intensity at the
    simulated points.
    """
    if c.n < 2:
        raise ValueError("weighted K needs at least 2 events")
    area = region.area_km2
    if lags_km is None:
        side = math.sqrt(area)
        lags_km = side * np.linspace(0.01, 0.10, 10)
    lags_km = np.asarray(lags_km, dtype=float)

    def weights_at(lons, lats, times):
        if getattr(model, "time_dependent", False):
            lam = model.rate_at(lons, lats, times)
        else:
            lam = model.rate_at(lons, lats)
        if np.any(lam <= 0):
            raise ValueError("model rate is zero at an observed event")
        return 1.0 / (lam * c.window_days)

    w = weights_at(c.lons, c.lats, c.times)
    x, y = region.to_km(c.lons, c.lats)
    k_obs = _weighted_k_values(x, y, w, lags_km, area)

    lo = hi = None
    if rng is not None:
        rate = c.n / (area * c.window_days)
        sims = np.empty((n_sim, lags_km.size))
        for s in range(n_sim):
            sim = simulate_homogeneous(rate, region, c.window_days,
                                       rng.substream(s))
            if sim.n < 2:
                sims[s] = 0.0
                continue
            sw = weights_at(sim.lons, sim.lats, sim.times)
            sx, sy = region.to_km(sim.lons, sim.lats)
            sims[s] = _weighted_k_values(sx, sy, sw, lags_km, area)
        lo = np.quantile(sims, 0.025, axis=0)
        hi = np.quantile(sims, 0.975, axis=0)
    return KFunctionCurve(lags_km, k_obs, c.n, lo, hi)


def k_curve_to_csv(curve: KFunctionCurve) -> str:
    has_env = curve.envelope_lo is not None
    header = "lag_km,k_value,reference" + (",envelope_lo,envelope_hi" if has_env else "")
    out = [header]
    ref = curve.reference()
    for i in range(curve.lags_km.size):
        row = [repr(float(curve.lags_km[i])), repr(float(curve.k_values[i])),
               repr(float(ref[i]))]
        if has_env:
            row += [repr(float(curve.envelope_lo[i])),
                    repr(float(curve.envelope_hi[i]))]
        out.append(",".join(row))
    return "\n".join(out) + "\n"


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
                  n_grid: int = 200, n_thresholds: int = 512,
                  n_time_avg: int = 20) -> ErrorDiagram:
    """Error diagram of a rate surface against observed epicenters.

    The alarm region at threshold u is the set where the surface is >= u;
    its size is measured in area (lattice cells for a model, cell areas
    for a forecast) as a fraction of the region, and the miss fraction is
    the share of events outside the alarm. Events in zero-rate spots count
    as value 0 and are missed by every positive threshold. The diagram is
    invariant to positive rescaling of the surface.
    """
    if isinstance(model_or_forecast, GriddedForecast):
        marg = marginal_space(model_or_forecast)
        areas = marg.grid.cell_area_km2()
        values = marg.rates / (areas * marg.window_days)
        measure = areas
        # each event scores its space box's value; strays score 0
        cell = marg.grid.locate(c.lons, c.lats)
        ev = np.where(cell >= 0, values[cell], 0.0)
    else:
        lat = region_lattice(region, n_grid)
        lons = lat.lons[lat.inside]
        lats = lat.lats[lat.inside]
        measure = lat.cell_km2[lat.inside]
        if getattr(model_or_forecast, "time_dependent", False):
            values = np.zeros(lons.shape)
            for j in range(n_time_avg):
                t = (j + 0.5) * c.window_days / n_time_avg
                values += model_or_forecast.rate_at(lons, lats,
                                                    np.full(lons.shape, t))
            values /= n_time_avg
            ev = model_or_forecast.rate_at(c.lons, c.lats, c.times)
        else:
            values = model_or_forecast.rate_at(lons, lats)
            ev = model_or_forecast.rate_at(c.lons, c.lats)
    thresh, alarm, miss = _diagram_from_values(values, measure, ev, n_thresholds)
    return ErrorDiagram(thresh, alarm, miss, c.n)


def error_diagram_to_csv(diag: ErrorDiagram) -> str:
    out = ["threshold,alarm_fraction,miss_fraction"]
    for i in range(diag.thresholds.size):
        out.append(",".join([
            repr(float(diag.thresholds[i])),
            repr(float(diag.alarm_fractions[i])),
            repr(float(diag.miss_fractions[i])),
        ]))
    return "\n".join(out) + "\n"
