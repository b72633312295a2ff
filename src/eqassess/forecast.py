"""Gridded forecasts: expected counts per space-magnitude cell over a window."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .catalog import (BinGrid, Catalog, Region, _is_float, _read_numeric_csv,
                      bin_counts, csv_text)

FORECAST_HEADER = ("lon_min", "lon_max", "lat_min", "lat_max", "mag_min", "mag_max", "rate", "mask")


@dataclass(frozen=True)
class GriddedForecast:
    """Expected event counts per grid cell over window_days."""

    grid: BinGrid
    rates: np.ndarray
    window_days: float

    def __post_init__(self):
        r = np.asarray(self.rates, dtype=float).copy()
        if r.shape != (self.grid.n_cells,):
            raise ValueError("rates must have one entry per grid cell")
        if not np.all(np.isfinite(r)):
            raise ValueError("forecast rates must be finite")
        if np.any(r < 0):
            raise ValueError("forecast rates must be non-negative")
        if self.window_days <= 0:
            raise ValueError("forecast window must be positive")
        r.setflags(write=False)
        object.__setattr__(self, "rates", r)
        object.__setattr__(self, "window_days", float(self.window_days))

    def __eq__(self, other):
        return (isinstance(other, GriddedForecast)
                and self.grid == other.grid
                and np.array_equal(self.rates, other.rates)
                and self.window_days == other.window_days)


def parse_forecast(text: str, window_days: float = 1.0) -> GriddedForecast:
    """Parse a forecast CSV; masked-out rows (mask=0) are dropped entirely.

    A plain file (ASCII, unquoted, decimal numbers, eight fields a row, '#'
    only at the start of a line) is converted in one np.loadtxt pass, and
    its masks and rates are checked as whole columns. Any other file, and
    any file that fails those checks, goes through the row-by-row reader,
    which alone raises the errors about rows, each naming its row and
    field. Both paths give the same forecast for every file the row reader
    accepts.
    """
    rows = _read_numeric_csv(text, FORECAST_HEADER, "forecast", _forecast_record,
                             valid=_valid_forecast_rows)
    rows = rows[rows[:, 7] == 1.0]
    if not len(rows):
        raise ValueError("forecast: no unmasked cells")
    return GriddedForecast(BinGrid(rows[:, :6]), rows[:, 6], window_days)


def _forecast_record(i: int, rec: list) -> list:
    for name, v in zip(FORECAST_HEADER, rec):
        if not _is_float(v):
            raise ValueError(f"forecast: row {i}: malformed {name} {v.strip()!r}")
    vals = [float(v) for v in rec]
    if vals[7] not in (0.0, 1.0):
        raise ValueError(f"forecast: row {i}: mask must be 0 or 1, got {rec[7].strip()!r}")
    if vals[6] < 0:
        raise ValueError(f"forecast: row {i}: negative rate {vals[6]!r}")
    return vals


def _valid_forecast_rows(rows: np.ndarray) -> bool:
    mask = rows[:, 7]
    return bool(np.all((mask == 0.0) | (mask == 1.0)) and not np.any(rows[:, 6] < 0))


def serialize_forecast(f: GriddedForecast) -> str:
    columns = [*f.grid.boxes.T, f.rates, np.ones(f.grid.n_cells, dtype=int)]
    return csv_text(dict(zip(FORECAST_HEADER, columns)))


def expected_total(f: GriddedForecast) -> float:
    return float(f.rates.sum())


def scale_to_count(f: GriddedForecast, n: int) -> GriddedForecast:
    """Rescale all rates so they sum to n events."""
    if n < 0:
        raise ValueError("target count must be non-negative")
    total = f.rates.sum()
    if total == 0:
        if n == 0:
            return f
        raise ValueError("cannot scale an all-zero forecast to a positive count")
    return GriddedForecast(f.grid, f.rates * (n / total), f.window_days)


def marginal_magnitude(f: GriddedForecast) -> GriddedForecast:
    """Collapse space: one cell per magnitude band spanning the spatial hull."""
    bands = f.grid.mag_bands
    band_of = f.grid.band_index()
    rates = np.zeros(bands.shape[0])
    np.add.at(rates, band_of, f.rates)
    b = f.grid.boxes
    hull = (b[:, 0].min(), b[:, 1].max(), b[:, 2].min(), b[:, 3].max())
    boxes = np.column_stack([
        np.full(bands.shape[0], hull[0]), np.full(bands.shape[0], hull[1]),
        np.full(bands.shape[0], hull[2]), np.full(bands.shape[0], hull[3]),
        bands[:, 0], bands[:, 1],
    ])
    return GriddedForecast(BinGrid(boxes), rates, f.window_days)


def marginal_space(f: GriddedForecast) -> GriddedForecast:
    """Collapse magnitude: one cell per spatial box spanning all bands."""
    space = f.grid.space_boxes
    space_of = f.grid.space_index()
    rates = np.zeros(space.shape[0])
    np.add.at(rates, space_of, f.rates)
    mlo = f.grid.boxes[:, 4].min()
    mhi = f.grid.boxes[:, 5].max()
    boxes = np.column_stack([
        space,
        np.full(space.shape[0], mlo), np.full(space.shape[0], mhi),
    ])
    return GriddedForecast(BinGrid(boxes), rates, f.window_days)


def poisson_log_pmf(counts, rates) -> np.ndarray:
    """Per-cell Poisson log-pmf; 0*log(0) is 0, a positive count on a zero
    rate gives -inf (which orders below every finite value and propagates
    through sums)."""
    counts = np.asarray(counts, dtype=float)
    rates = np.asarray(rates, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return xlogy(counts, rates) - rates - gammaln(counts + 1.0)


def joint_log_likelihood(f: GriddedForecast, counts) -> float:
    counts = np.asarray(counts)
    if counts.shape != f.rates.shape:
        raise ValueError("counts must align with forecast cells")
    if np.any(counts < 0):
        raise ValueError("counts must be non-negative")
    return float(poisson_log_pmf(counts, f.rates).sum())


def sparse_log_likelihood(f: GriddedForecast, cells, counts) -> float:
    """Joint Poisson log-likelihood from the occupied cells alone.

    cells are distinct ascending cell indices and counts their positive
    event counts; every other cell holds zero events. The value is
    -sum(rates) + sum(n log r - log n!) over the given cells, which equals
    joint_log_likelihood up to rounding, at a cost that does not grow with
    the number of empty cells.
    """
    counts = np.asarray(counts, dtype=float)
    occupied = xlogy(counts, f.rates[cells]) - gammaln(counts + 1.0)
    return float(np.sum(occupied)) - expected_total(f)


def catalog_log_likelihood(f: GriddedForecast, c: Catalog) -> float:
    return joint_log_likelihood(f, bin_counts(c, f.grid).counts)


def forecast_from_intensity(model, grid: BinGrid, window_days: float,
                            region: Region | None = None, n_sub: int = 8,
                            band_weights=None) -> GriddedForecast:
    """Integrate an intensity model over grid cells and the window.

    Each cell rate is a midpoint quadrature over the cell's lon/lat box of
    the model's exact integral over [0, window_days]; when a region is
    given, the density is treated as zero outside it. Magnitude structure is
    supplied through band_weights (one weight per band, summing to 1;
    default splits rate evenly across bands).
    """
    from .catalog import KM_PER_DEG

    bands = grid.mag_bands
    if band_weights is None:
        band_weights = np.full(bands.shape[0], 1.0 / bands.shape[0])
    band_weights = np.asarray(band_weights, dtype=float)
    if band_weights.shape != (bands.shape[0],) or abs(band_weights.sum() - 1.0) > 1e-9:
        raise ValueError("band_weights must give one weight per magnitude band, summing to 1")

    space = grid.space_boxes
    space_rate = np.empty(space.shape[0])
    u = (np.arange(n_sub) + 0.5) / n_sub
    for i, (lo_x, hi_x, lo_y, hi_y) in enumerate(space):
        gx, gy = np.meshgrid(lo_x + u * (hi_x - lo_x), lo_y + u * (hi_y - lo_y))
        lons, lats = gx.ravel(), gy.ravel()
        mass = model.integrate(lons, lats, window_days)
        if region is not None:
            mass = np.where(region.contains(lons, lats), mass, 0.0)
        da = (KM_PER_DEG * np.cos(np.radians(lats)) * (hi_x - lo_x) / n_sub) * \
             (KM_PER_DEG * (hi_y - lo_y) / n_sub)
        space_rate[i] = float(np.sum(mass * da))

    space_of = grid.space_index()
    band_of = grid.band_index()
    rates = space_rate[space_of] * band_weights[band_of]
    return GriddedForecast(grid, rates, window_days)
