"""Forecast consistency and comparison tests.

Consistency tests (N, L, M, S) score one forecast against an observed
catalog; comparison tests (R, T, W) score two forecasts on the same grid.
Simulation-based tests resolve ties toward the rejection side (<=) and
draw replicate k from substream k of the supplied stream. The L and R null
catalogs are drawn as binned counts, never as event lists: under a Poisson
forecast a catalog's cell counts are independent Poisson(rate) draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import pdtr, pdtrc, stdtr

from .catalog import Catalog, bin_counts, csv_text
from .forecast import (GriddedForecast, expected_total, joint_log_likelihood,
                       marginal_magnitude, marginal_space, poisson_log_pmf,
                       scale_to_count, sparse_log_likelihood)
from .rng import RngStream, pmap

# fewest non-zero differences the W test's normal approximation takes
_MIN_NONZERO = 10


@dataclass(frozen=True)
class TestResult:
    name: str
    statistic: float
    quantile: float
    n_sim: int
    decision: str
    level: float
    sim_statistics: np.ndarray | None = field(default=None, repr=False)
    delta1: float | None = None
    delta2: float | None = None
    note: str = ""


@dataclass(frozen=True)
class PairwiseResult:
    name: str
    statistic: float
    p_value: float
    direction: str
    decision: str
    level: float
    n_used: int = 0
    n_sim: int = 0
    sim_statistics: np.ndarray | None = field(default=None, repr=False)
    note: str = ""


def n_test(f: GriddedForecast, c: Catalog, level: float = 0.05) -> TestResult:
    """Total-count test with analytic Poisson tails.

    delta1 = P(N >= n_obs) flags underprediction, delta2 = P(N <= n_obs)
    overprediction; two-sided rejection when either tail drops below
    level/2. The quantile reported is the smaller tail.
    """
    n_obs = int(bin_counts(c, f.grid).counts.sum())
    mu = expected_total(f)
    # pdtrc(-1, mu) is nan, but P(N >= 0) is 1
    delta1 = float(pdtrc(n_obs - 1, mu)) if n_obs > 0 else 1.0
    delta2 = float(pdtr(n_obs, mu))
    q = min(delta1, delta2)
    decision = "reject" if q < level / 2.0 else "consistent"
    return TestResult("n", float(n_obs), q, 0, decision, level,
                      delta1=delta1, delta2=delta2)


def _observed_cells(f: GriddedForecast, c: Catalog):
    """Occupied cells of the binned catalog, ascending, and their counts."""
    counts = bin_counts(c, f.grid).counts
    cells = np.flatnonzero(counts)
    return cells, counts[cells]


def _null_cells(cum_rates: np.ndarray, rng: RngStream):
    """Occupied cells and counts of one Poisson catalog from the forecast
    whose cumulative rates are given.

    The total N is Poisson(sum of rates); each of the N events picks cell i
    with probability rate_i / total by inverting the cumulative rates, so a
    zero-rate cell is never picked.
    """
    gen = rng.generator()
    total = cum_rates[-1]
    u = gen.random(gen.poisson(total)) * total
    return np.unique(np.searchsorted(cum_rates, u, side="right"), return_counts=True)


def l_test(f: GriddedForecast, c: Catalog, rng: RngStream, n_sim: int = 1000,
           level: float = 0.05) -> TestResult:
    """Joint log-likelihood consistency test.

    gamma is the fraction of null catalogs (binned counts simulated from the
    forecast) whose likelihood is <= the observed one; one-sided rejection
    for small gamma. Observed and simulated counts go through the same
    scorer, so a tie is exact.
    """
    obs = sparse_log_likelihood(f, *_observed_cells(f, c))
    cum = np.cumsum(f.rates)

    def one(k: int) -> float:
        return sparse_log_likelihood(f, *_null_cells(cum, rng.substream(k)))

    sims = np.asarray(pmap(one, n_sim))
    gamma = float(np.mean(sims <= obs))
    decision = "reject" if gamma < level else "consistent"
    return TestResult("l", obs, gamma, n_sim, decision, level, sim_statistics=sims)


def _conditional_marginal_test(name: str, f: GriddedForecast, c: Catalog,
                               marg: GriddedForecast, index: np.ndarray,
                               rng: RngStream, n_sim: int, level: float) -> TestResult:
    """The M or S test: marg is f collapsed by index, the cell of marg
    that holds each cell of f, and c's counts are binned the same way."""
    marg_counts = np.bincount(index, weights=bin_counts(c, f.grid).counts,
                              minlength=marg.rates.size).astype(int)
    n_obs = int(marg_counts.sum())
    if n_obs == 0:
        return TestResult(name, math.nan, math.nan, 0, "not-applicable", level,
                          note="no observed events in the grid")
    scaled = scale_to_count(marg, n_obs)
    obs = joint_log_likelihood(scaled, marg_counts)
    probs = marg.rates / marg.rates.sum()
    gen = rng.substream(0).generator()
    sim_counts = gen.multinomial(n_obs, probs, size=n_sim)
    sims = poisson_log_pmf(sim_counts, scaled.rates[None, :]).sum(axis=1)
    gamma = float(np.mean(sims <= obs))
    decision = "reject" if gamma < level else "consistent"
    return TestResult(name, obs, gamma, n_sim, decision, level, sim_statistics=sims)


def m_test(f: GriddedForecast, c: Catalog, rng: RngStream, n_sim: int = 1000,
           level: float = 0.05) -> TestResult:
    """Magnitude-distribution test, conditional on the observed total.

    The magnitude marginal is rescaled to the observed in-grid count and
    scored by joint Poisson likelihood; null counts are multinomial
    placements of the same total across bands.
    """
    return _conditional_marginal_test("m", f, c, marginal_magnitude(f), f.grid.band_index(),
                                      rng, n_sim, level)


def s_test(f: GriddedForecast, c: Catalog, rng: RngStream, n_sim: int = 1000,
           level: float = 0.05) -> TestResult:
    """Spatial-distribution test; the space marginal analogue of m_test."""
    return _conditional_marginal_test("s", f, c, marginal_space(f), f.grid.space_index(),
                                      rng, n_sim, level)


def r_test(fa: GriddedForecast, fb: GriddedForecast, c: Catalog,
           rng: RngStream, n_sim: int = 1000, level: float = 0.05) -> PairwiseResult:
    """One-directional likelihood-ratio test with the first forecast as null.

    R = L_A - L_B on the observed counts; the null distribution comes from
    binned counts simulated from fa. Small p means the observed R sits in
    fa's low tail. Run with the arguments swapped for the other direction;
    the two directions are never merged.
    """
    if fa.grid != fb.grid:
        raise ValueError("r_test needs both forecasts on the same grid")
    cells, counts = _observed_cells(fa, c)
    la = sparse_log_likelihood(fa, cells, counts)
    lb = sparse_log_likelihood(fb, cells, counts)
    if math.isinf(la) and math.isinf(lb):
        raise ValueError("both forecasts assign zero likelihood to the observation")
    r_obs = la - lb
    cum = np.cumsum(fa.rates)

    def one(k: int) -> float:
        cs = _null_cells(cum, rng.substream(k))
        return sparse_log_likelihood(fa, *cs) - sparse_log_likelihood(fb, *cs)

    sims = np.asarray(pmap(one, n_sim))
    p = float(np.mean(sims <= r_obs))
    direction = "A" if r_obs > 0 else ("B" if r_obs < 0 else "tie")
    decision = "reject" if p < level else "consistent"
    return PairwiseResult("r", r_obs, p, direction, decision, level,
                          n_used=fa.grid.n_cells, n_sim=n_sim, sim_statistics=sims)


def student_t_statistic(x: np.ndarray):
    """One-sample t statistic and two-sided Student-t p for mean zero.

    Returns (t, p); (nan, nan) when the sample variance vanishes.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    sd = float(x.std(ddof=1))
    # identical values can leave sd ~ 1e-16 from mean-subtraction noise,
    # which would fabricate an enormous t; treat that as zero variance
    if sd <= 1e-13 * max(float(np.max(np.abs(x))), 1e-300):
        return math.nan, math.nan
    t = float(x.mean()) * math.sqrt(n) / sd
    p = 2.0 * float(stdtr(n - 1, -abs(t)))
    return t, p


def t_test_pairwise(fa: GriddedForecast, fb: GriddedForecast, c: Catalog,
                    level: float = 0.05) -> PairwiseResult:
    """Paired t test on per-bin log-likelihood differences.

    Bins where either forecast scores -inf are dropped; needs at least two
    usable bins. Zero variance across bins (e.g. identical forecasts) is
    reported as degenerate rather than raising.
    """
    if fa.grid != fb.grid:
        raise ValueError("t_test_pairwise needs both forecasts on the same grid")
    counts = bin_counts(c, fa.grid).counts
    x = poisson_log_pmf(counts, fa.rates) - poisson_log_pmf(counts, fb.rates)
    x = x[np.isfinite(x)]
    if x.size < 2:
        return PairwiseResult("t", math.nan, math.nan, "not-applicable",
                              "not-applicable", level, n_used=int(x.size),
                              note="fewer than 2 bins with finite differences")
    t, p = student_t_statistic(x)
    if math.isnan(t):
        return PairwiseResult("t", float(x.mean()), 1.0, "degenerate",
                              "degenerate", level, n_used=int(x.size),
                              note="zero variance across bins")
    direction = "A" if x.mean() > 0 else ("B" if x.mean() < 0 else "tie")
    decision = "reject" if p < level else "consistent"
    return PairwiseResult("t", t, p, direction, decision, level, n_used=int(x.size))


def _average_ranks(a: np.ndarray):
    """Ranks 1..n of a, each tie group given the mean of the ranks it spans,
    and the size of each group of equal values in ascending order.

    The ranks equal scipy.stats.rankdata(a) (method "average"); any nan
    makes every rank nan, as there.
    """
    a = np.asarray(a, dtype=float)
    _, inverse, counts = np.unique(a, return_inverse=True, return_counts=True)
    ranks = (np.cumsum(counts) - 0.5 * (counts - 1))[inverse]
    if np.isnan(a).any():
        ranks = np.full(a.shape, np.nan)
    return ranks, counts


def wilcoxon_signed_rank(x: np.ndarray):
    """Signed-rank statistic W and two-sided normal-approximation p.

    Zero differences are dropped; ties get average ranks and the null
    variance n(n+1)(2n+1)/24 is reduced by sum(t^3-t)/48 over tie groups.
    Returns (W, p, n_used).
    """
    x = np.asarray(x, dtype=float)
    x = x[x != 0.0]
    n = x.size
    if n == 0:
        return math.nan, math.nan, 0
    ranks, tie_counts = _average_ranks(np.abs(x))
    w = float(ranks[x > 0].sum())
    mean = n * (n + 1) / 4.0
    var = n * (n + 1) * (2 * n + 1) / 24.0
    var -= float(np.sum(tie_counts.astype(float) ** 3 - tie_counts)) / 48.0
    z = (w - mean) / math.sqrt(var)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return w, p, n


def w_test_pairwise(fa: GriddedForecast, fb: GriddedForecast, c: Catalog,
                    level: float = 0.05) -> PairwiseResult:
    """Wilcoxon signed-rank test on per-bin log-likelihood differences.

    Needs at least _MIN_NONZERO (10) non-zero finite differences for the
    normal approximation; below that the result is not-applicable.
    """
    if fa.grid != fb.grid:
        raise ValueError("w_test_pairwise needs both forecasts on the same grid")
    counts = bin_counts(c, fa.grid).counts
    x = poisson_log_pmf(counts, fa.rates) - poisson_log_pmf(counts, fb.rates)
    x = x[np.isfinite(x)]
    nz = x[x != 0.0]
    if nz.size < _MIN_NONZERO:
        return PairwiseResult("w", math.nan, math.nan, "not-applicable",
                              "not-applicable", level, n_used=int(nz.size),
                              note=f"fewer than {_MIN_NONZERO} non-zero differences")
    w, p, n_used = wilcoxon_signed_rank(x)
    mean = n_used * (n_used + 1) / 4.0
    direction = "A" if w > mean else ("B" if w < mean else "tie")
    decision = "reject" if p < level else "consistent"
    return PairwiseResult("w", w, p, direction, decision, level, n_used=n_used)


def paradox_fixture():
    """Two-bin demonstration that pointwise likelihood and the L-test can
    disagree: fa scores the observation higher than fb, yet the L-test
    rejects fa and keeps fb.

    Returns (fa, fb, catalog).
    """
    from .catalog import BinGrid

    grid = BinGrid(np.array([
        [0.0, 1.0, 0.0, 1.0, 4.0, 5.0],
        [1.0, 2.0, 0.0, 1.0, 4.0, 5.0],
    ]))
    fa = GriddedForecast(grid, np.array([0.02, 0.02]), 1.0)
    fb = GriddedForecast(grid, np.array([2.5, 2.5]), 1.0)
    c = Catalog(np.array([0.5]), np.array([0.5]), np.array([0.5]),
                np.array([4.5]), 1.0, 4.0)
    return fa, fb, c


def results_to_csv(results) -> str:
    """Rows of test,statistic,quantile_or_p,n_sim,decision."""
    scores = [r.quantile if isinstance(r, TestResult) else r.p_value for r in results]
    return csv_text({"test": [r.name for r in results],
                     "statistic": np.array([r.statistic for r in results], dtype=float),
                     "quantile_or_p": np.array(scores, dtype=float),
                     "n_sim": [r.n_sim for r in results],
                     "decision": [r.decision for r in results]})


def sims_to_csv(results) -> str:
    """Rows of test,rep,statistic: each simulated statistic of the results
    that kept theirs, in result order."""
    sims = [(r.name, np.asarray(r.sim_statistics, dtype=float)) for r in results
            if r.sim_statistics is not None]
    # np.concatenate needs an array even when no result kept its statistics
    return csv_text({
        "test": np.repeat([name for name, _ in sims], [s.size for _, s in sims]),
        "rep": np.concatenate([np.arange(0)] + [np.arange(s.size) for _, s in sims]),
        "statistic": np.concatenate([np.empty(0)] + [s for _, s in sims]),
    })
