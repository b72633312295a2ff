"""The scipy.special and numpy code behind the N, T and W tests and the
quadrat homogeneity test, checked for exact equality with the scipy.stats
calls it replaces."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import chdtrc, stdtr

from eqassess import BinGrid, Catalog, GriddedForecast, Region, homogeneity_test, n_test
from eqassess.consistency import _average_ranks, student_t_statistic, wilcoxon_signed_rank

MUS = [1e-3, 0.01, 0.5, 1.0, 3.0, 36.0, 99.5, 1e3, 1e4]


def one_cell_n_test(n_obs: int, mu: float):
    grid = BinGrid(np.array([[0.0, 1.0, 0.0, 1.0, 4.0, 5.0]]))
    f = GriddedForecast(grid, np.array([mu]), 1.0)
    times = np.linspace(0.0, 1.0, n_obs)
    c = Catalog(times, np.full(n_obs, 0.5), np.full(n_obs, 0.5), np.full(n_obs, 4.5), 1.0, 4.0)
    return n_test(f, c)


@pytest.mark.parametrize("n_obs", [0, 1, 2, 10, 1000, 12000])
@pytest.mark.parametrize("mu", MUS)
def test_n_test_tails_equal_scipy_stats(n_obs, mu):
    r = one_cell_n_test(n_obs, mu)
    assert r.delta1 == float(stats.poisson.sf(n_obs - 1, mu))
    assert r.delta2 == float(stats.poisson.cdf(n_obs, mu))


def test_n_test_zero_count_upper_tail_is_one():
    # pdtrc(-1, mu) is nan; P(N >= 0) must still come out as exactly 1
    assert one_cell_n_test(0, 3.0).delta1 == 1.0


def t_sample(n: int, target_t: float) -> np.ndarray:
    """A sample of size n whose one-sample t statistic is close to target_t."""
    base = np.linspace(-1.0, 1.0, n)
    return base + target_t * float(base.std(ddof=1)) / math.sqrt(n)


@pytest.mark.parametrize("n", [2, 3, 11, 101, 1001, 10001])
@pytest.mark.parametrize("target_t", [0.0, 1e-8, -1e-8, 0.7, -2.5, 40.0, -1e3])
def test_student_t_p_equals_scipy_stats(n, target_t):
    t, p = student_t_statistic(t_sample(n, target_t))
    assert t == pytest.approx(target_t, rel=1e-3, abs=1e-12)
    assert p == 2.0 * float(stats.t.sf(abs(t), n - 1))


@pytest.mark.parametrize("df", [1, 2, 5, 30, 1000, 10000])
@pytest.mark.parametrize("t", [0.0, 1e-8, 1.0, 3.5, 1e2, 1e8])
def test_stdtr_lower_tail_equals_t_sf(df, t):
    assert float(stdtr(df, -t)) == float(stats.t.sf(t, df))


@pytest.mark.parametrize("df", [1, 2, 3, 8, 48, 400])
@pytest.mark.parametrize("x", [0.0, 1e-12, 0.5, 7.0, 120.0, 1e4, math.inf])
def test_chdtrc_equals_chi2_sf(df, x):
    assert float(chdtrc(df, x)) == float(stats.chi2.sf(x, df))


@pytest.mark.parametrize("seed,clustered", [(1, False), (2, False), (3, True), (4, True)])
def test_quadrat_p_equals_scipy_stats(seed, clustered):
    gen = np.random.default_rng(seed)
    n = 400
    if clustered:
        lons, lats = 0.3 + 0.02 * gen.standard_normal((2, n))
    else:
        lons, lats = gen.random((2, n))
    pts = Catalog(np.linspace(0.0, 1.0, n), np.clip(lons, 0, 1), np.clip(lats, 0, 1),
                  np.full(n, 4.0), 1.0, 4.0)
    r = homogeneity_test(pts, Region.rectangle(0.0, 1.0, 0.0, 1.0))
    assert r.df > 0
    assert r.p_value == float(stats.chi2.sf(r.statistic, r.df))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(-4, 4).map(float) | st.floats(-1e6, 1e6, allow_nan=False),
                min_size=1, max_size=40))
def test_average_ranks_equal_rankdata(values):
    a = np.asarray(values)
    ranks, counts = _average_ranks(a)
    assert np.array_equal(ranks, stats.rankdata(a))
    assert np.array_equal(counts, np.unique(a, return_counts=True)[1])


@pytest.mark.parametrize("a", [[2.5], [3.0, 3.0, 3.0, 3.0], [1.0, 2.0, 2.0, 0.5, 2.0],
                               [1.0, math.nan, 0.0]])
def test_average_ranks_edge_cases(a):
    a = np.asarray(a)
    assert np.array_equal(_average_ranks(a)[0], stats.rankdata(a), equal_nan=True)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-6, 6).map(float) | st.floats(-50, 50, allow_nan=False),
                min_size=1, max_size=60))
def test_wilcoxon_statistic_uses_rankdata_ranks(values):
    x = np.asarray(values)
    w, p, n = wilcoxon_signed_rank(x)
    nz = x[x != 0.0]
    assert n == nz.size
    if n:
        assert w == float(stats.rankdata(np.abs(nz))[nz > 0].sum())
