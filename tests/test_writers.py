"""The output writers against the row loops they replaced (the oracles in
conftest.py): csv_text behind every CSV file, geojson_features behind every
GeoJSON file, and render's array pixel mapping behind every SVG. Each must
give byte-equal text, non-finite values, -0.0, subnormals, empty tables and
empty rings included. One literal two-row text per format pins the format
itself."""

import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqassess import (Catalog, CellResidualSet, ErrorDiagram, KFunctionCurve,
                      PairwiseResult, cell_residuals_to_csv,
                      cell_residuals_to_geojson, error_diagram_to_csv,
                      k_curve_to_csv, render_error_diagram, render_histogram,
                      render_k_curve, render_map, render_point_map, results_to_csv,
                      serialize_catalog, serialize_forecast, serialize_region)
from eqassess.catalog import csv_text
from eqassess import consistency
from eqassess.consistency import sims_to_csv
from eqassess.render import _pairs, _to_px
from eqassess.residuals import (geojson_features, geojson_polygon, points_to_csv,
                                points_to_geojson, tessellation_to_csv,
                                tessellation_to_geojson)

SUBNORMALS = [5e-324, -5e-324, 2.2250738585072014e-308 / 3]
SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, *SUBNORMALS, 1e308]
any_float = st.one_of(st.sampled_from(SPECIAL), st.floats())
finite_float = st.one_of(st.sampled_from([-0.0, 0.0, *SUBNORMALS]),
                         st.floats(allow_nan=False, allow_infinity=False))
# plot coordinates: finite, within a range whose spans do not overflow
coord = st.one_of(st.sampled_from([-0.0, 0.0, *SUBNORMALS]),
                  st.floats(-1e3, 1e3))


def floats(n, elements=any_float):
    return st.lists(elements, min_size=n, max_size=n).map(
        lambda v: np.array(v, dtype=float))


def rings(elements=coord):
    """Vertex arrays of 0 to 6 vertices; the empty ones in both shapes."""
    return st.one_of(
        st.just(np.empty((0, 2))), st.just(np.empty(0)),
        st.integers(1, 6).flatmap(lambda m: floats(2 * m, elements)).map(
            lambda v: v.reshape(-1, 2)))


sizes = st.integers(0, 12)
settings_ = settings(max_examples=100, deadline=None)
# extreme inputs overflow in both the writers and their oracles alike
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


# --- CSV ------------------------------------------------------------------


@settings_
@given(st.data())
def test_csv_text_matches_float_rows(writer_oracles, data):
    n = data.draw(sizes)
    columns = data.draw(st.lists(floats(n), min_size=1, max_size=5))
    names = [f"c{i}" for i in range(len(columns))]
    assert (csv_text(dict(zip(names, columns)))
            == writer_oracles.float_csv(",".join(names), *columns))


@settings_
@given(st.integers(1, 12).flatmap(floats))
def test_taus_csv_matches(writer_oracles, lam):
    # the call behind `residuals --kind rescale`'s taus.csv
    assert (csv_text({"tau": lam[:-1]}, {"total_mass": lam[-1]})
            == writer_oracles.taus_csv(lam))


@settings_
@given(st.data())
def test_serialize_catalog_matches(writer_oracles, data):
    n = data.draw(sizes)
    times = data.draw(floats(n, st.one_of(st.sampled_from([-0.0, *SUBNORMALS[:1]]),
                                          st.floats(0.0, 10.0))))
    lons, lats, mags = (data.draw(floats(n, finite_float)) for _ in range(3))
    try:
        c = Catalog(times, lons, lats, mags, 10.0, data.draw(finite_float))
    except ValueError:  # a duplicate event
        return
    assert serialize_catalog(c) == writer_oracles.serialize_catalog(c)


@settings_
@given(sizes.flatmap(lambda n: floats(2 * n)))
def test_serialize_region_matches(writer_oracles, v):
    region = types.SimpleNamespace(vertices=v.reshape(-1, 2))
    assert serialize_region(region) == writer_oracles.serialize_region(region)


@settings_
@given(st.data())
def test_serialize_forecast_matches(writer_oracles, data):
    n = data.draw(sizes)
    boxes = data.draw(floats(6 * n)).reshape(n, 6)
    f = types.SimpleNamespace(grid=types.SimpleNamespace(boxes=boxes, n_cells=n),
                              rates=data.draw(floats(n)))
    assert serialize_forecast(f) == writer_oracles.serialize_forecast(f)


def _results(data):
    out = []
    for _ in range(data.draw(st.integers(0, 5))):
        name = data.draw(st.sampled_from(["n", "l", "m", "s", "r_ab", "t", "w"]))
        sims = data.draw(st.one_of(st.none(), sizes.flatmap(floats)))
        stat, score = data.draw(any_float), data.draw(any_float)
        decision = data.draw(st.sampled_from(["pass", "reject"]))
        n_sim = data.draw(st.integers(0, 10 ** 6))
        if data.draw(st.booleans()):
            out.append(consistency.TestResult(name, stat, score, n_sim, decision, 0.05,
                                              sim_statistics=sims))
        else:
            out.append(PairwiseResult(name, stat, score, "a>b", decision, 0.05,
                                      n_sim=n_sim, sim_statistics=sims))
    return out


@settings_
@given(st.data())
def test_results_and_sims_csv_match(writer_oracles, data):
    results = _results(data)
    assert results_to_csv(results) == writer_oracles.results_to_csv(results)
    assert sims_to_csv(results) == writer_oracles.sims_csv(results)


@settings_
@given(st.data())
def test_k_curve_and_error_diagram_csv_match(writer_oracles, data):
    n = data.draw(sizes)
    lags, k = data.draw(floats(n)), data.draw(floats(n))
    envelope = data.draw(st.one_of(st.none(), st.tuples(floats(n), floats(n))))
    curve = KFunctionCurve(lags, k, 3, *(envelope or (None, None)))
    header = "lag_km,k_value,reference"
    columns = [lags, k, curve.reference()]
    if envelope:
        header += ",envelope_lo,envelope_hi"
        columns += list(envelope)
    assert k_curve_to_csv(curve) == writer_oracles.float_csv(header, *columns)
    diag = ErrorDiagram(k, lags, data.draw(floats(n)), 4)
    assert error_diagram_to_csv(diag) == writer_oracles.float_csv(
        "threshold,alarm_fraction,miss_fraction", diag.thresholds,
        diag.alarm_fractions, diag.miss_fractions)


# --- CSV and GeoJSON of cells, points and tessellations --------------------


def _cell_set(data, elements=coord):
    n = data.draw(sizes)
    return CellResidualSet(
        data.draw(st.sampled_from(["raw", "pearson", "deviance", "voronoi"])),
        data.draw(floats(n)),
        np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
        [data.draw(rings(elements)) for _ in range(n)],
        data.draw(floats(n)), np.zeros(n, dtype=int))


@settings_
@given(st.data())
def test_cell_residual_writers_match(writer_oracles, data):
    rs = _cell_set(data, finite_float)
    assert cell_residuals_to_csv(rs) == writer_oracles.cell_residuals_to_csv(rs)
    assert cell_residuals_to_geojson(rs) == writer_oracles.cell_residuals_to_geojson(rs)


@settings_
@given(st.data())
def test_point_writers_match(writer_oracles, data):
    n = data.draw(sizes)
    tags = data.draw(st.lists(st.sampled_from(["retained", "superposed"]),
                              min_size=n, max_size=n))
    ps = types.SimpleNamespace(n=n, tags=np.array(tags, dtype=str).reshape(n),
                               **{k: data.draw(floats(n)) for k in ("times", "lons", "lats")})
    assert points_to_csv(ps) == writer_oracles.points_csv(ps)
    # point patterns hold catalog and simulated points: finite numbers only
    ps.times, ps.lons, ps.lats = (data.draw(floats(n, finite_float)) for _ in range(3))
    assert points_to_geojson(ps) == writer_oracles.points_geojson(ps)


@settings_
@given(st.data())
def test_tessellation_writers_match(writer_oracles, data):
    n = data.draw(sizes)
    polys = [data.draw(rings(finite_float)) for _ in range(n)]
    tess = types.SimpleNamespace(n_cells=n, polys_lonlat=lambda: polys,
                                 partition_defect=data.draw(any_float),
                                 **{k: data.draw(floats(n)) for k in
                                    ("gen_lons", "gen_lats", "areas_km2")})
    assert tessellation_to_csv(tess) == writer_oracles.areas_csv(tess)
    # generators come from a catalog and areas from polygons: finite numbers
    tess.gen_lons, tess.gen_lats, tess.areas_km2 = (
        data.draw(floats(n, finite_float)) for _ in range(3))
    assert tessellation_to_geojson(tess) == writer_oracles.cells_geojson(tess)


def test_geojson_writes_non_finite_properties_as_null():
    text = geojson_features([{"type": "Point", "coordinates": [0.0, 0.0]}] * 3,
                            {"v": [math.nan, math.inf, -math.inf]})
    assert text.count('"v":null') == 3 and "NaN" not in text and "Infinity" not in text


# --- SVG ------------------------------------------------------------------


@settings_
@given(st.data())
def test_render_map_matches(writer_oracles, data):
    rs = _cell_set(data)
    if not any(np.asarray(p).shape[0] for p in rs.cell_polys):
        with pytest.raises(ValueError):
            render_map(rs)
        return
    title = data.draw(st.sampled_from(["", "raw residuals"]))
    assert render_map(rs, title=title) == writer_oracles.render_map(rs, title=title)


@settings_
@given(st.data())
def test_render_point_map_matches(writer_oracles, data):
    n = data.draw(sizes)
    lons, lats = data.draw(floats(n, coord)), data.draw(floats(n, coord))
    tags = data.draw(st.lists(st.sampled_from(["retained", "superposed", "other"]),
                              min_size=n, max_size=n))
    region = types.SimpleNamespace(vertices=data.draw(
        st.integers(3, 6).flatmap(lambda m: floats(2 * m, coord))).reshape(-1, 2))
    assert (render_point_map(lons, lats, tags, region, title="superthin residuals")
            == writer_oracles.render_point_map(lons, lats, tags, region,
                                               title="superthin residuals"))


@settings_
@given(st.data())
def test_render_error_diagram_matches(writer_oracles, data):
    n = data.draw(sizes)
    diag = ErrorDiagram(data.draw(floats(n)), data.draw(floats(n)), data.draw(floats(n)), n)
    assert (render_error_diagram(diag, title="error diagram")
            == writer_oracles.render_error_diagram(diag, title="error diagram"))


@settings_
@given(st.data())
def test_render_k_curve_matches(writer_oracles, data):
    n = data.draw(st.integers(1, 12))
    positive = st.one_of(st.sampled_from(SUBNORMALS[:1]), st.floats(1e-3, 1e3))
    lags = data.draw(floats(n, positive))
    envelope = data.draw(st.one_of(st.none(), st.tuples(floats(n, coord), floats(n, coord))))
    curve = KFunctionCurve(lags, data.draw(floats(n)), n, *(envelope or (None, None)))
    assert render_k_curve(curve, title="weighted K") == writer_oracles.render_k_curve(
        curve, title="weighted K")


@settings_
@given(st.data())
def test_render_histogram_matches(writer_oracles, data):
    sims = data.draw(sizes.flatmap(lambda n: floats(n, st.one_of(
        st.sampled_from(SPECIAL[:5]), st.floats(-1e6, 1e6)))))
    observed = data.draw(st.one_of(st.sampled_from(SPECIAL[:5]), st.floats(-1e6, 1e6)))
    assert (render_histogram(sims, observed, title="l test null distribution")
            == writer_oracles.render_histogram(sims, observed,
                                               title="l test null distribution"))


# --- literal texts --------------------------------------------------------


def test_csv_literal():
    text = csv_text({"time": [0.1, -0.0], "value": [math.nan, -math.inf],
                     "n": np.array([1, 22]), "tag": ["retained", "superposed"]},
                    {"total_mass": 2.5})
    assert text == ("# total_mass = 2.5\n"
                    "time,value,n,tag\n"
                    "0.1,nan,1,retained\n"
                    "-0.0,-inf,22,superposed\n")


def test_geojson_literal():
    text = geojson_features(
        [geojson_polygon([[0, 0], [1, 0], [1, 1]]), geojson_polygon(np.empty((0, 2)))],
        {"cell_id": np.arange(2), "value": [0.5, math.nan], "flag": np.array([False, True])})
    assert text == (
        '{"features":['
        '{"geometry":{"coordinates":[[[0.0,0.0],[1.0,0.0],[1.0,1.0],[0.0,0.0]]],'
        '"type":"Polygon"},"properties":{"cell_id":0,"flag":false,"value":0.5},'
        '"type":"Feature"},'
        '{"geometry":{"coordinates":[[]],"type":"Polygon"},'
        '"properties":{"cell_id":1,"flag":true,"value":null},"type":"Feature"}'
        '],"type":"FeatureCollection"}\n')


def test_svg_point_list_literal():
    # the unit square fills the 536 x 376 plot box, y pointing up
    assert _pairs(*_to_px([0.0, 0.5], [0.0, 1.0])) == ["52.00,428.00", "320.00,52.00"]
    # 10 pixels per unit from (2, 3)
    assert _pairs(*_to_px([2.0, 2.5], [3.0, 4.0], (2.0, 3.0), size=(10.0, 10.0))) \
        == ["52.00,428.00", "57.00,418.00"]
