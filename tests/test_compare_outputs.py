"""scripts/compare_outputs.py's drift reports: per CSV column, per GeoJSON
coordinate and property."""

import importlib.util
import json
import math
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "compare_outputs.py"
_spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
compare_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_outputs)


def test_csv_drift_per_numeric_column():
    base = ("# log_likelihood = -200.0\n# note = fine\n"
            "cell,value,flag,kind\n0,1.0,nan,a\n1,-2.0,0.5,b\n2,0.0,inf,c\n")
    head = ("# log_likelihood = -200.00000000002\n# note = fine\n"
            "cell,value,flag,kind\n0,1.0,nan,a\n1,-2.000000004,0.5,b\n2,-0.0,1e308,c\n")
    drift = compare_outputs.csv_drift(base, head)
    # the text column and the text comment are left out
    assert set(drift) == {"# log_likelihood", "cell", "value", "flag"}
    assert math.isclose(drift["# log_likelihood"], 1e-13, rel_tol=1e-3)
    assert drift["cell"] == 0.0
    # -2 against -2.000000004; 0.0 against -0.0 is no difference
    assert math.isclose(drift["value"], 2e-9, rel_tol=1e-6)
    # nan against nan is equal; inf against a finite value is not
    assert drift["flag"] == math.inf


def test_csv_drift_skips_columns_of_another_length():
    drift = compare_outputs.csv_drift("x,y\n1,2\n", "x\n1\n3\n")
    assert drift == {}


def _collection(rings, props):
    return json.dumps({"features": [
        {"geometry": {"coordinates": [ring], "type": "Polygon"}, "properties": p,
         "type": "Feature"} for ring, p in zip(rings, props)], "type": "FeatureCollection"})


def test_geojson_drift_of_coordinates_and_numeric_properties():
    base = _collection([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], []],
                       [{"area": 0.5, "id": 0, "flag": True, "kind": "a", "value": None},
                        {"area": 0.0, "id": 1, "flag": False, "kind": "b", "value": 2.0}])
    head = _collection([[[0.0, 3e-13], [1.0, 0.0], [0.0, 1.0], [0.0, 3e-13]], []],
                       [{"area": 0.5000000001, "id": 0, "flag": True, "kind": "a", "value": None},
                        {"area": 0.0, "id": 1, "flag": False, "kind": "b", "value": 2.0}])
    drift = compare_outputs.geojson_drift(base, head)
    # booleans and text are left out; null against null is no difference
    assert set(drift) == {"coordinates", "area", "id", "value"}
    assert drift["coordinates"] == 3e-13
    assert math.isclose(drift["area"], 2e-10, rel_tol=1e-6)
    assert drift["id"] == 0.0 and drift["value"] == 0.0


def test_geojson_drift_is_none_for_other_shapes():
    base = _collection([[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]], [{"a": 1.0}])
    fewer = _collection([[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]], [{"a": 1.0}])
    assert compare_outputs.geojson_drift(base, fewer) is None
    assert compare_outputs.geojson_drift(base, _collection([], [])) is None
