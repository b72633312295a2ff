"""Forecast, region and catalog CSV input: the exact error messages, and the
one-pass reader against the row-by-row reader it stands in for."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from eqassess import catalog
from eqassess.catalog import parse_catalog, parse_region
from eqassess.forecast import (FORECAST_HEADER, _forecast_record, _valid_forecast_rows,
                               parse_forecast)

HEADER = ",".join(FORECAST_HEADER) + "\n"
OK_ROW = "0,1,0,1,4,5,3.0,1\n"


def row_loop_only():
    """Turn the one-pass reader off, leaving the row loop."""
    return mock.patch.object(catalog, "_bulk_rows", return_value=None)


def error_text(parse, text):
    with pytest.raises(Exception) as info:
        parse(text)
    return str(info.value)


FORECAST_ERRORS = [
    ("lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate\n" + OK_ROW,
     "forecast: expected header 'lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate,mask',"
     " got 'lon_min,lon_max,lat_min,lat_max,mag_min,mag_max,rate'"),
    (HEADER + OK_ROW + "0,1,0,1,4,5,3.0\n", "forecast: row 2: expected 8 fields, got 7"),
    (HEADER + "0,1,0,1,4,5,3.0,1,\n", "forecast: row 1: expected 8 fields, got 9"),
    (HEADER + "0,1,0,1,4,5,1.0,1_0\n", "forecast: row 1: mask must be 0 or 1, got '1_0'"),
    (HEADER + '0,1,0,1,4,5,"2.5x",1\n', "forecast: row 1: malformed rate '2.5x'"),
    (HEADER + OK_ROW + "1,2,0,1,4,5,3.0,1 # note\n", "forecast: row 2: malformed mask '1 # note'"),
    (HEADER + OK_ROW + "1,2,0,1,4,5,3.0,2\n", "forecast: row 2: mask must be 0 or 1, got '2'"),
    (HEADER + OK_ROW + "1,2,0,1,4,5,-0.5,1\n", "forecast: row 2: negative rate -0.5"),
    (HEADER + "0,1,0,1,4,5,3.0,0\n1,2,0,1,4,5,3.0,0\n", "forecast: no unmasked cells"),
    (HEADER, "forecast: no unmasked cells"),
    ("", "forecast: empty file"),
    ("# a\n\n  # b\n", "forecast: empty file"),
    (HEADER + "0,1,0,1,4,5,3.0\r,1\n",
     "forecast: line 2: new-line character seen in unquoted field"),
] + [
    (HEADER + OK_ROW + ",".join(" 1.x " if k == col else v for k, v in
                                enumerate(["1", "2", "0", "1", "4", "5", "3.0", "1"])) + "\n",
     f"forecast: row 2: malformed {name} '1.x'")
    for col, name in enumerate(FORECAST_HEADER)
]

REGION_ERRORS = [
    ("lat,lon\n0,0\n1,0\n0,1\n", "region: expected header 'lon,lat', got 'lat,lon'"),
    ("lon,lat\n0,0\n1\n", "region: row 2: expected 2 fields, got 1"),
    ("lon,lat\n0,0\n 1.x ,0\n0,1\n", "region: row 2: malformed value '1.x '"),
    ("lon,lat\n0,0\n1,0y \n", "region: row 2: malformed value '0y'"),
    ('lon,lat\n0,0\n"1x",0\n', "region: row 2: malformed value '1x'"),
    ("lon,lat\n0,0 # c\n1,0\n0,1\n", "region: row 1: malformed value '0 # c'"),
    ("lon,lat\n", "region: no data rows"),
    ("lon,lat\n# only a comment\n", "region: no data rows"),
    ("", "region: empty file"),
    ("lon,lat\n0,0\n1,\r0\n0,1\n", "region: line 3: new-line character seen in unquoted field"),
]


CATALOG_HEADER = "time,lon,lat,mag\n"

CATALOG_ERRORS = [
    ("t,x,y,m\n0.5,0.5,0.5,4.0\n", "catalog: expected header 'time,lon,lat,mag', got 't,x,y,m'"),
    ("", "catalog: empty file"),
    ("# window_days = 3\n\n", "catalog: empty file"),
    (CATALOG_HEADER + "0.5,0.5,0.5,4.0\n0.7,0.5,0.5\n",
     "catalog: row 2: expected 4 fields, got 3"),
    (CATALOG_HEADER + "0.5,0.5,0.5,4.0,\n", "catalog: row 1: expected 4 fields, got 5"),
    (CATALOG_HEADER + "0.5,0.5,0.5,4.0\n0.7x,0.5,0.5,4.0\n", "catalog: row 2: malformed time '0.7x'"),
    (CATALOG_HEADER + "0.5,0.5,0.5,4.0\n0.7,bad,0.5,4.0\n", "catalog: row 2: malformed lon 'bad'"),
    (CATALOG_HEADER + "0.5,0.5, 1.x ,4.0\n", "catalog: row 1: malformed lat '1.x'"),
    (CATALOG_HEADER + "0.5,0.5,0.5,4.0 # big\n", "catalog: row 1: malformed mag '4.0 # big'"),
    (CATALOG_HEADER + "2011-03-13T00:00:00Z,0.5,0.5,5.0\n0.7,0.5,0.5,4.0\n",
     "catalog: row 2: malformed ISO-8601 time '0.7'"),
    ("# window_days = 1\n" + CATALOG_HEADER + "0.5,0.5,0.5,4.0\n2.5,0.5,0.5,4.0\n",
     "event time outside the declared window"),
    ("# window_days = soon\n" + CATALOG_HEADER + "0.5,0.5,0.5,4.0\n",
     "catalog: malformed window_days 'soon'"),
    ("# m0 = 4.0.1\n" + CATALOG_HEADER + "0.5,0.5,0.5,4.0\n", "catalog: malformed m0 '4.0.1'"),
    ("# window_days = nan\n" + CATALOG_HEADER + "0.5,0.5,0.5,4.0\n",
     "non-finite window_days value in catalog"),
    ("# window_days = inf\n" + CATALOG_HEADER + "0.5,0.5,0.5,4.0\n",
     "non-finite window_days value in catalog"),
    ("# m0 = nan\n" + CATALOG_HEADER + "0.5,0.5,0.5,4.0\n", "non-finite m0 value in catalog"),
    ("# window_days = -3\n" + CATALOG_HEADER, "negative catalog window: window_days = -3.0"),
    (CATALOG_HEADER + "0.5,0.5,0.5,4.0\n0.5,0.5,0.5,4.0\n",
     "duplicate event (time=0.5, lon=0.5, lat=0.5, mag=4.0)"),
    # a carriage return inside a line, in a row and in the header; the line
    # numbers count comment and blank lines
    ("time,lon,lat,mag\n1,1,\r1\n", "catalog: line 2: new-line character seen in unquoted field"),
    ("time\r,lon,lat,mag\n", "catalog: line 1: new-line character seen in unquoted field"),
    ("# m0 = 4\n\n" + CATALOG_HEADER + "0.5,0.5,0.5,4.0\n0.7,0.5\r,0.5,4.0\n",
     "catalog: line 5: new-line character seen in unquoted field"),
]


@pytest.mark.parametrize("text,message", CATALOG_ERRORS)
def test_catalog_error_message(text, message):
    assert error_text(parse_catalog, text) == message


@pytest.mark.parametrize("text,message", FORECAST_ERRORS)
def test_forecast_error_message(text, message):
    assert error_text(parse_forecast, text) == message
    with row_loop_only():
        assert error_text(parse_forecast, text) == message


@pytest.mark.parametrize("text,message", REGION_ERRORS)
def test_region_error_message(text, message):
    assert error_text(parse_region, text) == message
    with row_loop_only():
        assert error_text(parse_region, text) == message


@pytest.mark.parametrize("text,rate", [
    (HEADER + "0,1,0,1,4,5,1_0,1\n", 10.0),
    (HEADER + '"0","1",0,1,4,5,"2.5",1\n', 2.5),
    (HEADER.replace("\n", "\r\n") + OK_ROW.replace("\n", "\r\n"), 3.0),
    ("# made by hand\n " + HEADER.replace(",", " , ") + "\n# x\n 0 ,1,0,1,4,5, 3.0 ,1 \n", 3.0),
])
def test_forecasts_the_row_loop_accepts(text, rate):
    f = parse_forecast(text)
    assert f.grid.boxes.tolist() == [[0.0, 1.0, 0.0, 1.0, 4.0, 5.0]]
    assert f.rates.tolist() == [rate]


def test_regions_the_row_loop_accepts():
    r = parse_region('# ring\nlon, lat\r\n"0",0\n\n1_0,0\n  # x\n0,1\n')
    assert r.vertices.tolist() == [[0.0, 0.0], [10.0, 0.0], [0.0, 1.0]]


def test_a_quoted_field_may_span_lines():
    # the quote opened on the last field closes on the next line, which
    # joins the two into one record, mag "4\n"; a record that follows is
    # still read
    cat = parse_catalog(CATALOG_HEADER + '0.5,0.5,0.5,"4\n"\n')
    assert cat.mags.tolist() == [4.0]
    cat = parse_catalog(CATALOG_HEADER + '0.5,0.5,0.5,"4\n"\n0.7,0.5,0.5,4.5\n')
    assert cat.mags.tolist() == [4.0, 4.5]
    r = parse_region('lon,lat\n0,0\n1,"0\n"\n0,1\n')
    assert r.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]


finite = st.floats(allow_nan=False, allow_infinity=False)
rate = st.floats(min_value=0.0, allow_infinity=False) | st.just(-0.0)


@st.composite
def plain_forecast(draw):
    """Forecast text that the one-pass reader takes, in the forms files
    take: repr floats, comment and blank lines, padded fields, CRLF ends,
    masked rows."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    pad = st.sampled_from(["", " ", "  ", "\t"])
    lines = [draw(st.sampled_from(["", "# forecast", "  # made by hand"])),
             ",".join(FORECAST_HEADER)]
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "# c", "#", "\t# 'quoted' \"x\" é"])))
        fields = [repr(v) for v in draw(st.lists(finite, min_size=6, max_size=6))]
        fields += [repr(draw(rate)), draw(st.sampled_from(["1", "0", "1.0", "0.0", "-0", "1e0"]))]
        lines.append(",".join(draw(pad) + v + draw(pad) for v in fields))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plain_forecast())
def test_fast_path_matches_row_loop_on_plain_forecasts(text):
    fast = catalog._bulk_rows(text, FORECAST_HEADER)
    assert fast is not None and _valid_forecast_rows(fast)
    with row_loop_only():
        slow = catalog._read_numeric_csv(text, FORECAST_HEADER, "forecast", _forecast_record,
                                         _valid_forecast_rows)
    assert np.array_equal(fast, slow)
    assert np.array_equal(np.signbit(fast), np.signbit(slow))


@st.composite
def plain_catalog(draw):
    """Catalog text that the one-pass reader takes: decimal times, repr and
    %e floats, padded fields, metadata comments, CRLF ends."""
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    pad = st.sampled_from(["", " ", "\t"])
    number = finite.map(repr) | finite.map("{:e}".format) | st.integers(-10 ** 6, 10 ** 6).map(str)
    lines = [draw(st.sampled_from(["", "# window_days = 1e9", "# m0 = -3"])), "time,lon,lat,mag"]
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", "# c", "#"])))
        lines.append(",".join(draw(pad) + draw(number) + draw(pad) for _ in range(4)))
    return eol.join(lines) + draw(st.sampled_from(["", eol]))


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(plain_catalog())
def test_fast_path_matches_row_loop_on_plain_catalogs(text):
    header = ("time", "lon", "lat", "mag")
    fast = catalog._bulk_rows(text, header)
    assert fast is not None
    with row_loop_only():
        slow = catalog._read_numeric_csv(text, header, "catalog", lambda i, rec: rec)
    assert np.array_equal(fast, slow) and np.array_equal(np.signbit(fast), np.signbit(slow))
    try:
        bulk = parse_catalog(text)
    except ValueError as e:  # a duplicate event, a time outside the window
        with row_loop_only():
            assert error_text(parse_catalog, text) == str(e)
        return
    with row_loop_only():
        rows = parse_catalog(text)
    for a in ("times", "lons", "lats", "mags", "window_days", "m0"):
        assert np.array_equal(getattr(bulk, a), getattr(rows, a))


TOKENS = ["1", "0", "-0", "1e5", " 2.5 ", "\t3", "1_0", "inf", "nan", "1e", "", "1 2",
          "+.5", "5.", "1e999", "-1e-400", "0x1", '"1"', "1#", "\x0c1", "1\x1c", "\xa01",
          "١", "1\r", "\r1", ".", "-", "+-1", "1.5e3.2"]
ENDS = ["\n", "\r\n", "\r", "\n\n", "\n   \n", "\n# c\n", "\n  #c\r\n", "\n\x0c#c\n"]


@st.composite
def hostile_region(draw):
    head = draw(st.sampled_from(["lon,lat", " lon , lat ", "lon\r,lat", "lon,\tlat", '"lon",lat']))
    out = head + draw(st.sampled_from(ENDS))
    for _ in range(draw(st.integers(0, 5))):
        fields = draw(st.lists(st.sampled_from(TOKENS) | finite.map(repr), min_size=1, max_size=3))
        out += ",".join(fields) + draw(st.sampled_from(ENDS))
    return out


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(hostile_region())
def test_fast_path_never_accepts_what_the_row_loop_reads_otherwise(text):
    """Whenever the one-pass reader returns rows, the row loop returns the
    same rows; on everything else the row loop alone decides."""
    fast = catalog._bulk_rows(text, ("lon", "lat"))
    if fast is None:
        return
    with row_loop_only():
        slow = catalog._read_numeric_csv(text, ("lon", "lat"), "region", catalog._region_record)
    assert np.array_equal(fast, slow)
    assert np.array_equal(np.signbit(fast), np.signbit(slow))
