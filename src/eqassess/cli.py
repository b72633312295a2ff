"""Command-line entry points.

Every run resolves its options from built-in defaults, then an optional
`key = value` config file, then explicit flags; writes each output file
atomically; and finishes by writing a manifest that echoes the resolved
options and the SHA-256 of every artifact. Outputs depend only on the
inputs and --seed, never on --jobs.

Exit codes: 0 success, 2 configuration/usage errors (missing files, bad
flags), 3 data errors (malformed input content).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import sys

import numpy as np

from .catalog import Catalog, Region, csv_text, parse_catalog, parse_region, serialize_catalog
from .consistency import (l_test, m_test, n_test, r_test, results_to_csv,
                          s_test, sims_to_csv, t_test_pairwise, w_test_pairwise)
from .forecast import GriddedForecast, parse_forecast
from .intensity import (GridIntensity, HawkesParams, fit_mle, parse_hawkes_params,
                        parse_model_params, serialize_fit)
from .render import (render_error_diagram, render_histogram, render_k_curve,
                     render_map, render_point_map)
from .residuals import (cell_residuals_to_csv, cell_residuals_to_geojson,
                        deviance_residuals, pixel_residuals, point_report,
                        points_to_csv, points_to_geojson, super_thin,
                        superpose_residuals, tessellation_to_csv,
                        tessellation_to_geojson, thin_residuals, voronoi_residuals,
                        voronoi_tessellation)
from .rng import RngStream
from .simulate import (simulate_hawkes, simulate_homogeneous,
                       simulate_poisson_grid)
from .summaries import (error_diagram, error_diagram_to_csv, k_curve_to_csv,
                        weighted_k)


class ConfigError(Exception):
    """Bad usage or unreachable inputs; exit status 2."""


class DataError(Exception):
    """Malformed input content; exit status 3."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved options for one command invocation."""

    command: str
    out_dir: str
    seed: int
    jobs: int
    options: dict

    def get(self, key, default=None):
        return self.options.get(key, default)

    def require(self, key):
        v = self.options.get(key)
        if v is None:
            raise ConfigError(f"{self.command}: missing required option --{key.replace('_', '-')}")
        return v


# option name -> converter; shared across commands
_CONVERTERS = {
    "seed": int, "jobs": int, "restarts": int, "max_iter": int,
    "n_grid": int, "n_sim": int, "n_sub": int,
    "rate": float, "window": float, "mag": float, "gr_b": float,
    "mag_span": float, "k": float, "level": float, "gtol": float,
    "sims_out": None, "plots": None, "envelope": None,  # booleans
}

_BOOL_KEYS = {"sims_out", "plots", "envelope"}


def _to_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    s = str(v).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {v!r}")


def _convert(key: str, value):
    if value is None:
        return None
    if key in _BOOL_KEYS:
        return _to_bool(value)
    conv = _CONVERTERS.get(key)
    if conv is None:
        return str(value)
    try:
        return conv(value)
    except (TypeError, ValueError):
        raise ConfigError(f"option {key}: expected {conv.__name__}, got {value!r}") from None


def read_config_file(path: str) -> dict:
    """Parse a `key = value` config file (# comments, blank lines allowed)."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}") from None
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        s = raw.strip()
        if not s or s.startswith("#"):
            continue
        if "=" not in s:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        key, _, value = s.partition("=")
        out[key.strip().replace("-", "_")] = value.strip()
    return out


def _resolve(command: str, args: argparse.Namespace, allowed: set) -> RunConfig:
    merged = {}
    if args.config:
        file_opts = read_config_file(args.config)
        unknown = set(file_opts) - allowed - {"out", "seed", "jobs"}
        if unknown:
            raise ConfigError(
                f"{args.config}: unknown option(s) for {command}: "
                + ", ".join(sorted(unknown)))
        merged.update(file_opts)
    for key in allowed | {"out", "seed", "jobs"}:
        v = getattr(args, key, None)
        if v is not None:
            merged[key] = v
    options = {k: _convert(k, v) for k, v in merged.items()}
    out_dir = str(options.pop("out", "out"))
    seed = int(options.pop("seed", 0))
    jobs = int(options.pop("jobs", 1))
    if jobs < 1:
        raise ConfigError("--jobs must be at least 1")
    return RunConfig(command, out_dir, seed, jobs, options)


def _replace_file(path: str, data: bytes) -> None:
    """Write data to path through a temporary file, so readers never see a
    partial file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


class Workspace:
    """Atomic writer that records (path, sha256) for the manifest."""

    def __init__(self, out_dir: str):
        os.makedirs(out_dir, exist_ok=True)
        self.out_dir = out_dir
        self.entries = []

    def write(self, name: str, text: str) -> str:
        path = os.path.join(self.out_dir, name)
        data = text.encode("utf-8")
        _replace_file(path, data)
        self.entries.append((name, hashlib.sha256(data).hexdigest()))
        return path

    def finish(self, cfg: RunConfig) -> str:
        # jobs is deliberately not echoed: outputs must not depend on the
        # parallelism setting, and that includes the manifest itself
        lines = [f"# command = {cfg.command}", f"# seed = {cfg.seed}"]
        lines += [f"# {key} = {cfg.options[key]}" for key in sorted(cfg.options)]
        lines += [f"{name}\t{digest}" for name, digest in self.entries]
        path = os.path.join(self.out_dir, "manifest.txt")
        _replace_file(path, ("\n".join(lines) + "\n").encode("utf-8"))
        return path


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise ConfigError(f"cannot read {what} {path}: {e}") from None


def _parse_data(fn, text: str):
    try:
        return fn(text)
    except ValueError as e:
        raise DataError(str(e)) from None


def _load_catalog(cfg: RunConfig, key: str = "catalog") -> Catalog:
    return _parse_data(parse_catalog, _read_text(cfg.require(key), "catalog"))


def _load_region(cfg: RunConfig) -> Region:
    return _parse_data(parse_region, _read_text(cfg.require("region"), "region"))


def _load_forecast(cfg: RunConfig, key: str, window: float) -> GriddedForecast:
    text = _read_text(cfg.require(key), "forecast")
    return _parse_data(lambda t: parse_forecast(t, window), text)


def _load_model(cfg: RunConfig, history: Catalog):
    """The intensity model of the --params file; a Hawkes model conditions
    on the supplied catalog as its event history."""
    text = _read_text(cfg.require("params"), "params")
    return _parse_data(lambda t: parse_model_params(t, history), text)


# --- commands -------------------------------------------------------------


def _cmd_fit(cfg: RunConfig) -> int:
    c = _load_catalog(cfg)
    region = _load_region(cfg)
    family = cfg.get("family", "hawkes")
    mode = cfg.get("mode", "approx")
    restarts = cfg.get("restarts", 0)
    rng = RngStream(cfg.seed)
    at = region.area_km2 * max(c.window_days, 1e-12)
    if family == "homogeneous":
        init = max(c.n, 1) / at
    elif family == "hawkes":
        if cfg.get("init") is not None:
            init = _parse_data(parse_hawkes_params,
                               _read_text(cfg.get("init"), "init params"))
        else:
            init = HawkesParams(mu=0.5 * max(c.n, 1) / at, k=0.05, c=0.01,
                                p=1.3, a=1.0, d=1.0, q=1.5, m0=c.m0)
    else:
        raise ConfigError(f"fit: unknown family {family!r}")
    try:
        fit = fit_mle(family, c, region, init, mode=mode,
                      gtol=cfg.get("gtol", 1e-6),
                      max_iter=cfg.get("max_iter", 500),
                      restarts=restarts, rng=rng if restarts else None)
    except ValueError as e:
        raise DataError(str(e)) from None
    ws = Workspace(cfg.out_dir)
    path = ws.write("params.txt", serialize_fit(fit))
    ws.finish(cfg)
    print(f"fit: family={family} log_lik={fit.log_lik!r} "
          f"converged={str(fit.converged).lower()} -> {path}")
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    kind = cfg.require("kind")
    rng = RngStream(cfg.seed)
    if kind == "homogeneous":
        region = _load_region(cfg)
        window = float(cfg.require("window"))
        rate = float(cfg.require("rate"))
        try:
            c = simulate_homogeneous(rate, region, window, rng,
                                     mag=cfg.get("mag", 0.0))
        except ValueError as e:
            raise DataError(str(e)) from None
    elif kind == "hawkes":
        region = _load_region(cfg)
        window = float(cfg.require("window"))
        params = _parse_data(parse_hawkes_params,
                             _read_text(cfg.require("params"), "params"))
        try:
            c = simulate_hawkes(params, region, window, rng,
                                gr_b=cfg.get("gr_b", 1.0),
                                mag_span=cfg.get("mag_span", 4.0))
        except ValueError as e:
            raise DataError(str(e)) from None
    elif kind == "grid":
        f = _load_forecast(cfg, "forecast", cfg.get("window", 1.0))
        c = simulate_poisson_grid(f, rng)
    else:
        raise ConfigError(f"simulate: unknown kind {kind!r}")
    ws = Workspace(cfg.out_dir)
    path = ws.write("catalog.csv", serialize_catalog(c))
    ws.finish(cfg)
    print(f"simulate: kind={kind} n={c.n} -> {path}")
    return 0


_SIM_SUBSTREAM = {"l": 1, "m": 2, "s": 3, "r_ab": 4, "r_ba": 5}


def _cmd_test(cfg: RunConfig) -> int:
    c = _load_catalog(cfg)
    window = cfg.get("window", c.window_days)
    fa = _load_forecast(cfg, "forecast_a", window)
    fb = None
    if cfg.get("forecast_b") is not None:
        fb = _load_forecast(cfg, "forecast_b", window)
    default = "n,l,m,s" + (",r,t,w" if fb is not None else "")
    names = [s.strip() for s in str(cfg.get("tests", default)).split(",") if s.strip()]
    known = {"n", "l", "m", "s", "r", "t", "w"}
    bad = [s for s in names if s not in known]
    if bad:
        raise ConfigError(f"test: unknown test name(s): {', '.join(bad)}")
    if fb is None and any(s in ("r", "t", "w") for s in names):
        raise ConfigError("test: r/t/w need --forecast-b")
    n_sim = cfg.get("n_sim", 1000)
    level = cfg.get("level", 0.05)
    rng = RngStream(cfg.seed)
    results = []
    try:
        for name in names:
            if name == "n":
                results.append(n_test(fa, c, level))
            elif name == "l":
                results.append(l_test(fa, c, rng.substream(_SIM_SUBSTREAM["l"]),
                                      n_sim, level, jobs=cfg.jobs))
            elif name == "m":
                results.append(m_test(fa, c, rng.substream(_SIM_SUBSTREAM["m"]),
                                      n_sim, level))
            elif name == "s":
                results.append(s_test(fa, c, rng.substream(_SIM_SUBSTREAM["s"]),
                                      n_sim, level))
            elif name == "r":
                ab = r_test(fa, fb, c, rng.substream(_SIM_SUBSTREAM["r_ab"]),
                            n_sim, level, jobs=cfg.jobs)
                ba = r_test(fb, fa, c, rng.substream(_SIM_SUBSTREAM["r_ba"]),
                            n_sim, level, jobs=cfg.jobs)
                results.append(dataclasses.replace(ab, name="r_ab"))
                results.append(dataclasses.replace(ba, name="r_ba"))
            elif name == "t":
                results.append(t_test_pairwise(fa, fb, c, level))
            elif name == "w":
                results.append(w_test_pairwise(fa, fb, c, level))
    except ValueError as e:
        raise DataError(str(e)) from None
    ws = Workspace(cfg.out_dir)
    path = ws.write("results.csv", results_to_csv(results))
    if cfg.get("sims_out", False):
        ws.write("sims.csv", sims_to_csv(results))
    if cfg.get("plots", False):
        for r in results:
            if r.sim_statistics is not None:
                ws.write(f"hist_{r.name}.svg",
                         render_histogram(r.sim_statistics, float(r.statistic),
                                          title=f"{r.name} test null distribution"))
    ws.finish(cfg)
    for r in results:
        score = r.quantile if hasattr(r, "quantile") else r.p_value
        print(f"test {r.name}: statistic={float(r.statistic)!r} "
              f"score={float(score)!r} decision={r.decision}")
    print(f"test: -> {path}")
    return 0


def _write_cells(ws: Workspace, stem: str, rs, title: str):
    ws.write(f"{stem}.csv", cell_residuals_to_csv(rs))
    ws.write(f"{stem}.geojson", cell_residuals_to_geojson(rs))
    ws.write(f"{stem}.svg", render_map(rs, title=title))


def _cmd_residuals(cfg: RunConfig) -> int:
    kind = cfg.require("kind")
    c = _load_catalog(cfg)
    region = _load_region(cfg)
    rng = RngStream(cfg.seed)
    ws = Workspace(cfg.out_dir)
    try:
        if kind in ("thin", "superpose", "superthin"):
            model = _load_model(cfg, c)
            if kind == "thin":
                ps = thin_residuals(c, model, region, rng)
            elif kind == "superpose":
                ps = superpose_residuals(c, model, region, rng)
            else:
                k = cfg.get("k")
                if k is None:
                    # default level: the catalog's own mean rate
                    k = c.n / (region.area_km2 * c.window_days)
                ps = super_thin(c, model, float(k), region, rng)
            ws.write("points.csv", points_to_csv(ps))
            ws.write("points.geojson", points_to_geojson(ps))
            ws.write("map.svg", render_point_map(ps.lons, ps.lats, ps.tags,
                                                 region, title=f"{kind} residuals"))
            ws.write("report.txt", point_report(ps, region))
        elif kind == "rescale":
            model = _load_model(cfg, c)
            lam = model.compensator(region, np.append(c.times, c.window_days))
            ws.write("taus.csv", csv_text({"tau": lam[:-1]}, {"total_mass": lam[-1]}))
        elif kind == "pixel":
            fa = _load_forecast(cfg, "forecast_a", cfg.get("window", c.window_days))
            raw, pearson = pixel_residuals(fa, c, fa.grid)
            _write_cells(ws, "raw", raw, "raw residuals")
            _write_cells(ws, "pearson", pearson, "Pearson residuals")
        elif kind == "deviance":
            window = cfg.get("window", c.window_days)
            fa = _load_forecast(cfg, "forecast_a", window)
            fb = _load_forecast(cfg, "forecast_b", window)
            rs = deviance_residuals(fa, fb, c)
            _write_cells(ws, "deviance", rs, "deviance residuals")
        elif kind == "voronoi":
            model = _load_model(cfg, c)
            rs = voronoi_residuals(model, c, region, n_grid=cfg.get("n_grid", 200))
            _write_cells(ws, "voronoi", rs, "Voronoi residuals")
        else:
            raise ConfigError(f"residuals: unknown kind {kind!r}")
    except ValueError as e:
        raise DataError(str(e)) from None
    ws.finish(cfg)
    print(f"residuals: kind={kind} -> {cfg.out_dir}")
    return 0


def _cmd_kfn(cfg: RunConfig) -> int:
    c = _load_catalog(cfg)
    region = _load_region(cfg)
    if (cfg.get("params") is None) == (cfg.get("forecast") is None):
        raise ConfigError("kfn: give exactly one of --params or --forecast")
    if cfg.get("params") is not None:
        model = _load_model(cfg, c)
    else:
        model = GridIntensity(_load_forecast(cfg, "forecast",
                                             cfg.get("window", c.window_days)))
    rng = RngStream(cfg.seed) if cfg.get("envelope", False) else None
    try:
        curve = weighted_k(model, c, region, rng=rng,
                           n_sim=cfg.get("n_sim", 199))
    except ValueError as e:
        raise DataError(str(e)) from None
    ws = Workspace(cfg.out_dir)
    ws.write("kfunction.csv", k_curve_to_csv(curve))
    ws.write("kfunction.svg", render_k_curve(curve, title="weighted K"))
    ws.finish(cfg)
    print(f"kfn: n={c.n} -> {cfg.out_dir}")
    return 0


def _cmd_errordiag(cfg: RunConfig) -> int:
    c = _load_catalog(cfg)
    region = _load_region(cfg)
    if (cfg.get("params") is None) == (cfg.get("forecast") is None):
        raise ConfigError("errordiag: give exactly one of --params or --forecast")
    if cfg.get("params") is not None:
        target = _load_model(cfg, c)
    else:
        target = _load_forecast(cfg, "forecast", cfg.get("window", c.window_days))
    try:
        diag = error_diagram(target, c, region, n_grid=cfg.get("n_grid", 200))
    except ValueError as e:
        raise DataError(str(e)) from None
    ws = Workspace(cfg.out_dir)
    ws.write("errordiag.csv", error_diagram_to_csv(diag))
    ws.write("errordiag.svg", render_error_diagram(diag, title="error diagram"))
    ws.finish(cfg)
    print(f"errordiag: n={c.n} area_under={diag.area_under()!r} -> {cfg.out_dir}")
    return 0


def _cmd_tessellate(cfg: RunConfig) -> int:
    c = _load_catalog(cfg)
    region = _load_region(cfg)
    if c.n == 0:
        raise DataError("tessellate: the catalog has no events")
    try:
        tess = voronoi_tessellation(c.lons, c.lats, region)
    except ValueError as e:
        raise DataError(str(e)) from None
    ws = Workspace(cfg.out_dir)
    ws.write("cells.geojson", tessellation_to_geojson(tess))
    ws.write("areas.csv", tessellation_to_csv(tess))
    ws.finish(cfg)
    print(f"tessellate: cells={tess.n_cells} "
          f"defect={tess.partition_defect!r} -> {cfg.out_dir}")
    return 0


# --- argument wiring ------------------------------------------------------

_COMMANDS = {
    "fit": (_cmd_fit,
            {"catalog", "region", "family", "mode", "init", "restarts",
             "gtol", "max_iter"}),
    "simulate": (_cmd_simulate,
                 {"kind", "region", "rate", "params", "forecast", "window",
                  "mag", "gr_b", "mag_span"}),
    "test": (_cmd_test,
             {"catalog", "forecast_a", "forecast_b", "window", "tests",
              "n_sim", "level", "sims_out", "plots"}),
    "residuals": (_cmd_residuals,
                  {"kind", "catalog", "region", "params", "forecast_a",
                   "forecast_b", "k", "window", "n_grid"}),
    "kfn": (_cmd_kfn,
            {"catalog", "region", "params", "forecast", "window",
             "envelope", "n_sim"}),
    "errordiag": (_cmd_errordiag,
                  {"catalog", "region", "params", "forecast", "window",
                   "n_grid"}),
    "tessellate": (_cmd_tessellate, {"catalog", "region"}),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eqassess",
        description="Point-process forecast evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--jobs", default=None)
        for key in sorted(keys):
            flag = "--" + key.replace("_", "-")
            if key in _BOOL_KEYS:
                p.add_argument(flag, dest=key, action="store_true", default=None)
            else:
                p.add_argument(flag, dest=key, default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        # argparse exits 2 on usage errors, 0 on --help
        return int(e.code or 0)
    handler, allowed = _COMMANDS[args.command]
    try:
        cfg = _resolve(args.command, args, allowed)
        return handler(cfg)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
