"""Command-line entry points.

Every run resolves its options from an optional `key = value` config file,
then explicit flags; writes each output file atomically; and finishes by
writing a manifest that echoes the given options and the SHA-256 of every
artifact. An option that is not given is not passed on, so its default is
the one the library function declares. Outputs depend only on the inputs
and --seed, never on --jobs.

Exit codes: 0 success, 2 configuration/usage errors (missing files, bad
flags), 3 any ValueError out of a command: malformed input content, or
data the computation rejects.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import math
import os
import sys

# each command imports the other modules it calls, so a process loads
# only what its command runs
from .catalog import Catalog, Region, csv_text, parse_catalog, parse_region, serialize_catalog
from .forecast import GriddedForecast, parse_forecast
from .rng import RngStream


class ConfigError(Exception):
    """Bad usage or unreachable inputs; exit status 2."""


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Resolved options for one command invocation."""

    command: str
    out_dir: str
    seed: int
    options: dict

    def get(self, key, default=None):
        return self.options.get(key, default)

    def given(self, *keys) -> dict:
        """The options among keys that the run was given, as keyword
        arguments: a function called with them keeps its own default for
        the rest."""
        return {key: self.options[key] for key in keys if key in self.options}

    def require(self, key):
        v = self.options.get(key)
        if v is None:
            raise ConfigError(f"{self.command}: missing required option --{key.replace('_', '-')}")
        return v


def _to_bool(v) -> bool:
    if isinstance(v, bool):
        return v
    s = str(v).strip().lower()
    if s in ("1", "true", "yes", "on"):
        return True
    if s in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {v!r}")


# option name -> (converter, rule); shared across commands. An option not
# listed is a string, one converted by _to_bool is a flag, and a rule is
# (what the value must be, the test of it) or None. A value that fails its
# rule is a usage error; --window is checked where it is used, as data.
_OPTIONS = {
    **{key: (int, (f"at least {least}", lambda v, least=least: v >= least))
       for key, least in (("jobs", 1), ("n_grid", 1), ("n_sim", 1),
                          ("max_iter", 1), ("restarts", 0))},
    "level": (float, ("in (0, 1)", lambda v: 0 < v < 1)),
    "gtol": (float, ("finite and positive", lambda v: 0 < v < math.inf)),
    **{key: (float, ("finite", math.isfinite))
       for key in ("k", "rate", "gr_b", "mag_span", "mag")},
    "mode": (str, ("approx or quadrature", lambda v: v in ("approx", "quadrature"))),
    "seed": (int, None), "window": (float, None),
    **{key: (_to_bool, None) for key in ("sims_out", "plots", "envelope")},
}

# command -> run kind -> the options that runs of that kind read, of those
# that some kind of the command reads. A fit run's kind is its --family
# (hawkes when absent); a residuals or simulate run's, its --kind; a kfn or
# errordiag run's, its model source and, for kfn, --envelope. A run of no
# kind listed, or given an option that its kind does not read, exits 2.
_READS = {
    "fit": {"--family hawkes": "init mode", "--family homogeneous": ""},
    "residuals": {"--kind thin": "params", "--kind superpose": "params",
                  "--kind rescale": "params", "--kind superthin": "params k",
                  "--kind voronoi": "params n_grid", "--kind pixel": "forecast_a window",
                  "--kind deviance": "forecast_a forecast_b window"},
    "simulate": {"--kind homogeneous": "region window rate mag",
                 "--kind hawkes": "region window params gr_b mag_span",
                 "--kind grid": "forecast window"},
    "kfn": {"--params": "params", "--params --envelope": "params n_sim",
            "--forecast": "forecast window", "--forecast --envelope": "forecast window n_sim"},
    "errordiag": {"--params": "params n_grid", "--forecast": "forecast window"},
}


def _convert(key: str, value):
    conv = _OPTIONS.get(key, (str, None))[0]
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


def _resolve(command: str, args: argparse.Namespace) -> RunConfig:
    allowed = _keys(command)
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
    for key, (_, rule) in _OPTIONS.items():
        if rule and key in options and not rule[1](options[key]):
            raise ConfigError(f"--{key.replace('_', '-')} must be {rule[0]}, "
                              f"got {options[key]!r}")
    rows = _READS.get(command, {})
    kind = (f"--family {options.get('family', 'hawkes')}" if command == "fit" else
            f"--kind {options['kind']}" if "kind" in options else
            " ".join(f"--{k}" for k in ("params", "forecast", "envelope") if options.get(k)))
    if rows and kind not in rows:
        raise ConfigError(f"{command} takes one of {', '.join(rows)}; got {kind or 'none'}")
    unread = set(options) & set(" ".join(rows.values()).split()) - set(rows.get(kind, "").split())
    if unread:
        raise ConfigError(f"{command} {kind} does not read "
                          + ", ".join("--" + k.replace("_", "-") for k in sorted(unread)))
    out_dir = str(options.pop("out", "out"))
    seed = options.pop("seed", 0)
    # --jobs is checked, then dropped: no output, the manifest included, reads it
    options.pop("jobs", None)
    return RunConfig(command, out_dir, seed, options)


def _replace_file(path: str, data: bytes) -> None:
    """Write data to path through a temporary file, so readers never see a
    partial file."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)


class Workspace:
    """Atomic writer that records (path, sha256) for the manifest. The
    directory is made by the first write, so a refused run leaves none."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.entries = []

    def write(self, name: str, text: str) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, name)
        data = text.encode("utf-8")
        _replace_file(path, data)
        self.entries.append((name, hashlib.sha256(data).hexdigest()))
        return path

    def finish(self, cfg: RunConfig) -> str:
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


def _load_catalog(cfg: RunConfig) -> Catalog:
    return parse_catalog(_read_text(cfg.require("catalog"), "catalog"))


def _load_region(cfg: RunConfig) -> Region:
    return parse_region(_read_text(cfg.require("region"), "region"))


def _load_forecast(cfg: RunConfig, key: str, window: float, grid=None) -> GriddedForecast:
    return parse_forecast(_read_text(cfg.require(key), "forecast"), window, grid)


def _load_model(cfg: RunConfig, history: Catalog):
    """The intensity model of the --params file; a Hawkes model conditions
    on the supplied catalog as its event history."""
    from .intensity import parse_model_params

    return parse_model_params(_read_text(cfg.require("params"), "params"), history)


# --- commands -------------------------------------------------------------


def _cmd_fit(cfg: RunConfig) -> int:
    from .intensity import fit_mle, parse_hawkes_params, serialize_fit

    c = _load_catalog(cfg)
    region = _load_region(cfg)
    family = cfg.get("family", "hawkes")
    init = cfg.get("init")
    if init is not None:
        init = parse_hawkes_params(_read_text(init, "init params"))
    fit = fit_mle(family, c, region, init, rng=RngStream(cfg.seed),
                  **cfg.given("mode", "gtol", "max_iter", "restarts"))
    ws = Workspace(cfg.out_dir)
    path = ws.write("params.txt", serialize_fit(fit))
    ws.finish(cfg)
    print(f"fit: family={family} log_lik={fit.log_lik!r} "
          f"converged={str(fit.converged).lower()} -> {path}")
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    from .intensity import parse_hawkes_params
    from .simulate import simulate_hawkes, simulate_homogeneous, simulate_poisson_grid

    kind = cfg.require("kind")
    rng = RngStream(cfg.seed)
    if kind == "grid":
        c = simulate_poisson_grid(_load_forecast(cfg, "forecast", cfg.get("window", 1.0)), rng)
    else:
        region, window = _load_region(cfg), cfg.require("window")
        if kind == "homogeneous":
            c = simulate_homogeneous(cfg.require("rate"), region, window, rng,
                                     **cfg.given("mag"))
        else:
            params = parse_hawkes_params(_read_text(cfg.require("params"), "params"))
            c = simulate_hawkes(params, region, window, rng, **cfg.given("gr_b", "mag_span"))
    ws = Workspace(cfg.out_dir)
    path = ws.write("catalog.csv", serialize_catalog(c))
    ws.finish(cfg)
    print(f"simulate: kind={kind} n={c.n} -> {path}")
    return 0


def _cmd_test(cfg: RunConfig) -> int:
    from .consistency import (l_test, m_test, n_test, r_test, results_to_csv,
                              s_test, sims_to_csv, t_test_pairwise, w_test_pairwise)

    c = _load_catalog(cfg)
    window = cfg.get("window", c.window_days)
    fa = _load_forecast(cfg, "forecast_a", window)
    fb = None
    if cfg.get("forecast_b") is not None:
        fb = _load_forecast(cfg, "forecast_b", window, fa.grid)
    default = "n,l,m,s" + (",r,t,w" if fb is not None else "")
    names = [s.strip() for s in str(cfg.get("tests", default)).split(",") if s.strip()]
    rng = RngStream(cfg.seed)
    scored, simulated = cfg.given("level"), cfg.given("n_sim", "level")
    # test name -> the results it makes; the simulating tests draw on
    # substreams 1 to 5 of the seed's stream
    runs = {
        "n": lambda: [n_test(fa, c, **scored)],
        "l": lambda: [l_test(fa, c, rng.substream(1), **simulated)],
        "m": lambda: [m_test(fa, c, rng.substream(2), **simulated)],
        "s": lambda: [s_test(fa, c, rng.substream(3), **simulated)],
        "r": lambda: [dataclasses.replace(r_test(a, b, c, rng.substream(k), **simulated),
                                          name=name)
                      for a, b, k, name in ((fa, fb, 4, "r_ab"), (fb, fa, 5, "r_ba"))],
        "t": lambda: [t_test_pairwise(fa, fb, c, **scored)],
        "w": lambda: [w_test_pairwise(fa, fb, c, **scored)],
    }
    bad = [s for s in names if s not in runs]
    if bad:
        raise ConfigError(f"test: unknown test name(s): {', '.join(bad)}")
    if fb is None and any(s in ("r", "t", "w") for s in names):
        raise ConfigError("test: r/t/w need --forecast-b")
    results = [r for name in names for r in runs[name]()]
    ws = Workspace(cfg.out_dir)
    path = ws.write("results.csv", results_to_csv(results))
    if cfg.get("sims_out", False):
        ws.write("sims.csv", sims_to_csv(results))
    if cfg.get("plots", False):
        from .render import render_histogram

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
    from .render import render_map
    from .residuals import cell_residuals_to_csv, cell_residuals_to_geojson, cell_value_texts

    texts = cell_value_texts(rs)
    ws.write(f"{stem}.csv", cell_residuals_to_csv(rs, texts))
    ws.write(f"{stem}.geojson", cell_residuals_to_geojson(rs, texts))
    ws.write(f"{stem}.svg", render_map(rs, title=title))


def _cmd_residuals(cfg: RunConfig) -> int:
    from .render import render_point_map
    from .residuals import (deviance_residuals, pixel_residuals, point_report,
                            points_to_csv, points_to_geojson, rescale_times, super_thin,
                            superpose_residuals, thin_residuals, voronoi_residuals)

    kind = cfg.require("kind")
    c = _load_catalog(cfg)
    region = _load_region(cfg)
    rng = RngStream(cfg.seed)
    ws = Workspace(cfg.out_dir)
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
                if c.window_days == 0:
                    raise ValueError("catalog window_days = 0 has no mean rate: "
                                     "superthin needs --k")
                k = c.n / (region.area_km2 * c.window_days)
            ps = super_thin(c, model, k, region, rng)
        ws.write("points.csv", points_to_csv(ps))
        ws.write("points.geojson", points_to_geojson(ps))
        ws.write("map.svg", render_point_map(ps.lons, ps.lats, ps.tags,
                                             region, title=f"{kind} residuals"))
        ws.write("report.txt", point_report(ps, region))
    elif kind == "rescale":
        model = _load_model(cfg, c)
        rt = rescale_times(c, lambda t: model.compensator(region, t))
        ws.write("taus.csv", csv_text({"tau": rt.taus}, {"total_mass": rt.total_mass}))
    elif kind == "pixel":
        fa = _load_forecast(cfg, "forecast_a", cfg.get("window", c.window_days))
        raw, pearson = pixel_residuals(fa, c)
        _write_cells(ws, "raw", raw, "raw residuals")
        _write_cells(ws, "pearson", pearson, "Pearson residuals")
    elif kind == "deviance":
        window = cfg.get("window", c.window_days)
        fa = _load_forecast(cfg, "forecast_a", window)
        fb = _load_forecast(cfg, "forecast_b", window, fa.grid)
        _write_cells(ws, "deviance", deviance_residuals(fa, fb, c), "deviance residuals")
    elif kind == "voronoi":
        rs = voronoi_residuals(_load_model(cfg, c), c, region, **cfg.given("n_grid"))
        _write_cells(ws, "voronoi", rs, "Voronoi residuals")
    ws.finish(cfg)
    print(f"residuals: kind={kind} -> {cfg.out_dir}")
    return 0


def _cmd_kfn(cfg: RunConfig) -> int:
    from .intensity import GridIntensity
    from .render import render_k_curve
    from .summaries import k_curve_to_csv, weighted_k

    c = _load_catalog(cfg)
    region = _load_region(cfg)
    if cfg.get("params") is not None:
        model = _load_model(cfg, c)
    else:
        model = GridIntensity(_load_forecast(cfg, "forecast",
                                             cfg.get("window", c.window_days)))
    rng = RngStream(cfg.seed) if cfg.get("envelope", False) else None
    curve = weighted_k(model, c, region, rng=rng, **cfg.given("n_sim"))
    ws = Workspace(cfg.out_dir)
    ws.write("kfunction.csv", k_curve_to_csv(curve))
    ws.write("kfunction.svg", render_k_curve(curve, title="weighted K"))
    ws.finish(cfg)
    print(f"kfn: n={c.n} -> {cfg.out_dir}")
    return 0


def _cmd_errordiag(cfg: RunConfig) -> int:
    from .render import render_error_diagram
    from .summaries import error_diagram, error_diagram_to_csv

    c = _load_catalog(cfg)
    region = _load_region(cfg)
    if cfg.get("params") is not None:
        target = _load_model(cfg, c)
    else:
        target = _load_forecast(cfg, "forecast", cfg.get("window", c.window_days))
    diag = error_diagram(target, c, region, **cfg.given("n_grid"))
    ws = Workspace(cfg.out_dir)
    ws.write("errordiag.csv", error_diagram_to_csv(diag))
    ws.write("errordiag.svg", render_error_diagram(diag, title="error diagram"))
    ws.finish(cfg)
    print(f"errordiag: n={c.n} area_under={diag.area_under()!r} -> {cfg.out_dir}")
    return 0


def _cmd_tessellate(cfg: RunConfig) -> int:
    from .residuals import tessellation_to_csv, tessellation_to_geojson, voronoi_tessellation

    c = _load_catalog(cfg)
    region = _load_region(cfg)
    tess = voronoi_tessellation(c.lons, c.lats, region)
    ws = Workspace(cfg.out_dir)
    ws.write("cells.geojson", tessellation_to_geojson(tess))
    ws.write("areas.csv", tessellation_to_csv(tess))
    ws.finish(cfg)
    print(f"tessellate: cells={tess.n_cells} "
          f"defect={tess.partition_defect!r} -> {cfg.out_dir}")
    return 0


# --- argument wiring ------------------------------------------------------

# command -> (handler, the options that every run of it may take besides
# those that its kinds read in _READS)
_COMMANDS = {
    "fit": (_cmd_fit, "catalog region family restarts gtol max_iter"),
    "simulate": (_cmd_simulate, "kind"),
    "test": (_cmd_test, "catalog forecast_a forecast_b window tests n_sim level "
                        "sims_out plots"),
    "residuals": (_cmd_residuals, "kind catalog region"),
    "kfn": (_cmd_kfn, "catalog region envelope"),
    "errordiag": (_cmd_errordiag, "catalog region"),
    "tessellate": (_cmd_tessellate, "catalog region"),
}


def _keys(command: str) -> set:
    """The option names that the command takes."""
    return set(_COMMANDS[command][1].split()) | set(
        " ".join(_READS.get(command, {}).values()).split())


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built once per process: parsing leaves it
    unchanged, so every main call shares it."""
    parser = argparse.ArgumentParser(
        prog="eqassess",
        description="Point-process forecast evaluation toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", default=None)
        p.add_argument("--jobs", default=None)
        for key in sorted(_keys(name)):
            flag = "--" + key.replace("_", "-")
            if _OPTIONS.get(key, (str, None))[0] is _to_bool:
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
    try:
        return _COMMANDS[args.command][0](_resolve(args.command, args))
    except (ConfigError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2 if isinstance(e, ConfigError) else 3


if __name__ == "__main__":
    sys.exit(main())
