"""Span tracing of eqassess from outside the package.

`install()` rebinds, in every eqassess module, the names through which the
modules call one another (module functions, methods and properties of the
classes) to wrappers that record a span per call: name, start, end, parent
span and an optional work count. Spans stay in memory; the pass writes them
out when it ends, and `layer_metrics` turns them into the per-layer numbers.
No file under src/ changes, and an untraced pass never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import time

import numpy as np

MODULES = ("catalog", "forecast", "consistency", "intensity", "simulate",
           "residuals", "summaries", "render", "rng", "cli")
COMMANDS = ("fit", "simulate", "test", "residuals", "kfn", "errordiag", "tessellate")


def _n(x) -> int:
    return int(np.size(x))


# (module, attribute path, work count from (args, result) or None)
TARGETS = (
    ("catalog", "parse_catalog", None),
    ("catalog", "parse_region", None),
    ("catalog", "bin_counts", lambda a, r: a[0].n),
    ("catalog", "region_lattice", lambda a, r: r.lons.size),
    ("catalog", "Region.contains", lambda a, r: _n(a[1])),
    ("catalog", "Catalog.__post_init__", None),
    ("catalog", "BinGrid.__post_init__", None),
    ("catalog", "BinGrid.mag_bands", None),
    ("catalog", "BinGrid.space_boxes", None),
    ("catalog", "BinGrid.space_index", None),
    ("catalog", "BinGrid.band_index", None),
    ("forecast", "parse_forecast", lambda a, r: r.grid.n_cells),
    ("forecast", "joint_log_likelihood", None),
    ("forecast", "catalog_log_likelihood", None),
    ("forecast", "poisson_log_pmf", None),
    ("forecast", "marginal_space", None),
    ("forecast", "marginal_magnitude", None),
    ("simulate", "simulate_poisson_grid", lambda a, r: r.n),
    ("simulate", "simulate_homogeneous", lambda a, r: r.n),
    ("simulate", "simulate_inhomogeneous", lambda a, r: r.n),
    ("simulate", "_uniform_in_region", lambda a, r: a[2]),
    ("consistency", "n_test", None),
    ("consistency", "l_test", None),
    ("consistency", "m_test", None),
    ("consistency", "s_test", None),
    ("consistency", "r_test", None),
    ("consistency", "t_test_pairwise", None),
    ("consistency", "w_test_pairwise", None),
    ("intensity", "fit_mle", None),
    ("intensity", "minimize", lambda a, r: r.nit),
    ("intensity", "central_gradient", None),
    ("intensity", "HawkesIntensity.rate_at", lambda a, r: _n(a[1]) * a[0].history.n),
    ("intensity", "GridIntensity.__init__", None),
    ("intensity", "GridIntensity.rate_at", lambda a, r: _n(a[1])),
    ("residuals", "super_thin", None),
    ("residuals", "rescale_times", None),
    ("residuals", "voronoi_tessellation", lambda a, r: r.n_cells),
    ("residuals", "voronoi_residuals", None),
    ("residuals", "pixel_residuals", None),
    ("residuals", "deviance_residuals", None),
    ("residuals", "cell_residuals_to_csv", None),
    ("residuals", "cell_residuals_to_geojson", None),
    ("residuals", "homogeneity_test", None),
    ("summaries", "weighted_k", None),
    ("summaries", "_weighted_k_values", lambda a, r: _n(a[0]) * (_n(a[0]) - 1)),
    ("summaries", "error_diagram", None),
    ("render", "render_map", lambda a, r: len(r)),
    ("render", "render_point_map", lambda a, r: len(r)),
    ("render", "render_error_diagram", lambda a, r: len(r)),
    ("render", "render_k_curve", lambda a, r: len(r)),
    ("render", "render_histogram", lambda a, r: len(r)),
    ("rng", "pmap", lambda a, r: a[1]),
    ("cli", "Workspace.write", lambda a, r: len(a[2])),
    ("cli", "Workspace.finish", None),
)


def _span_name(module: str, path: str) -> str:
    # a dataclass's __post_init__ stands for constructing the object
    return f"{module}.{path.replace('.__post_init__', '').replace('.__init__', '')}"


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, count]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name: str, fn, count=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[4] = int(count(args, result))
            return result

        return traced


def install() -> Tracer:
    """Rebind every target in every eqassess module; returns the recorder."""
    tracer = Tracer()
    mods = [importlib.import_module("eqassess")] + \
        [importlib.import_module(f"eqassess.{m}") for m in MODULES]
    for module, path, count in TARGETS:
        owner = importlib.import_module(f"eqassess.{module}")
        name = _span_name(module, path)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(owner, cls_name)
            orig = cls.__dict__[attr]
            if isinstance(orig, property):
                setattr(cls, attr, property(tracer.wrap(name, orig.fget, count)))
            else:
                setattr(cls, attr, tracer.wrap(name, orig, count))
            continue
        orig = getattr(owner, path)
        wrapped = tracer.wrap(name, orig, count)
        for mod in mods:
            for key, val in list(vars(mod).items()):
                if val is orig:
                    setattr(mod, key, wrapped)
    # the objective closure is built per fit; trace each one it returns
    intensity = importlib.import_module("eqassess.intensity")
    make_objective = intensity.hawkes_objective

    def hawkes_objective(*args, **kwargs):
        return tracer.wrap("intensity.negll", make_objective(*args, **kwargs))

    intensity.hawkes_objective = hawkes_objective
    return tracer


# --- per-layer metrics ------------------------------------------------------

# metric -> span names; time is the busy time of the outermost spans of the
# group, calls their number, and work the sum of their counts
TIMES = {
    "catalog.bin_counts_s": ("catalog.bin_counts",),
    "catalog.grid_index_s": ("catalog.BinGrid", "catalog.BinGrid.mag_bands",
                             "catalog.BinGrid.space_boxes", "catalog.BinGrid.space_index",
                             "catalog.BinGrid.band_index"),
    "catalog.catalog_build_s": ("catalog.Catalog",),
    "catalog.contains_s": ("catalog.Region.contains",),
    "catalog.parse_s": ("catalog.parse_catalog", "catalog.parse_region"),
    "forecast.parse_s": ("forecast.parse_forecast",),
    "forecast.loglik_s": ("forecast.joint_log_likelihood", "forecast.catalog_log_likelihood",
                          "forecast.poisson_log_pmf"),
    "forecast.marginal_s": ("forecast.marginal_space", "forecast.marginal_magnitude"),
    "simulate.poisson_grid_s": ("simulate.simulate_poisson_grid",),
    "simulate.homogeneous_s": ("simulate.simulate_homogeneous",),
    "simulate.inhomogeneous_s": ("simulate.simulate_inhomogeneous",),
    "consistency.l_test_s": ("consistency.l_test",),
    "consistency.r_test_s": ("consistency.r_test",),
    "consistency.ms_test_s": ("consistency.m_test", "consistency.s_test"),
    "consistency.ntw_test_s": ("consistency.n_test", "consistency.t_test_pairwise",
                               "consistency.w_test_pairwise"),
    "intensity.fit_s": ("intensity.fit_mle",),
    "intensity.gradient_s": ("intensity.central_gradient",),
    "intensity.hawkes_rate_s": ("intensity.HawkesIntensity.rate_at",),
    "intensity.grid_model_s": ("intensity.GridIntensity",),
    "intensity.grid_rate_s": ("intensity.GridIntensity.rate_at",),
    "residuals.super_thin_s": ("residuals.super_thin",),
    "residuals.rescale_s": ("residuals.rescale_times",),
    "residuals.tessellation_s": ("residuals.voronoi_tessellation",),
    "residuals.voronoi_residuals_s": ("residuals.voronoi_residuals",),
    "residuals.cell_residuals_s": ("residuals.pixel_residuals", "residuals.deviance_residuals",
                                   "residuals.cell_residuals_to_csv",
                                   "residuals.cell_residuals_to_geojson"),
    "residuals.homogeneity_s": ("residuals.homogeneity_test",),
    "summaries.weighted_k_s": ("summaries.weighted_k",),
    "summaries.error_diagram_s": ("summaries.error_diagram",),
    "render.svg_s": ("render.render_map", "render.render_point_map",
                     "render.render_error_diagram", "render.render_k_curve",
                     "render.render_histogram"),
    "rng.pmap_s": ("rng.pmap",),
    "cli.write_s": ("cli.Workspace.write", "cli.Workspace.finish"),
    **{f"cli.{c}_s": (f"cli.{c}",) for c in COMMANDS},
}
# metric -> (span names, ancestor-name prefix the span must sit under or None)
CALLS = {
    "catalog.bin_counts_calls": (("catalog.bin_counts",), None),
    "catalog.catalogs_built": (("catalog.Catalog",), None),
    "forecast.loglik_calls": (TIMES["forecast.loglik_s"], None),
    "simulate.homogeneous_calls": (("simulate.simulate_homogeneous",), None),
    "consistency.null_catalogs": (("simulate.simulate_poisson_grid",), "consistency."),
    "intensity.negll_evals": (("intensity.negll",), None),
}
WORK = {
    "catalog.events_binned": (("catalog.bin_counts",), None),
    "catalog.contains_points": (("catalog.Region.contains",), None),
    "forecast.cells_parsed": (("forecast.parse_forecast",), None),
    "simulate.events_simulated": (("simulate.simulate_poisson_grid",), None),
    "simulate.candidates": (("simulate._uniform_in_region",), "simulate.simulate_inhomogeneous"),
    "simulate.candidates_kept": (("simulate.simulate_inhomogeneous",), None),
    "intensity.fit_iterations": (("intensity.minimize",), None),
    "intensity.hawkes_rate_pairs": (("intensity.HawkesIntensity.rate_at",), None),
    "intensity.grid_rate_points": (("intensity.GridIntensity.rate_at",), None),
    "residuals.voronoi_cells": (("residuals.voronoi_tessellation",), None),
    "summaries.k_pairs": (("summaries._weighted_k_values",), None),
    "summaries.lattice_points": (("catalog.region_lattice",), "summaries."),
    "render.svg_bytes": (TIMES["render.svg_s"], None),
    "rng.pmap_tasks": (("rng.pmap",), None),
    "cli.bytes_written": (("cli.Workspace.write",), None),
}
SELF = {f"{m}.self_s": m for m in MODULES}
OVERHEAD = "trace.overhead_s"


def layer_metrics(spans) -> dict:
    """Per-layer metrics of one traced pass, keyed by metric name."""
    names = [s[0] for s in spans]
    parents = [s[3] for s in spans]
    durations = [s[2] - s[1] for s in spans]

    def ancestors(i):
        p = parents[i]
        while p >= 0:
            yield names[p]
            p = parents[p]

    def outermost(group, under=None):
        group = set(group)
        for i, name in enumerate(names):
            if name not in group:
                continue
            up = list(ancestors(i))
            if any(a in group for a in up):
                continue
            if under is not None and not any(a.startswith(under) for a in up):
                continue
            yield i

    out = {}
    for metric, group in TIMES.items():
        out[metric] = sum(durations[i] for i in outermost(group))
    for metric, (group, under) in CALLS.items():
        out[metric] = sum(1 for _ in outermost(group, under))
    for metric, (group, under) in WORK.items():
        out[metric] = sum(spans[i][4] for i in outermost(group, under))
    self_time = dict.fromkeys(MODULES, 0.0)
    for i, name in enumerate(names):
        self_time[name.split(".")[0]] += durations[i]
        if parents[i] >= 0:
            self_time[names[parents[i]].split(".")[0]] -= durations[i]
    for metric, module in SELF.items():
        out[metric] = self_time[module]
    return out


def per_layer_names() -> list:
    return [*TIMES, *CALLS, *WORK, *SELF, OVERHEAD]


def unit(name: str) -> str:
    return "s" if name.endswith("_s") else ("bytes" if "bytes" in name else "count")
