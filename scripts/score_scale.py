"""Time and measure the Hawkes score (intensity.hawkes_score) as the catalog grows.

For each target count, simulates the criterion-6 truth (make_truth of
hawkes_roundtrip.py, on its 3 x 3 degree box) over a window scaled to that
count and keeps the first target events, then prints one row: the events, the strictly-earlier pairs, the
score's build time, the median time of one evaluation of value, gradient
and Hessian at the truth, what the score keeps, and the tracemalloc peaks
of the build and of one evaluation (the latter including what is kept).
Times are taken with tracemalloc off.

    PYTHONPATH=src python scripts/score_scale.py [--events 450 2250 5000] \\
        [--seed 1000] [--repeats 5]

A 5,000-event catalog has about 12.5 million pairs; the score keeps three
arrays of that length (300 MB).
"""

import argparse
import gc
import time
import tracemalloc

import numpy as np

from eqassess.catalog import Catalog
from eqassess.intensity import hawkes_pack, hawkes_score
from eqassess.rng import RngStream
from eqassess.simulate import simulate_hawkes
from hawkes_roundtrip import make_truth

# the criterion-6 truth expects this many events over its 350-day window
_TRUTH_EVENTS, _TRUTH_DAYS = 520, 350.0


def measure(target: int, seed: int, repeats: int) -> dict:
    truth, region, _ = make_truth(2.0, 2.5, 1.0, 0.60, _TRUTH_EVENTS)
    # a window long enough for the target count, cut to its first target
    # events, the window closing midway to the next
    days = 1.5 * _TRUTH_DAYS * target / _TRUTH_EVENTS
    cat = simulate_hawkes(truth, region, days, RngStream(seed), gr_b=1.0, mag_span=4.0)
    if cat.n > target:
        cat = Catalog(cat.times[:target], cat.lons[:target], cat.lats[:target],
                      cat.mags[:target], 0.5 * (cat.times[target - 1] + cat.times[target]),
                      cat.m0)
    theta = hawkes_pack(truth)
    pairs = int(np.searchsorted(cat.times, cat.times, side="left").sum())

    start = time.perf_counter()
    score = hawkes_score(cat, region, truth.m0)
    build_s = time.perf_counter() - start
    evals = []
    for _ in range(repeats):
        start = time.perf_counter()
        score(theta)
        evals.append(time.perf_counter() - start)
    del score
    gc.collect()

    tracemalloc.start()
    try:
        score = hawkes_score(cat, region, truth.m0)
        kept, build_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        score(theta)
        eval_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return dict(events=cat.n, pairs=pairs, build_s=build_s, eval_s=float(np.median(evals)),
                kept_mb=kept / 1e6, build_peak_mb=build_peak / 1e6, eval_peak_mb=eval_peak / 1e6)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--events", type=int, nargs="+", default=[450, 2250, 5000])
    ap.add_argument("--seed", type=int, default=1000)
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()
    print("events  pairs       build_s  eval_ms  kept_MB  build_peak_MB  eval_peak_MB")
    for target in args.events:
        row = measure(target, args.seed, args.repeats)
        print(f"{row['events']:<7d} {row['pairs']:<11d} {row['build_s']:<8.3f} "
              f"{row['eval_s'] * 1e3:<8.1f} {row['kept_mb']:<8.1f} {row['build_peak_mb']:<14.1f} "
              f"{row['eval_peak_mb']:.1f}", flush=True)


if __name__ == "__main__":
    main()
