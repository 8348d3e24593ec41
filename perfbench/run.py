"""Run one benchmark workload and print its metrics as one JSON line.

    OPENBLAS_NUM_THREADS=1 python3 perfbench/run.py --workload z-batch \
        --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the checkout this file sits in. The
workload's inputs are built ``SETUPS`` times (``setup_s`` is the fastest
build); then rounds of the same operations on the same inputs repeat until
``--seconds`` would be exceeded. Each operation's time is its fastest round,
and ``run_s`` sums these over one round: the shared machine this runs on
changes speed by up to half for tens of seconds at a time, and such periods
only ever add time. The first round's outputs are checked; every later round
must reproduce them. ``--trace 1`` wraps the program's layers and reports
per-layer figures instead of the end-to-end ones. Details go to
``perfbench/out/``; the last line of standard output is the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 5


def _same(a, b) -> bool:
    import numpy as np
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    x, y = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return x.shape == y.shape and bool(np.allclose(x, y, rtol=1e-9, atol=0.0,
                                                   equal_nan=True))


def per_layer(summary: dict, metrics: list[dict]) -> dict:
    """The per-layer metrics named in BENCHMARK.json from a trace summary."""
    empty = {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0, "work": 0.0}
    out = {}
    for m in metrics:
        span, quantity = m["name"].rsplit(".", 1)
        if quantity == "z_lookups_per_build":
            b = summary.get(f"{span}.build", empty)
            value = b.get("lookups", 0.0) / b["calls"] if b["calls"] else 0.0
        else:
            s = summary.get(span, empty)
            if quantity == "ms_per_replica":
                value = 1e3 * s["busy_s"] / s["work"] if s["work"] else 0.0
            else:
                value = s[quantity]
        out[m["name"]] = {"value": float(value), "unit": m["unit"]}
    return out


def run(name: str, seed: int, seconds: float, trace: bool, small: bool) -> dict:
    t0 = time.perf_counter()
    import checks
    import tracer as tr
    from workloads import WORKLOADS
    import_s = time.perf_counter() - t0
    import pinning_lab
    if Path(pinning_lab.__file__).resolve().parents[1] != ROOT / "src":
        raise RuntimeError(f"pinning_lab imported from {pinning_lab.__file__}")
    wl = WORKLOADS[name]
    tracer = tr.Tracer() if trace else None
    times = defaultdict(list)
    attempted = failed = rounds = 0
    errors, setup_times = [], []
    first = fails = None
    consistent = True
    with tr.installed(tracer):
        for _ in range(SETUPS):
            state = None
            gc.collect()
            if tracer:
                tracer.phase = tr.SETUP
            t = time.perf_counter()
            state = wl.setup(seed, small)
            setup_times.append(time.perf_counter() - t)
            if tracer:
                tracer.phase = tr.CHECK
        ops = wl.ops(state)
        begin = time.perf_counter()
        while True:
            gc.collect()
            results = {}
            if tracer:
                tracer.phase = tr.ROUND
            for op in ops:
                attempted += 1
                t = time.perf_counter()
                try:
                    results[op.name] = op.fn(results)
                except Exception:  # a failing operation is counted, not fatal
                    failed += 1
                    errors.append(f"{op.name}: {traceback.format_exc(limit=3)}")
                    continue
                times[op.kind or op.name].append(time.perf_counter() - t)
            if tracer:
                tracer.phase = tr.CHECK
            rounds += 1
            try:
                out, params = wl.outputs(state, results)
            except KeyError as e:
                consistent = False
                errors.append(f"outputs missing {e}")
            else:
                if first is None:
                    first = out
                    fails = checks.CHECKS[name](out, params)
                elif not _same(first, out):
                    consistent = False
                    errors.append(f"round {rounds} differs from round 1")
            elapsed = time.perf_counter() - begin
            if elapsed * (rounds + 1) / rounds > seconds:
                break
    run_s = sum(min(times[op.kind or op.name]) for op in ops
                if times[op.kind or op.name])
    setup_s = min(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    correct = consistent and fails is not None and not fails
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layers = tr.summarize(tracer, SETUPS, rounds) if trace else {}
    if trace:
        metrics = per_layer(layers, spec["per_layer"])
    else:
        metrics = {"run_s": {"value": run_s, "unit": "s"},
                   "setup_s": {"value": setup_s, "unit": "s"},
                   "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
    result = {"correct": bool(correct), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    detail = {"workload": name, "seed": seed, "seconds": seconds,
              "trace": trace, "small": small, "rounds": rounds,
              "run_s": run_s, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb,
              "setup_times": setup_times, "import_s": import_s,
              "op_min_s": {k: min(v) for k, v in times.items()},
              "op_times": dict(times), "check_failures": fails,
              "errors": errors, "nproc": os.cpu_count(),
              "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
              "layers": layers, "result": result}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        tracer.save(out_dir / f"{stem}.spans.npz")
    for line in errors + (fails or []):
        print(line, file=sys.stderr)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("z-batch", "pinning-ladder", "exact-laws",
                             "quenched-paths"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--small", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "pinning_lab" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                 args.small)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
