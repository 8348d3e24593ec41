"""Command-line entry point.

Subcommands dispatch to the samplers and experiments; every run writes a
JSON report embedding the fully resolved configuration, plus optional CSV
dumps. All randomness flows through (seed, stream_id) pairs; reruns with
the same config and seed produce byte-identical reports (wall-clock time
is printed, not stored). Exit codes: 0 all criteria in scope pass, 1
usage or config error, 2 criterion failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from pinning_lab import analysis as an
from pinning_lab import closed_sets as cs
from pinning_lab import continuum as ct
from pinning_lab import discrete_pinning as dp
from pinning_lab import renewal as rn
from pinning_lab.rng import stream


class ConfigError(ValueError):
    pass


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def _resolve_threads(arg: int | None) -> int:
    if arg is not None:
        return arg
    env = os.environ.get("PINNING_LAB_THREADS")
    return int(env) if env else 1


def _write_report(out_dir: str, name: str, payload: dict) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    f = path / f"{name}.json"
    with open(f, "w") as fh:
        json.dump(an._py(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")
    return f


def _write_rows(out_dir: str, name: str, header: list[str], rows) -> Path:
    path = Path(out_dir)
    path.mkdir(parents=True, exist_ok=True)
    f = path / f"{name}.csv"
    with open(f, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) for v in row])
    return f


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, payload)


def _cmd_sample_renewal(args, seed):
    kernel = rn.power_law_kernel(args.alpha, args.n)
    rng = stream(seed, 0)
    if args.conditioned:  # the pinned law at zero coupling
        free = dp.DisorderField(np.zeros(args.n - 1), "standard-normal")
        smp = dp.build_pinned_sampler(kernel, free, 0.0, 0.0, args.n)
    lengths = []
    rows = []
    for i in range(args.samples):
        pts = (smp.sample(rng).points.astype(np.int64) if args.conditioned
               else rn.sample_renewal(kernel, args.n, rng))
        lengths.append(len(pts))
        rows.extend((i, p) for p in pts)
    payload = {"n": args.n, "alpha": args.alpha,
               "conditioned": args.conditioned, "samples": args.samples,
               "mean_points": float(np.mean(lengths))}
    return 0, payload, [("renewal_points", ["sample", "site"], rows)]


def _cmd_partition(args, seed):
    n_max = max(args.N, 2)
    kernel = rn.power_law_kernel(args.alpha, n_max)
    rf = rn.renewal_function(kernel, n_max)
    om = stream(seed, 0).standard_normal(max(args.N - 1, 1))
    dis = dp.DisorderField(om, "standard-normal")
    z = dp.partition_dp(kernel, rf, dis, args.beta, args.h, 0, args.N)
    payload = {"N": args.N, "beta": args.beta, "h": args.h,
               "alpha": args.alpha, "Z": z}
    return (0 if z > 0 else 2), payload, []


def _cmd_sample_pinning(args, seed):
    kernel = rn.matched_power_kernel(args.alpha, args.N)
    scale = None
    beta, h = 0.0, 0.0
    if args.beta_hat > 0:
        scale = dp.scale_couplings(args.beta_hat, args.h_hat, args.N, kernel)
        beta, h = scale.beta_N, scale.h_N
    rng = stream(seed, 0)
    rows = []
    for i in range(args.samples):
        dis = dp.sample_disorder("standard-normal", args.N - 1, rng)
        tau = dp.sample_pinned(kernel, dis, beta, h, args.N, rng)
        rows.extend((i, p) for p in tau.points)
    payload = {"N": args.N, "beta_hat": args.beta_hat,
               "h_hat": args.h_hat, "samples": args.samples,
               "beta_N": beta, "h_N": h}
    return 0, payload, [("pinned_points", ["sample", "site"], rows)]


def _cmd_sample_regen(args, seed):
    rng = stream(seed, 0)
    rows = []
    for i in range(args.samples):
        s = ct.sample_regen_conditioned(args.alpha, args.T, args.depth, rng)
        rows.extend((i, p) for p in s.set.points)
    payload = {"alpha": args.alpha, "T": args.T, "depth": args.depth,
               "samples": args.samples}
    return 0, payload, [("regen_points", ["sample", "t"], rows)]


def _cmd_continuum_z(args, seed):
    spec = ct.ChaosSpec(alpha=args.alpha, beta_hat=args.beta_hat,
                        h_hat=args.h_hat, T=args.T, M=args.M)
    path = ct.sample_brownian(args.T, args.M, stream(seed, 0))
    ze = ct.ZEvaluator(spec, path)
    ts, prof = ct.z_profile_from(spec, path, 0.0)
    payload = {"alpha": args.alpha, "beta_hat": args.beta_hat,
               "h_hat": args.h_hat, "T": args.T, "M": args.M,
               "Z_0T": ze.z0T()}
    rows = list(zip(ts, prof))
    return (0 if ze.z0T() > 0 else 2), payload, [
        ("z_profile", ["t", "Z"], rows)]


def _cmd_cdpm_fdd(args, seed):
    spec = ct.ChaosSpec(alpha=args.alpha, beta_hat=args.beta_hat,
                        T=args.T, M=args.M)
    rng = stream(seed, 0)
    path = ct.sample_brownian(args.T, args.M, rng)
    ze = ct.ZEvaluator(spec, path)
    pairs = ct.sample_cdpm_fdd(ze, args.t1, rng, n=args.samples,
                               grid=args.grid)
    payload = {"alpha": args.alpha, "beta_hat": args.beta_hat,
               "t1": args.t1, "samples": args.samples,
               "Z_0T": ze.z0T()}
    return 0, payload, [("cdpm_pairs", ["g", "d"], pairs)]


def _cmd_check_renewal(args, seed):
    kernel = rn.power_law_kernel(args.alpha, args.n)
    rf = rn.renewal_function(kernel, args.n)
    ratio = rn.check_asymptotics(rf)
    smooth = rn.check_smoothness(rf)
    # coupling bound needs a monotone return law, so use the lazy walk
    bk = rn.bessel_like_return_law(rn.bessel_p_up(args.alpha),
                                   min(args.n, 20_000))
    brf = rn.renewal_function(bk, min(args.n, 20_000))
    bound = rn.check_coupling_bound(brf, bk)
    ratio_ok = abs(float(ratio.ratios[-1]) - 1.0) < 0.1
    ok = ratio_ok and smooth.passed and bound.max_violation <= 1e-10
    payload = {"alpha": args.alpha, "n": args.n,
               "ratio_final": float(ratio.ratios[-1]),
               "smoothness_delta": smooth.delta,
               "coupling_violation": float(bound.max_violation),
               "passed": bool(ok)}
    return (0 if ok else 2), payload, []


def _cmd_dirichlet_check(args, seed):
    chk = an.dirichlet_integral_check(args.chi, args.k, seed=seed)
    tol = 1e-6 if args.k <= 2 else 1e-3
    ok = chk.rel_err < tol and chk.bound_ok and chk.two_block_ok
    payload = dataclasses.asdict(chk)
    payload["tolerance"] = tol
    payload["passed"] = bool(ok)
    return (0 if ok else 2), payload, []


def _cmd_experiment(args, seed):
    if args.name not in an.EXPERIMENTS:
        raise ConfigError(f"unknown experiment {args.name!r}; "
                          f"choose from {sorted(an.EXPERIMENTS)}")
    cfg_cls, fn = an.EXPERIMENTS[args.name]
    overrides = _load_config(args.config)
    fields = {f.name for f in dataclasses.fields(cfg_cls)}
    bad = set(overrides) - fields
    if bad:
        raise ConfigError(f"unknown config keys {sorted(bad)}")
    # JSON has no tuples; coerce list-valued overrides
    for key, val in overrides.items():
        if isinstance(val, list):
            overrides[key] = tuple(val)
    cfg = cfg_cls(**overrides)
    report = fn(cfg, seed=seed)
    payload = json.loads(report.to_json(include_wall_clock=False))
    print(f"experiment {args.name}: "
          f"{'pass' if report.passed else 'FAIL'} "
          f"({report.wall_clock:.1f}s)")
    return (0 if report.passed else 2), payload, []


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pinning-lab")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--threads", type=int, default=None)
    sub = p.add_subparsers(dest="subcommand", required=True)

    s = sub.add_parser("sample-renewal")
    s.add_argument("--alpha", type=float, default=0.75)
    s.add_argument("--n", type=int, default=1000)
    s.add_argument("--samples", type=int, default=10)
    s.add_argument("--conditioned", action="store_true")
    s.set_defaults(handler=_cmd_sample_renewal)

    s = sub.add_parser("partition")
    s.add_argument("--N", type=int, required=True)
    s.add_argument("--beta", type=float, default=0.0)
    s.add_argument("--h", type=float, default=0.0)
    s.add_argument("--alpha", type=float, default=0.75)
    s.set_defaults(handler=_cmd_partition)

    s = sub.add_parser("sample-pinning")
    s.add_argument("--N", type=int, default=512)
    s.add_argument("--alpha", type=float, default=0.75)
    s.add_argument("--beta-hat", type=float, default=0.0)
    s.add_argument("--h-hat", type=float, default=0.0)
    s.add_argument("--samples", type=int, default=10)
    s.set_defaults(handler=_cmd_sample_pinning)

    s = sub.add_parser("sample-regen")
    s.add_argument("--alpha", type=float, default=0.75)
    s.add_argument("--T", type=float, default=1.0)
    s.add_argument("--depth", type=int, default=12)
    s.add_argument("--samples", type=int, default=10)
    s.set_defaults(handler=_cmd_sample_regen)

    s = sub.add_parser("continuum-z")
    s.add_argument("--alpha", type=float, default=0.75)
    s.add_argument("--beta-hat", type=float, default=0.5)
    s.add_argument("--h-hat", type=float, default=0.0)
    s.add_argument("--T", type=float, default=1.0)
    s.add_argument("--M", type=int, default=1024)
    s.set_defaults(handler=_cmd_continuum_z)

    s = sub.add_parser("cdpm-fdd")
    s.add_argument("--alpha", type=float, default=0.75)
    s.add_argument("--beta-hat", type=float, default=0.5)
    s.add_argument("--T", type=float, default=1.0)
    s.add_argument("--t1", type=float, default=0.4)
    s.add_argument("--M", type=int, default=512)
    s.add_argument("--grid", type=int, default=128)
    s.add_argument("--samples", type=int, default=100)
    s.set_defaults(handler=_cmd_cdpm_fdd)

    s = sub.add_parser("check-renewal")
    s.add_argument("--alpha", type=float, default=0.75)
    s.add_argument("--n", type=int, default=100_000)
    s.set_defaults(handler=_cmd_check_renewal)

    s = sub.add_parser("dirichlet-check")
    s.add_argument("--chi", type=float, required=True)
    s.add_argument("--k", type=int, required=True)
    s.set_defaults(handler=_cmd_dirichlet_check)

    s = sub.add_parser("experiment")
    s.add_argument("name")
    s.set_defaults(handler=_cmd_experiment)

    return p


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code not in (0, None) else 0
    threads = _resolve_threads(args.threads)
    t0 = time.perf_counter()
    try:
        try:
            from threadpoolctl import threadpool_limits
        except ImportError:
            threadpool_limits = None
        if threadpool_limits is not None:
            with threadpool_limits(limits=threads):
                code, payload, dumps = args.handler(args, args.seed)
        else:
            code, payload, dumps = args.handler(args, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except (rn.KernelError, ValueError, OverflowError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    payload = {"subcommand": args.subcommand, "seed": args.seed,
               "threads": threads,
               "threads_applied": threadpool_limits is not None, **payload}
    report_path = _write_report(args.out, args.subcommand, payload)
    for name, header, rows in dumps:
        _write_rows(args.out, name, header, rows)
    print(f"report: {report_path} "
          f"(exit {code}, {time.perf_counter() - t0:.1f}s)")
    return code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
