"""Tests of the benchmark itself: its references, its checks, its tracer and
its command. Run with ``python3 -m pytest perfbench -q`` from the repository
root."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from pinning_lab import continuum as ct  # noqa: E402
from pinning_lab import renewal as rn  # noqa: E402
from pinning_lab.rng import stream  # noqa: E402

ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def _round(name, seed=3):
    wl = WORKLOADS[name]
    state = wl.setup(seed, small=True)
    results = {}
    for op in wl.ops(state):
        results[op.name] = op.fn(results)
    return wl.outputs(state, results)


@pytest.fixture(scope="module")
def rounds():
    return {name: _round(name) for name in WORKLOADS}


def _rejects(name, out, p, **changes):
    bad = dict(out, **changes)
    return bool(checks.CHECKS[name](bad, p))


# ---------------------------------------------------------------------------
# references


@pytest.mark.parametrize("t1", [0.4, 0.5])
def test_marginal_cdfs_integrate_their_densities(t1):
    a = 0.75
    c = np.sin(np.pi * a) / np.pi
    fx = lambda x: c * (1 - t1) ** a * x ** (a - 1) * (t1 - x) ** -a / (1 - x)
    fy = lambda y: c * t1 ** a * (1 - y) ** (a - 1) * (y - t1) ** -a / y
    assert checks.g_marginal_cdf(a, t1, t1) == pytest.approx(1.0, abs=1e-12)
    assert checks.d_marginal_cdf(a, t1, 1.0) == pytest.approx(1.0, abs=1e-12)
    for x in (0.05, t1 / 2, 0.9 * t1):
        ref = integrate.quad(fx, 0, x, limit=200)[0]
        assert checks.g_marginal_cdf(a, t1, x) == pytest.approx(ref, rel=1e-8)
    for y in (t1 + 0.05, (1 + t1) / 2, 0.95):
        ref = integrate.quad(fy, t1, y, limit=200)[0]
        assert checks.d_marginal_cdf(a, t1, y) == pytest.approx(ref, rel=1e-8)


def test_second_moment_series_matches_the_program():
    spans = np.array([0.01, 0.3, 1.0, 2.0])
    for b in (0.1, 0.5, 1.0):
        assert np.allclose(checks.second_moment_series(0.75, b, spans),
                           ct.z_second_moment_series(0.75, b, spans),
                           rtol=1e-13)


def test_exact_g_law_matches_direct_sum():
    k = rn.matched_power_kernel(0.75, 64)
    u = rn.renewal_function(k, 64).u
    N, t = 64, 20
    direct = [u[x] * sum(k.k[y - x] * u[N - y] for y in range(t + 1, N + 1))
              / u[N] for x in range(t + 1)]
    assert np.allclose(checks.exact_g_law(u, k.k, N, t), direct, rtol=1e-10)


# ---------------------------------------------------------------------------
# checks accept the program's outputs and reject corrupted ones


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_checks_pass_on_program_outputs(rounds, name):
    out, p = rounds[name]
    assert checks.CHECKS[name](out, p) == []


def test_z_batch_rejects(rounds):
    out, p = rounds["z-batch"]
    name = "z-batch"
    assert _rejects(name, out, p, z_h0=out["z_h0"] * 1.05,
                    z_h=out["z_h"] * 1.05, ladder=out["ladder"] * 1.05)
    assert _rejects(name, out, p, ladder=1 + 3 * (out["ladder"] - 1))
    assert _rejects(name, out, p, z_h=out["z_h0"])
    assert _rejects(name, out, p, ladder=out["ladder"][::-1])
    neg = out["z_h0"].copy()
    neg[0] = -neg[0]
    assert _rejects(name, out, p, z_h0=neg)


def test_pinning_ladder_rejects(rounds):
    out, p = rounds["pinning-ladder"]
    name = "pinning-ladder"
    assert _rejects(name, out, p, small=out["small"] * 1.05)
    N = p["ladder"][-1]
    assert _rejects(name, out, p, **{f"rung_{N}": out[f"rung_{N}"] * 1.5})
    law = out["law"].copy()
    law[3] += 1e-6
    assert _rejects(name, out, p, law=law)
    assert _rejects(name, out, p, g=out["g"] // 2)
    u = out["u"].copy()
    u[7] *= 1 + 1e-6
    assert _rejects(name, out, p, u=u)
    assert _rejects(name, out, p, ks_program=(out["ks_program"][0] + 0.01, 1.0))
    assert _rejects(name, out, p, paths=[q[:-1] for q in out["paths"]])
    assert _rejects(name, out, p, config_freq=out["config_freq"][::-1])


def test_exact_laws_rejects(rounds):
    out, p = rounds["exact-laws"]
    name = "exact-laws"
    N = p["ladder"][1]
    law = out[f"glaw_{N}"].copy()
    law[N // 4] += 1e-6
    assert _rejects(name, out, p, **{f"glaw_{N}": law})
    assert _rejects(name, out, p, **{f"u_{N}": out[f"u_{N}"] * 1.05})
    assert _rejects(name, out, p, ratio_1e5=out["ratio_1e5"] * 1.05)
    u = out["u_1e5"].copy()
    u[50] *= 1 + 1e-9
    assert _rejects(name, out, p, u_1e5=u)
    assert _rejects(name, out, p, smooth=(False, out["smooth"][1]))
    bu = out["bessel_u"].copy()
    bu[100] *= 1.05
    assert _rejects(name, out, p, bessel_u=bu)
    assert _rejects(name, out, p, bessel_k=out["bessel_k"] * np.arange(
        len(out["bessel_k"])) ** 0.2)


def test_quenched_paths_rejects(rounds):
    out, p = rounds["quenched-paths"]
    name = "quenched-paths"
    assert _rejects(name, out, p, xs=out["ys"], ys=out["xs"])
    assert _rejects(name, out, p, masses=out["masses"] * 1.05)
    assert _rejects(name, out, p, weights=out["weights"] * 1.5,
                    masses=out["masses"] * 1.5)
    assert _rejects(name, out, p, f8=out["f8"] * 0.5)
    assert _rejects(name, out, p, dv=out["dv"] * 1.05)
    assert _rejects(name, out, p, box=out["box"] ** 1.5)
    assert _rejects(name, out, p, cover=out["cover"] * 10)
    ks = out["ks_program"].copy()
    ks[0, 0] += 0.1
    assert _rejects(name, out, p, ks_program=ks)


def test_weighted_ks_check_has_power():
    """Draws from the reference law pass; draws from another law fail."""
    rng = stream(5, 0)
    a, t1, n = 0.75, 0.4, 4000
    # the density is singular at both ends: refine the inversion grid there
    half = np.geomspace(1e-14, t1 / 2, 10000)
    grid = np.unique(np.concatenate([[0.0], half, t1 - half[::-1], [t1]]))
    F = checks.g_marginal_cdf(a, t1, grid)
    good = np.interp(rng.random(n), F, grid)
    w = np.ones(n)
    cdf = lambda v: checks.g_marginal_cdf(a, t1, v)
    assert checks.ks_weighted(good, w, cdf) * np.sqrt(n) <= checks.KS_CRIT
    bad = rng.random(n) * t1
    assert checks.ks_weighted(bad, w, cdf) * np.sqrt(n) > checks.KS_CRIT


# ---------------------------------------------------------------------------
# tracer


def test_tracer_records_nested_spans_and_restores():
    original = ct.z_profile_from
    t = tr.Tracer()
    with tr.installed(t):
        assert ct.z_profile_from is not original
        spec = ct.ChaosSpec(alpha=0.75, beta_hat=0.5, M=64)
        ze = ct.ZEvaluator(spec, ct.sample_brownian(1.0, 64, stream(1, 0)))
        t.phase = tr.ROUND
        ct.CdpmFddSampler(ze, 0.4, grid=16)
    assert ct.z_profile_from is original
    s = tr.summarize(t, 1, 1)
    build = s["continuum.CdpmFddSampler.build"]
    assert build["calls"] == 1
    # tables of 16, 32 and 64 cells a side: 2 (16 + 32 + 64) lookups
    assert build["lookups"] == 224
    assert s["continuum.ZEvaluator.z_from"]["calls"] == 112
    assert s["continuum.z_profile_from"]["calls"] == 1
    assert 0 <= build["self_s"] <= build["busy_s"]


# ---------------------------------------------------------------------------
# the command


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_small_run(name, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
         "7", "--seconds", "1", "--trace", str(trace), "--small"],
        capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    names = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(res["metrics"]) == names


def test_refuses_without_program():
    """A directory holding only BENCHMARK.json and perfbench/ has no
    program to measure: the command fails and prints no result."""
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload",
             "pinning-ladder", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, env=ENV, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
