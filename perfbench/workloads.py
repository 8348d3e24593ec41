"""The four workloads.

Each workload builds its inputs once (``setup``), lists the operations of one
round (``ops``: name and a callable that receives the round's earlier
results), and turns a round's results into the plain arrays its check reads
(``outputs``). Every round repeats the same operations on the same inputs, so
rounds differ only in when they ran. All randomness comes from
``stream(seed, id)``; the same seed gives the same inputs and the same draws.
The program is reached only through module attributes (``ct.z_point_batch``),
so the tracer's wrappers see every call.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from pinning_lab import analysis as an
from pinning_lab import closed_sets as cs
from pinning_lab import continuum as ct
from pinning_lab import discrete_pinning as dp
from pinning_lab import renewal as rn
from pinning_lab.rng import stream


ALPHA = 0.75


class Op(NamedTuple):
    """One timed call. Operations of one kind cost the same whatever their
    input (same sizes, no data-dependent work), so they share one timing."""

    name: str
    fn: Callable[[dict], object]
    kind: str | None = None


def block_spans(points: np.ndarray, n: int) -> np.ndarray:
    """b - a over the occupied level-n dyadic blocks of [0, 1], a and b the
    extreme points inside a block (a point on a boundary closes its block)."""
    j = np.ceil(points * 2.0 ** n).astype(np.int64)
    j[points == 0.0] = 1
    first = np.flatnonzero(np.concatenate([[True], np.diff(j) != 0]))
    last = np.concatenate([first[1:], [len(points)]]) - 1
    return points[last] - points[first]


# ---------------------------------------------------------------------------


class ZBatch:
    """Z(0, 1) for many environments at once through z_point_batch."""

    def setup(self, seed: int, small: bool) -> dict:
        big, n_big, m, n_m, chunks = ((256, 64, 128, 64, 2) if small
                                      else (4096, 250, 1024, 250, 4))
        rng = stream(seed, 0)
        p = {"alpha": ALPHA, "beta_big": 0.5, "h_hat": 0.5, "gamma": 0.4,
             "beta_ladder": (0.1, 0.2, 0.4), "chunk": n_m, "chunks": chunks}
        return {
            "p": p,
            "inc_big": rng.standard_normal((n_big, big)) / np.sqrt(big),
            "inc_m": rng.standard_normal((chunks * n_m, m)) / np.sqrt(m),
            "spec_h0": ct.ChaosSpec(alpha=ALPHA, beta_hat=0.5, M=big),
            "spec_h": ct.ChaosSpec(alpha=ALPHA, beta_hat=0.5, h_hat=0.5, M=big),
            "ladder": [ct.ChaosSpec(alpha=ALPHA, beta_hat=b, M=m)
                       for b in p["beta_ladder"]],
        }

    def ops(self, s: dict) -> list[Op]:
        def z(spec, inc):
            return lambda r: ct.z_point_batch(spec, inc, 0.0, 1.0)
        out = [Op("z_h0", z(s["spec_h0"], s["inc_big"]), "z_big"),
               Op("z_h", z(s["spec_h"], s["inc_big"]), "z_big")]
        n = s["p"]["chunk"]
        for b, spec in zip(s["p"]["beta_ladder"], s["ladder"]):
            for c in range(s["p"]["chunks"]):
                out.append(Op(f"z_{b}_{c}", z(spec, s["inc_m"][c * n:(c + 1) * n]),
                              "z_ladder"))
        return out

    def outputs(self, s: dict, r: dict) -> tuple[dict, dict]:
        p = s["p"]
        ladder = np.array([np.concatenate([r[f"z_{b}_{c}"]
                                           for c in range(p["chunks"])])
                           for b in p["beta_ladder"]])
        return ({"z_h0": r["z_h0"], "z_h": r["z_h"],
                 "w_T": s["inc_big"].sum(axis=1), "ladder": ladder}, p)


class PinningLadder:
    """Batched Z_N up the N ladder, one reused beta_hat = 0 sampler, and
    quenched samplers built one per disorder."""

    def setup(self, seed: int, small: bool) -> dict:
        if small:
            N0, ladder, R, chunks, Nq, nq, n_draw, n_draw_ops = (
                256, (64, 128), 64, 1, 128, 2, 50, 2)
        else:
            N0, ladder, R, chunks, Nq, nq, n_draw, n_draw_ops = (
                4096, (512, 1024, 2048), 250, 2, 2048, 6, 100, 4)
        p = {"alpha": ALPHA, "c": 0.5, "N0": N0, "ladder": ladder,
             "N_quenched": Nq, "beta_hat": 0.5, "n_config": 8,
             "config_draws": 4000, "n_small": 14}
        rng = stream(seed, 0)
        kernel = rn.matched_power_kernel(ALPHA, N0)
        rf = rn.renewal_function(kernel, N0)
        rungs = []
        for N in ladder:
            sc = dp.scale_couplings(p["beta_hat"], 0.0, N, kernel)
            for c in range(chunks):
                rungs.append((N, c, rng.standard_normal((R, N - 1)),
                              sc.beta_N, sc.h_N))
        free = dp.DisorderField(np.zeros(N0 - 1), "standard-normal")
        sampler0 = dp.build_pinned_sampler(kernel, free, 0.0, 0.0, N0)
        law = rn.conditioned_g_law(rf, N0, N0 // 2)
        ref = np.searchsorted(np.cumsum(law), stream(seed, 1).random(4000)
                              * np.sum(law))
        scq = dp.scale_couplings(p["beta_hat"], 0.0, Nq, kernel)
        quenched = [dp.sample_disorder("standard-normal", Nq - 1, rng)
                    for _ in range(nq)]
        return {"p": p, "kernel": kernel, "rf": rf, "rungs": rungs, "law": law,
                "sampler0": sampler0, "ks_reference": ref.astype(float),
                "draws": (n_draw_ops, n_draw), "quenched": quenched,
                "coupling_q": (scq.beta_N, scq.h_N),
                "small_omega": rng.standard_normal((4, p["n_small"] - 1)),
                "config_disorder": dp.sample_disorder(
                    "standard-normal", p["n_config"] - 1, rng),
                "seed": seed}

    def ops(self, s: dict) -> list[Op]:
        p, kernel, rf = s["p"], s["kernel"], s["rf"]
        out = []
        for N, c, om, b, h in s["rungs"]:
            out.append(Op(f"dp_{N}_{c}", lambda r, N=N, om=om, b=b, h=h:
                          dp.partition_dp_batch(kernel, rf, om,
                                                "standard-normal", b, h, N),
                          f"dp_{N}"))
        out.append(Op("dp_small", lambda r: dp.partition_dp_batch(
            kernel, rf, s["small_omega"], "standard-normal", 0.8, 0.1,
            p["n_small"])))
        n_ops, n_draw = s["draws"]
        t0 = p["N0"] // 2

        def draws(j):
            def fn(r):
                rng = stream(s["seed"], 100 + j)
                return np.array([cs.g_map(s["sampler0"].sample(rng), t0)
                                 for _ in range(n_draw)])
            return fn
        out += [Op(f"draws_{j}", draws(j)) for j in range(n_ops)]
        out.append(Op("ks", lambda r: an.ks_two_sample(
            np.concatenate([r[f"draws_{j}"] for j in range(n_ops)]),
            s["ks_reference"])))
        bq, hq = s["coupling_q"]

        def quenched(i, dis):
            def fn(r):
                rng = stream(s["seed"], 200 + i)
                smp = dp.build_pinned_sampler(kernel, dis, bq, hq,
                                              p["N_quenched"])
                return [smp.sample(rng).points for _ in range(4)]
            return fn
        out += [Op(f"quenched_{i}", quenched(i, dis), "quenched")
                for i, dis in enumerate(s["quenched"])]

        def configs(r):
            n = p["n_config"]
            smp = dp.build_pinned_sampler(kernel, s["config_disorder"], 1.0,
                                          0.0, n)
            rng = stream(s["seed"], 300)
            bits = 2 ** np.arange(-1, n - 1, dtype=float)
            keys = [int(bits[smp.sample(rng).points[1:-1].astype(int)].sum())
                    for _ in range(p["config_draws"])]
            return np.bincount(keys, minlength=2 ** (n - 1))
        out.append(Op("configs", configs))
        return out

    def outputs(self, s: dict, r: dict) -> tuple[dict, dict]:
        p, kernel, rf = s["p"], s["kernel"], s["rf"]
        out = {f"rung_{N}": np.concatenate([r[f"dp_{M}_{c}"]
                                            for M, c, *_ in s["rungs"] if M == N])
               for N in p["ladder"]}
        out["small"] = r["dp_small"]
        out["small_exact"] = np.array([
            dp.chaos_expansion_exact(kernel, rf, dp.DisorderField(om, "standard-normal"),
                                     0.8, 0.1, p["n_small"])
            for om in s["small_omega"]])
        n_ops = s["draws"][0]
        out["g"] = np.concatenate([r[f"draws_{j}"] for j in range(n_ops)]).astype(int)
        out["ks_program"] = r["ks"]
        out["law"] = s["law"]
        out["ks_reference"] = s["ks_reference"]
        out["u"], out["k"] = rf.u, kernel.k
        out["paths"] = [pts for i in range(len(s["quenched"]))
                        for pts in r[f"quenched_{i}"]]
        n = p["n_config"]
        exact = dp.enumerate_pinned_exact(kernel, s["config_disorder"], 1.0,
                                          0.0, n)
        prob = np.zeros(2 ** (n - 1))
        for sites, pr in exact.items():
            prob[sum(2 ** (i - 1) for i in sites)] = pr
        out["config_freq"], out["config_prob"] = r["configs"], prob
        return out, p


class ExactLaws:
    """The renewal layer alone: matched kernels, u(n) and exact g-laws up a
    ladder, the CDQ u(n) with its checks, and the Bessel-walk return law."""

    def setup(self, seed: int, small: bool) -> dict:
        ladder = (256, 512, 1024) if small else tuple(2 ** e for e in range(12, 17))
        n_cdq, n_bessel = (5000, 500) if small else (100_000, 20_000)
        return {"p": {"alpha": ALPHA, "c": 0.5, "ladder": ladder},
                "power": rn.power_law_kernel(ALPHA, n_cdq), "n_cdq": n_cdq,
                "p_up": rn.bessel_p_up(ALPHA), "n_bessel": n_bessel}

    def ops(self, s: dict) -> list[Op]:
        out = []
        for N in s["p"]["ladder"]:
            out += [Op(f"kernel_{N}", lambda r, N=N: rn.matched_power_kernel(ALPHA, N)),
                    Op(f"u_{N}", lambda r, N=N: rn.renewal_function(r[f"kernel_{N}"], N)),
                    Op(f"glaw_{N}", lambda r, N=N: rn.conditioned_g_law(r[f"u_{N}"], N, N // 2))]
        n, nb = s["n_cdq"], s["n_bessel"]
        out += [Op("u_cdq", lambda r: rn.renewal_function(s["power"], n)),
                Op("asymptotics", lambda r: rn.check_asymptotics(r["u_cdq"])),
                Op("smoothness", lambda r: rn.check_smoothness(r["u_cdq"])),
                Op("bessel", lambda r: rn.bessel_like_return_law(s["p_up"], nb)),
                Op("bessel_u", lambda r: rn.renewal_function(r["bessel"], nb)),
                Op("coupling", lambda r: rn.check_coupling_bound(r["bessel_u"],
                                                                 r["bessel"]))]
        return out

    def outputs(self, s: dict, r: dict) -> tuple[dict, dict]:
        out = {}
        for N in s["p"]["ladder"]:
            out[f"u_{N}"], out[f"k_{N}"] = r[f"u_{N}"].u, r[f"kernel_{N}"].k
            out[f"glaw_{N}"] = r[f"glaw_{N}"]
        trace = r["asymptotics"]
        out["ratio_1e5"] = float(trace.ratios[-1])
        out["u_1e5"] = r["u_cdq"].u[:int(trace.ns[-1]) + 1]
        out["k_1e5"] = s["power"].k
        out["smooth"] = (r["smoothness"].passed, r["smoothness"].delta)
        out["bessel_k"], out["bessel_sf"] = r["bessel"].k, r["bessel"].survival
        out["bessel_u"] = r["bessel_u"].u
        out["violation"] = r["coupling"].max_violation
        return out, s["p"]


class QuenchedPaths:
    """The continuum layer one environment at a time: quenched (g, d)
    samplers with the weighted KS, the dyadic martingale, covering sums."""

    def setup(self, seed: int, small: bool) -> dict:
        if small:
            M, grid, n_env, draws, M_m, n_pairs, n_cover, depth = (
                128, 64, 16, 4, 256, 8, 8, 12)
        else:
            M, grid, n_env, draws, M_m, n_pairs, n_cover, depth = (
                512, 128, 128, 16, 2048, 64, 64, 18)
        p = {"alpha": ALPHA, "t1": 0.4, "beta_mart": 1.0, "levels_mart": (2, 8),
             "levels": tuple(range(6, depth - 3))}
        m, xe, ye = ct.reference_fdd_table(ALPHA, 1.0, p["t1"], 512)
        Fx = np.concatenate([[0.0], np.cumsum(m.sum(axis=1))])
        Fy = np.concatenate([[0.0], np.cumsum(m.sum(axis=0))])
        return {"p": p, "seed": seed, "grid": grid, "draws": draws,
                "n_env": n_env, "n_pairs": n_pairs, "n_cover": n_cover,
                "depth": depth, "M_m": M_m,
                "spec": ct.ChaosSpec(alpha=ALPHA, beta_hat=0.5, M=M),
                "spec_m": ct.ChaosSpec(alpha=ALPHA, beta_hat=1.0, M=M_m),
                "ref": (xe, Fx / Fx[-1], ye, Fy / Fy[-1])}

    def ops(self, s: dict) -> list[Op]:
        p, seed = s["p"], s["seed"]

        def env(i):
            def fn(r):
                rng = stream(seed, 1000 + i)
                path = ct.sample_brownian(1.0, s["spec"].M, rng)
                ze = ct.ZEvaluator(s["spec"], path)
                w = ze.z0T()
                smp = ct.CdpmFddSampler(ze, p["t1"], grid=s["grid"])
                return w, smp.mass, smp.sample(s["draws"], rng)
            return fn
        out = [Op(f"env_{i}", env(i), "env") for i in range(s["n_env"])]

        def wks(col, k):
            def fn(r):
                res = [r[f"env_{i}"] for i in range(s["n_env"])]
                vals = np.array([x[2][:, col] for x in res])
                w = np.array([x[0] for x in res])
                grid_x, grid_F = s["ref"][2 * col], s["ref"][2 * col + 1]
                return an.weighted_ks(vals, w, grid_x, grid_F,
                                      stream(seed, 3000 + k), n_boot=200)
            return fn
        out += [Op("wks_g", wks(0, 0)), Op("wks_d", wks(1, 1))]
        lo, hi = p["levels_mart"]

        def pair(j):
            def fn(r):
                rng = stream(seed, 2000 + j)
                regen = ct.sample_regen_conditioned(ALPHA, 1.0, hi + 2, rng)
                path = ct.sample_brownian(1.0, s["M_m"], rng)
                ze = ct.ZEvaluator(s["spec_m"], path)
                f_lo = ct.martingale_fn(ze, regen, lo)
                f_hi = ct.martingale_fn(ze, regen, hi)
                dv = (ct.block_variance_sum(s["spec_m"], regen, hi)
                      - ct.block_variance_sum(s["spec_m"], regen, lo))
                return f_lo, f_hi, dv, regen.set.points
            return fn
        out += [Op(f"pair_{j}", pair(j)) for j in range(s["n_pairs"])]
        expo = 2 * ALPHA - 1

        def cover(k):
            def fn(r):
                regen = ct.sample_regen_conditioned(ALPHA, 1.0, s["depth"],
                                                    stream(seed, 4000 + k))
                return ([cs.covering_sum(regen.set, n, expo, 1.0)
                         for n in p["levels"]],
                        [cs.box_count(regen.set, n, 1.0) for n in p["levels"]])
            return fn
        out += [Op(f"cover_{k}", cover(k)) for k in range(s["n_cover"])]
        return out

    def outputs(self, s: dict, r: dict) -> tuple[dict, dict]:
        env = [r[f"env_{i}"] for i in range(s["n_env"])]
        pairs = [r[f"pair_{j}"] for j in range(s["n_pairs"])]
        cover = [r[f"cover_{k}"] for k in range(s["n_cover"])]
        lo, hi = s["p"]["levels_mart"]
        out = {"weights": np.array([e[0] for e in env]),
               "masses": np.array([e[1] for e in env]),
               "xs": np.array([e[2][:, 0] for e in env]),
               "ys": np.array([e[2][:, 1] for e in env]),
               "ks_program": np.array([r["wks_g"], r["wks_d"]]),
               "f2": np.array([q[0] for q in pairs]),
               "f8": np.array([q[1] for q in pairs]),
               "dv": np.array([q[2] for q in pairs]),
               "spans2": [block_spans(q[3], lo) for q in pairs],
               "spans8": [block_spans(q[3], hi) for q in pairs],
               "cover": np.array([c[0] for c in cover]),
               "box": np.array([c[1] for c in cover])}
        return out, s["p"]


WORKLOADS = {
    "z-batch": ZBatch(),
    "pinning-ladder": PinningLadder(),
    "exact-laws": ExactLaws(),
    "quenched-paths": QuenchedPaths(),
}
