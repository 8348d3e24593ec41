"""Tests for the statistical checks and experiment drivers."""

import json
from dataclasses import dataclass, fields

import numpy as np
import pytest
from scipy.special import gamma

import loop_reference
import pinning_lab.analysis as an
from pinning_lab import continuum as ct
from pinning_lab import discrete_pinning as dp
from pinning_lab import renewal as rn
from pinning_lab.rng import stream


class TestKsTwoSample:

    def test_identical_samples_high_p(self):
        rng = stream(11, 0)
        a = rng.uniform(size=500)
        stat, p = an.ks_two_sample(a, a)
        assert stat == 0.0
        assert p == pytest.approx(1.0)

    def test_shifted_uniforms(self):
        rng = stream(11, 1)
        a = rng.uniform(0.0, 1.0, size=20_000)
        b = rng.uniform(0.1, 1.1, size=20_000)
        stat, p = an.ks_two_sample(a, b)
        assert stat == pytest.approx(0.1, abs=0.02)
        assert p < 1e-6

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            an.ks_two_sample(np.arange(10), np.arange(100))

    def test_p_roughly_uniform_under_null(self):
        rng = stream(11, 2)
        ps = []
        for _ in range(40):
            a = rng.standard_normal(200)
            b = rng.standard_normal(200)
            ps.append(an.ks_two_sample(a, b)[1])
        ps = np.asarray(ps)
        assert np.mean(ps < 0.1) < 0.35
        assert np.mean(ps) > 0.25


class TestWeightedKs:

    def test_requires_matching_shapes(self):
        rng = stream(12, 0)
        with pytest.raises(ValueError):
            an.weighted_ks(np.zeros((5, 3)), np.ones(4),
                           np.linspace(0, 1, 10), np.linspace(0, 1, 10),
                           rng)

    def test_ess_equal_weights(self):
        rng = stream(12, 1)
        vals = rng.uniform(size=(50, 4))
        grid = np.linspace(0.0, 1.0, 64)
        _, _, ess = an.weighted_ks(vals, np.ones(50), grid, grid, rng,
                                   n_boot=30)
        assert ess == pytest.approx(50.0)

    def test_null_accepts_true_cdf(self):
        rng = stream(12, 2)
        vals = rng.uniform(size=(200, 4))
        w = rng.uniform(0.5, 1.5, size=200)
        grid = np.linspace(0.0, 1.0, 128)
        stat, p, _ = an.weighted_ks(vals, w, grid, grid, rng, n_boot=200)
        assert p > 0.01
        assert stat < 0.1

    def test_rejects_wrong_cdf(self):
        rng = stream(12, 3)
        vals = rng.uniform(size=(200, 4)) ** 2.0
        grid = np.linspace(0.0, 1.0, 128)
        stat, p, _ = an.weighted_ks(vals, np.ones(200), grid, grid, rng,
                                    n_boot=200)
        assert stat > 0.2
        assert p < 0.02


    @pytest.mark.parametrize("R, m, ties", [(37, 1, False), (128, 16, False),
                                            (201, 3, True), (64, 4, True)])
    def test_matches_replicate_loop(self, R, m, ties):
        # the one-product bootstrap against one weighted ECDF per replicate:
        # (stat, p, ess) equal, and the generator left in the same state;
        # the values follow the grid's law, so p is not pinned at its floor
        grid = np.linspace(0.0, 1.0, 97)
        for seed in range(4):
            data = stream(seed, 40)
            vals = data.random((R, m))
            if ties:
                vals = np.round(vals * 24) / 24
            w = data.lognormal(0.0, 1.0, R)
            got, ref = stream(seed, 41), stream(seed, 41)
            res = an.weighted_ks(vals, w, grid, grid, got, n_boot=150)
            assert res == loop_reference.weighted_ks(vals, w, grid, grid, ref,
                                                     n_boot=150)
            assert 1 / 151 < res[1] < 1
            assert got.random(4).tobytes() == ref.random(4).tobytes()


class TestDirichlet:

    def test_closed_form_chi_zero(self):
        # gaps enter with power 0, so the integral is the simplex volume
        assert an._dirichlet_closed_form(0.0, 1) == pytest.approx(1.0)
        assert an._dirichlet_closed_form(0.0, 3) == pytest.approx(1.0 / 6.0)

    def test_closed_form_half(self):
        assert an._dirichlet_closed_form(0.5, 1) == pytest.approx(np.pi)
        assert an._dirichlet_closed_form(0.5, 2) == pytest.approx(
            2.0 * np.pi, rel=1e-12)
        assert an._dirichlet_closed_form(0.5, 2) == pytest.approx(
            gamma(0.5) ** 3 / gamma(1.5), rel=1e-12)

    @pytest.mark.parametrize("chi", [0.0, 0.3, 0.5])
    @pytest.mark.parametrize("k", [1, 2])
    def test_quadrature_matches(self, chi, k):
        num = an._dirichlet_quadrature(chi, k)
        ref = an._dirichlet_closed_form(chi, k)
        assert num == pytest.approx(ref, rel=1e-6)

    def test_qmc_matches(self):
        num = an._dirichlet_qmc(0.3, 3, seed=5, log2_n=14)
        ref = an._dirichlet_closed_form(0.3, 3)
        assert num == pytest.approx(ref, rel=5e-3)

    def test_check_report(self):
        chk = an.dirichlet_integral_check(0.5, 1, seed=0)
        assert chk.rel_err < 1e-6
        assert chk.closed_form == pytest.approx(np.pi)
        assert chk.bound_ok
        assert chk.c2 > 0
        assert chk.two_block_ok

    def test_envelope_dominates_ladder(self):
        chk = an.dirichlet_integral_check(0.3, 1, seed=0)
        for k in range(1, 41):
            env = chk.c1 * np.exp(-chk.c2 * k * np.log(k))
            assert an._dirichlet_closed_form(0.3, k) <= env * (1 + 1e-9)


class TestExperimentReport:

    def test_passed_and_json(self):
        rep = an.ExperimentReport("demo", {"a": 1}, 3)
        rep.verdicts["x"] = True
        assert rep.passed
        d = json.loads(rep.to_json())
        assert d["passed"] and "wall_clock" in d
        rep.verdicts["y"] = False
        assert not rep.passed

    def test_reproducible_payload_drops_wall_clock(self):
        rep = an.ExperimentReport("demo", {}, 0, wall_clock=1.23)
        d = json.loads(rep.to_json(include_wall_clock=False))
        assert "wall_clock" not in d

    def test_report_json_writes_numpy_as_python(self):
        text = an.report_json({"i": np.int64(3), "b": np.bool_(True),
                               "f": np.float64(0.1), "g": np.float32(0.5),
                               "a": np.arange(3), "t": (np.int32(1), 2.0),
                               "m": np.eye(2, dtype=bool)})
        assert json.loads(text) == {"a": [0, 1, 2], "b": True, "f": 0.1,
                                    "g": 0.5, "i": 3, "t": [1, 2.0],
                                    "m": [[True, False], [False, True]]}
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2)

    @pytest.mark.parametrize("bad", [np.nan, np.float64(np.inf),
                                     np.array([0.0, -np.inf])])
    def test_report_json_refuses_nan(self, bad):
        with pytest.raises(ValueError, match="not JSON compliant"):
            an.report_json({"x": bad})
        rep = an.ExperimentReport("demo", {}, 0, estimates={"x": bad})
        with pytest.raises(ValueError, match="not JSON compliant"):
            rep.to_json()


SMALL = {
    "z-properties": an.ZPropertiesConfig(
        M=512, replicas=400, translation_replicas=300, translation_M=256,
        residual_replicas=2, residual_M=256, residual_grid=32),
    "convergence": an.ConvergenceConfig(
        n_ladder=(64, 128), replicas=(300, 200), continuum_replicas=300,
        continuum_M=256, fdd_replicas=40),
    "averaged-abs-continuity": an.AveragedConfig(
        M=256, w_replicas=150, draws=6, grid=64, n_boot=40),
    "singularity": an.SingularityConfig(
        replicas=400, M=256, martingale_pairs=4, martingale_M=256,
        covering_draws=40, covering_levels=(5, 6, 7), regen_depth=10),
}


def unbounded(cfg_cls) -> list[str]:
    """The int and tuple fields of a config class that declare no bound."""
    return [f.name for f in fields(cfg_cls)
            if isinstance(f.default, (int, tuple)) and "bound" not in f.metadata]


def test_every_count_and_tuple_declares_a_bound():
    # the runner checks only declared bounds: an undeclared one is a count
    # or a ladder whose too-small values reach the experiment's work
    assert {name: unbounded(cfg_cls)
            for name, (cfg_cls, _) in an.EXPERIMENTS.items()} == {
        name: [] for name in an.EXPERIMENTS}


def test_bound_guard_flags_an_undeclared_bound():
    @dataclass(frozen=True)
    class Demo:
        x: float = 0.5
        n: int = an._bound(1, 4)
        m: int = 3
        ladder: tuple = (1, 2)
        name: str = "a"

    assert unbounded(Demo) == ["m", "ladder"]


class TestExperimentsSmall:
    """Each driver runs end to end at reduced sizes; statistical verdicts
    are not asserted here, only structure and reproducibility."""

    @pytest.mark.parametrize("name", sorted(SMALL))
    def test_runs_and_reports(self, name):
        cfg_cls, fn = an.EXPERIMENTS[name]
        cfg = SMALL[name]
        assert isinstance(cfg, cfg_cls)
        rep = fn(cfg, seed=4)
        assert rep.experiment == name
        assert rep.seed == 4
        assert rep.verdicts
        assert all(np.isfinite(v) for v in rep.estimates.values()
                   if isinstance(v, float))
        assert rep.wall_clock > 0

    def test_health_counters(self):
        rep = an.experiment_convergence(SMALL["convergence"], seed=4)
        assert rep.estimates["pinned_underflows"] == 0
        assert 0.0 <= rep.estimates["pinned_norm_error"] <= 1e-13
        rep = an.experiment_singularity(SMALL["singularity"], seed=4)
        for row in rep.tests["fractional_moments"]:
            assert isinstance(row["z_nonpositive"], int)
            assert 0 <= row["z_nonpositive"] <= SMALL["singularity"].replicas
        cfg = SMALL["averaged-abs-continuity"]
        rep = an.experiment_averaged_abs_continuity(cfg, seed=4)
        assert 0 < rep.estimates["max_table_residual"] < 1e-2
        assert 0 < rep.estimates["table_residual_floor"] < 1e-3
        assert 0 < rep.estimates["clipped_mass"] < 1e-6

    def test_table_residual_floor_without_disorder(self):
        cfg = an.AveragedConfig(beta_hat=0.0, M=128, w_replicas=20, draws=2,
                                grid=64, n_boot=10)
        est = an.experiment_averaged_abs_continuity(cfg, seed=4).estimates
        assert est["max_table_residual"] == pytest.approx(
            est["table_residual_floor"], rel=0, abs=1e-14)

    def test_byte_identical_rerun(self):
        cfg_cls, fn = an.EXPERIMENTS["averaged-abs-continuity"]
        cfg = SMALL["averaged-abs-continuity"]
        a = fn(cfg, seed=7).to_json(include_wall_clock=False)
        b = fn(cfg, seed=7).to_json(include_wall_clock=False)
        assert a == b

    def test_seed_changes_output(self):
        cfg_cls, fn = an.EXPERIMENTS["z-properties"]
        cfg = SMALL["z-properties"]
        a = fn(cfg, seed=1).tests["scaling_ks"]["stat"]
        b = fn(cfg, seed=2).tests["scaling_ks"]["stat"]
        assert a != b

    def test_renewal_residual_is_the_samplers(self):
        # residual_grid is a sampler grid: tables of 4 residual_grid and
        # 8 residual_grid cells a side, over the residual environments
        cfg = SMALL["z-properties"]
        rep = an.experiment_z_properties(cfg, seed=4)
        rng = stream(4, 2)
        ws = [ct.sample_brownian(1.0, cfg.residual_M, rng).w
              for _ in range(cfg.residual_replicas)]
        ze = ct.ZEvaluator(
            ct.ChaosSpec(alpha=cfg.alpha, beta_hat=0.5, M=cfg.residual_M),
            ct.BrownianPath(1.0, cfg.residual_M, np.array(ws)))
        got = rep.tests["renewal_residual"]
        for key, g in (("coarse", cfg.residual_grid),
                       ("fine", 2 * cfg.residual_grid)):
            smp = ct.CdpmFddSampler(ze, cfg.residual_t1, g)
            assert smp.ref.shape == (4 * g, 4 * g)
            assert got[key] == float(np.mean(smp.residual))

    def test_ladder_needs_one_replicas_entry_per_rung(self):
        # zip would drop the last rung and gate on N = 128's moments
        cfg = an.ConvergenceConfig(n_ladder=(64, 128, 256),
                                   replicas=(200, 150))
        with pytest.raises(ValueError, match="one replicas entry per"):
            an.experiment_convergence(cfg, seed=4)

    def test_pinned_reference_branch(self):
        cfg = an.ConvergenceConfig(beta_hat=0.0, n_ladder=(64,),
                                   replicas=(100,), pinned_replicas=500)
        rep = an.experiment_convergence(cfg, seed=4)
        assert "pinned_g_ks" in rep.verdicts
        assert 0.0 < rep.estimates["g_mean"] < 1.0
        assert rep.estimates["pinned_underflows"] == 0
        # every path's last step comes from a full row
        assert 0.0 < rep.estimates["pinned_norm_error"] <= 1e-13


class TestPlantedDefects:
    """A verdict that no defect can flip shows nothing: each test plants a
    defect and asserts that the verdicts it breaks fail."""

    def test_weighted_ks_flags_wrong_draws(self, monkeypatch):
        cfg = SMALL["averaged-abs-continuity"]
        rep = an.experiment_averaged_abs_continuity(cfg, seed=4)
        assert rep.verdicts["weighted_ks_g"] and rep.verdicts["weighted_ks_d"]
        # g and d uniform on (0, t1), where the reference d has no mass
        monkeypatch.setattr(ct.CdpmFddSampler, "draw", lambda self, u: (
            np.moveaxis(u[..., :2, :], -2, -1) * self.t1))
        rep = an.experiment_averaged_abs_continuity(cfg, seed=4)
        for name in ("weighted_ks_g", "weighted_ks_d"):
            t = rep.tests[name]
            assert t["stat"] <= 1.0
            assert t["sqrt_ess_stat"] == pytest.approx(
                np.sqrt(rep.estimates["ess"]) * t["stat"], rel=1e-15)
            assert not rep.verdicts[name]
            # the bootstrap p cannot fall below 1/(n_boot + 1)
            assert t["p"] > cfg.ks_threshold


class TestStreamOrder:
    """The experiments build every environment's table at once, after
    drawing all random inputs; their CDPM draws equal, bit for bit, those of
    a loop over one environment at a time in the stream order of the
    per-path code (criterion 9's small configs and seed)."""

    @staticmethod
    def batched_draws(monkeypatch, run):
        got = []
        draw = ct.CdpmFddSampler.draw

        def capture(self, u):
            got.append(draw(self, u))
            return got[-1]

        monkeypatch.setattr(ct.CdpmFddSampler, "draw", capture)
        run()
        (out,) = got
        return out

    @staticmethod
    def per_path(spec, t1, grid, R, n, rng):
        out = []
        for _ in range(R):
            ze = ct.ZEvaluator(spec, ct.sample_brownian(spec.T, spec.M, rng))
            smp = ct.CdpmFddSampler(ze, t1, grid=grid)
            out.append(smp.draw(np.array([rng.random(n) for _ in range(3)])))
        return np.array(out)

    def test_averaged(self, monkeypatch):
        cfg = an.AveragedConfig(M=128, w_replicas=120, draws=4, grid=64,
                                n_boot=30)
        got = self.batched_draws(monkeypatch, lambda: (
            an.experiment_averaged_abs_continuity(cfg, 109)))
        spec = ct.ChaosSpec(alpha=cfg.alpha, beta_hat=cfg.beta_hat, M=cfg.M)
        np.testing.assert_array_equal(got, self.per_path(
            spec, cfg.t1, cfg.grid, cfg.w_replicas, cfg.draws,
            stream(109, 0)))

    def test_convergence(self, monkeypatch):
        cfg = an.ConvergenceConfig(n_ladder=(64, 128), replicas=(200, 150),
                                   continuum_replicas=200, continuum_M=128,
                                   fdd_replicas=35)
        got = self.batched_draws(
            monkeypatch, lambda: an.experiment_convergence(cfg, 109))
        # the pinned draws come first in the stream
        rng = stream(109, 20)
        kernel = rn.matched_power_kernel(cfg.alpha, 128)
        scale = dp.scale_couplings(cfg.beta_hat, cfg.h_hat, 128, kernel)
        for _ in range(cfg.fdd_replicas):
            dis = dp.sample_disorder(cfg.disorder, 127, rng)
            dp.build_pinned_sampler(kernel, dis, scale.beta_N, scale.h_N,
                                    128).sample(rng)
        spec = ct.ChaosSpec(alpha=cfg.alpha, beta_hat=cfg.beta_hat, M=512)
        np.testing.assert_array_equal(got, self.per_path(
            spec, cfg.t1, 128, cfg.fdd_replicas, 1, rng))
