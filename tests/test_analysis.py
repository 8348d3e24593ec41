"""Tests for the statistical checks and experiment drivers."""

import json

import numpy as np
import pytest
from scipy.special import gamma

import pinning_lab.analysis as an
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

    def test_save_round_trip(self, tmp_path):
        rep = an.ExperimentReport("demo", {"b": 2.5}, 9)
        f = tmp_path / "r.json"
        rep.save(f)
        d = json.loads(f.read_text())
        assert d["config"] == {"b": 2.5} and d["seed"] == 9


SMALL = {
    "z-properties": an.ZPropertiesConfig(
        M=512, replicas=400, translation_replicas=300, translation_M=256,
        residual_replicas=2, residual_M=256, residual_grid=128),
    "convergence": an.ConvergenceConfig(
        n_ladder=(64, 128), replicas=(300, 200), continuum_replicas=300,
        continuum_M=256, fdd_replicas=40),
    "averaged-abs-continuity": an.AveragedConfig(
        M=256, w_replicas=150, draws=6, grid=64, n_boot=40),
    "singularity": an.SingularityConfig(
        replicas=400, M=256, martingale_pairs=4, martingale_M=256,
        covering_draws=40, covering_levels=(5, 6, 7), regen_depth=10),
}


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
        cfg = SMALL["averaged-abs-continuity"]
        rep = an.experiment_averaged_abs_continuity(cfg, seed=4)
        assert 0 <= rep.estimates["unstable_tables"] <= cfg.w_replicas

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

    def test_pinned_reference_branch(self):
        cfg = an.ConvergenceConfig(beta_hat=0.0, n_ladder=(64,),
                                   replicas=(100,), pinned_replicas=500)
        rep = an.experiment_convergence(cfg, seed=4)
        assert "pinned_g_ks" in rep.verdicts
        assert 0.0 < rep.estimates["g_mean"] < 1.0
        assert rep.estimates["pinned_underflows"] == 0
