"""Tests for the command-line interface."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import pinning_lab.analysis as an
import pinning_lab.cli as cli


def _run(tmp_path, *argv):
    return cli.run(["--out", str(tmp_path), *argv])


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


def _too_small():
    """(experiment, field, value) below each declared config bound: at the
    bound - 1 for a closed bound, at the bound for an open one; a tuple
    empty, and with its first entry there; an open float at the upper end
    of its interval too."""
    for name, (cfg_cls, _) in an.EXPERIMENTS.items():
        for f in dataclasses.fields(cfg_cls):
            if "bound" not in f.metadata:
                continue
            low, high, closed = f.metadata["bound"]
            below = low - 1 if closed else low
            if isinstance(f.default, tuple):
                values = [([], "[]"), ([below, *f.default[1:]],
                                       f"[{below}, ...]")]
            else:
                values = [(v, v) for v in (below, high) if v < float("inf")]
            for v, shown in values:
                yield pytest.param(name, f.name, v,
                                   id=f"{name}-{f.name}={shown}")


def _report(tmp_path, name):
    # NaN, Infinity and -Infinity fail the parse
    with open(tmp_path / f"{name}.json") as fh:
        return json.load(fh, parse_constant=_not_json)


class TestPlumbing:

    def test_no_subcommand_is_usage_error(self, tmp_path):
        assert cli.run([]) == 1

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        assert _run(tmp_path, "partition", "--nope", "3") == 1
        capsys.readouterr()

    def test_bad_config_path(self, tmp_path, capsys):
        code = cli.run(["--config", str(tmp_path / "missing.json"),
                        "--out", str(tmp_path), "experiment",
                        "z-properties"])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    def test_unknown_experiment(self, tmp_path, capsys):
        assert _run(tmp_path, "experiment", "nope") == 1
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"not_a_field": 1}')
        code = cli.run(["--config", str(cfg), "--out", str(tmp_path),
                        "experiment", "z-properties"])
        assert code == 1
        capsys.readouterr()

    def test_kernel_is_no_config_key(self, tmp_path, capsys):
        # the convergence experiment always uses the matched kernel
        cfg = tmp_path / "c.json"
        cfg.write_text('{"kernel": "matched"}')
        code = cli.run(["--config", str(cfg), "--out", str(tmp_path),
                        "experiment", "convergence"])
        assert code == 1
        assert "unknown config keys ['kernel']" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("n_ladder", 64), ("replicas", "3000"), ("continuum_M", 512.0),
        ("t1", "0.5"), ("T", True), ("pinned_replicas", False),
        ("disorder", 1)])
    def test_config_value_of_wrong_type(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        code = cli.run(["--config", str(cfg), "--out", str(tmp_path),
                        "experiment", "convergence"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key '{key}'")
        assert err.count("\n") == 1
        assert not (tmp_path / "experiment.json").exists()

    def test_config_int_for_float_accepted(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"T": 1, "beta_hat": 0, "n_ladder": [64],
                                   "replicas": [100],
                                   "pinned_replicas": 500}))
        code = cli.run(["--config", str(cfg), "--out", str(tmp_path),
                        "experiment", "convergence"])
        capsys.readouterr()
        assert code in (0, 2)
        rep = _report(tmp_path, "experiment")
        assert rep["config"]["T"] == 1 and rep["config"]["n_ladder"] == [64]

    def test_convergence_h_hat_needs_beta_hat(self, tmp_path, capsys):
        # the beta_hat = 0 checks use the exact h = 0 law
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"beta_hat": 0.0, "h_hat": 0.3}))
        code = cli.run(["--config", str(cfg), "--out", str(tmp_path),
                        "experiment", "convergence"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "experiment.json").exists()

    def test_convergence_ladder_lengths_must_match(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"n_ladder": [64, 128, 256],
                                   "replicas": [200, 150]}))
        code = cli.run(["--config", str(cfg), "--out", str(tmp_path),
                        "experiment", "convergence"])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "experiment.json").exists()

    @pytest.mark.parametrize("name, key, value", list(_too_small()))
    def test_too_small_config_is_an_error(self, tmp_path, capsys, monkeypatch,
                                          name, key, value):
        # refused before any work: no traceback, no NaN report, and none of
        # the calls that start an experiment is made
        def work(*args, **kwargs):
            raise AssertionError("experiment work before the config check")

        monkeypatch.setattr(an, "stream", work)
        monkeypatch.setattr(an.rn, "matched_power_kernel", work)
        monkeypatch.setattr(an.ct, "ChaosSpec", work)
        monkeypatch.setattr(an.ct, "z_second_moment_series", work)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: value}))
        code = cli.run(["--config", str(cfg), "--out", str(tmp_path),
                        "experiment", name])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: need ") and err.count("\n") == 1
        assert re.search(rf"\b{key}\b", err)
        assert not (tmp_path / "experiment.json").exists()

    @pytest.mark.parametrize("levels", [[2], [2, 8, 9], [8, 2], [8, 8]])
    def test_singularity_levels_are_two_increasing(self, tmp_path, capsys,
                                                   monkeypatch, levels):
        def work(*args, **kwargs):
            raise AssertionError("fractional moments before the check")

        monkeypatch.setattr(an.ct, "z_point_batch", work)
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"levels": levels}))
        code = cli.run(["--config", str(cfg), "--out", str(tmp_path),
                        "experiment", "singularity"])
        assert code == 1
        err = capsys.readouterr().err
        assert err == "error: need two levels, low < high\n"
        assert not (tmp_path / "experiment.json").exists()

    def test_config_refusal_texts(self, tmp_path, capsys, monkeypatch):
        # each refused before any work, as in the generated test above
        def work(*args, **kwargs):
            raise AssertionError("experiment work before the config check")

        monkeypatch.setattr(an, "stream", work)
        monkeypatch.setattr(an.rn, "matched_power_kernel", work)
        monkeypatch.setattr(an.ct, "ChaosSpec", work)
        for name, overrides, message in [
                ("z-properties", {"residual_replicas": 0},
                 "need residual_replicas >= 1"),
                ("singularity", {"covering_draws": 0},
                 "need covering_draws >= 1"),
                ("singularity", {"martingale_pairs": 1},
                 "need martingale_pairs >= 2"),
                ("convergence", {"ks_threshold": 1},
                 "need ks_threshold in (0, 1)"),
                ("singularity", {"martingale_beta": -0.5},
                 "need martingale_beta >= 0"),
                ("z-properties", {"residual_t1": 1.0},
                 "need residual_t1 in (0, 1)"),
                ("singularity", {"gamma": 1.5}, "need gamma in (0, 1)"),
                ("convergence", {"n_ladder": [], "replicas": []},
                 "need one or more n_ladder entries, each >= 2"),
                ("singularity", {"regen_depth": 13},
                 "need regen_depth >= the largest covering_levels"),
                ("convergence", {"t1": 1.5}, "need 0 < t1 < T"),
                ("convergence", {"beta_hat": 0.0, "t1": 1.0},
                 "need 0 < t1 < T"),
                ("averaged-abs-continuity", {"T": 2.0, "t1": 2.0},
                 "need 0 < t1 < T"),
                ("averaged-abs-continuity", {"t1": -0.5}, "need 0 < t1 < T"),
                ("convergence", {"T": -1.0}, "need T in (0, inf)")]:
            cfg = tmp_path / "c.json"
            cfg.write_text(json.dumps(overrides))
            code = cli.run(["--config", str(cfg), "--out", str(tmp_path),
                            "experiment", name])
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"

    def test_threads_is_usage_error(self, tmp_path, capsys):
        # no thread option: the report records the settings in force
        assert _run(tmp_path, "--threads", "2", "partition", "--N", "2") == 1
        assert capsys.readouterr().err.startswith("usage: pinning-lab")
        assert not (tmp_path / "partition.json").exists()

    def test_report_records_thread_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        assert _run(tmp_path, "partition", "--N", "2") == 0
        capsys.readouterr()
        rep = _report(tmp_path, "partition")
        assert rep["thread_env"] == {"OPENBLAS_NUM_THREADS": "1",
                                     "OMP_NUM_THREADS": None}
        assert rep["cpu_count"] == os.cpu_count()

    def test_nan_report_leaves_no_file(self, tmp_path, capsys, monkeypatch):
        # NaN is not JSON: the run fails before it writes the report or a
        # CSV
        monkeypatch.setattr(cli, "_cmd_partition", lambda args, seed: (
            0, {"Z": float("nan")}, [("rows", ["x"], [(1.0,)])]))
        assert _run(tmp_path, "partition", "--N", "2") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["sample-renewal", "--n", "200", "--samples", "2"],
        ["partition", "--N", "8"],
        ["sample-pinning", "--N", "64", "--samples", "1"],
        ["sample-regen", "--depth", "4", "--samples", "1"],
        ["continuum-z", "--M", "64"],
        ["cdpm-fdd", "--M", "64", "--grid", "16", "--samples", "2"],
        ["check-renewal", "--n", "2000"],
        ["dirichlet-check", "--chi", "0.5", "--k", "1"]],
        ids=lambda argv: argv[0])
    def test_report_holds_every_option(self, tmp_path, capsys, argv):
        # each option of the subcommand, defaults included, with its value,
        # and the thread settings in force
        assert _run(tmp_path, "--seed", "3", *argv) in (0, 2)
        capsys.readouterr()
        rep = _report(tmp_path, argv[0])
        options = {k: v for k, v in vars(
            cli._build_parser().parse_args(["--seed", "3", *argv])).items()
            if k not in ("config", "out", "handler")}
        assert {k: rep[k] for k in options} == options
        assert rep["thread_env"] == {
            k: os.environ.get(k)
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        assert rep["cpu_count"] == os.cpu_count()

    def test_import_leaves_out_scipy_signal_stats_and_integrate(self):
        # scipy.stats alone takes about 0.6 s to import, and scipy.integrate
        # loads scipy.optimize and scipy.sparse.linalg; each is loaded only
        # by the calls that need it
        src = str(Path(cli.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")])}
        code = ("import sys, pinning_lab.cli; print(sorted(m for m in "
                "('scipy.signal', 'scipy.stats', 'scipy.integrate') "
                "if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "[]"


class TestPartition:

    def test_trivial_case_unit_z(self, tmp_path, capsys):
        code = _run(tmp_path, "partition", "--N", "2",
                    "--beta", "0", "--h", "0")
        capsys.readouterr()
        assert code == 0
        rep = _report(tmp_path, "partition")
        assert rep["Z"] == pytest.approx(1.0)
        assert rep["seed"] == 0 and rep["subcommand"] == "partition"

    def test_disordered_run(self, tmp_path, capsys):
        code = cli.run(["--seed", "5", "--out", str(tmp_path),
                        "partition", "--N", "64", "--beta", "0.2"])
        capsys.readouterr()
        assert code == 0
        assert _report(tmp_path, "partition")["Z"] > 0

    def test_overflow_is_an_error(self, tmp_path, capsys):
        code = _run(tmp_path, "partition", "--N", "64", "--beta", "0.5",
                    "--h", "600")
        assert code == 1
        assert "not finite" in capsys.readouterr().err


class TestSamplers:

    def test_sample_renewal_csv(self, tmp_path, capsys):
        code = _run(tmp_path, "sample-renewal", "--n", "200",
                    "--samples", "4")
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "renewal_points.csv").read_text().splitlines()
        assert lines[0] == "sample,site"
        assert len(lines) > 4

    def test_sample_renewal_conditioned(self, tmp_path, capsys):
        code = _run(tmp_path, "sample-renewal", "--n", "200",
                    "--samples", "4", "--conditioned")
        capsys.readouterr()
        assert code == 0
        rows = [line.split(",") for line in
                (tmp_path / "renewal_points.csv").read_text().splitlines()[1:]]
        for i in range(4):
            sites = [float(site) for sample, site in rows if float(sample) == i]
            assert sites[0] == 0 and sites[-1] == 200

    def test_sample_pinning(self, tmp_path, capsys):
        code = _run(tmp_path, "sample-pinning", "--N", "128",
                    "--beta-hat", "0.5", "--samples", "2")
        capsys.readouterr()
        assert code == 0
        rep = _report(tmp_path, "sample-pinning")
        assert rep["beta_N"] > 0
        assert (tmp_path / "pinned_points.csv").exists()

    @pytest.mark.parametrize("samples", ["0", "-3"])
    @pytest.mark.parametrize("sub", ["sample-renewal", "sample-pinning",
                                     "sample-regen", "cdpm-fdd"])
    def test_sample_renewal_no_samples(self, tmp_path, capsys, sub, samples):
        # every subcommand that draws samples needs at least one: a usage
        # error, not an empty CSV, a NaN mean or a numpy error
        assert _run(tmp_path, sub, "--samples", samples) == 1
        err = capsys.readouterr().err
        assert err == f"error: {sub} needs --samples >= 1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["--h-hat", "5"],
                                      ["--beta-hat", "-0.5"],
                                      ["--beta-hat", "-0.5", "--h-hat", "1"]])
    def test_sample_pinning_needs_positive_beta_hat(self, tmp_path, capsys,
                                                    argv):
        # a coupling is scaled only from beta_hat > 0, never dropped
        assert _run(tmp_path, "sample-pinning", "--N", "64", *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [["sample-pinning", "--N", "0"],
                                      ["sample-regen", "--depth", "-2"]],
                             ids=lambda argv: argv[0])
    def test_size_that_means_nothing_is_an_error(self, tmp_path, capsys,
                                                 argv):
        # an empty lattice, a set resolved coarser than its horizon
        assert _run(tmp_path, *argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_sample_regen(self, tmp_path, capsys):
        code = _run(tmp_path, "sample-regen", "--depth", "6",
                    "--samples", "3")
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "regen_points.csv").exists()

    def test_sample_regen_zero_horizon(self, tmp_path, capsys):
        assert _run(tmp_path, "sample-regen", "--T", "0") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_continuum_z(self, tmp_path, capsys):
        code = _run(tmp_path, "continuum-z", "--M", "256")
        capsys.readouterr()
        assert code == 0
        rep = _report(tmp_path, "continuum-z")
        assert rep["Z_0T"] > 0
        lines = (tmp_path / "z_profile.csv").read_text().splitlines()
        assert lines[0] == "t,Z" and len(lines) == 258

    def test_cdpm_fdd(self, tmp_path, capsys):
        code = _run(tmp_path, "cdpm-fdd", "--M", "128", "--grid", "32",
                    "--samples", "20")
        capsys.readouterr()
        assert code == 0
        lines = (tmp_path / "cdpm_pairs.csv").read_text().splitlines()
        assert len(lines) == 21


    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_cdpm_fdd_needs_positive_grid(self, tmp_path, capsys, grid):
        code = _run(tmp_path, "cdpm-fdd", "--M", "64", "--grid", grid,
                    "--samples", "2")
        assert code == 1
        assert capsys.readouterr().err == "error: need grid >= 1\n"
        assert not (tmp_path / "cdpm-fdd.json").exists()
        assert not (tmp_path / "cdpm_pairs.csv").exists()


class TestChecks:

    def test_dirichlet_pass(self, tmp_path, capsys):
        code = _run(tmp_path, "dirichlet-check", "--chi", "0.5",
                    "--k", "1")
        capsys.readouterr()
        assert code == 0
        rep = _report(tmp_path, "dirichlet-check")
        assert rep["closed_form"] == pytest.approx(3.14159, rel=1e-5)
        assert rep["rel_err"] < 1e-6

    def test_dirichlet_bad_chi(self, tmp_path, capsys):
        assert _run(tmp_path, "dirichlet-check", "--chi", "1.5",
                    "--k", "1") == 1
        capsys.readouterr()

    def test_check_renewal_small(self, tmp_path, capsys):
        code = _run(tmp_path, "check-renewal", "--n", "5000")
        capsys.readouterr()
        assert code in (0, 2)
        rep = _report(tmp_path, "check-renewal")
        assert rep["ratio_final"] == pytest.approx(1.0, abs=0.1)


class TestExperimentCommand:

    CFG = {"M": 256, "replicas": 200, "translation_replicas": 150,
           "translation_M": 128, "residual_replicas": 2,
           "residual_M": 128, "residual_grid": 16}

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(self.CFG))
        outs = []
        for sub in ("a", "b"):
            d = tmp_path / sub
            code = cli.run(["--config", str(cfg), "--seed", "7",
                            "--out", str(d), "experiment", "z-properties"])
            assert code in (0, 2)
            outs.append((d / "experiment.json").read_bytes())
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_config_echoed_in_report(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(self.CFG))
        cli.run(["--config", str(cfg), "--seed", "7",
                 "--out", str(tmp_path), "experiment", "z-properties"])
        capsys.readouterr()
        rep = _report(tmp_path, "experiment")
        assert rep["config"]["M"] == 256
        assert rep["name"] == "z-properties" and rep["seed"] == 7
        assert rep["config"]["alpha"] == 0.75
        assert set(rep["verdicts"]) >= {"scaling_series", "positivity"}
