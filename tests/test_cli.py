"""Tests for the command-line interface."""

import json
import sys

import pytest

import pinning_lab.cli as cli


def _run(tmp_path, *argv):
    return cli.run(["--out", str(tmp_path), *argv])


def _report(tmp_path, name):
    with open(tmp_path / f"{name}.json") as fh:
        return json.load(fh)


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

    def test_threads_env_fallback(self, monkeypatch):
        monkeypatch.setenv("PINNING_LAB_THREADS", "3")
        assert cli._resolve_threads(None) == 3
        assert cli._resolve_threads(2) == 2
        monkeypatch.delenv("PINNING_LAB_THREADS")
        assert cli._resolve_threads(None) == 1

    def test_threads_not_applied_without_threadpoolctl(self, tmp_path,
                                                      capsys, monkeypatch):
        # a None entry in sys.modules makes the import raise ImportError
        monkeypatch.setitem(sys.modules, "threadpoolctl", None)
        assert _run(tmp_path, "--threads", "2", "partition", "--N", "2") == 0
        capsys.readouterr()
        rep = _report(tmp_path, "partition")
        assert rep["threads"] == 2 and rep["threads_applied"] is False


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

    def test_sample_regen(self, tmp_path, capsys):
        code = _run(tmp_path, "sample-regen", "--depth", "6",
                    "--samples", "3")
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "regen_points.csv").exists()

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
           "residual_M": 128, "residual_grid": 64}

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
        assert rep["config"]["alpha"] == 0.75
        assert set(rep["verdicts"]) >= {"scaling_series", "positivity"}
