"""Criterion 9's four small-config reports, and the sha256 sums of their
reproducible payloads (to_json(include_wall_clock=False)) that
payload_sums.json records with the numpy, scipy and BLAS build they were
made on. A change that moves report numbers on purpose regenerates the
file from the repository root with

    PYTHONPATH=src python tests/payload_sums.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import scipy

import pinning_lab.analysis as an

SEED = 109
SUMS = Path(__file__).with_name("payload_sums.json")
SMALL = {
    "z-properties": an.ZPropertiesConfig(
        M=256, replicas=200, translation_replicas=150,
        translation_M=128, residual_replicas=2, residual_M=128,
        residual_grid=16),
    "convergence": an.ConvergenceConfig(
        n_ladder=(64, 128), replicas=(200, 150),
        continuum_replicas=200, continuum_M=128, fdd_replicas=35),
    "averaged-abs-continuity": an.AveragedConfig(
        M=128, w_replicas=120, draws=4, grid=64, n_boot=30),
    "singularity": an.SingularityConfig(
        replicas=300, M=128, martingale_pairs=3, martingale_M=128,
        covering_draws=30, covering_levels=(5, 6), regen_depth=9),
}


def payloads() -> dict:
    """Each small config's reproducible payload at SEED, by experiment."""
    return {name: an.EXPERIMENTS[name][1](cfg, seed=SEED).to_json(
        include_wall_clock=False) for name, cfg in SMALL.items()}


def build() -> dict:
    """The numpy, scipy and BLAS build the numbers come from."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": blas.get("openblas configuration",
                             f"{blas['name']} {blas['version']}")}


def record(texts: dict) -> dict:
    """The build and the sha256 sum of each payload, as the file holds them."""
    return {"build": build(), "sha256": {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in texts.items()}}


if __name__ == "__main__":
    SUMS.write_text(json.dumps(record(payloads()), indent=2, sort_keys=True)
                    + "\n")
