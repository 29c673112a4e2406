"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one of the paper's tables or figures.  The heavy
shared inputs (suite measurements, the trained synthesizer) are built once
per session at the quick scale with 50 synthetic kernels;
``python -m repro experiments --full`` is the paper-scale path.  They
resolve through the pipeline stage graph (:mod:`repro.store`), so pointing
``REPRO_STORE_DIR`` at a directory makes repeat sessions reuse every
unchanged stage artifact.

Timing is not this harness's job: ``perfbench/run.py`` is the repo
benchmark, and ``python -m repro pipeline`` prints per-stage seconds.
"""

from __future__ import annotations

import pytest

from repro.experiments import (
    ExperimentConfig,
    build_clgen,
    measure_suites,
    synthesize_and_measure,
)


@pytest.fixture(scope="session")
def bench_config() -> ExperimentConfig:
    config = ExperimentConfig.quick()
    config.synthetic_kernel_count = 50
    return config


@pytest.fixture(scope="session")
def bench_clgen(bench_config):
    return build_clgen(bench_config)


@pytest.fixture(scope="session")
def bench_data(bench_config, bench_clgen):
    data = measure_suites(bench_config)
    return synthesize_and_measure(bench_config, data, clgen=bench_clgen)
