"""Benchmark: regenerate Fig. 7 (scheduler scalability).

Times one full scheduling interval (matrix construction + greedy
search) per (m, k) grid point, exactly the quantity the paper plots;
the (640, 128) point is the paper's quoted 551 ms.

Recorded in ``BENCH_fig7_scalability.json``: per point, the median
over rounds of the scheduler's own ``analysis_time_s`` (building the
performance matrix) and ``search_time_s`` (Algorithm 1 with the
Algorithm 2 updates), and their sum.  The record is rewritten after
every point, so a partial run still leaves the points it finished.
"""

import statistics

import numpy as np
import pytest

from recording import record_benchmark
from repro.experiments.fig7 import PAPER_INTERVAL_S, make_instance, _oracle
from repro.scheduler.hierarchical import HierarchicalScheduler
from repro.scheduler.pcs import PCSScheduler, SchedulerConfig
from repro.scheduler.threshold import StaticThreshold
from repro.units import ms

GRID = [(40, 8), (80, 16), (160, 32), (320, 64), (640, 128)]

#: What makes the record's numbers comparable across commits.
_CONFIG = {
    "predictor": "oracle (searching class, noise-free)",
    "epsilon_s": ms(1),
    "instance_seed": 0,
    "statistic": "median over rounds",
}


@pytest.fixture(scope="module")
def record():
    """Adds one point's timings and rewrites the record with every
    point measured so far in this module."""
    timings, points = {}, {}

    def add(label, outcomes, **config):
        analysis = statistics.median(o.analysis_time_s for o in outcomes)
        search = statistics.median(o.search_time_s for o in outcomes)
        timings[f"{label}.analysis_time_s"] = analysis
        timings[f"{label}.search_time_s"] = search
        timings[f"{label}.total_time_s"] = analysis + search
        points[label] = {
            **config,
            "rounds": len(outcomes),
            "migrations": outcomes[-1].n_migrations,
        }
        record_benchmark(
            "fig7_scalability", timings, config={**_CONFIG, "points": points}
        )

    return add


@pytest.mark.benchmark(group="fig7")
@pytest.mark.parametrize("m,k", GRID, ids=[f"{m}x{k}" for m, k in GRID])
def test_fig7_schedule_interval(benchmark, record, m, k):
    predictor = _oracle()
    config = SchedulerConfig(threshold=StaticThreshold(ms(1)))
    outcomes = []

    def run():
        inputs = make_instance(m, k, np.random.default_rng(0))
        outcomes.append(PCSScheduler(predictor, config).schedule(inputs))
        return outcomes[-1]

    outcome = benchmark.pedantic(run, rounds=3, iterations=1)
    record(f"{m}x{k}", outcomes, m=m, k=k, scheduler="PCS")
    # The paper's scalability claim: far below the scheduling interval.
    assert outcome.total_time_s < 0.02 * PAPER_INTERVAL_S


@pytest.mark.benchmark(group="fig7")
@pytest.mark.parametrize("m", [1280, 2560])
def test_fig7_hierarchical(benchmark, record, m):
    """§VI-D's grouped strategy beyond 640 components."""
    predictor = _oracle()
    config = SchedulerConfig(threshold=StaticThreshold(ms(1)))
    outcomes = []

    def run():
        inputs = make_instance(m, 128, np.random.default_rng(0))
        outcomes.append(
            HierarchicalScheduler(predictor, config, group_size=640).schedule(
                inputs
            )
        )
        return outcomes[-1]

    outcome = benchmark.pedantic(run, rounds=2, iterations=1)
    record(
        f"hierarchical-{m}x128", outcomes,
        m=m, k=128, scheduler="hierarchical", group_size=640,
    )
    assert outcome.n_migrations > 0
