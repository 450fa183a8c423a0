"""Benchmark: the parallel sweep-execution subsystem.

Four claims, measured:

1. fanning a multi-point Fig. 6-style sweep out over 4 workers beats
   the serial path by >= 2x wall-clock (asserted when the host
   actually has >= 4 usable cores — process parallelism cannot beat
   the clock on a 1-core container, so there the ratio is only
   reported);
2. parallel results are *bit-identical* to serial results, point by
   point and for every execution backend (asserted everywhere,
   always);
3. resuming a completed sweep from the on-disk cache is at least an
   order of magnitude faster than recomputing it;
4. on the small, quick-Fig. 6 and paper-Fig. 6 grids, the ``auto``
   rule picks the faster of serial and spawn-process execution, or a
   tier within that grid's run-to-run spread.  The record
   (``BENCH_sweep_backends.json``) carries the pooled
   ``serial_s_per_point``/``node_seconds_per_point`` that
   :func:`repro.sim.sweep.calibrate_wall_s_per_node_second` turns into
   ``SIM_WALL_S_PER_NODE_SECOND``.

Measured numbers are persisted as ``BENCH_sweep_*.json`` records (see
:mod:`recording`).
"""

import os
import statistics
import time

import pytest

from recording import record_benchmark
from repro.baselines.policies import BasicPolicy, REDPolicy, ReissuePolicy
from repro.experiments.fig6 import paper_pcs_policy
from repro.service.nutch import NutchConfig
from repro.sim import sweep as sweep_mod
from repro.sim.backends import ProcessBackend, SerialBackend
from repro.sim.runner import RunnerConfig
from repro.sim.sweep import (
    ParallelSweepRunner,
    SweepSpec,
    calibrate_wall_s_per_node_second,
)
from repro.workloads.generator import GeneratorConfig


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _sweep_spec(paper: bool) -> SweepSpec:
    """A 12-point grid whose per-point cost dominates spawn overhead."""
    if paper:
        nutch = NutchConfig()
        n_nodes, rates = 30, (10.0, 50.0, 100.0, 200.0)
    else:
        nutch = NutchConfig(n_search_groups=10, replicas_per_group=4)
        n_nodes, rates = 16, (20.0, 60.0, 120.0, 240.0)
    base = RunnerConfig(
        n_nodes=n_nodes,
        arrival_rate=rates[0],
        interval_s=30.0,
        n_intervals=6,
        warmup_intervals=1,
        seed=7,
        nutch=nutch,
        generator=GeneratorConfig(
            jobs_per_node_per_s=0.01, max_batch_jobs_per_node=3
        ),
    )
    return SweepSpec(
        base=base,
        policies=(BasicPolicy(), REDPolicy(replicas=3), ReissuePolicy(0.90)),
        arrival_rates=rates,
        seeds=(7,),
    )


@pytest.mark.benchmark(group="sweep")
def test_sweep_parallel_speedup(benchmark, paper_scale):
    """Serial vs 4-worker wall-clock on the same 12-point grid."""
    spec = _sweep_spec(paper_scale)

    t0 = time.perf_counter()
    serial = ParallelSweepRunner(spec, workers=1).run()
    serial_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = benchmark.pedantic(
        ParallelSweepRunner(spec, workers=4).run, rounds=1, iterations=1
    )
    parallel_s = time.perf_counter() - t0

    # Claim 2 first — correctness is unconditional.
    for point in spec.points():
        assert (
            parallel.results[point].metrics_dict()
            == serial.results[point].metrics_dict()
        ), point.describe()

    cores = _usable_cores()
    speedup = serial_s / parallel_s
    print(
        f"\n{spec.n_points}-point sweep: serial {serial_s:.1f}s, "
        f"4 workers {parallel_s:.1f}s -> {speedup:.2f}x "
        f"({cores} usable cores)"
    )
    base = spec.base
    record_benchmark(
        "sweep_parallel_speedup",
        {
            "serial": serial_s,
            "parallel_4_workers": parallel_s,
            "speedup": speedup,
            # Feeds repro.sim.sweep.calibrate_wall_s_per_node_second.
            "serial_s_per_point": serial_s / spec.n_points,
        },
        config={
            "n_points": spec.n_points,
            "paper_scale": paper_scale,
            "usable_cores": cores,
            "scenario": spec.scenario,
            "node_seconds_per_point": (
                base.n_intervals * base.interval_s * base.n_nodes
            ),
        },
    )
    if cores >= 4:
        # Claim 1: the whole point of the subsystem.
        assert speedup >= 2.0, (
            f"expected >= 2x speedup at 4 workers on {cores} cores, "
            f"got {speedup:.2f}x"
        )
    else:
        pytest.skip(
            f"speedup assertion needs >= 4 usable cores, host has {cores} "
            f"(measured {speedup:.2f}x; identity checks passed)"
        )


def _small_grid_spec() -> SweepSpec:
    """A 6-point grid sized so start-up tax dominates its compute.

    Tiny topology and short intervals keep per-point work in the tens
    of milliseconds; the PCS policy adds predictor training, which
    every spawn worker repeats from a cold memo.
    """
    base = RunnerConfig(
        n_nodes=6,
        arrival_rate=30.0,
        interval_s=8.0,
        n_intervals=3,
        warmup_intervals=1,
        seed=0,
        nutch=NutchConfig(
            n_search_groups=3, replicas_per_group=2,
            n_segmenters=1, n_aggregators=1,
        ),
        generator=GeneratorConfig(
            jobs_per_node_per_s=0.02, max_batch_jobs_per_node=3
        ),
        n_profiling_conditions=8,
    )
    return SweepSpec(
        base=base,
        policies=(BasicPolicy(), REDPolicy(replicas=2), paper_pcs_policy()),
        arrival_rates=(30.0, 70.0),
        seeds=(0,),
    )


#: The grids claim 4 times every tier on, smallest first.
_BACKEND_GRIDS = {
    "small": _small_grid_spec,
    "quick": lambda: _sweep_spec(paper=False),
    "paper": lambda: _sweep_spec(paper=True),
}
_BACKEND_WORKERS = 2
_BACKEND_ROUNDS = 3


def _node_seconds(spec: SweepSpec) -> float:
    base = spec.base
    return base.n_intervals * base.interval_s * base.n_nodes


@pytest.mark.benchmark(group="sweep")
def test_sweep_backends(benchmark):
    """Claims 2 and 4: serial, process and ``auto`` on three grids.

    Every timed run starts from a cold predictor memo, as each spawn
    worker does, and the tier order rotates between rounds so host
    drift does not favour one tier.
    """
    workers = _BACKEND_WORKERS
    specs = {grid: make() for grid, make in _BACKEND_GRIDS.items()}
    choices = {
        grid: ParallelSweepRunner(spec, workers=workers)
        ._resolve_backend(spec.n_points, [])
        .name
        for grid, spec in specs.items()
    }
    tiers = {
        "serial": SerialBackend(),
        "process": ProcessBackend(workers),
        "auto": None,
    }
    runs = {grid: {tier: [] for tier in tiers} for grid in specs}

    def run_all():
        for grid, spec in specs.items():
            reference = None
            for round_no in range(_BACKEND_ROUNDS):
                names = list(tiers)
                names = names[round_no:] + names[:round_no]
                for tier in names:
                    sweep_mod._PREDICTOR_MEMO.clear()
                    t0 = time.perf_counter()
                    outcome = ParallelSweepRunner(
                        spec, workers=workers, backend=tiers[tier]
                    ).run()
                    runs[grid][tier].append(time.perf_counter() - t0)
                    metrics = [
                        outcome.results[point].metrics_dict()
                        for point in spec.points()
                    ]
                    # Claim 2: every tier agrees with the first, bit
                    # for bit.
                    if reference is None:
                        reference = metrics
                    assert metrics == reference, f"{grid}/{tier}"

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    timings = {}
    n_points = sum(spec.n_points for spec in specs.values())
    for grid, per_tier in runs.items():
        for tier, seconds in per_tier.items():
            timings[f"{grid}.{tier}_s"] = statistics.median(seconds)
            timings[f"{grid}.{tier}_spread_s"] = max(seconds) - min(seconds)
        print(
            f"\n{grid} ({specs[grid].n_points} points, auto -> "
            f"{choices[grid]}): "
            + ", ".join(
                f"{tier} {min(s):.2f}-{max(s):.2f}s"
                for tier, s in per_tier.items()
            )
        )
    # Pooled over all grids: the calibration input.
    timings["serial_s_per_point"] = (
        sum(statistics.median(runs[grid]["serial"]) for grid in specs) / n_points
    )
    config = {
        "workers": workers,
        "rounds": _BACKEND_ROUNDS,
        "usable_cores": _usable_cores(),
        "node_seconds_per_point": (
            sum(_node_seconds(spec) * spec.n_points for spec in specs.values())
            / n_points
        ),
        "grids": {
            grid: {
                "n_points": spec.n_points,
                "node_seconds_per_point": _node_seconds(spec),
                "estimated_point_cost_s": (
                    sweep_mod.estimated_point_cost_s(spec.base)
                ),
                "auto_backend_choice": choices[grid],
            }
            for grid, spec in specs.items()
        },
    }
    timings["wall_s_per_node_second"] = calibrate_wall_s_per_node_second(
        [{"config": config, "timings_s": timings}]
    )
    print(
        f"calibrated {timings['wall_s_per_node_second']:.2e} s per "
        f"node-second (SIM_WALL_S_PER_NODE_SECOND = "
        f"{sweep_mod.SIM_WALL_S_PER_NODE_SECOND:.2e})"
    )
    record_benchmark("sweep_backends", timings, config=config)

    # Claim 4: auto's pick is the faster local tier, or within the
    # grid's serial-vs-process run-to-run spread of it.
    for grid in specs:
        serial_s = timings[f"{grid}.serial_s"]
        process_s = timings[f"{grid}.process_s"]
        spread = max(
            timings[f"{grid}.serial_spread_s"],
            timings[f"{grid}.process_spread_s"],
        )
        picked_s = timings[f"{grid}.{choices[grid]}_s"]
        assert picked_s <= min(serial_s, process_s) + spread, (
            f"{grid}: auto picked {choices[grid]} ({picked_s:.2f}s) "
            f"against serial {serial_s:.2f}s / process {process_s:.2f}s "
            f"(spread {spread:.2f}s)"
        )


@pytest.mark.benchmark(group="sweep")
def test_sweep_cache_resume(benchmark, tmp_path):
    """Claim 3: a warm cache turns the sweep into pure JSON reads."""
    spec = _sweep_spec(paper=False)

    t0 = time.perf_counter()
    cold = ParallelSweepRunner(spec, workers=1, cache=tmp_path).run()
    cold_s = time.perf_counter() - t0
    assert cold.cache_hits == 0

    warm = benchmark.pedantic(
        ParallelSweepRunner(spec, workers=1, cache=tmp_path).run,
        rounds=1,
        iterations=1,
    )
    assert warm.cache_hits == spec.n_points
    for point in spec.points():
        assert (
            warm.results[point].metrics_dict()
            == cold.results[point].metrics_dict()
        )
    print(
        f"\ncold sweep {cold_s:.1f}s, warm resume {warm.wall_time_s:.3f}s "
        f"({cold_s / max(warm.wall_time_s, 1e-9):.0f}x)"
    )
    record_benchmark(
        "sweep_cache_resume",
        {
            "cold": cold_s,
            "warm": warm.wall_time_s,
            "speedup": cold_s / max(warm.wall_time_s, 1e-9),
        },
        config={"n_points": spec.n_points, "scenario": spec.scenario},
    )
    assert warm.wall_time_s * 10 < cold_s
