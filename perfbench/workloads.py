"""The benchmark's four workloads and the checks on their outputs.

Every workload is a sequence of *repetitions*.  A repetition builds its
world from one seed (timed as set-up), then runs a fixed number of
*operations* — a simulated window, or one ``schedule()`` call for the
Fig. 7 workload — timing each.  Output checks run between operations,
outside the timed regions; every failed check or raised exception
counts its operation as failed.

Repetition ``j`` of a run with seed ``s`` uses the world seed
:func:`rep_seed` ``(s, j)``, so a run pools several worlds and its
host-time figures do not hinge on one seed's churn pattern.  The
simulated and model results a workload reports come from repetition 0
and are therefore a pure function of the run's seed.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.baselines.policies import REDPolicy
from repro.controlplane.service import LiveControlPlane, ServeConfig
from repro.experiments.fig6 import paper_pcs_policy
from repro.experiments.fig7 import make_instance
from repro.interference.ground_truth import default_interference_model
from repro.model.predictor import OraclePredictor
from repro.scenarios import get_scenario
from repro.scheduler.pcs import PCSScheduler, SchedulerConfig
from repro.scheduler.threshold import StaticThreshold
from repro.service.component import Component, ComponentClass
from repro.sim.runner import ExperimentRunner
from repro.simcore.distributions import LogNormal
from repro.units import ms

#: Context factory that keeps the benchmark's own checks out of the
#: trace (``Tracer.suspended``, or a no-op on untraced repetitions).
Quiet = Callable[[], AbstractContextManager]

#: Fig. 7's top point and its static ε.
FIG7_M, FIG7_K, FIG7_INSTANCES = 640, 128, 8
FIG7_EPSILON_S = ms(1)

#: ``repro serve`` defaults, with the rolling retrain switched on.
SERVE_WINDOWS = 24
SERVE_RETRAIN_EVERY = 4

#: Every ``pcs_*`` series ``LiveControlPlane.metrics_text`` emits once
#: a window has completed and a decision has fired.
SERVE_METRIC_NAMES = frozenset(
    {
        "pcs_up",
        "pcs_windows_completed_total",
        "pcs_requests_total",
        "pcs_decisions_total",
        "pcs_migrations_total",
        "pcs_retrains_total",
        "pcs_sim_time_seconds",
        "pcs_window_p99_seconds",
        "pcs_window_mean_seconds",
        "pcs_decision_latency_seconds",
        "pcs_rolling_p99_seconds",
        "pcs_rolling_mean_seconds",
        "pcs_sweeps_running",
    }
)

_PROM_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*) (\S+)$")
_PROM_META = re.compile(r"^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$")


def rep_seed(seed: int, rep: int) -> int:
    """World seed of repetition ``rep`` of a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, rep]).generate_state(1)[0])


@dataclass
class Rep:
    """What one repetition measured and produced."""

    setup_s: float
    op_s: List[float] = field(default_factory=list)
    #: Host time of each decision pass (monitor → predict → decide →
    #: act, or one ``schedule()`` call).
    decision_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)
    #: Deterministic digest of the outputs; a traced and an untraced
    #: repetition of one seed must agree on it byte for byte.
    fingerprint: str = ""
    #: Simulated / model results (ms), deterministic per seed.
    results: Dict[str, float] = field(default_factory=dict)

    def fail(self, op: int, problem: str) -> None:
        self.failed += 1
        self.errors.append(f"op {op}: {problem}")


def _finite_positive(values: np.ndarray) -> bool:
    return bool(values.size and np.all(np.isfinite(values)) and np.all(values > 0))


def _check_decision(outcome, max_migrations: Optional[int]) -> List[str]:
    if max_migrations is not None and outcome.n_migrations > max_migrations:
        return [f"{outcome.n_migrations} migrations > max_migrations {max_migrations}"]
    return []


def _check_exact_window(outcome) -> List[str]:
    problems = []
    if outcome.n_requests <= 0:
        problems.append("window served no requests")
    elif not _finite_positive(outcome.request_latencies):
        problems.append("a request latency is not finite and positive")
    elif not _finite_positive(outcome.pooled_component_latencies()):
        problems.append("a component latency is not finite and positive")
    return problems


def _check_streaming_window(outcome) -> List[str]:
    # The streaming accumulator itself rejects negative or non-finite
    # samples; what is left to check is that the window served
    # requests and its summary is positive and finite.
    if outcome.n_requests <= 0:
        return ["window served no requests"]
    s = outcome.streaming.overall.summary()
    stats = np.array([s.mean, s.p50, s.p99, s.max])
    return [] if _finite_positive(stats) else ["window summary not finite and positive"]


def _check_prometheus(text: str, windows: int) -> List[str]:
    """``metrics_text`` must parse as Prometheus text exposition and
    carry every ``pcs_*`` series, with counters that match the loop."""
    values: Dict[str, float] = {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("#"):
            if not _PROM_META.match(line):
                return [f"bad metrics comment line {line!r}"]
            continue
        match = _PROM_SAMPLE.match(line)
        if match is None:
            return [f"bad metrics sample line {line!r}"]
        try:
            values[match.group(1)] = float(match.group(2))
        except ValueError:
            return [f"metrics value not a number in {line!r}"]
    missing = SERVE_METRIC_NAMES - set(values)
    if missing:
        return [f"metrics missing {sorted(missing)}"]
    for name in ("pcs_windows_completed_total", "pcs_decisions_total"):
        if values[name] != windows:
            return [f"{name} = {values[name]:g}, expected {windows}"]
    return []


def _timed_ops(rep: Rep, n_ops: int, op: Callable[[int], List[str]]) -> None:
    """Run ``op(i)`` for ``i < n_ops``; each call times its own
    operation and returns the problems its checks found.

    An operation that raises fails, and the rest of the repetition —
    whose world state it would have left half-updated — fails with it.
    """
    for i in range(n_ops):
        rep.attempted += 1
        try:
            problems = op(i)
        except Exception as exc:  # noqa: BLE001 - counted and reported
            rep.fail(i, f"{type(exc).__name__}: {exc}")
            for rest in range(i + 1, n_ops):
                rep.attempted += 1
                rep.fail(rest, "skipped after an earlier failure")
            return
        if problems:
            rep.fail(i, "; ".join(problems))


def _finish(rep: Rep, result, reductions: List[float], quiet: Quiet) -> None:
    """Record a control-loop run's ``PolicyResult`` on ``rep``."""
    with quiet():
        rep.fingerprint = json.dumps(result.metrics_dict(), sort_keys=True)
    rep.results = {
        "overall_p99_ms": result.overall_latency.p99 * 1e3,
        "overall_mean_ms": result.overall_mean_s * 1e3,
        "component_p99_ms": result.component_p99_s * 1e3,
        "predicted_reduction_ms": (
            float(np.mean(reductions)) * 1e3 if reductions else 0.0
        ),
    }


# ----------------------------------------------------------------------
# replays: pcs-paper and red3-paper
# ----------------------------------------------------------------------
def _replay_rep(policy, seed: int, quiet: Quiet) -> Rep:
    """``ExperimentRunner.setup`` then the control loop's replay, one
    window per operation (the statements of ``ControlLoop.run``)."""
    t0 = time.perf_counter()
    config = get_scenario("nutch-search").runner_config(
        n_nodes=30,
        arrival_rate=200.0,
        interval_s=60.0,
        n_intervals=8,
        warmup_intervals=2,
        seed=seed,
    )
    runner = ExperimentRunner(config)
    state = runner.setup(policy)
    loop = runner.control_loop(state)
    rep = Rep(setup_s=time.perf_counter() - t0)
    max_migrations = (
        policy.scheduler_config.max_migrations if policy.schedules else None
    )
    reductions = []

    def window(i: int) -> List[str]:
        t = time.perf_counter()
        outcome = loop.run_window(i)
        rep.op_s.append(time.perf_counter() - t)
        with quiet():
            problems = _check_exact_window(outcome)
            if loop.decide.active and i + 1 < config.n_intervals:
                rep.decision_s.append(loop.last_decision_latency_s)
                decision = loop.decide.last_outcome
                reductions.append(decision.predicted_reduction_s)
                problems += _check_decision(decision, max_migrations)
        return problems

    _timed_ops(rep, config.n_intervals, window)
    if rep.failed:
        return rep
    _finish(rep, loop.collect(), reductions, quiet)
    return rep


def pcs_paper(seed: int, quiet: Quiet) -> Rep:
    return _replay_rep(paper_pcs_policy(), seed, quiet)


def red3_paper(seed: int, quiet: Quiet) -> Rep:
    return _replay_rep(REDPolicy(replicas=3), seed, quiet)


# ----------------------------------------------------------------------
# fig7-640x128
# ----------------------------------------------------------------------
def _fig7_oracle() -> OraclePredictor:
    """The Fig. 7 driver's ground-truth predictor: one searching-class
    representative under the noise-free interference model."""
    rep = Component(
        name="fig7-rep",
        cls=ComponentClass.SEARCHING,
        base_service=LogNormal(ms(3.5), 0.5),
    )
    return OraclePredictor(
        default_interference_model(noise_sigma=0.0), {ComponentClass.SEARCHING: rep}
    )


def _check_fig7(outcome) -> List[str]:
    problems = []
    if not outcome.final_overall_s <= outcome.initial_overall_s:
        problems.append("final predicted overall latency above the initial one")
    if any(m.predicted_gain_s <= FIG7_EPSILON_S for m in outcome.migrations):
        problems.append("a migration's predicted gain does not clear epsilon")
    moved = [m.component_index for m in outcome.migrations]
    if len(moved) != len(set(moved)):
        problems.append("a component moved twice in one decision")
    return problems


def fig7_640x128(seed: int, quiet: Quiet) -> Rep:
    """Schedule :data:`FIG7_INSTANCES` synthetic 640×128 instances, one
    ``PCSScheduler.schedule`` call per operation."""
    t0 = time.perf_counter()
    predictor = _fig7_oracle()
    instances = [
        make_instance(FIG7_M, FIG7_K, np.random.default_rng(seed + i))
        for i in range(FIG7_INSTANCES)
    ]
    rep = Rep(setup_s=time.perf_counter() - t0)
    scheduler = PCSScheduler(
        predictor, SchedulerConfig(threshold=StaticThreshold(FIG7_EPSILON_S))
    )
    outcomes = []

    def decision(i: int) -> List[str]:
        t = time.perf_counter()
        outcome = scheduler.schedule(instances[i])
        dt = time.perf_counter() - t
        rep.op_s.append(dt)
        rep.decision_s.append(dt)
        outcomes.append(outcome)
        return _check_fig7(outcome)

    _timed_ops(rep, FIG7_INSTANCES, decision)
    if rep.failed:
        return rep
    rep.fingerprint = json.dumps(
        [
            [o.initial_overall_s, o.final_overall_s]
            + [
                [m.component_index, m.origin, m.destination, m.predicted_gain_s, m.self_gain_s]
                for m in o.migrations
            ]
            for o in outcomes
        ]
    )
    rep.results = {
        "predicted_reduction_ms": float(
            np.mean([o.predicted_reduction_s for o in outcomes])
        )
        * 1e3
    }
    return rep


# ----------------------------------------------------------------------
# serve-fanout
# ----------------------------------------------------------------------
def serve_fanout(seed: int, quiet: Quiet) -> Rep:
    """The ``repro serve`` world driven in process without pacing: one
    window plus a ``/status`` and ``/metrics`` scrape per operation."""
    t0 = time.perf_counter()
    plane = LiveControlPlane(ServeConfig(seed=seed, retrain_every=SERVE_RETRAIN_EVERY))
    loop = plane.build_loop()
    # What the serving session does once its world is built.
    plane.loop = loop
    plane.status = "running"
    rep = Rep(setup_s=time.perf_counter() - t0)
    max_migrations = loop.state.policy.scheduler_config.max_migrations
    reductions = []

    def window(i: int) -> List[str]:
        t = time.perf_counter()
        outcome = loop.compute_window(i)
        status = plane.status_payload()
        text = plane.metrics_text()
        rep.op_s.append(time.perf_counter() - t)
        rep.decision_s.append(loop.last_decision_latency_s)
        decision = loop.decide.last_outcome
        reductions.append(decision.predicted_reduction_s)
        with quiet():
            problems = _check_streaming_window(outcome)
            problems += _check_decision(decision, max_migrations)
            if loop.decide.n_decisions != i + 1:
                problems.append(
                    f"{loop.decide.n_decisions} decisions after {i + 1} windows"
                )
            try:
                json.dumps(status)
            except (TypeError, ValueError) as exc:
                problems.append(f"status payload does not serialise: {exc}")
            problems += _check_prometheus(text, i + 1)
        return problems

    _timed_ops(rep, SERVE_WINDOWS, window)
    if rep.failed:
        return rep
    _finish(rep, loop.collect(), reductions, quiet)
    return rep


WORKLOADS: Dict[str, Callable[[int, Quiet], Rep]] = {
    "pcs-paper": pcs_paper,
    "red3-paper": red3_paper,
    "fig7-640x128": fig7_640x128,
    "serve-fanout": serve_fanout,
}
