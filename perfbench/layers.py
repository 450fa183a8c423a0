"""Which entry points the traced run wraps, and the per-layer metrics
they feed.

Each layer is a public entry point of one module of ``src/repro``,
wrapped from outside by :class:`spans.Tracer`.  Times are reported per
repetition (one replay, one serve session, or one pass over the Fig. 7
instances), so runs of different lengths compare directly.
"""

from __future__ import annotations

from typing import Dict, List

from spans import Tracer

#: layer -> (inclusive-time metric, self-time metric or None).  A self
#: metric is reported only for layers whose calls contain other traced
#: layers; for the rest self time equals inclusive time.
LAYER_METRICS = {
    "window": ("controlplane.window_s", "controlplane.unattributed_s"),
    "setup": ("runner.setup_s", "runner.setup_self_s"),
    "train": ("profiling.train_s", None),
    "run_until": ("simcore.run_until_s", None),
    "refresh": ("interference.refresh_s", None),
    "interval": ("sim.interval_s", "sim.interval_self_s"),
    "arrivals": ("sim.arrivals_s", None),
    "route": ("routing.route_s", "routing.route_self_s"),
    "lindley": ("lindley.waits_s", None),
    "fold": ("summary.fold_s", None),
    "observe": ("monitoring.observe_s", None),
    "inputs": ("model.inputs_s", None),
    "schedule": ("scheduler.schedule_s", "scheduler.search_self_s"),
    "matrix_build": ("model.matrix_build_s", "model.matrix_build_self_s"),
    "matrix_update": ("model.matrix_update_s", "model.matrix_update_self_s"),
    "predict": ("model.predict_s", None),
    "actuate": ("scheduler.actuate_s", None),
    "retrain": ("controlplane.retrain_s", None),
    "scrape": ("controlplane.scrape_s", None),
}

#: Count metrics: name -> (layer, counter key, or None for the layer's
#: outermost call count).
COUNT_METRICS = {
    "controlplane.windows": ("window", None),
    "model.predict_calls": ("predict", None),
    "scheduler.decisions": ("schedule", None),
    "scheduler.migrations": ("schedule", "migrations"),
    "sim.requests": ("interval", "requests"),
    "lindley.calls": ("lindley", None),
    "simcore.events": ("run_until", "events"),
    "controlplane.retrains": ("retrain", "retrains"),
}


def _subclasses_defining(base: type, attr: str) -> List[type]:
    """``base`` and every subclass whose own body defines ``attr``."""
    found, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if attr in cls.__dict__ and cls not in found:
            found.append(cls)
    return found


def make_tracer() -> Tracer:
    """A tracer over every layer in :data:`LAYER_METRICS`."""
    from repro.baselines import routing
    from repro.controlplane.loop import ControlLoop
    from repro.controlplane.phases import ActuatePhase, MonitorPhase, PredictPhase
    from repro.controlplane.service import LiveControlPlane
    from repro.model.matrix import PerformanceMatrix
    from repro.model.predictor import LatencyPredictor
    from repro.scheduler.pcs import PCSScheduler
    from repro.sim import queue_sim, runner
    from repro.sim.estimators import IntervalAccumulatorSet, LatencyAccumulator
    from repro.simcore.engine import SimulationEngine

    targets = [
        ("window", ControlLoop, "compute_window", None),
        ("setup", runner.ExperimentRunner, "setup", None),
        # The runner and the control loop call these two through the
        # runner module's attributes.
        ("train", runner, "train_predictor_for_service", None),
        (
            "interval",
            runner,
            "simulate_service_interval",
            lambda out: {"requests": out.n_requests, "duplicates": out.duplicates},
        ),
        ("refresh", runner.ExperimentRunner, "_service_distributions", None),
        ("run_until", SimulationEngine, "run_until", lambda fired: {"events": fired}),
        ("arrivals", queue_sim, "poisson_arrivals", None),
        ("lindley", routing, "lindley_waits", None),
        ("lindley", routing, "lindley_waits_chunked", None),
        ("fold", LatencyAccumulator, "add", None),
        ("fold", LatencyAccumulator, "summary", None),
        ("fold", IntervalAccumulatorSet, "add_chunk", None),
        ("fold", IntervalAccumulatorSet, "merge", None),
        ("observe", MonitorPhase, "observe", None),
        ("inputs", PredictPhase, "inputs", None),
        (
            "schedule",
            PCSScheduler,
            "schedule",
            lambda out: {"migrations": out.n_migrations},
        ),
        ("matrix_build", PerformanceMatrix, "build", None),
        ("matrix_update", PerformanceMatrix, "algorithm2_update", None),
        ("actuate", ActuatePhase, "apply", None),
        (
            "retrain",
            PredictPhase,
            "refresh",
            lambda fitted: {"retrains": 0 if fitted is None else 1},
        ),
        ("scrape", LiveControlPlane, "status_payload", None),
        ("scrape", LiveControlPlane, "metrics_text", None),
    ]
    targets += [
        ("predict", cls, "predict_mean_service", None)
        for cls in _subclasses_defining(LatencyPredictor, "predict_mean_service")
    ]
    targets += [
        ("route", cls, "route_group_outcome", None)
        for cls in _subclasses_defining(routing.RoutingKernel, "route_group_outcome")
    ]
    return Tracer(targets)


def layer_metrics(tracer: Tracer, n_reps: int) -> Dict[str, float]:
    """Per-repetition layer times and counts from a finished tracer."""
    out: Dict[str, float] = {}
    for layer, (incl_name, self_name) in LAYER_METRICS.items():
        totals = tracer.layer(layer)
        out[incl_name] = totals.inclusive_s / n_reps
        if self_name is not None:
            out[self_name] = totals.self_s / n_reps
    for name, (layer, key) in COUNT_METRICS.items():
        totals = tracer.layer(layer)
        value = totals.calls if key is None else totals.counts.get(key, 0.0)
        out[name] = value / n_reps
    interval = tracer.layer("interval").counts
    requests = interval.get("requests", 0.0)
    out["routing.duplicates_per_request"] = (
        interval.get("duplicates", 0.0) / requests if requests else 0.0
    )
    out["trace.run_s"] = tracer.run_s / n_reps
    out["trace.outside_s"] = tracer.outside_s / n_reps
    return out


def hidden_children(tracer: Tracer) -> List[str]:
    """Layers reported without a self metric whose self time differs
    from their inclusive time — i.e. where the report would hide a
    traced child.  Empty when :data:`LAYER_METRICS` is right."""
    return [
        layer
        for layer, (_, self_name) in LAYER_METRICS.items()
        if self_name is None
        and abs(tracer.layer(layer).inclusive_s - tracer.layer(layer).self_s)
        > 1e-9 + 1e-6 * tracer.layer(layer).inclusive_s
    ]


def per_layer_units(metrics: Dict[str, float]) -> Dict[str, str]:
    """Unit of every per-layer metric, read off its name's suffix."""
    units = {}
    for name in metrics:
        if name.endswith("_ms"):
            units[name] = "ms"
        elif name.endswith("_s"):
            units[name] = "s"
        elif name.endswith("_frac"):
            units[name] = "1"
        elif name.endswith("_per_request"):
            units[name] = "1/request"
        else:
            units[name] = "count"
    return units
