"""Vectorised per-interval sample-path simulation of the service.

For one scheduling interval, given each component's *current* service-
time distribution (base distribution inflated by the interference the
component experiences on its node), this module simulates every
request's journey through the topology with **exact FIFO queue sample
paths** (the Lindley kernel).

The per-group routing mechanics — random splitting for Basic/PCS,
redundancy with imperfect cancellation for RED-k, percentile reissue
for RI-p, fixed-delay hedging — live in
:mod:`repro.baselines.routing` as :class:`~repro.baselines.routing.
RoutingKernel` classes, registered next to their policy descriptors in
:mod:`repro.baselines.policies`.  This module resolves the kernel once
per interval via :func:`~repro.baselines.routing.routing_kernel_for`
and never branches on policy types, so new policies plug in without
touching the simulator.

Stage semantics follow Eqs. 3–4, generalised to the topology's request
DAG: a request's stage latency is the max over the stage's
*participating* groups (optional groups are included per request with
their ``participation`` probability, drawn from the caller's request
stream), the stage's completion is the slowest predecessor stage's
completion plus that latency, and the overall latency is the max over
the exit stages' completions — the critical path.  On a chain topology
this is exactly the old sum-over-stages and the sample paths are
bit-identical (golden-pinned in ``tests/scenarios``).  All sub-requests
of one stage share the stage's arrival stream (inter-stage jitter is
dropped — the DES reference simulator in :mod:`repro.sim.des_service`
traverses the same DAG event-by-event and bounds this approximation in
tests).

Per the paper's metric definition (§VI-A), the pooled component-latency
sample records, for redundancy/reissue policies, the latency of the
*quickest* replica of each sub-request.

Scaling to 10⁶–10⁷ requests per interval
----------------------------------------
There is one pass per summary mode.  Exact summaries (no
``stream_into``) always take the one monolithic pass, whose sample
paths are golden-pinned, whatever ``chunk_requests`` says: chunking
never changes an exact result.

Streaming summaries (``stream_into`` set) with ``chunk_requests``
process the interval in fixed-size request chunks in true single-pass
O(chunk) memory, threading each component's Lindley queue state across
chunk boundaries (:class:`~repro.simcore.lindley.LindleyCarry`).
Arrivals are generated per time window (Poisson count + sorted
uniforms per window — an exact Poisson process), service randomness is
drawn per chunk (a different, still fully seeded stream than the
monolithic pass — no bit-identity contract, by design), and every
chunk's latencies are folded into the caller's
:class:`~repro.sim.estimators.IntervalAccumulatorSet` and freed.  The
returned outcome carries the accumulators instead of sample arrays.

Only kernels with ``supports_chunking`` (random splitting — Basic/PCS)
can chunk; for the others (redundancy's sibling cancellation and
reissue's interval-global percentile timer are inherently
whole-interval), and when no chunk size is given, a streamed interval
takes the monolithic pass and folds its arrays into the accumulators at
the end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.baselines.policies import Policy, routing_kernel_for
from repro.errors import SimulationError
from repro.service.topology import ResolvedClassMix, ServiceTopology
from repro.sim.estimators import IntervalAccumulatorSet
from repro.simcore.distributions import Distribution
from repro.simcore.lindley import LindleyCarry

__all__ = ["IntervalOutcome", "simulate_service_interval", "poisson_arrivals"]


@dataclass
class IntervalOutcome:
    """Everything one simulated interval produced."""

    request_latencies: np.ndarray
    component_sojourns: Dict[str, np.ndarray]
    component_service_samples: Dict[str, np.ndarray]
    duration_s: float
    arrival_rate: float
    #: Per-request class index / class names under a mixed-class run
    #: (None on the homogeneous single-class path).
    class_of: Optional[np.ndarray] = None
    class_names: Optional[Tuple[str, ...]] = None
    #: Streaming-mode collection: the accumulator set the caller passed
    #: as ``stream_into``, now holding the interval's summaries.  When
    #: set, the per-sample arrays above are intentionally empty.
    streaming: Optional[IntervalAccumulatorSet] = None
    #: Realized duplicate executions this interval, summed over groups —
    #: redundancy copies that escaped cancellation plus reissued/hedged
    #: secondaries (:class:`repro.baselines.routing.RoutingOutcome`).
    #: Always 0 for single-copy kernels.
    duplicates: int = 0

    @property
    def n_requests(self) -> int:
        """Number of requests simulated in the interval."""
        if self.streaming is not None:
            return int(self.streaming.overall.n)
        return int(self.request_latencies.size)

    @property
    def duplicate_load(self) -> float:
        """Realized duplicates per request — the measured counterpart of
        the policy's :class:`~repro.baselines.policies.InducedLoad`
        prediction (0.0 for an empty or duplicate-free interval)."""
        n = self.n_requests
        return self.duplicates / n if n else 0.0

    def pooled_component_latencies(self) -> np.ndarray:
        """All per-component sub-request latencies, pooled (metric 1)."""
        if self.streaming is not None:
            raise SimulationError(
                "a streamed interval keeps no sample arrays; read "
                "outcome.streaming.component_pool instead"
            )
        arrays = [a for a in self.component_sojourns.values() if a.size]
        if not arrays:
            return np.empty(0)
        return np.concatenate(arrays)

    def per_class_latencies(self) -> Dict[str, np.ndarray]:
        """Overall request latencies split by request class.

        Only meaningful on mixed-class runs; raises otherwise so a
        caller cannot silently read an empty split.
        """
        if self.streaming is not None:
            raise SimulationError(
                "a streamed interval keeps no sample arrays; read "
                "outcome.streaming.per_class instead"
            )
        if self.class_of is None or self.class_names is None:
            raise SimulationError(
                "per-class latencies need a mixed-class interval "
                "(simulate_service_interval(..., classes=...))"
            )
        return {
            name: self.request_latencies[self.class_of == c]
            for c, name in enumerate(self.class_names)
        }


def poisson_arrivals(
    rate: float, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival instants of a Poisson process on [0, duration).

    Uses the order-statistics property: conditional on the count, the
    arrival times are sorted uniforms — one vectorised draw.
    """
    if rate < 0 or duration_s <= 0:
        raise SimulationError(
            f"need rate >= 0 and duration > 0, got {rate}, {duration_s}"
        )
    n = int(rng.poisson(rate * duration_s))
    return np.sort(rng.uniform(0.0, duration_s, n))


def _class_draws(
    classes: Optional[ResolvedClassMix], rng: np.random.Generator, n: int
) -> Tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """One class draw per request (single-active-class mixes skip the
    draw entirely — their RNG stream must not shift)."""
    if classes is None:
        return None, None
    class_of = (
        classes.class_of(rng.random(n))
        if classes.multi_class
        else np.zeros(n, dtype=np.int64)
    )
    return class_of, classes.service_scales[class_of]


def _compose_overall(
    topology: ServiceTopology, completions: List[np.ndarray]
) -> np.ndarray:
    """Critical path over exit stages (Eq. 4 generalised to the DAG)."""
    exits = topology.exit_indices
    overall = completions[exits[0]]
    for si in exits[1:]:
        overall = np.maximum(overall, completions[si])
    return overall


def _stage_completions(
    preds: List[int], completions: List[np.ndarray], stage_lat: np.ndarray
) -> np.ndarray:
    """One stage's completion times from its predecessors' (Eq. 4)."""
    if not preds:
        return stage_lat
    ready = completions[preds[0]]
    for p in preds[1:]:
        ready = np.maximum(ready, completions[p])
    return ready + stage_lat


def simulate_service_interval(
    topology: ServiceTopology,
    policy: Policy,
    arrival_rate: float,
    duration_s: float,
    service_dists: Mapping[str, Distribution],
    rng: np.random.Generator,
    classes: Optional[ResolvedClassMix] = None,
    *,
    chunk_requests: Optional[int] = None,
    stream_into: Optional[IntervalAccumulatorSet] = None,
    threshold_feed=None,
) -> IntervalOutcome:
    """Simulate one scheduling interval of the whole service.

    Parameters
    ----------
    topology:
        The service's stages/groups/replicas.
    policy:
        Any policy with a registered routing kernel (PCS routes like
        Basic; its migrations act between intervals by changing
        ``service_dists``).
    arrival_rate:
        Service-level request arrival rate (req/s).
    duration_s:
        Interval length (seconds).
    service_dists:
        Current true service-time distribution per component name.
    rng:
        Source of randomness for arrivals and service draws.
    classes:
        Resolved request-class mix
        (:meth:`~repro.service.topology.ServiceTopology.resolve_classes`).
        ``None`` — the homogeneous population — takes the pre-class
        code path, whose RNG draw order and sample paths are preserved
        bit for bit (golden-pinned).  With a mix, each request draws
        its class once (mix weights), participates in each group with
        its class's effective probability, and its service samples are
        multiplied by the class's ``service_scale``.
    chunk_requests:
        Streaming chunk size (see the module docstring): with
        ``stream_into`` on a chunk-capable kernel, the interval is
        simulated in request chunks of this size.  Ignored by exact
        summaries, which always take the monolithic pass.
    stream_into:
        Fold every latency into this accumulator set instead of
        returning sample arrays (O(chunk) memory when combined with
        ``chunk_requests`` on a chunk-capable kernel).
    threshold_feed:
        A :class:`~repro.baselines.routing.ThresholdFeed` bound to the
        interval's kernel when the policy adapts its timer online
        (:attr:`~repro.baselines.policies.Policy.adapts_threshold`).
        ``None`` — the default, and the only value non-adaptive runs
        pass — leaves the kernel untouched (RNG streams and sample
        paths are identical either way).
    """
    missing = [
        c.name for c in topology.components if c.name not in service_dists
    ]
    if missing:
        raise SimulationError(f"missing service distributions for {missing}")
    if chunk_requests is not None and chunk_requests < 1:
        raise SimulationError(
            f"chunk_requests must be >= 1, got {chunk_requests}"
        )
    kernel = routing_kernel_for(policy)
    if threshold_feed is not None:
        kernel = kernel.bind_threshold_feed(threshold_feed)
    if (
        chunk_requests is not None
        and stream_into is not None
        and kernel.supports_chunking
    ):
        return _simulate_chunked_streaming(
            topology, kernel, arrival_rate, duration_s,
            service_dists, rng, classes, chunk_requests, stream_into,
        )
    outcome = _simulate_monolithic(
        topology, kernel, arrival_rate, duration_s, service_dists, rng,
        classes,
    )
    if stream_into is None:
        return outcome
    # Monolithic fallback under streaming collection (chunk-incapable
    # kernel, or no chunk size given): fold the arrays in at the end.
    stream_into.add_chunk(
        outcome.request_latencies,
        {name: [arr] for name, arr in outcome.component_sojourns.items()},
        outcome.class_of,
        outcome.class_names,
    )
    return IntervalOutcome(
        request_latencies=np.empty(0),
        component_sojourns={c.name: np.empty(0) for c in topology.components},
        component_service_samples={
            c.name: np.empty(0) for c in topology.components
        },
        duration_s=float(duration_s),
        arrival_rate=float(arrival_rate),
        class_of=None,
        class_names=outcome.class_names,
        streaming=stream_into,
        duplicates=outcome.duplicates,
    )


def _simulate_monolithic(
    topology: ServiceTopology,
    kernel,
    arrival_rate: float,
    duration_s: float,
    service_dists: Mapping[str, Distribution],
    rng: np.random.Generator,
    classes: Optional[ResolvedClassMix],
) -> IntervalOutcome:
    """The exact legacy single pass (golden-pinned sample paths)."""
    arrivals = poisson_arrivals(arrival_rate, duration_s, rng)
    n = arrivals.size
    class_of, scale = _class_draws(classes, rng, n)
    sojourns: Dict[str, List[np.ndarray]] = {
        c.name: [] for c in topology.components
    }
    services: Dict[str, List[np.ndarray]] = {
        c.name: [] for c in topology.components
    }
    predecessors = topology.predecessor_indices
    completions: List[np.ndarray] = []
    duplicates = 0
    gi = 0  # stage-major global group index (class-matrix column)
    for si, stage in enumerate(topology.stages):
        stage_lat = np.zeros(n)
        for group in stage.groups:
            if classes is not None:
                p_req = classes.group_participation[class_of, gi]
                gi += 1
                if np.all(p_req >= 1.0):
                    out = kernel.route_group_outcome(
                        arrivals, group, service_dists, rng,
                        sojourns, services, scale,
                    )
                    duplicates += out.duplicates
                    if n:
                        np.maximum(stage_lat, out.latencies, out=stage_lat)
                    continue
                # Class-conditional branch: each request joins with its
                # *class's* effective participation (0 drops the group
                # from that class's DAG without any draw noise — the
                # comparison is still made, keeping draw counts fixed).
                take = rng.random(n) < p_req
                out = kernel.route_group_outcome(
                    arrivals[take], group, service_dists, rng,
                    sojourns, services,
                    scale[take] if scale is not None else None,
                )
                duplicates += out.duplicates
                if n:
                    stage_lat[take] = np.maximum(stage_lat[take], out.latencies)
                continue
            if group.optional:
                # Probabilistic branch: each request joins this group's
                # fan-out with probability `participation`; skipped
                # requests contribute nothing to the stage max.
                take = rng.random(n) < group.participation
                out = kernel.route_group_outcome(
                    arrivals[take], group, service_dists, rng,
                    sojourns, services,
                )
                duplicates += out.duplicates
                if n:
                    stage_lat[take] = np.maximum(stage_lat[take], out.latencies)
                continue
            out = kernel.route_group_outcome(
                arrivals, group, service_dists, rng, sojourns, services
            )
            duplicates += out.duplicates
            if n:
                np.maximum(stage_lat, out.latencies, out=stage_lat)  # Eq. 3
        completions.append(
            _stage_completions(predecessors[si], completions, stage_lat)
        )
    overall = _compose_overall(topology, completions)
    return IntervalOutcome(
        request_latencies=overall,
        component_sojourns={
            name: (np.concatenate(parts) if parts else np.empty(0))
            for name, parts in sojourns.items()
        },
        component_service_samples={
            name: (np.concatenate(parts) if parts else np.empty(0))
            for name, parts in services.items()
        },
        duration_s=float(duration_s),
        arrival_rate=float(arrival_rate),
        class_of=class_of,
        class_names=None if classes is None else classes.names,
        duplicates=duplicates,
    )


def _simulate_chunked_streaming(
    topology: ServiceTopology,
    kernel,
    arrival_rate: float,
    duration_s: float,
    service_dists: Mapping[str, Distribution],
    rng: np.random.Generator,
    classes: Optional[ResolvedClassMix],
    chunk: int,
    stream: IntervalAccumulatorSet,
) -> IntervalOutcome:
    """True single-pass streaming: O(chunk) peak memory.

    Arrivals are generated one time window at a time (window length ≈
    ``chunk / rate``): a Poisson count for the window plus sorted
    uniforms within it is an exact Poisson process, so no O(requests)
    arrivals array ever exists.  Per-chunk draws necessarily follow a
    different (fully seeded, deterministic given chunk size) stream
    than the monolithic pass — the exact-vs-streamed contract is
    distributional, enforced by the estimator property tests, not
    bit-identity.
    """
    if arrival_rate < 0 or duration_s <= 0:
        raise SimulationError(
            f"need rate >= 0 and duration > 0, got {arrival_rate}, {duration_s}"
        )
    names = None if classes is None else classes.names
    window = (
        duration_s if arrival_rate <= 0 else min(chunk / arrival_rate, duration_s)
    )
    n_windows = max(1, int(np.ceil(duration_s / window)))
    carries: Dict[str, LindleyCarry] = {}
    predecessors = topology.predecessor_indices
    for wi in range(n_windows):
        w_start = wi * window
        w_end = min(duration_s, (wi + 1) * window)
        if w_end <= w_start:
            break
        cnt = int(rng.poisson(arrival_rate * (w_end - w_start)))
        t_chunk = np.sort(rng.uniform(0.0, w_end - w_start, cnt)) + w_start
        class_chunk, scale_chunk = _class_draws(classes, rng, cnt)
        if class_chunk is not None:
            # Index narrowing: class rows fit comfortably in int16 and
            # this is a per-request array we hold per chunk.
            class_chunk = class_chunk.astype(np.int16)
        chunk_soj: Dict[str, List[np.ndarray]] = {
            c.name: [] for c in topology.components
        }
        chunk_svc: Dict[str, List[np.ndarray]] = {
            c.name: [] for c in topology.components
        }
        completions: List[np.ndarray] = []
        gi = 0
        for si, stage in enumerate(topology.stages):
            stage_lat = np.zeros(cnt)
            for group in stage.groups:
                take: Optional[np.ndarray] = None
                sub_scale = scale_chunk
                if classes is not None:
                    p_req = classes.group_participation[class_chunk, gi]
                    gi += 1
                    if not np.all(p_req >= 1.0):
                        take = rng.random(cnt) < p_req
                elif group.optional:
                    take = rng.random(cnt) < group.participation
                if take is None:
                    group_lat = kernel.route_group_outcome(
                        t_chunk, group, service_dists, rng,
                        chunk_soj, chunk_svc, sub_scale, carries=carries,
                    ).latencies
                    np.maximum(stage_lat, group_lat, out=stage_lat)
                else:
                    sub_lat = kernel.route_group_outcome(
                        t_chunk[take], group, service_dists, rng,
                        chunk_soj, chunk_svc,
                        None if sub_scale is None else sub_scale[take],
                        carries=carries,
                    ).latencies
                    stage_lat[take] = np.maximum(stage_lat[take], sub_lat)
            completions.append(
                _stage_completions(predecessors[si], completions, stage_lat)
            )
        overall = _compose_overall(topology, completions)
        stream.add_chunk(overall, chunk_soj, class_chunk, names)
    return IntervalOutcome(
        request_latencies=np.empty(0),
        component_sojourns={c.name: np.empty(0) for c in topology.components},
        component_service_samples={
            c.name: np.empty(0) for c in topology.components
        },
        duration_s=float(duration_s),
        arrival_rate=float(arrival_rate),
        class_of=None,
        class_names=names,
        streaming=stream,
    )
