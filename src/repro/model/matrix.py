"""The performance matrix ``L`` — paper Eq. 5 with Table III updates.

``L[i][j]`` is the predicted change in overall service latency when
component ``c_i`` migrates from its current node to node ``n_j``::

    L[i][j] = l_overall − l'_overall                           (Eq. 5)

where the primed latency applies Table III's contention updates:

=============================  ======================================
component                      updated contention vector ``U'``
=============================  ======================================
``c_i`` itself                 ``U_{n_j}``  (the target node's total)
any component on the origin    ``U − U_{c_i}``
any component on the target    ``U + U_{c_i}``
any other component            ``U``  (unchanged)
=============================  ======================================

Two implementations with equal results (property-tested):

``build(method="reference")``
    literal translation of the rules above — O(m·k) entries, each
    recomputing all m latencies; kept legible as the specification.

``build(method="fast")``
    the production path.  One entries kernel,
    ``PerformanceMatrix._entries(rows, cols)``, returns
    ``L[rows][:, cols]`` and ``R[rows][:, cols]``, working through the
    rows in memory-bounded blocks:

    1. *Predictions* — one class-batched Eq. 1/Eq. 2 prediction per
       block, made only where Table III changes the contention: the
       other components on a row's origin lose ``d_i``, the components
       on a target column gain it (m + m/k per full row).
    2. *Unaffected groups* — their stage maximum is the first entry of
       a per-stage top-Q list of base group means that has no member
       on either node; no ``(k × m)`` sheet is ever materialised.
    3. *Affected groups* — only replica groups with a member on the
       origin or on the target column get a new mean, each summed
       member by member (``np.add.reduceat``) in group order, and
       raise their stage's maximum.
    4. *Compose* — stage maxima go through the chain sum, the DAG
       critical path or the class mix, as for the base latency.

    ``build("fast")`` is all rows × all columns; Algorithm 2's refresh
    (:meth:`PerformanceMatrix.algorithm2_update`) is the candidates on
    the origin/destination × all columns plus the other candidates ×
    those two columns; :meth:`PerformanceMatrix.rebuild_rows` is rows ×
    all columns.  Each step reads only the entry's own inputs, and
    Eq. 1 predictions are batch-invariant
    (:meth:`repro.model.regression.PolynomialRegressor.predict`), so an
    entry is bit-identical whichever block or caller computed it.

The matrix also tracks ``R[i][j]`` — the migrated component's *own*
latency reduction — because Algorithm 1 line 7 breaks ties on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError, SchedulingError
from repro.model.predictor import LatencyPredictor
from repro.model.service_latency import (
    exits_from_predecessors,
    stage_offsets,
    validate_predecessors,
)
from repro.service.component import ComponentClass

__all__ = ["MatrixInputs", "PerformanceMatrix"]


@dataclass
class MatrixInputs:
    """Everything Eq. 5 needs, in flat array form (matrix row order).

    Attributes
    ----------
    stage_of:
        ``(m,)`` stage index per component, non-decreasing.
    classes:
        Component class per component (length m).
    demands:
        ``(m, 4)`` per-component own demand ``U_ci``.
    assignment:
        ``(m,)`` current node index per component (the paper's A[m]).
    node_totals:
        ``(k, 4)`` estimated total resource consumption per node
        (all residents + background) — the monitor's node view.
    arrival_rates:
        ``(m,)`` per-component *induced* request arrival rate (req/s):
        the replica's nominal share of the service stream inflated by
        the active policy's duplicate load
        (:meth:`repro.baselines.policies.InducedLoad.replica_rate` —
        the predict phase folds the group-capped executed-copy
        multiplier in before building these inputs).  The M/G/1 stage
        therefore prices redundancy/reissue as the extra utilisation it
        really is.  For a policy that executes no duplicates the
        multiplier is exactly 1.0 and this is the historical
        policy-blind vector, bit for bit.
    node_limits:
        Optional ``(k,)`` cap on how many *components* each node can
        host (VM slots left after batch VMs).  ``None`` = unlimited.
        The scheduler never proposes a migration into a full node.
    group_of:
        Optional ``(m,)`` global replica-group id per component
        (non-decreasing, stage-major).  When given, the overall-latency
        objective uses the grouped Eqs. 3–4 (group mean, stage max) of
        :func:`repro.model.service_latency.grouped_overall_latency`;
        when ``None`` each component is its own group, which is exactly
        the paper's Eq. 3.
    stage_predecessors:
        Optional per-stage predecessor tuple
        (:attr:`~repro.service.topology.ServiceTopology.
        predecessor_indices`) for DAG topologies.  When given, the
        overall-latency objective composes stage maxima along the
        **critical path** instead of Eq. 4's chain sum, so ``L``
        entries weight a straggler by whether its stage actually sits
        on the predicted critical path — migrating a component on a
        side branch that the join never waits on predicts (correctly)
        no overall gain.  ``None`` keeps the exact chain sum, which is
        what a chain DAG's critical path degenerates to.
    class_weights:
        Optional ``(C,)`` request-class mix weights (sum to 1).  Given
        together with ``class_stage_participation``, the overall-latency
        objective becomes the mix-weighted average of per-class
        critical paths (:func:`repro.model.service_latency.
        mixed_class_overall_latency`) — a straggler on a stage only a
        light class visits is discounted by that class's weight.
        ``None`` (with participation also ``None``) keeps the exact
        homogeneous objective.
    class_stage_participation:
        Optional ``(C, S)`` per-class stage participation probabilities
        in ``[0, 1]``; required iff ``class_weights`` is given.
    class_service_scales:
        Optional ``(C,)`` positive per-class service-demand multipliers
        (:attr:`repro.service.classes.RequestClass.service_scale`): a
        class with scale ``σ_c`` works every stage it visits ``σ_c×``
        longer, so its per-class composition sees
        ``stage_lats · participation[c] · σ_c``.  Only meaningful with
        ``class_weights``; ``None`` means all ones (bit-identical to
        the unscaled objective).
    """

    stage_of: np.ndarray
    classes: List[ComponentClass]
    demands: np.ndarray
    assignment: np.ndarray
    node_totals: np.ndarray
    arrival_rates: np.ndarray
    node_limits: Optional[np.ndarray] = None
    group_of: Optional[np.ndarray] = None
    stage_predecessors: Optional[Tuple[Tuple[int, ...], ...]] = None
    class_weights: Optional[np.ndarray] = None
    class_stage_participation: Optional[np.ndarray] = None
    class_service_scales: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        self.stage_of = np.asarray(self.stage_of, dtype=np.int64)
        self.demands = np.asarray(self.demands, dtype=np.float64)
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        self.node_totals = np.asarray(self.node_totals, dtype=np.float64)
        self.arrival_rates = np.asarray(self.arrival_rates, dtype=np.float64)
        m = self.stage_of.size
        if len(self.classes) != m:
            raise ModelError("classes length must match stage_of")
        if self.demands.shape != (m, 4):
            raise ModelError(f"demands must be (m, 4), got {self.demands.shape}")
        if self.assignment.shape != (m,):
            raise ModelError("assignment must be (m,)")
        if self.node_totals.ndim != 2 or self.node_totals.shape[1] != 4:
            raise ModelError("node_totals must be (k, 4)")
        if self.arrival_rates.shape != (m,):
            raise ModelError("arrival_rates must be (m,)")
        k = self.node_totals.shape[0]
        if np.any(self.assignment < 0) or np.any(self.assignment >= k):
            raise ModelError("assignment indices out of node range")
        if np.any(np.diff(self.stage_of) < 0):
            raise ModelError("stage_of must be non-decreasing (stage-major order)")
        if np.any(self.demands < 0) or np.any(self.node_totals < 0):
            raise ModelError("demands and node_totals must be >= 0")
        if np.any(self.arrival_rates < 0):
            raise ModelError("arrival_rates must be >= 0")
        if self.node_limits is not None:
            self.node_limits = np.asarray(self.node_limits, dtype=np.int64)
            if self.node_limits.shape != (k,):
                raise ModelError("node_limits must be (k,)")
            counts = np.bincount(self.assignment, minlength=k)
            if np.any(counts > self.node_limits):
                raise ModelError(
                    "current assignment already exceeds node_limits"
                )
        if self.group_of is not None:
            self.group_of = np.asarray(self.group_of, dtype=np.int64)
            if self.group_of.shape != (m,):
                raise ModelError("group_of must be (m,)")
            if np.any(np.diff(self.group_of) < 0):
                raise ModelError("group_of must be non-decreasing")
            # Every group must live inside a single stage.
            for g in np.unique(self.group_of):
                stages = np.unique(self.stage_of[self.group_of == g])
                if stages.size != 1:
                    raise ModelError(f"group {g} spans stages {stages}")
        if self.stage_predecessors is not None:
            # The one shared DAG validator (service_latency), so the
            # invariant cannot drift between the matrix and the
            # composition functions.
            self.stage_predecessors = validate_predecessors(
                self.stage_predecessors, int(self.stage_of.max()) + 1
            )
        if (self.class_weights is None) != (
            self.class_stage_participation is None
        ):
            raise ModelError(
                "class_weights and class_stage_participation must be "
                "given together"
            )
        if self.class_weights is not None:
            self.class_weights = np.asarray(
                self.class_weights, dtype=np.float64
            )
            self.class_stage_participation = np.asarray(
                self.class_stage_participation, dtype=np.float64
            )
            n_stages = int(self.stage_of.max()) + 1
            c = self.class_weights.size
            if self.class_weights.ndim != 1 or c == 0:
                raise ModelError("class_weights must be a non-empty 1-D array")
            if np.any(self.class_weights < 0) or not np.isclose(
                self.class_weights.sum(), 1.0
            ):
                raise ModelError(
                    "class_weights must be non-negative and sum to 1"
                )
            if self.class_stage_participation.shape != (c, n_stages):
                raise ModelError(
                    "class_stage_participation must be (C, S) = "
                    f"({c}, {n_stages}), got "
                    f"{self.class_stage_participation.shape}"
                )
            if np.any(self.class_stage_participation < 0) or np.any(
                self.class_stage_participation > 1
            ):
                raise ModelError(
                    "class_stage_participation must lie in [0, 1]"
                )
        if self.class_service_scales is not None:
            if self.class_weights is None:
                raise ModelError(
                    "class_service_scales requires class_weights"
                )
            self.class_service_scales = np.asarray(
                self.class_service_scales, dtype=np.float64
            )
            if self.class_service_scales.shape != (self.class_weights.size,):
                raise ModelError(
                    "class_service_scales must be (C,) = "
                    f"({self.class_weights.size},), got "
                    f"{self.class_service_scales.shape}"
                )
            if np.any(self.class_service_scales <= 0) or not np.all(
                np.isfinite(self.class_service_scales)
            ):
                raise ModelError(
                    "class_service_scales must be finite and > 0"
                )

    def component_counts(self) -> np.ndarray:
        """Components currently hosted per node."""
        return np.bincount(self.assignment, minlength=self.k)

    @property
    def m(self) -> int:
        """Number of components."""
        return int(self.stage_of.size)

    @property
    def k(self) -> int:
        """Number of nodes."""
        return int(self.node_totals.shape[0])

    def copy(self) -> "MatrixInputs":
        """Deep copy (scheduling mutates assignment/node_totals)."""
        return MatrixInputs(
            stage_of=self.stage_of.copy(),
            classes=list(self.classes),
            demands=self.demands.copy(),
            assignment=self.assignment.copy(),
            node_totals=self.node_totals.copy(),
            arrival_rates=self.arrival_rates.copy(),
            node_limits=(
                None if self.node_limits is None else self.node_limits.copy()
            ),
            group_of=None if self.group_of is None else self.group_of.copy(),
            stage_predecessors=self.stage_predecessors,
            class_weights=(
                None
                if self.class_weights is None
                else self.class_weights.copy()
            ),
            class_stage_participation=(
                None
                if self.class_stage_participation is None
                else self.class_stage_participation.copy()
            ),
            class_service_scales=(
                None
                if self.class_service_scales is None
                else self.class_service_scales.copy()
            ),
        )


#: Most work items (predictions, member latencies, top-list slots) one
#: block of :meth:`PerformanceMatrix._entries` holds at once.  Rows are
#: grouped into blocks under this bound, so memory stays flat however
#: many rows a call asks for; no entry depends on the block size.
_BLOCK_ITEMS = 1 << 15


def _csr_expand(
    ptr: np.ndarray, keys: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Positions ``ptr[key] .. ptr[key + 1] - 1`` of every key,
    concatenated in key order, and the index of the key each came from."""
    starts = ptr[keys]
    counts = ptr[keys + 1] - starts
    owner = np.repeat(np.arange(keys.size), counts)
    shift = np.repeat(starts - (np.cumsum(counts) - counts), counts)
    return np.arange(owner.size) + shift, owner


@dataclass
class _Layout:
    """Where components and replica groups sit under one allocation —
    what the entries kernel indexes instead of materialising sheets.

    ``on_node[g, n]`` says group ``g`` has a member on node ``n``.
    Each stage keeps a top list of the ``Q`` groups with the largest
    base means, in descending order and padded with a sentinel group
    whose mean is ``-inf``; ``Q = 2·(most groups of one stage on one
    node) + 1``.  A migration touches at most ``Q − 1`` groups of a
    stage, so the first untouched group on the list holds the stage's
    maximum over untouched groups.
    """

    node_ptr: np.ndarray  # (k + 1,) CSR offsets into node_comps
    node_comps: np.ndarray  # (m,) components sorted by node
    node_rank: np.ndarray  # (m,) each component's position on its node
    max_per_node: int
    group_ptr: np.ndarray  # (k + 1,) CSR offsets into node_groups
    node_groups: np.ndarray  # groups with a member on each node, ascending
    on_node: np.ndarray  # (G + 1, k) bool; the last row is the sentinel's
    top_means: np.ndarray  # (Q, S) base means down each stage's top list
    top_on_node: np.ndarray  # (Q, k, S) bool: entry q of stage s is on node n

    @classmethod
    def of(cls, pm: "PerformanceMatrix") -> "_Layout":
        inp = pm.inputs
        k = inp.k
        n_groups = pm._group_offsets.size
        node_ptr = np.concatenate(
            [[0], np.cumsum(np.bincount(inp.assignment, minlength=k))]
        )
        node_comps = np.argsort(inp.assignment, kind="stable")
        node_rank = np.empty(inp.m, dtype=np.int64)
        node_rank[node_comps] = (
            np.arange(inp.m) - node_ptr[inp.assignment[node_comps]]
        )
        on_node = np.zeros((n_groups + 1, k), dtype=bool)
        on_node[pm._group_ordinal, inp.assignment] = True
        nz_node, nz_group = np.nonzero(on_node[:-1].T)
        per_stage_node = np.add.reduceat(
            on_node[:-1].astype(np.int64), pm._stage_offsets_groups, axis=0
        )
        stage_sizes = np.diff(np.append(pm._stage_offsets_groups, n_groups))
        q = int(min(2 * per_stage_node.max() + 1, stage_sizes.max()))
        order = np.lexsort((-pm._base_group_means, pm._group_stage))
        stage = pm._group_stage[order]
        rank = np.arange(n_groups) - pm._stage_offsets_groups[stage]
        keep = rank < q
        top = np.full((q, stage_sizes.size), n_groups, dtype=np.int64)
        top[rank[keep], stage[keep]] = order[keep]
        return cls(
            node_ptr=node_ptr,
            node_comps=node_comps,
            node_rank=node_rank,
            max_per_node=int(np.diff(node_ptr).max()),
            group_ptr=np.concatenate(
                [[0], np.cumsum(np.bincount(nz_node, minlength=k))]
            ),
            node_groups=nz_group,
            on_node=on_node,
            top_means=np.append(pm._base_group_means, -np.inf)[top],
            top_on_node=np.ascontiguousarray(on_node[top].transpose(0, 2, 1)),
        )


class PerformanceMatrix:
    """Builds and incrementally maintains ``L`` (and the tie-break ``R``)."""

    def __init__(self, inputs: MatrixInputs, predictor: LatencyPredictor) -> None:
        self.inputs = inputs
        self.predictor = predictor
        group_of = (
            inputs.group_of
            if inputs.group_of is not None
            else np.arange(inputs.m, dtype=np.int64)
        )
        self._group_offsets = stage_offsets(group_of)
        self._group_sizes = np.diff(
            np.append(self._group_offsets, inputs.m)
        ).astype(np.float64)
        self._stage_offsets_groups = stage_offsets(
            inputs.stage_of[self._group_offsets]
        )
        # Group ordinal (0..G-1) of every component, for incremental
        # group-mean updates in entry().
        self._group_ordinal = (
            np.searchsorted(self._group_offsets, np.arange(inputs.m), side="right")
            - 1
        )
        # Group member ranges and stage ordinals, for the entries kernel.
        self._group_ptr = np.append(self._group_offsets, inputs.m)
        self._group_stage = (
            np.searchsorted(
                self._stage_offsets_groups,
                np.arange(self._group_offsets.size),
                side="right",
            )
            - 1
        )
        # With one component per group (the paper's exact Eq. 3) the
        # group-mean reduction is the identity — skip it on hot paths.
        self._trivial_groups = bool(np.all(self._group_sizes == 1.0))
        # DAG topologies compose stage maxima along the critical path;
        # None keeps the exact chain sum (bit-identical to pre-DAG).
        # Predecessors were validated by MatrixInputs; exits are
        # precomputed here because _compose sits on the greedy loop's
        # innermost path and must not re-derive them per call.
        self._dag_preds = inputs.stage_predecessors
        if self._dag_preds is not None:
            self._dag_exits = exits_from_predecessors(self._dag_preds)
        # Request-class mix: None keeps the exact homogeneous objective
        # (bit-identical to pre-class builds); with a mix, _compose
        # averages per-class critical paths by weight.  Per-class
        # service scales fold into the participation factors once here
        # (None keeps the unscaled factors bit-identical).
        self._mix_weights = inputs.class_weights
        self._mix_participation = inputs.class_stage_participation
        if (
            self._mix_participation is not None
            and inputs.class_service_scales is not None
        ):
            self._mix_participation = (
                self._mix_participation
                * inputs.class_service_scales[:, None]
            )
        # Component classes (first-appearance order) and each
        # component's class index, for class-batched predictions.
        self._classes: List[ComponentClass] = list(dict.fromkeys(inputs.classes))
        index = {cls: cid for cid, cls in enumerate(self._classes)}
        self._class_id = np.array(
            [index[cls] for cls in inputs.classes], dtype=np.int64
        )
        self.L: Optional[np.ndarray] = None
        self.R: Optional[np.ndarray] = None
        self._refresh_base()

    # ------------------------------------------------------------------
    # base state
    # ------------------------------------------------------------------
    def _contention_now(self) -> np.ndarray:
        """Per-component current contention: node total minus own demand."""
        inp = self.inputs
        u = inp.node_totals[inp.assignment] - inp.demands
        return np.maximum(u, 0.0)

    def _latencies_full(self, contention: np.ndarray) -> np.ndarray:
        """Latency of every component under an ``(m, 4)`` contention array."""
        return self._latencies_subset(np.arange(self.inputs.m), contention)

    def _compose(self, stage_max: np.ndarray) -> np.ndarray:
        """Overall latency from per-stage maxima: Eq. 4's chain sum, or
        the critical path when the inputs carry a stage DAG.  Works on
        ``(S,)`` and batched ``(..., S)`` sheets alike.

        Inlines :func:`~repro.model.service_latency.dag_overall_latency`
        against the pre-validated predecessors and precomputed exit set
        — this runs per candidate evaluation inside the greedy loop, so
        the public function's per-call validation would be pure waste.

        With a request-class mix
        (:attr:`MatrixInputs.class_weights`/``class_stage_participation``)
        the objective is the mix-weighted average of per-class
        compositions, each over participation-scaled stage latencies —
        the matrix form of :func:`~repro.model.service_latency.
        mixed_class_overall_latency`, looped over the (small) class
        axis so the batched sheets stay vectorised.
        """
        if self._mix_weights is not None:
            overall = np.zeros(stage_max.shape[:-1], dtype=np.float64)
            for c in range(self._mix_weights.size):
                overall = overall + self._mix_weights[c] * self._compose_one(
                    stage_max * self._mix_participation[c]
                )
            return overall
        return self._compose_one(stage_max)

    def _compose_one(self, stage_max: np.ndarray) -> np.ndarray:
        """One composition pass (chain sum or critical path)."""
        if self._dag_preds is None:
            return stage_max.sum(axis=-1)
        completion = np.empty_like(stage_max)
        for si, ps in enumerate(self._dag_preds):
            if not ps:
                completion[..., si] = stage_max[..., si]
                continue
            ready = completion[..., ps[0]]
            for p in ps[1:]:
                ready = np.maximum(ready, completion[..., p])
            completion[..., si] = ready + stage_max[..., si]
        overall = completion[..., self._dag_exits[0]]
        for si in self._dag_exits[1:]:
            overall = np.maximum(overall, completion[..., si])
        return overall

    def _overall(self, latencies: np.ndarray) -> float:
        """Grouped Eqs. 3–4 (exactly the paper's form when each
        component is its own group)."""
        means = (
            np.add.reduceat(latencies, self._group_offsets) / self._group_sizes
        )
        return float(
            self._compose(np.maximum.reduceat(means, self._stage_offsets_groups))
        )

    def _refresh_base(self) -> None:
        self._layout_cache: Optional[_Layout] = None
        self._u_now = self._contention_now()
        self.base_latencies = self._latencies_full(self._u_now)
        self._base_group_means = (
            np.add.reduceat(self.base_latencies, self._group_offsets)
            / self._group_sizes
        )
        self.base_overall = float(
            self._compose(
                np.maximum.reduceat(
                    self._base_group_means, self._stage_offsets_groups
                )
            )
        )

    @property
    def current_latencies(self) -> np.ndarray:
        """Predicted per-component latency under the current allocation."""
        return self.base_latencies.copy()

    @property
    def current_overall(self) -> float:
        """Predicted overall service latency (Eq. 4) right now."""
        return self.base_overall

    # ------------------------------------------------------------------
    # single entry (the specification the reference build calls)
    # ------------------------------------------------------------------
    def entry(self, i: int, j: int) -> tuple[float, float]:
        """Exact ``(L[i][j], R[i][j])`` for one candidate migration.

        Incremental: only components on the origin and target nodes
        change latency (Table III), so only their groups' means — and
        only the stage maxima over the cached group-mean vector — are
        recomputed.  Matches the full recomputation bit-for-bit (see
        the reference build, which calls this for every cell).
        """
        inp = self.inputs
        if not (0 <= i < inp.m and 0 <= j < inp.k):
            raise ModelError(f"entry ({i}, {j}) out of range")
        origin = int(inp.assignment[i])
        if j == origin:
            return 0.0, 0.0
        d_i = inp.demands[i]
        affected = np.flatnonzero(
            (inp.assignment == origin) | (inp.assignment == j)
        )
        u_aff = self._u_now[affected].copy()
        on_origin = inp.assignment[affected] == origin
        u_aff[on_origin] = np.maximum(u_aff[on_origin] - d_i, 0.0)
        u_aff[~on_origin] = u_aff[~on_origin] + d_i
        self_pos = int(np.searchsorted(affected, i))
        u_aff[self_pos] = inp.node_totals[j]  # Table III row 1: U' = U_nj
        l_aff = self._latencies_subset(affected, u_aff)
        # Incremental group means: subtract old contributions, add new.
        means = self._base_group_means.copy()
        groups = self._group_ordinal[affected]
        delta = (l_aff - self.base_latencies[affected]) / self._group_sizes[groups]
        np.add.at(means, groups, delta)
        l_overall_new = float(
            self._compose(np.maximum.reduceat(means, self._stage_offsets_groups))
        )
        return (
            float(self.base_overall - l_overall_new),
            float(self.base_latencies[i] - l_aff[self_pos]),
        )

    def _latencies_subset(
        self, rows: np.ndarray, contention: np.ndarray
    ) -> np.ndarray:
        """Latencies of components ``rows`` (repeats allowed) under the
        matching contention rows — one prediction per class."""
        inp = self.inputs
        if len(self._classes) == 1:
            cls = self._classes[0]
            return _mg1(
                self.predictor.predict_mean_service(cls, contention),
                self.predictor.scv(cls),
                inp.arrival_rates[rows],
                self.predictor.rho_max,
            )
        out = np.empty(rows.size, dtype=np.float64)
        row_class = self._class_id[rows]
        for cid, cls in enumerate(self._classes):
            sel = np.flatnonzero(row_class == cid)
            if sel.size == 0:
                continue
            out[sel] = _mg1(
                self.predictor.predict_mean_service(
                    cls, np.take(contention, sel, 0)
                ),
                self.predictor.scv(cls),
                inp.arrival_rates[rows[sel]],
                self.predictor.rho_max,
            )
        return out

    # ------------------------------------------------------------------
    # full builds
    # ------------------------------------------------------------------
    def build(self, method: str = "fast") -> "PerformanceMatrix":
        """Compute the full ``L`` and ``R``; returns self."""
        inp = self.inputs
        if method == "reference":
            self._build_reference()
        elif method == "fast":
            self.L, self.R = self._entries(
                np.arange(inp.m, dtype=np.int64), np.arange(inp.k, dtype=np.int64)
            )
        else:
            raise ModelError(f"unknown build method {method!r}")
        return self

    def _build_reference(self) -> None:
        inp = self.inputs
        L = np.zeros((inp.m, inp.k))
        R = np.zeros((inp.m, inp.k))
        for i in range(inp.m):
            for j in range(inp.k):
                L[i, j], R[i, j] = self.entry(i, j)
        self.L, self.R = L, R

    # ------------------------------------------------------------------
    # the entries kernel
    # ------------------------------------------------------------------
    def _layout(self) -> _Layout:
        """Node/group incidence of the current allocation (cached until
        the next :meth:`_refresh_base`)."""
        if self._layout_cache is None:
            self._layout_cache = _Layout.of(self)
        return self._layout_cache

    def _entries(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(L[rows][:, cols], R[rows][:, cols])`` under the current
        allocation, computed in blocks of rows.

        A block holds at most about :data:`_BLOCK_ITEMS` work items
        (stage maxima, group members, predictions); no entry depends on
        which block, or which caller, computed it.
        """
        lay = self._layout()
        origin = self.inputs.assignment[rows]
        groups_on = np.diff(lay.group_ptr)
        max_group = int(self._group_sizes.max())
        per_row = (
            cols.size
            * (self._stage_offsets_groups.size + groups_on[origin] * max_group)
            + int(groups_on[cols].sum()) * max_group
            + int(np.sum(lay.node_ptr[cols + 1] - lay.node_ptr[cols]))
            + lay.max_per_node
        )
        cuts = np.flatnonzero(np.diff(np.cumsum(per_row) // _BLOCK_ITEMS)) + 1
        # Each class's mean service time for a new arrival on every node
        # (Table III row 1), and its Eq. 2 SCV.
        arrival = np.stack(
            [
                self.predictor.predict_mean_service(cls, self.inputs.node_totals)
                for cls in self._classes
            ]
        )
        scv = np.array([self.predictor.scv(cls) for cls in self._classes])
        L = np.empty((rows.size, cols.size))
        R = np.empty((rows.size, cols.size))
        for lo, hi in zip(
            np.concatenate([[0], cuts]), np.concatenate([cuts, [rows.size]])
        ):
            L[lo:hi], R[lo:hi] = self._entries_block(
                lay, arrival, scv, rows[lo:hi], cols
            )
        return L, R

    def _entries_block(
        self,
        lay: _Layout,
        arrival: np.ndarray,
        scv: np.ndarray,
        rows: np.ndarray,
        cols: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """One block of :meth:`_entries`, steps numbered as in the
        module docstring."""
        inp = self.inputs
        A = inp.assignment
        n_r, n_c = rows.size, cols.size
        origin = A[rows]
        d = inp.demands[rows]
        # Candidate pairs (block row b, target column) off the diagonal.
        pair_b = np.repeat(np.arange(n_r), n_c)
        pair_col = np.tile(cols, n_r)
        live = np.flatnonzero(pair_col != origin[pair_b])
        pair_b, pair_col = pair_b[live], pair_col[live]
        pair_o = origin[pair_b]
        pair_row = rows[pair_b]

        # 1. Predictions: the other components on a row's origin lose
        # its demand, those on a target column gain it.
        pos, minus_b = _csr_expand(lay.node_ptr, origin)
        minus_x = lay.node_comps[pos]
        keep = minus_x != rows[minus_b]
        minus_x, minus_b = minus_x[keep], minus_b[keep]
        on_cols = lay.node_comps[_csr_expand(lay.node_ptr, cols)[0]]
        plus_b, plus_i = np.nonzero(A[on_cols] != origin[:, None])
        plus_x = on_cols[plus_i]
        # np.take: row gathers of (n, 4) arrays, far cheaper than [idx].
        u, take = self._u_now, np.take
        changed = self._latencies_subset(
            np.concatenate([minus_x, plus_x]),
            np.concatenate(
                [
                    np.maximum(take(u, minus_x, 0) - take(d, minus_b, 0), 0.0),
                    take(u, plus_x, 0) + take(d, plus_b, 0),
                ]
            ),
        )
        # Flat lookup tables: (block row, rank on its node) for the
        # origin's components, (block row, slot among the target
        # columns' components) for the targets'.
        n_minus = minus_x.size
        lose = np.empty(n_r * lay.max_per_node)
        lose[minus_b * lay.max_per_node + lay.node_rank[minus_x]] = changed[:n_minus]
        gain = np.empty(n_r * on_cols.size)
        gain[plus_b * on_cols.size + plus_i] = changed[n_minus:]
        col_slot = np.empty(inp.m, dtype=np.int64)
        col_slot[on_cols] = np.arange(on_cols.size)
        # The migrating component itself on its target (Table III row 1).
        row_class = self._class_id[pair_row]
        l_self = _mg1(
            arrival[row_class, pair_col],
            scv[row_class],
            inp.arrival_rates[pair_row],
            self.predictor.rho_max,
        )

        # 2. Unaffected groups: the first group down each stage's top
        # list with no member on the origin or the target.
        n_stages = lay.top_means.shape[1]
        touched = take(lay.top_on_node[0], pair_o, 0) | take(
            lay.top_on_node[0], pair_col, 0
        )
        stage_max = np.repeat(lay.top_means[:1], pair_b.size, axis=0)
        flat_max = stage_max.reshape(-1)
        left = np.flatnonzero(touched)
        flat_max[left] = -np.inf
        for q in range(1, lay.top_means.shape[0]):
            if left.size == 0:
                break
            p, s = np.divmod(left, n_stages)
            touched = lay.top_on_node[q, pair_o[p], s] | lay.top_on_node[
                q, pair_col[p], s
            ]
            flat_max[left[~touched]] = lay.top_means[q, s[~touched]]
            left = left[touched]

        # 3. Affected groups: every group on the origin, plus those on
        # the target but not on the origin; each one summed member by
        # member, then folded into its stage's maximum.
        pos, tri_pair = _csr_expand(lay.group_ptr, pair_o)
        pos_c, pair_c = _csr_expand(lay.group_ptr, pair_col)
        tri_c = lay.node_groups[pos_c]
        keep = ~lay.on_node[tri_c, pair_o[pair_c]]
        tri_g = np.concatenate([lay.node_groups[pos], tri_c[keep]])
        tri_pair = np.concatenate([tri_pair, pair_c[keep]])
        if self._trivial_groups:
            mem_x, mem_pair = tri_g, tri_pair
        else:
            mem_x, mem_t = _csr_expand(self._group_ptr, tri_g)
            mem_pair = tri_pair[mem_t]
        lat = self.base_latencies[mem_x]
        mem_node = A[mem_x]
        mem_b = pair_b[mem_pair]
        hit = np.flatnonzero(mem_node == pair_o[mem_pair])
        lat[hit] = lose[mem_b[hit] * lay.max_per_node + lay.node_rank[mem_x[hit]]]
        hit = np.flatnonzero(mem_node == pair_col[mem_pair])
        lat[hit] = gain[mem_b[hit] * on_cols.size + col_slot[mem_x[hit]]]
        hit = np.flatnonzero(mem_x == pair_row[mem_pair])
        lat[hit] = l_self[mem_pair[hit]]
        if self._trivial_groups:
            means = lat
        else:
            sizes = self._group_ptr[tri_g + 1] - self._group_ptr[tri_g]
            means = (
                np.add.reduceat(lat, np.cumsum(sizes) - sizes)
                / self._group_sizes[tri_g]
            )
        np.maximum.at(flat_max, tri_pair * n_stages + self._group_stage[tri_g], means)

        # 4. Compose: chain sum, critical path or class mix.
        L = np.zeros((n_r, n_c))
        R = np.zeros((n_r, n_c))
        L.reshape(-1)[live] = self.base_overall - self._compose(stage_max)
        R.reshape(-1)[live] = self.base_latencies[pair_row] - l_self
        return L, R

    # ------------------------------------------------------------------
    # migration + Algorithm 2 incremental update
    # ------------------------------------------------------------------
    def apply_migration(self, i: int, j: int) -> int:
        """Mutate state as if ``c_i`` moved to node ``j``; returns origin.

        Updates the allocation array and the node totals, then refreshes
        the base latencies — O(m), matching the paper's claim that the
        matrix need not be rebuilt from scratch inside the loop.
        """
        inp = self.inputs
        origin = int(inp.assignment[i])
        if origin == j:
            raise SchedulingError(f"no-op migration of component {i}")
        inp.node_totals[origin] = np.maximum(
            inp.node_totals[origin] - inp.demands[i], 0.0
        )
        inp.node_totals[j] = inp.node_totals[j] + inp.demands[i]
        inp.assignment[i] = j
        self._refresh_base()
        return origin

    def algorithm2_update(
        self, moved: int, n_origin: int, n_destination: int, candidates: Iterable[int]
    ) -> None:
        """Paper Algorithm 2: refresh the affected rows and columns.

        After migrating ``c_moved``: (a) the ``n_origin`` and
        ``n_destination`` columns change for every candidate row, and
        (b) every candidate component hosted on either node gets its
        whole row refreshed.  Entries of non-candidate rows and the
        moved component's row are left stale, exactly as in the paper
        (the moved component is no longer a candidate).
        """
        if self.L is None or self.R is None:
            raise SchedulingError("matrix must be built before updating")
        inp = self.inputs
        cand = np.array(
            sorted(set(int(c) for c in candidates) - {int(moved)}), dtype=np.int64
        )
        on_pair = np.isin(inp.assignment[cand], (n_origin, n_destination))
        whole = cand[on_pair]
        if whole.size:
            self.L[whole], self.R[whole] = self._entries(
                whole, np.arange(inp.k, dtype=np.int64)
            )
        rest = cand[~on_pair]
        if rest.size:
            cols = np.array([n_origin, n_destination], dtype=np.int64)
            L, R = self._entries(rest, cols)
            self.L[rest[:, None], cols] = L
            self.R[rest[:, None], cols] = R

    def rebuild_rows(self, rows: Sequence[int]) -> None:
        """Exact refresh of whole rows (used by the 'full' update mode)."""
        if self.L is None or self.R is None:
            raise SchedulingError("matrix must be built before updating")
        rows = np.asarray(rows, dtype=np.int64).reshape(-1)
        if rows.size:
            self.L[rows], self.R[rows] = self._entries(
                rows, np.arange(self.inputs.k, dtype=np.int64)
            )


def _mg1(means, scv, lam, rho_max):
    from repro.model.queueing import mg1_latency_array

    return mg1_latency_array(means, scv, lam, rho_max=rho_max)
