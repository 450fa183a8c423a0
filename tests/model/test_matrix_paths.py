"""One entry, one value: every path through the entries kernel agrees.

``build("fast")``, Algorithm 2's refresh (``algorithm2_update``) and
``rebuild_rows`` all compute ``L``/``R`` entries through the same
blocked kernel, with different row/column sets and block boundaries.
For one matrix state each entry must come out bit-identical whichever
path (and block) computed it — on grouped, DAG and class-mix
instances, with a stub and with a fitted Eq. 1 predictor.  The
fast-vs-reference agreement (up to rounding) lives in
``test_matrix.py``/``test_matrix_dag.py``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.model.matrix as matrix_mod
from repro.model.combined import CombinedServiceTimeModel
from repro.model.matrix import MatrixInputs, PerformanceMatrix
from repro.model.predictor import TrainedPredictor
from repro.service.component import ComponentClass

from tests.model.test_matrix import StubPredictor, _random_inputs

CLASSES = (
    ComponentClass.SEGMENTING,
    ComponentClass.SEARCHING,
    ComponentClass.AGGREGATING,
)
KINDS = ("plain", "grouped", "dag", "mix")


class ElementwiseStub(StubPredictor):
    """The matrix-test stub with its affine model summed column by
    column.  The plain stub's ``u @ coef`` goes through BLAS, whose
    rounding may follow the batch shape, so a bit-equality claim on it
    would rest on BLAS internals."""

    def predict_mean_service(self, cls, contention):
        u = np.atleast_2d(np.asarray(contention, dtype=np.float64))
        acc = u[:, 0] * self.coef[0]
        for j in range(1, 4):
            acc = acc + u[:, j] * self.coef[j]
        return self.base * (1.0 + acc)


def _trained_predictor():
    """Eq. 1 fitted per class on synthetic profiling samples."""
    rng = np.random.default_rng(77)
    cap = np.array([1.0, 40.0, 300.0, 100.0])
    models, scvs = {}, {}
    for n, cls in enumerate(CLASSES):
        u = rng.uniform(0, 1, (300, 4)) * cap
        slope = rng.uniform(0.2, 1.0, 4)
        x = 0.004 * (1 + (u / cap) @ slope + 0.3 * (u[:, 0] / cap[0]) ** 2)
        x *= rng.lognormal(0.0, 0.05, x.size)
        models[cls] = CombinedServiceTimeModel().fit(u, x)
        scvs[cls] = 0.5 + 0.25 * n
    return TrainedPredictor(models, scvs)


PREDICTORS = {"stub": ElementwiseStub(), "trained": _trained_predictor()}


def _instance(seed: int, kind: str) -> MatrixInputs:
    """A random instance: three component classes, dense stage labels,
    and (unless ``plain``) replica groups of 1-4 inside each stage."""
    rng = np.random.default_rng(seed)
    base = _random_inputs(
        rng, m=int(rng.integers(6, 30)), k=int(rng.integers(2, 7)), n_stages=3
    )
    m = base.m
    stage_of = np.unique(base.stage_of, return_inverse=True)[1]
    n_stages = int(stage_of.max()) + 1
    extra = {}
    if kind != "plain":
        group_of = np.empty(m, dtype=np.int64)
        group, left = -1, 0
        for x in range(m):
            if left == 0 or stage_of[x] != stage_of[x - 1]:
                group, left = group + 1, int(rng.integers(1, 5))
            group_of[x] = group
            left -= 1
        extra["group_of"] = group_of
    if kind == "dag" and n_stages >= 3:
        # Entry fans out to the middle stages; the last joins them all.
        extra["stage_predecessors"] = (
            ((),)
            + tuple((0,) for _ in range(1, n_stages - 1))
            + (tuple(range(n_stages - 1)),)
        )
    if kind == "mix":
        participation = rng.uniform(0, 1, (2, n_stages))
        participation[:, 0] = 1.0
        extra["class_weights"] = np.array([0.6, 0.4])
        extra["class_stage_participation"] = participation
        extra["class_service_scales"] = np.array([1.0, 1.5])
    return MatrixInputs(
        stage_of=stage_of,
        classes=[CLASSES[int(c)] for c in rng.integers(0, 3, m)],
        demands=base.demands,
        assignment=base.assignment,
        node_totals=base.node_totals,
        arrival_rates=base.arrival_rates,
        **extra,
    )


def _first_migration(pm: PerformanceMatrix):
    """Greedy's pick: the largest entry (never on the zero diagonal
    unless every move loses, then the next node over)."""
    i, j = (int(v) for v in np.unravel_index(np.argmax(pm.L), pm.L.shape))
    if j == int(pm.inputs.assignment[i]):
        j = (j + 1) % pm.inputs.k
    return i, j


@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(KINDS),
)
@settings(max_examples=40, deadline=None)
def test_build_update_and_rebuild_agree_bit_for_bit(predictor, seed, kind):
    pred = PREDICTORS[predictor]
    inputs = _instance(seed, kind)
    pm = PerformanceMatrix(inputs, pred).build("fast")
    i, j = _first_migration(pm)
    origin = pm.apply_migration(i, j)
    candidates = [c for c in range(inputs.m) if c != i]
    pm.algorithm2_update(i, origin, j, candidates)

    fresh = PerformanceMatrix(inputs.copy(), pred).build("fast")
    cand = np.asarray(candidates)
    whole = cand[np.isin(inputs.assignment[cand], (origin, j))]
    cols = [origin, j]
    for M, F in ((pm.L, fresh.L), (pm.R, fresh.R)):
        np.testing.assert_array_equal(M[whole], F[whole])
        np.testing.assert_array_equal(M[cand][:, cols], F[cand][:, cols])

    # rebuild_rows on a subset, in scrambled order.
    rows = np.random.default_rng(seed).permutation(cand)[: max(1, cand.size // 2)]
    pm.rebuild_rows(rows)
    np.testing.assert_array_equal(pm.L[rows], fresh.L[rows])
    np.testing.assert_array_equal(pm.R[rows], fresh.R[rows])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("predictor", sorted(PREDICTORS))
def test_block_size_never_changes_an_entry(monkeypatch, predictor, kind):
    """One row per block, or every row in one block: same matrix."""
    inputs = _instance(5, kind)
    pred = PREDICTORS[predictor]
    monkeypatch.setattr(matrix_mod, "_BLOCK_ITEMS", 1)
    tiny = PerformanceMatrix(inputs.copy(), pred).build("fast")
    monkeypatch.setattr(matrix_mod, "_BLOCK_ITEMS", 1 << 40)
    huge = PerformanceMatrix(inputs.copy(), pred).build("fast")
    np.testing.assert_array_equal(tiny.L, huge.L)
    np.testing.assert_array_equal(tiny.R, huge.R)


@pytest.mark.parametrize("kind", KINDS)
def test_fast_matches_the_specification(kind):
    """The kernel against ``entry()`` on instances with several
    classes and uneven groups — up to rounding, as the specification
    sums group means incrementally."""
    inputs = _instance(11, kind)
    pred = PREDICTORS["trained"]
    fast = PerformanceMatrix(inputs.copy(), pred).build("fast")
    ref = PerformanceMatrix(inputs.copy(), pred).build("reference")
    np.testing.assert_allclose(fast.L, ref.L, rtol=1e-10, atol=1e-12)
    np.testing.assert_allclose(fast.R, ref.R, rtol=1e-10, atol=1e-12)
