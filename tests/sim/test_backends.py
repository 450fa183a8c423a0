"""Tests for the execution-backend seam (:mod:`repro.sim.backends`)."""

import pickle

import pytest

from repro.errors import ConfigurationError, WorkerTaskError
from repro.sim.backends import (
    BACKEND_NAMES,
    PROCESS_SPAWN_TAX_S,
    ExecutionBackend,
    ProcessBackend,
    SerialBackend,
    auto_backend,
    backend_from_name,
    resolve_backend,
)


def _square(x: int) -> int:
    return x * x


def _fail_on_two(x: int) -> int:
    if x == 2:
        raise ValueError("deliberate failure on 2")
    return x * x


class TestSerialBackend:
    def test_map_preserves_order(self):
        assert SerialBackend().map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_imap_yields_index_result_pairs(self):
        pairs = list(SerialBackend().imap_unordered(_square, [5, 6]))
        assert pairs == [(0, 25), (1, 36)]

    def test_empty(self):
        assert SerialBackend().map(_square, []) == []

    def test_failure_wrapped_with_index_and_cause(self):
        backend = SerialBackend()
        collected = []
        with pytest.raises(WorkerTaskError) as err:
            for pair in backend.imap_unordered(_fail_on_two, [1, 2, 3]):
                collected.append(pair)
        assert err.value.index == 1
        assert isinstance(err.value.__cause__, ValueError)
        assert "deliberate failure" in str(err.value)
        # The task before the failure was yielded; the one after never ran.
        assert collected == [(0, 1)]


class TestProcessBackend:
    """One spawn round-trip (slow-ish)."""

    def test_map_matches_serial(self):
        items = list(range(7))
        assert ProcessBackend(2).map(_square, items) == [x * x for x in items]

    def test_invalid_construction(self):
        with pytest.raises(ConfigurationError):
            ProcessBackend(0)


@pytest.mark.tier2
class TestProcessBackendFailure:
    def test_failure_survives_pickling_with_index(self):
        with pytest.raises(WorkerTaskError) as err:
            ProcessBackend(2).map(_fail_on_two, [1, 3, 2, 4])
        assert err.value.index == 2
        assert "deliberate failure" in str(err.value)


class TestFactories:
    @pytest.mark.parametrize("name", BACKEND_NAMES)
    def test_names_resolve(self, name, tmp_path):
        # The distributed backend is the one name that cannot resolve
        # without a spool directory; everything else ignores the kwarg.
        spool = tmp_path / "spool" if name == "distributed" else None
        backend = backend_from_name(name, workers=2, spool=spool)
        assert isinstance(backend, ExecutionBackend)
        assert backend.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="serial, process"):
            backend_from_name("ssh", workers=2)

    def test_thread_name_rejected(self):
        with pytest.raises(ConfigurationError, match="'thread'"):
            backend_from_name("thread", workers=2)

    def test_auto_rule(self):
        assert auto_backend(1, 100).name == "serial"
        assert auto_backend(4, 1).name == "serial"
        # No estimate: parallelism is assumed to pay.
        assert auto_backend(2, 2).name == "process"

    def test_auto_rejects_bad_workers(self):
        with pytest.raises(ConfigurationError):
            auto_backend(0, 5)

    def test_resolve_passthrough_and_names(self):
        ready = ProcessBackend(3)
        assert resolve_backend(ready, workers=1, n_tasks=99) is ready
        assert resolve_backend(None, 4, 2).name == "process"
        assert resolve_backend("auto", 4, 50, est_cost_s=0.0).name == "serial"
        assert resolve_backend("serial", 4, 50).name == "serial"


class TestCostAwareAuto:
    """Process exactly when the parallel saving,
    ``est × n × (1 − 1/min(workers, n))``, outweighs the spawn tax."""

    def test_expensive_small_set_routes_to_process(self):
        backend = auto_backend(4, 4, est_cost_s=PROCESS_SPAWN_TAX_S * 5)
        assert isinstance(backend, ProcessBackend)

    def test_saving_threshold(self):
        # 2 workers, 12 points: the saving is est * 12 * (1 - 1/2).
        at_tax = PROCESS_SPAWN_TAX_S / 6.0
        assert auto_backend(2, 12, est_cost_s=at_tax).name == "serial"
        assert auto_backend(2, 12, est_cost_s=at_tax * 1.01).name == "process"

    def test_parallelism_capped_by_pending_count(self):
        # 2 points on 8 workers run on 2: the saving is est * 2 * 1/2.
        est = PROCESS_SPAWN_TAX_S * 0.9
        assert auto_backend(8, 2, est_cost_s=est).name == "serial"
        assert auto_backend(8, 2, est_cost_s=est * 1.2).name == "process"

    def test_cheap_points_stay_serial_whatever_the_count(self):
        assert auto_backend(4, 40, est_cost_s=0.01).name == "serial"

    def test_serial_short_circuits_regardless_of_cost(self):
        assert auto_backend(1, 4, est_cost_s=1e6).name == "serial"
        assert auto_backend(4, 1, est_cost_s=1e6).name == "serial"

    def test_negative_estimate_rejected(self):
        with pytest.raises(ConfigurationError):
            auto_backend(4, 4, est_cost_s=-1.0)

    def test_resolve_forwards_estimate(self):
        resolved = resolve_backend(
            "auto", 4, 4, est_cost_s=PROCESS_SPAWN_TAX_S * 5
        )
        assert resolved.name == "process"
        # Named backends ignore the estimate — explicit wins.
        assert resolve_backend(
            "serial", 4, 4, est_cost_s=PROCESS_SPAWN_TAX_S * 5
        ).name == "serial"


class TestWorkerTaskError:
    def test_pickle_round_trip_keeps_index(self):
        err = WorkerTaskError("task 3 raised ValueError: boom", index=3)
        back = pickle.loads(pickle.dumps(err))
        assert isinstance(back, WorkerTaskError)
        assert back.index == 3
        assert "boom" in str(back)
