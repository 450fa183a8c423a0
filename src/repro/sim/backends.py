"""Execution backends: one seam, two local tiers plus the spool.

The sweep subsystem (:mod:`repro.sim.sweep`) evaluates grids of
mutually independent points.  *How* those points execute is a
deployment decision, not a correctness one (every point is
deterministic given its config), so it lives behind one interface:

:class:`SerialBackend`
    Runs tasks inline, in submission order.  Zero overhead, exact
    ground truth; what ``workers=1`` always meant, and the right pick
    for anything timing-sensitive.

:class:`ProcessBackend`
    A spawn-context :class:`~concurrent.futures.ProcessPoolExecutor`
    (spawn is fork-safety: no inherited locks or numpy state), one
    point per task.  Every worker pays an interpreter + numpy import
    and trains its own predictor memo — the
    :data:`PROCESS_SPAWN_TAX_S` — then computes in true parallel.

:class:`~repro.sim.distributed.DistributedBackend`
    Sweep points run on worker processes on *other hosts*, coordinated
    through a shared spool directory of atomically written job files
    (claim-rename + heartbeat-lease protocol; see
    :mod:`repro.sim.distributed`).  Each job pays a per-dispatch tax —
    serialise, write, poll, read back — budgeted at
    :data:`NETWORK_DISPATCH_TAX_S`, so only expensive points
    (≥ :data:`DISTRIBUTED_POINT_CUTOFF_S`) travel.  Only sweep tasks
    travel (the job codec ships frozen configs, not pickled closures);
    generic maps stay on the local backends.

There is no thread tier and no process-pool chunking: on the recorded
grids (``benchmarks/results/BENCH_sweep_backends.json``) threads never
beat both serial and process, because the GIL serialises the
pure-Python simulation, and chunks save only per-task pickling — the
pool spawns each worker once and reuses it.

Failure contract (all backends)
-------------------------------
A task that raises does not poison its peers: the backend wraps the
exception in :class:`~repro.errors.WorkerTaskError` carrying the
task's index, cancels all not-yet-started work, and re-raises after
yielding every already-finished success — so a caller persisting
results as they arrive (the sweep cache) keeps everything that
completed before the failure.  Tasks already running when a peer
fails are allowed to finish but their results are discarded.

The auto rule
-------------
:func:`auto_backend`, given ``n`` pending tasks expected to cost
``est_cost_s`` each, applies in order:

1. with a spool, tasks with ``est_cost_s ≥ DISTRIBUTED_POINT_CUTOFF_S``
   go to the spool;
2. one worker or at most one task → serial;
3. process when parallelism saves more than the spawn tax costs,
   ``est_cost_s × n × (1 − 1/min(workers, n)) > PROCESS_SPAWN_TAX_S``
   (process whenever no estimate is given);
4. otherwise serial.

The sweep runner estimates cost from its spec — or from measured
cached timings — and the CLI uses the rule unless a backend is named.
"""

from __future__ import annotations

import multiprocessing
from abc import ABC, abstractmethod
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any, Callable, Iterator, Sequence, Tuple

from repro.errors import ConfigurationError, WorkerTaskError

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ProcessBackend",
    "BACKEND_NAMES",
    "PROCESS_SPAWN_TAX_S",
    "NETWORK_DISPATCH_TAX_S",
    "DISTRIBUTED_POINT_CUTOFF_S",
    "auto_backend",
    "backend_from_name",
    "resolve_backend",
]

#: The names :func:`backend_from_name` accepts (the CLI adds ``auto``).
#: ``distributed`` additionally needs a spool directory.
BACKEND_NAMES = ("serial", "process", "distributed")

#: Approximate start-up cost of the spawn process pool (interpreter +
#: numpy import + cold predictor memo per worker), in seconds — the
#: tax the auto rule weighs parallel savings against.  A 6-point grid
#: of ~20 ms points took 1.1 s on two spawn workers against 0.14 s
#: serial (``BENCH_sweep_backends.json``, 2-core host).
PROCESS_SPAWN_TAX_S = 1.5

#: Approximate per-*job* dispatch cost of the spool protocol (encode
#: the tasks, atomic job write, worker claim-rename, result write,
#: coordinator poll + decode), in seconds.  Measured by
#: ``benchmarks/bench_sweep_distributed.py`` and persisted to
#: ``BENCH_sweep_distributed.json``: the raw round-trip on a local
#: filesystem measures ~0.002 s per job, but the constant is sized for
#: the deployment the backend exists for — spools on *network*
#: filesystems, where each step is an NFS round-trip and the
#: coordinator's poll cadence rides on top.
NETWORK_DISPATCH_TAX_S = 0.05

#: Expected per-point cost at or above which ``auto`` routes to the
#: spool when one is configured: such a point dwarfs the per-job
#: dispatch tax, while cheap points are better served locally than
#: shipped across a filesystem.
DISTRIBUTED_POINT_CUTOFF_S = 2.0


def _wrap_failure(index: int, exc: BaseException) -> WorkerTaskError:
    """One uniform wrapper so every backend reports failures alike."""
    return WorkerTaskError(
        f"task {index} raised {type(exc).__name__}: {exc}", index=index
    )


def _run_unit(fn: Callable, index: int, item: Any) -> Tuple[int, Any]:
    """Run one task (module-level: spawn pickles it); uniform
    ``(index, result)`` / wrapped-failure shape."""
    try:
        return index, fn(item)
    except WorkerTaskError:
        raise
    except Exception as exc:
        raise _wrap_failure(index, exc) from exc


class ExecutionBackend(ABC):
    """How a batch of independent tasks runs.

    Implementations provide :meth:`imap_unordered`; :meth:`map` is
    derived.  Backends are cheap, stateless handles — each call builds
    (and tears down) its own executor, so one backend instance may be
    reused across sweeps.
    """

    #: Short name used by factories, CLIs and benchmark records.
    name: str = "?"

    @abstractmethod
    def imap_unordered(
        self, fn: Callable, items: Sequence
    ) -> Iterator[Tuple[int, Any]]:
        """Yield ``(index, fn(item))`` pairs in completion order.

        On a task failure: every already-finished success is yielded
        first, outstanding tasks are cancelled, and a
        :class:`~repro.errors.WorkerTaskError` carrying the failing
        index is raised.
        """

    def map(self, fn: Callable, items: Sequence) -> list:
        """Order-preserving map over ``items`` (results in input order)."""
        items = list(items)
        out = [None] * len(items)
        for index, result in self.imap_unordered(fn, items):
            out[index] = result
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Inline execution in the calling thread — the ground-truth path."""

    name = "serial"

    def imap_unordered(self, fn, items):
        for index, item in enumerate(items):
            yield _run_unit(fn, index, item)


class ProcessBackend(ExecutionBackend):
    """Spawn-context :class:`~concurrent.futures.ProcessPoolExecutor` workers.

    ``fn`` and every item must be picklable (spawn re-imports the
    defining module in each worker).  One task per item; the pool
    spawns at most ``min(workers, len(items))`` workers.
    """

    name = "process"

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers

    def imap_unordered(self, fn, items):
        items = list(items)
        if not items:
            return
        with ProcessPoolExecutor(
            min(self.workers, len(items)), multiprocessing.get_context("spawn")
        ) as pool:
            outstanding = {
                pool.submit(_run_unit, fn, index, item)
                for index, item in enumerate(items)
            }
            while outstanding:
                finished, outstanding = wait(
                    outstanding, return_when=FIRST_COMPLETED
                )
                failure = None
                for future in finished:
                    try:
                        pair = future.result()
                    except WorkerTaskError as exc:
                        failure = failure or exc
                    except Exception as exc:  # pragma: no cover - belt
                        failure = failure or _wrap_failure(-1, exc)
                    else:
                        yield pair
                if failure is not None:
                    # Cancel everything not yet running; peers already
                    # running finish (their results are discarded) when
                    # the executor's context exits.
                    for future in outstanding:
                        future.cancel()
                    raise failure

    def __repr__(self) -> str:
        return f"ProcessBackend(workers={self.workers})"


def backend_from_name(
    name: str,
    workers: int = 1,
    chunk_size: int | None = None,
    spool=None,
    wait_workers: int = 0,
) -> ExecutionBackend:
    """Build a backend from its CLI name.

    ``chunk_size`` (points per job file), ``spool`` (required) and
    ``wait_workers`` configure ``distributed`` and are ignored by the
    local names — one CLI flag set covers every backend choice.
    """
    if name == "serial":
        return SerialBackend()
    if name == "process":
        return ProcessBackend(workers)
    if name == "distributed":
        if spool is None:
            raise ConfigurationError(
                "the distributed backend needs a spool directory "
                "(--spool DIR / spool=) shared with its workers"
            )
        # Late import: distributed layers on sweep, which imports this
        # module — resolving it at call time keeps the layering acyclic.
        from repro.sim.distributed import DistributedBackend

        return DistributedBackend(
            spool, chunk_size=chunk_size or 1, wait_workers=wait_workers
        )
    raise ConfigurationError(
        f"unknown execution backend {name!r} "
        f"(expected one of {', '.join(BACKEND_NAMES)})"
    )


def resolve_backend(
    backend,
    workers: int,
    n_tasks: int,
    chunk_size: int | None = None,
    est_cost_s: float | None = None,
    spool=None,
    wait_workers: int = 0,
) -> ExecutionBackend:
    """Normalise a backend argument into an :class:`ExecutionBackend`.

    ``backend`` may be a ready instance (returned as-is), a name
    accepted by :func:`backend_from_name`, or ``None``/``"auto"`` for
    the :func:`auto_backend` rule (``est_cost_s`` — the expected
    per-task cost — feeds that rule; it is ignored for explicitly
    named backends).  A ``spool`` makes ``auto`` consider the
    distributed backend and is required for the explicit
    ``"distributed"`` name.
    """
    if isinstance(backend, ExecutionBackend):
        return backend
    if backend is None or backend == "auto":
        return auto_backend(
            workers,
            n_tasks,
            chunk_size=chunk_size,
            est_cost_s=est_cost_s,
            spool=spool,
            wait_workers=wait_workers,
        )
    return backend_from_name(
        backend,
        workers=workers,
        chunk_size=chunk_size,
        spool=spool,
        wait_workers=wait_workers,
    )


def auto_backend(
    workers: int,
    n_tasks: int,
    chunk_size: int | None = None,
    est_cost_s: float | None = None,
    spool=None,
    wait_workers: int = 0,
) -> ExecutionBackend:
    """The default backend rule (the module docstring's four steps).

    ``est_cost_s`` is the expected per-task compute in seconds (from
    the sweep spec or measured cached timings).  Parallelism over
    ``min(workers, n_tasks)`` workers saves ``est_cost_s × n_tasks ×
    (1 − 1/min(workers, n_tasks))`` seconds; processes are chosen when
    that saving exceeds :data:`PROCESS_SPAWN_TAX_S`.  ``chunk_size``
    shapes spool jobs only.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if est_cost_s is not None and est_cost_s < 0:
        raise ConfigurationError(
            f"est_cost_s must be >= 0, got {est_cost_s}"
        )
    if spool is not None and (
        n_tasks > 1
        and est_cost_s is not None
        and est_cost_s >= DISTRIBUTED_POINT_CUTOFF_S
    ):
        from repro.sim.distributed import DistributedBackend

        return DistributedBackend(
            spool, chunk_size=chunk_size or 1, wait_workers=wait_workers
        )
    if workers == 1 or n_tasks <= 1:
        return SerialBackend()
    parallel = min(workers, n_tasks)
    if (
        est_cost_s is None
        or est_cost_s * n_tasks * (1.0 - 1.0 / parallel) > PROCESS_SPAWN_TAX_S
    ):
        return ProcessBackend(workers)
    return SerialBackend()
