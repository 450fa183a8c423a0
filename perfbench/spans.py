"""Outside-in layer tracer: times calls into each layer's public entry
points by wrapping them from the benchmark, with no instrumentation in
``src/``.

A span is opened at every call into a traced entry point and closed
when it returns.  A layer's *inclusive* time counts only its outermost
calls (a re-entrant call of the same layer is part of the outer span);
its *self* time is the inclusive time minus what traced child spans of
other layers cover.  Self times of all layers plus the time spent in no
layer at all add up to the traced wall time (:meth:`Tracer.accounted_s`).

A wrapped module-level function is seen only by callers that look it
up through the module at call time; every target in
:mod:`perfbench.layers` is referenced that way by the program.

The tracer runs on one thread: every workload drives the program from
a single thread, so one span stack suffices.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: ``counter(result) -> {count name: increment}``, applied to the
#: value an outermost call of a layer returns.
Counter = Callable[[object], Dict[str, float]]


@dataclass
class LayerTotals:
    """What the tracer accumulated for one layer."""

    calls: int = 0
    inclusive_s: float = 0.0
    self_s: float = 0.0
    counts: Dict[str, float] = field(default_factory=dict)


class _Frame:
    __slots__ = ("start", "child_s")

    def __init__(self, start: float) -> None:
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Wraps entry points while installed; accumulates per-layer spans.

    ``targets`` lists ``(layer, owner, attribute, counter)``: ``owner``
    is a class or module whose ``attribute`` is replaced by a timing
    wrapper while the tracer is installed (:meth:`installed`).
    """

    def __init__(self, targets: List[Tuple[str, object, str, Optional[Counter]]]):
        self.targets = targets
        self.totals: Dict[str, LayerTotals] = {}
        self._stack: List[_Frame] = []
        self._open: Dict[str, int] = {}
        self._suspended = 0
        self._root: Optional[_Frame] = None
        #: Wall time of every installed block, accumulated.
        self.run_s = 0.0
        #: The part of :attr:`run_s` spent in no layer (the benchmark's
        #: own driving code and checks).
        self.outside_s = 0.0

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _wrap(self, layer: str, fn, counter: Optional[Counter]):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._suspended or tracer._root is None or tracer._open.get(layer):
                return fn(*args, **kwargs)
            frame = _Frame(time.perf_counter())
            tracer._stack.append(frame)
            tracer._open[layer] = 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open[layer] = 0
                dur = end - frame.start
                tracer._stack[-1].child_s += dur
                totals = tracer.totals.setdefault(layer, LayerTotals())
                totals.calls += 1
                totals.inclusive_s += dur
                totals.self_s += dur - frame.child_s
            if counter is not None:
                for name, inc in counter(result).items():
                    totals.counts[name] = totals.counts.get(name, 0.0) + inc
            return result

        return traced

    @contextmanager
    def installed(self):
        """Patch every target for the duration of the block and time
        the block as the traced run (:attr:`run_s`, accumulated)."""
        saved = []
        try:
            for layer, owner, attr, counter in self.targets:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(layer, original, counter))
            self._root = _Frame(time.perf_counter())
            self._stack = [self._root]
            yield self
        finally:
            if self._root is not None:
                dur = time.perf_counter() - self._root.start
                self.run_s += dur
                self.outside_s += dur - self._root.child_s
            self._root = None
            self._stack = []
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextmanager
    def suspended(self):
        """Run the benchmark's own checks without opening spans; their
        time counts as outside every layer."""
        self._suspended += 1
        try:
            yield
        finally:
            self._suspended -= 1

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def layer(self, name: str) -> LayerTotals:
        return self.totals.get(name, LayerTotals())

    def accounted_s(self) -> float:
        """Sum of every layer's self time plus the outside time — equal
        to :attr:`run_s` up to float rounding."""
        return sum(t.self_s for t in self.totals.values()) + self.outside_s
