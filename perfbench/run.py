"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload pcs-paper --seed 1 --seconds 20 --trace 0

The workload repeats (see :mod:`workloads`) until ``--seconds`` have
passed and enough operations were measured for the reported
percentiles.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced and traced repetitions of the same
world seeds and prints the per-layer metrics (:mod:`layers`), after
checking that tracing left every output byte-identical.

Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``.  The program under test is imported from ``src/``
next to this directory; without it the script exits with status 2.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional

ROOT = Path(__file__).resolve().parents[1]

#: Fewest repetitions per run (``setup_s`` is their median).
MIN_REPS = 3
#: Fewest operations per untraced run: the reported tail percentile
#: (p75) then has at least ten operations beyond it.
MIN_OPS = 40
TAIL_PERCENTILE = 75
#: Calibration samples taken between repetitions.
CAL_SAMPLES = 10
#: The calibration kernel's median on the reference host (2-core Xeon
#: VM at 2.1 GHz, Python 3.11, numpy 2.4) when it runs at full speed.
#: The end-to-end host times are scaled by CAL_REF_S / the kernel's
#: median over the same run: on a shared host whose speed drifts by
#: 1.5x over minutes, that keeps a slower host from reading as a
#: slower program, while a change to the program leaves the kernel,
#: and so the scale, alone.
CAL_REF_S = 0.003
#: No new repetition starts after twice ``--seconds``, nor after this
#: many seconds of measuring, so a run on a slow host ends well inside
#: three minutes and a set of runs keeps to its time budget.
HARD_CAP_S = 140.0

#: End-to-end metrics (``--trace 0``), all host-side: name -> unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    f"op_p{TAIL_PERCENTILE}_ms": "ms",
    "peak_rss_mib": "MiB",
}


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _blas_threads() -> Optional[int]:
    """Thread count of numpy's bundled OpenBLAS, if it can be asked."""
    import numpy as np

    libs = Path(np.__file__).resolve().parents[1] / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")) if libs.is_dir() else []:
        handle = ctypes.CDLL(str(lib))
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment(seed: int) -> Dict[str, object]:
    import numpy as np

    return {
        "git_sha": _git_sha(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
    }


def _done(started: float, seconds: float, reps: list, enough) -> bool:
    elapsed = time.perf_counter() - started
    cap = min(2 * seconds, HARD_CAP_S)
    return elapsed >= cap or (elapsed >= seconds and enough(reps))


def _calibration_s(sheet) -> float:
    """Wall time of one fixed calibration kernel: an interpreter loop
    and elementwise numpy work on a 128 × 640 sheet, the two kinds of
    work every workload does."""
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    x = sheet
    for _ in range(10):
        x = np.maximum(x * 1.0001, x[::-1] * 0.5) + 1e-3
    return time.perf_counter() - t0


def calibrate() -> List[float]:
    """:data:`CAL_SAMPLES` timings of the calibration kernel."""
    import numpy as np

    sheet = np.linspace(0.0, 1.0, 128 * 640).reshape(128, 640)
    return [_calibration_s(sheet) for _ in range(CAL_SAMPLES)]


def measure(workload, seed: int, seconds: float):
    """Untraced repetitions until time is up and enough were measured.

    The calibration kernel runs before every repetition and after the
    last.  Returns the repetitions, the run's speed factor
    (:data:`CAL_REF_S` / the median calibration time), and the
    process's peak resident memory (MiB) right after the first
    repetition, which depends on the seed alone and not on how many
    repetitions the host's speed allowed.
    """
    from workloads import rep_seed

    reps = []
    cal = calibrate()
    started = time.perf_counter()

    def enough(done):
        return len(done) >= MIN_REPS and sum(len(r.op_s) for r in done) >= MIN_OPS

    while not reps or not _done(started, seconds, reps, enough):
        reps.append(workload(rep_seed(seed, len(reps)), nullcontext))
        if len(reps) == 1:
            peak_rss_mib = _peak_rss_mib()
        cal += calibrate()
    return reps, CAL_REF_S / statistics.median(cal), peak_rss_mib


def measure_traced(workload, seed: int, seconds: float):
    """Pairs of one untraced and one traced repetition of the same world
    seed, alternating which runs first.  Returns the untraced reps, the
    traced reps, each pair's tracing overhead, and the tracer."""
    from layers import make_tracer
    from workloads import rep_seed

    tracer = make_tracer()
    plain, traced, overheads = [], [], []
    started = time.perf_counter()
    while not plain or not _done(started, seconds, plain, lambda done: True):
        seed_j = rep_seed(seed, len(plain))
        walls = {}
        for with_trace in (False, True) if len(plain) % 2 == 0 else (True, False):
            if with_trace:
                before = tracer.run_s
                with tracer.installed():
                    rep = workload(seed_j, tracer.suspended)
                walls[True] = tracer.run_s - before
                traced.append(rep)
            else:
                t0 = time.perf_counter()
                rep = workload(seed_j, nullcontext)
                walls[False] = time.perf_counter() - t0
                plain.append(rep)
        if traced[-1].fingerprint != plain[-1].fingerprint:
            rep = traced[-1]
            rep.errors.append("traced outputs differ from untraced outputs")
            rep.failed = rep.attempted
        overheads.append(walls[True] / walls[False] - 1.0)
    return plain, traced, overheads, tracer


def _results(reps) -> Dict[str, float]:
    """Simulated / model results of repetition 0 (deterministic per seed)."""
    return reps[0].results if reps else {}


def end_to_end_metrics(reps, speed: float, peak_rss_mib: float) -> Dict[str, float]:
    """The end-to-end metrics; host times are scaled by ``speed`` to
    the reference host's speed."""
    ops = [t * speed for r in reps for t in r.op_s]
    return {
        "setup_s": statistics.median(r.setup_s for r in reps) * speed,
        "ops_per_s": len(ops) / sum(ops) if ops else 0.0,
        "op_p50_ms": _percentile(ops, 50) * 1e3,
        f"op_p{TAIL_PERCENTILE}_ms": _percentile(ops, TAIL_PERCENTILE) * 1e3,
        "peak_rss_mib": peak_rss_mib,
    }


def per_layer_metrics(plain, traced, overheads, tracer) -> Dict[str, float]:
    from layers import layer_metrics

    out = layer_metrics(tracer, len(traced))
    out["trace.overhead_frac"] = statistics.median(overheads)
    results = _results(plain)
    for name in ("overall_p99_ms", "overall_mean_ms", "component_p99_ms"):
        out[f"sim.{name}"] = results.get(name, 0.0)
    out["scheduler.predicted_reduction_ms"] = results.get("predicted_reduction_ms", 0.0)
    decisions = [t for r in plain for t in r.decision_s]
    out["decision.p50_ms"] = _percentile(decisions, 50) * 1e3
    out[f"decision.p{TAIL_PERCENTILE}_ms"] = _percentile(decisions, TAIL_PERCENTILE) * 1e3
    out["decision.samples"] = float(len(decisions))
    return out


def report_lines(name: str, reps, speed: float, peak_rss_mib: float,
                 rss_before: float) -> List[str]:
    """The human-readable view.  First the end-to-end metrics at the
    reference speed and as the host measured them, then the paper's
    metrics — each named, with its unit and clock, or ``n/a`` where the
    workload does not produce it."""
    scaled = end_to_end_metrics(reps, speed, peak_rss_mib)
    host = end_to_end_metrics(reps, 1.0, peak_rss_mib)
    ops = [t for r in reps for t in r.op_s]
    decisions = [t for r in reps for t in r.decision_s]
    windows = name != "fig7-640x128"
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    results = _results(reps)

    def row(metric, value, unit, clock, note=""):
        shown = "n/a" if value is None else f"{value:.6g}"
        return f"  {metric:<24} {shown:>12} {unit:<6} {clock:<5} {note}".rstrip()

    lines = [
        f"workload {name}: {len(reps)} repetitions, {len(ops)} operations, "
        f"{len(decisions)} decisions; host speed factor {speed:.4f}",
        "end-to-end metrics: reference speed, then as measured on this host",
    ]
    for metric, unit in END_TO_END.items():
        lines.append(row(metric, scaled[metric], unit, "host",
                         f"host-measured {host[metric]:.6g}"))
    tail = f"decision_p{TAIL_PERCENTILE}_ms"
    lines += [
        "paper metrics (host times as measured on this host)",
        row("windows_per_s", host["ops_per_s"] if windows else None, "1/s", "host"),
        row("decision_p50_ms", _percentile(decisions, 50) * 1e3 if decisions else None,
            "ms", "host", f"n={len(decisions)}"),
        row(tail, _percentile(decisions, TAIL_PERCENTILE) * 1e3 if decisions else None,
            "ms", "host", f"n={len(decisions)}"),
    ]
    for metric in ("overall_p99_ms", "overall_mean_ms", "component_p99_ms"):
        value = results.get(metric) if windows else None
        lines.append(row(metric, value, "ms", "sim", "repetition 0"))
    lines += [
        row("predicted_reduction_ms",
            results.get("predicted_reduction_ms") if decisions else None,
            "ms", "model", "mean per decision, repetition 0"),
        row("peak_rss_mib", peak_rss_mib, "MiB", "host",
            f"after repetition 0; {peak_rss_mib - rss_before:.1f} "
            "MiB above the pre-workload peak"),
        row("error_rate", failed / attempted if attempted else None, "1", "-",
            f"{failed}/{attempted} operations failed"),
    ]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} (have {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload]
    rss_before = _peak_rss_mib()

    if args.trace:
        plain, traced, overheads, tracer = measure_traced(workload, args.seed, args.seconds)
        reps = plain + traced
        metrics = per_layer_metrics(plain, traced, overheads, tracer)
        from layers import hidden_children

        print(f"traced {len(traced)} repetitions; layer self times + outside = "
              f"{tracer.accounted_s():.6f} s of {tracer.run_s:.6f} s traced")
        hidden = hidden_children(tracer)
        if hidden:
            print(f"warning: layers {hidden} had traced children but no self metric")
        for name in sorted(metrics):
            print(f"  {name:<34} {metrics[name]:.6g}")
    else:
        reps, speed, peak_rss_mib = measure(workload, args.seed, args.seconds)
        metrics = end_to_end_metrics(reps, speed, peak_rss_mib)
        print("\n".join(
            report_lines(args.workload, reps, speed, peak_rss_mib, rss_before)
        ))

    for rep in reps:
        for error in rep.errors:
            print(f"failure: {error}", file=sys.stderr)
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    if args.trace:
        from layers import per_layer_units

        units = per_layer_units(metrics)
    else:
        units = END_TO_END
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
