"""One library workload in a fresh process, driven by ``run.py``.

Usage (``src`` must be importable)::

    python3 benchmarks/e2e/runner.py <mc-sweep|sta|ssta> <seed>

The runner builds its inputs from the seed, runs op 0 (which forks the
warm pool and fills the caches), then reports ``ready``.  On stdin it
takes one command: ``exit``, or ``run <seconds> <trace>`` for a timed
closed-loop window (with ``trace`` 1: an untraced half, then a traced
half whose spans give the per-layer split).  After each op of the
untraced window it runs the host speed probe (``hostspeed.py``).  It
answers with one ``done`` message, after the untimed reference checks
and after tearing the pool down.  Messages are single stdout lines
prefixed ``@e2e``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
from typing import Any, Dict, List

from hostspeed import probe
from layers import LAYER_MAP, SpanTotals, layer_metrics, registry_values
from loadgen import Sample, closed_loop
from procs import descendants, peak_rss_mb
from stats import percentile

MARK = "@e2e "


def emit(message: Dict[str, Any]) -> None:
    """Send one protocol message to ``run.py``."""
    sys.stdout.write(MARK + json.dumps(message) + "\n")
    sys.stdout.flush()


def traced_window(workload, seconds: float, first: int, judge):
    """Closed loop with every op inside a ``bench.op`` span; returns the
    samples, the span totals, the op walls and the registry readings."""
    from repro.obs import get_registry, span, tracing

    totals = SpanTotals()
    walls: List[float] = []

    def op(k: int) -> Any:
        with span("bench.op", k=k):
            return workload.op(k)

    before = registry_values(get_registry().to_dict())
    with tracing() as tracer:
        def after(sample: Sample) -> None:
            judge(sample)
            walls.extend(totals.take(tracer))

        samples = closed_loop(op, seconds, first=first, after=after)
    after_values = registry_values(get_registry().to_dict())
    return samples, totals, walls, before, after_values


def main(argv: List[str]) -> int:
    name, seed = argv[0], int(argv[1])
    import repro.parallel
    from workloads import LIBRARY_WORKLOADS

    workload = LIBRARY_WORKLOADS[name](seed)
    failures: List[str] = []

    def judge(sample: Sample) -> None:
        if sample.error is not None:
            failures.append(f"op {sample.index} raised {sample.error!r}")
        else:
            err = workload.check(sample.index, sample.outcome)
            if err:
                failures.append(f"op {sample.index}: {err}")
            else:
                workload.keep(sample.index, sample.outcome)
        sample.outcome = None  # never hold every op's output

    start = time.perf_counter()
    warm = Sample(0, start, start, start)
    try:
        warm.outcome = workload.op(0)
    except Exception as exc:  # a failed op, reported like any other
        warm.error = exc
    warm.end = time.perf_counter()
    judge(warm)
    emit({"event": "ready", "pid": os.getpid()})

    command = sys.stdin.readline().split()
    running = command[:1] == ["run"]
    done: Dict[str, Any] = {"event": "done", "item": workload.item,
                            "items_per_op": workload.items_per_op}
    attempted = 1
    if running:
        seconds, trace = float(command[1]), command[2] == "1"
        window = seconds / 2 if trace else seconds
        probes: List[float] = []

        def judge_and_probe(sample: Sample) -> None:
            judge(sample)
            probes.append(probe())  # the host's speed right after the op

        samples = closed_loop(workload.op, window, first=1,
                              after=judge_and_probe)
        ok = [i for i, s in enumerate(samples) if s.ok]
        done["latencies"] = [samples[i].service for i in ok]
        done["probes"] = [probes[i] for i in ok]
        done["gaps"] = [s.lateness for s in samples]
        attempted += len(samples)
        if trace:
            traced, totals, walls, before, after = traced_window(
                workload, window, 1 + len(samples), judge)
            attempted += len(traced)
            ops = len(walls)
            op_wall = statistics.fmean(walls)
            span_wall = traced[-1].end - traced[0].start
            extra = {
                "trace.coverage_frac":
                    1.0 - totals.parent.get("bench.op", 0.0) / sum(walls),
                "obs.trace_overhead_frac":
                    1.0 - statistics.fmean(done["latencies"]) / op_wall,
                "loadgen.late_p90_ms":
                    1e3 * percentile([s.lateness for s in traced], 90.0),
                "loadgen.achieved_rps": len(traced) / span_wall,
            }
            done["layers"] = layer_metrics(
                LAYER_MAP, totals, ops, op_wall, before, after, extra)
            done["spans_ms_per_op"] = totals.ms_per_op(ops)
            done["traced_ops"] = ops
    pids = descendants(os.getpid())
    # Read before the serial reference run, whose memory is the
    # benchmark's, not the workload's.
    done["peak_rss_mb"] = peak_rss_mb([os.getpid()] + pids)
    done["pids"] = pids
    if running:
        failures.extend(workload.reference_check())
    repro.parallel.shutdown()
    done["attempted"] = attempted
    done["failures"] = failures
    emit(done)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
