"""Sharded engine: Monte-Carlo sweep throughput, serial vs the warm pool.

The claim for :mod:`repro.parallel` is twofold:

* **determinism** — the shard plan and per-shard ``SeedSequence.spawn``
  streams are functions of the workload alone, so the warm shm pool
  returns the *same bits* as the serial backend (asserted here on every
  row, at every worker count);
* **throughput** — the shm transport publishes the compiled topology
  and parameter arrays once into shared-memory blocks served by a warm
  pool, so a sweep ships only descriptors and slice bounds, and on a
  multi-core host it speeds up with workers (asserted only where cores
  exist to deliver it; a 1-core container still produces the table).

``test_pool_threshold`` backs the one in-process-or-pool rule of
:func:`repro.parallel.use_pool` with measurements; one command
regenerates ``benchmarks/results/parallel.txt``::

    PYTHONPATH=src:. python -m pytest \
        benchmarks/bench_parallel.py::test_pool_threshold -q -s

It prints the host, the per-unit in-process costs each op's estimate
uses next to the constants in the code, the pool round trip's overhead
from the ``wait_ms`` / ``queue_ms`` spans and the threshold it implies,
and interleaved medians of each op in process, at ``jobs=1``, on the
pool at ``jobs=2`` with the threshold pinned to 0, and at ``jobs=2``
under the rule, warm and cold, with the side the rule picks.  The MC
speedup table goes to ``results/parallel_speedup.txt``.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the sample count and the
designs so the CI smoke job finishes in seconds.
"""

import functools
import gc
import os
import statistics
import time
from contextlib import contextmanager

import numpy as np

from repro.circuit import balanced_tree
from repro.core.variation import VariationModel, monte_carlo_delay_matrix

from benchmarks._helpers import host_fingerprint, report

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
SAMPLES = 600 if QUICK else 6000
SHM_JOBS = (1, 2, 4)
MODEL = VariationModel(resistance_sigma=0.1, capacitance_sigma=0.1)


def make_tree():
    # ~500-node clock tree: large enough that a shard is real work.
    return balanced_tree(9, 2, 25.0, 8e-15, driver_resistance=120.0,
                         leaf_load=4e-15)


def mc_sweep(tree, jobs, backend):
    return monte_carlo_delay_matrix(
        tree, MODEL, SAMPLES, seed=1995, jobs=jobs, backend=backend
    )


#: Timed calls per leg of :func:`test_parallel_speedup`, whose medians
#: it compares.
SPEEDUP_REPEATS = 7


def test_parallel_speedup(benchmark):
    import repro.parallel

    tree = make_tree()
    reference = benchmark(mc_sweep, tree, 1, "serial")
    cores = os.cpu_count() or 1

    legs = [("serial", 1)] + [("shm", jobs) for jobs in SHM_JOBS]
    modes = [(f"{backend}@{jobs}", {"jobs": jobs, "backend": backend}, None)
             for backend, jobs in legs]
    for _, kwargs, _ in modes:
        # Determinism gate: every leg returns the serial bits.  This
        # untimed call also warms the pool and publishes the topology
        # blocks, so the timings below measure the steady state the
        # transport is designed for.
        np.testing.assert_array_equal(mc_sweep(tree, **kwargs), reference)
    # The legs take turns, so a drift in the host's speed reaches each
    # of their medians alike.
    medians, _ = _interleaved(lambda: functools.partial(mc_sweep, tree),
                              SPEEDUP_REPEATS, modes)
    speedups = {name: medians["serial@1"] / elapsed
                for name, elapsed in medians.items()}
    rows = [
        [kwargs["backend"], str(kwargs["jobs"]), str(tree.num_nodes),
         str(SAMPLES), f"{medians[name] * 1e3:.1f} ms",
         f"{speedups[name]:.2f}x", "yes"]
        for name, kwargs, _ in modes
    ]
    report(
        "parallel_speedup",
        f"Sharded Monte-Carlo Elmore sweep ({SAMPLES} samples, "
        f"{tree.num_nodes}-node tree, {cores} cores)",
        ["backend", "jobs", "nodes", "samples", "wall clock", "speedup",
         "bit-identical"],
        rows,
        extra={
            "cores": cores, "samples": SAMPLES,
            "speedup": speedups,
        },
    )
    repro.parallel.shutdown()

    # Speedup needs cores; a 1-core container still validated the
    # determinism gate and produced the table above.
    if cores >= 2 and not QUICK:
        assert speedups["shm@2"] >= 1.3, (
            f"expected the shm backend >= 1.3x over serial at jobs=2 on "
            f"{cores} cores, got {speedups['shm@2']:.2f}x"
        )


# ---------------------------------------------------------------------------
# The in-process-or-pool rule

#: ``random_design(layers, width, seed=1)`` by net count.
DESIGNS = {"360": (8, 40), "1050": (20, 50), "10k": (100, 100)}
STA_CASES = [("360", "elmore"), ("1050", "elmore"), ("10k", "elmore"),
             ("360", "lognormal"), ("1050", "lognormal"),
             ("10k", "lognormal"), ("360", "exact"), ("1050", "exact")]
#: SSTA at 10k nets takes 12-17 s per call in process (the Clark walk,
#: not the shard task), so it is left out.
SSTA_CASES = ["360", "1050"]
MC_SAMPLES = (200, 2000)
STATS_ROWS = (128, 512, 2048)
if QUICK:
    STA_CASES = [("360", "elmore"), ("360", "lognormal")]
    SSTA_CASES = ["360"]
    MC_SAMPLES = (200,)
    STATS_ROWS = (128,)
REPEATS = 3 if QUICK else 9
SLOW_REPEATS = 3


def _ssta_model():
    from repro.sta.ssta import ProcessModel

    return ProcessModel(VariationModel(0.08, 0.08), rho_r=0.5, rho_c=0.5,
                        cell_sigma=0.05, rho_cell=0.5)


@contextmanager
def _threshold(value):
    """Run with ``repro.parallel.executor._POOL_MIN_MS`` set to
    ``value`` (0 pins every op that may pool on the pool)."""
    from repro.parallel import executor

    saved = executor._POOL_MIN_MS
    executor._POOL_MIN_MS = value
    try:
        yield
    finally:
        executor._POOL_MIN_MS = saved


#: The compared modes: call keywords and the threshold they run under
#: (``None`` = the shipped one).
MODES = [("in process", {}, None), ("jobs=1", {"jobs": 1}, None),
         ("pool@2", {"jobs": 2, "backend": "shm"}, 0.0),
         ("jobs=2 rule", {"jobs": 2, "backend": "shm"}, None)]


def _call(run, kwargs, threshold):
    from repro.parallel import executor

    with _threshold(executor._POOL_MIN_MS if threshold is None
                    else threshold):
        start = time.perf_counter()
        out = run(**kwargs)
        return time.perf_counter() - start, out


def _interleaved(make_run, repeats, modes=MODES):
    """Median seconds per mode, the modes taking turns in a rotating
    order, each call after an untimed ``gc.collect()``; ``make_run()``
    gives each call's ``run(**kwargs)`` (a fresh input for cold rows).
    Also returns one output per mode."""
    times = {name: [] for name, _, _ in modes}
    outs = {}
    for k in range(repeats):
        for name, kwargs, threshold in modes[k % len(modes):] + \
                modes[:k % len(modes)]:
            run = make_run()
            gc.collect()
            elapsed, outs[name] = _call(run, kwargs, threshold)
            times[name].append(elapsed)
    return {name: statistics.median(v) for name, v in times.items()}, outs


def _decision(run, kwargs):
    """``(pool, estimate_ms)`` the rule records for ``run(**kwargs)``."""
    from repro.obs import tracing

    with tracing() as tracer:
        run(**kwargs)
    for root in tracer.roots:
        stack = [root]
        while stack:
            node = stack.pop()
            if "pool" in node.attributes:
                return node.attributes["pool"], \
                    node.attributes["estimate_ms"]
            stack.extend(node.children)
    return None, 0.0


def _median_ms(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _unit_costs():
    """``(name, measured, in code, unit)`` of every estimate's unit."""
    from repro.core import variation, verification
    from repro.core.batch import batch_elmore_delays, \
        batch_transfer_moments, compile_topology
    from repro.serve import engine
    from repro.sta import analyze, ssta, timing
    from repro.sta.interconnect import net_forest

    rows = []
    small = random_design_cached("360")
    big = random_design_cached("360" if QUICK else "1050")
    analyze(small)
    analyze(big)
    for design, models in ((big, ["elmore", "ln2_elmore", "lower_bound",
                                  "lognormal", "d2m"]),
                           (small, [] if QUICK else ["exact", "two_pole",
                                                     "awe4"])):
        part = design._compiled.nets
        forest = net_forest(part.records)
        sinks = len(part.pins)
        for model in models:
            repeats = SLOW_REPEATS if timing._SINK_US[model] > 50 \
                else REPEATS
            ms = _median_ms(lambda: timing._sweep_nets(forest, model),
                            repeats)
            rows.append((f"sta {model}", ms * 1e3 / sinks,
                         timing._SINK_US[model], "us/sink"))
    part = big._compiled.nets
    forest = net_forest(part.records)
    sinks = len(part.pins)
    ms = _median_ms(lambda: _ssta_model().net_columns(forest))
    rows.append(("ssta coefficients", ms * 1e3 / sinks,
                 timing._COEFFICIENT_US, "us/sink"))
    ms = _median_ms(lambda: net_forest(part.records))
    rows.append(("net layout", ms * 1e3 / sinks, timing._LAYOUT_US,
                 "us/sink"))
    tree = make_e2e_tree()
    samples = 200 if QUICK else 2000
    ms = _median_ms(lambda: mc_matrix(tree, samples, jobs=None))
    rows.append(("mc sample x node", ms * 1e6 / (samples * tree.num_nodes),
                 variation._MC_NS, "ns"))
    topo = compile_topology(tree)
    res = np.tile(topo.resistances, (512, 1))
    cap = np.tile(topo.capacitances, (512, 1))
    ms = _median_ms(lambda: batch_elmore_delays(topo, res, cap))
    rows.append(("ssta row x node", ms * 1e6 / res.size, ssta._ROWS_NS,
                 "ns"))
    ms = _median_ms(lambda: batch_transfer_moments(topo, 3, res, cap))
    rows.append(("stats row x node", ms * 1e6 / res.size,
                 engine._STATS_NS, "ns"))
    vtree = balanced_tree(4, 2, 25.0, 8e-15)
    ms = _median_ms(lambda: verification.verify_tree(vtree, samples=2001),
                    SLOW_REPEATS)
    nodes = vtree.num_nodes
    rows.append(("verify node x sample x N",
                 ms * 1e6 / (nodes * 2001 * nodes),
                 verification._VERIFY_NS, "ns"))
    return rows


_DESIGN_CACHE = {}


def random_design_cached(key):
    from repro.workloads import random_design

    if key not in _DESIGN_CACHE:
        _DESIGN_CACHE[key] = random_design(*DESIGNS[key], seed=1)
    return _DESIGN_CACHE[key]


def make_e2e_tree():
    """The 1023-node tree of the e2e ``mc-sweep`` workload."""
    return balanced_tree(10, 2, 25.0, 8e-15, driver_resistance=120.0,
                         leaf_load=4e-15)


def mc_matrix(tree, samples, **kwargs):
    return monte_carlo_delay_matrix(tree, MODEL, samples, seed=7, **kwargs)


def _overhead(make_run, kwargs, label, repeats):
    """Medians of a warm pinned-pool op's spans: the overhead (the run
    span's wall minus half the workers' busy time), ``wait_ms``, worker
    ``queue_ms``, the busy time and the op's ``estimate_ms``."""
    from repro.obs import tracing

    overheads, waits, queues, busies, estimates = [], [], [], [], []
    with _threshold(0.0):
        make_run()(**kwargs)  # warm the pool and the published inputs
        for _ in range(repeats):
            with tracing() as tracer:
                make_run()(**kwargs)
            (run,) = tracer.find(label)
            workers = [c for c in run.children
                       if c.name == "parallel.worker"]
            busy = sum(w.duration for w in workers) * 1e3
            overheads.append(run.duration * 1e3 - busy / 2)
            estimates.extend(span.attributes["estimate_ms"]
                             for root in tracer.roots
                             for span in _walk(root)
                             if "estimate_ms" in span.attributes)
            waits.append(run.attributes["wait_ms"])
            queues.extend(w.attributes["queue_ms"] for w in workers)
            busies.append(busy)
    return (statistics.median(overheads), statistics.median(waits),
            statistics.median(queues), statistics.median(busies),
            statistics.median(estimates))


def _walk(span):
    yield span
    for child in span.children:
        yield from _walk(child)


def _same(a, b):
    """Bitwise equality of two op outputs of one kind."""
    if isinstance(a, np.ndarray):
        return a.tobytes() == b.tobytes()
    if hasattr(a, "critical"):  # SSTA report
        return (a.critical.mu, a.critical.sigma) == \
            (b.critical.mu, b.critical.sigma) and \
            all((a.arrival[p].mu, a.arrival[p].sigma) ==
                (b.arrival[p].mu, b.arrival[p].sigma) for p in a.arrival)
    if hasattr(a, "arrival"):  # TimingResult
        return a.arrival == b.arrival and a.slew == b.slew
    return a == b


def test_pool_threshold():
    import repro.parallel
    from repro.parallel import executor
    from repro.serve.engine import StatsEngine
    from repro.serve.schemas import parse_stats_request
    from repro.sta import analyze
    from repro.sta.ssta import analyze_ssta
    from repro.workloads import random_design

    notes = [host_fingerprint(), ""]
    units = _unit_costs()
    notes.append("Per-unit in-process costs (median), against the "
                 "constants the estimates use:")
    for name, measured, used, unit in units:
        notes.append(f"  {name:26s} measured {measured:9.3f} {unit:8s} "
                     f"in code {used:g}")

    # Warm the pool once, so every row below measures a warm pool.
    mc_matrix(make_e2e_tree(), 200, jobs=2, backend="shm")

    def sta_run(key, model, fresh):
        def make():
            design = random_design(*DESIGNS[key], seed=1) if fresh \
                else random_design_cached(key)
            return lambda **kw: analyze(design, model, **kw)
        return make

    def ssta_run(key, fresh):
        def make():
            design = random_design(*DESIGNS[key], seed=1) if fresh \
                else random_design_cached(key)
            return lambda **kw: analyze_ssta(design, _ssta_model(), **kw)
        return make

    def mc_run(samples):
        tree = make_e2e_tree()
        return lambda: (lambda **kw: mc_matrix(tree, samples, **kw))

    def stats_run(rows):
        request = parse_stats_request({
            "workload": "balanced:10x2", "nodes": ["t"],
            "rscale": np.linspace(0.9, 1.1, rows).tolist()})
        engines = {}

        def run(jobs=None, backend=None):
            engine = engines.setdefault(
                (jobs, backend), StatsEngine(jobs=jobs, backend=backend))
            return engine.evaluate(request.key, [request])
        return lambda: run

    # Overhead of a warm pool round trip, from the spans.
    span_cases = [("sta elmore 1050" if not QUICK else "sta elmore 360",
                   sta_run("360" if QUICK else "1050", "elmore", False),
                   "sta.parallel_run"),
                  (f"mc {MC_SAMPLES[-1]} x 1023", mc_run(MC_SAMPLES[-1]),
                   "variation.parallel_run")]
    notes += ["", "Warm pool round trip at jobs=2 (threshold pinned to 0; "
              "overhead = run span wall - worker busy / 2):"]
    spans = []
    for name, make, label in span_cases:
        over, wait, queue, busy, estimate = _overhead(
            make, {"jobs": 2, "backend": "shm"}, label, REPEATS)
        spans.append((over, busy, estimate))
        notes.append(f"  {name:22s} overhead {over:7.2f} ms  wait_ms "
                     f"{wait:7.2f}  queue_ms {queue:6.2f}  busy "
                     f"{busy:7.2f} ms  estimate {estimate:7.2f} ms")
    # The pool takes O + (W + k) / 2 for in-process work W, k being the
    # busy time its shards add (each shard pays its own sweep set-up),
    # so it pays once W > 2 O + k.
    over, busy, estimate = spans[0]
    derived = 2.0 * over + busy - estimate
    notes.append(
        f"  The pool takes O + (W + k)/2 for in-process work W, k being "
        f"the busy time its shards add, so it pays once W > 2 O + k = "
        f"2 x {over:.2f} + {busy - estimate:.2f} = {derived:.1f} ms "
        f"(STA round trip; the MC one also carries each traced shard's "
        f"obs capture).  The code uses _POOL_MIN_MS = "
        f"{executor._POOL_MIN_MS:g} ms; the table above compares each "
        f"row's pick with its measured faster side.")

    cases = []
    for key, model in STA_CASES:
        slow = model == "exact" or key == "10k"
        for fresh in (False, True):
            cases.append((f"analyze {model}", key, fresh,
                          sta_run(key, model, fresh),
                          SLOW_REPEATS if slow else REPEATS))
    for key in SSTA_CASES:
        for fresh in (False, True):
            cases.append(("analyze_ssta", key, fresh, ssta_run(key, fresh),
                          SLOW_REPEATS if key != "360" else REPEATS))
    for samples in MC_SAMPLES:
        cases.append((f"mc {samples} x 1023", "-", False, mc_run(samples),
                      REPEATS))
    for rows in STATS_ROWS:
        cases.append((f"stats {rows} x 1023", "-", False, stats_run(rows),
                      REPEATS))

    table = []
    disagree = []
    for op, key, fresh, make, repeats in cases:
        if not fresh:
            _interleaved(make, 1)  # every mode's caches, untimed
        medians, outs = _interleaved(make, repeats)
        reference = outs["in process"]
        assert all(_same(out, reference) for out in outs.values()), \
            f"{op} {key}: outputs differ across modes"
        pool, estimate = _decision(make(), {"jobs": 2, "backend": "shm"})
        inproc, pooled = medians["in process"], medians["pool@2"]
        faster = "pool" if pooled < inproc else "in process"
        picks = "pool" if pool else "in process"
        if picks != faster:
            disagree.append(f"{op} {key}")
        table.append([
            op, key, "cold" if fresh else "warm",
            *(f"{medians[name] * 1e3:.2f}" for name, _, _ in MODES),
            f"{estimate:.2f}", picks, faster,
        ])
    notes += ["", f"Rows where the measured faster side differs from the "
              f"rule's pick: {', '.join(disagree) or 'none'}."]
    report(
        "parallel",
        f"In-process-or-pool rule: interleaved medians (ms) of {REPEATS} "
        f"calls ({SLOW_REPEATS} for exact, 10k and SSTA 1050), warm pool; "
        f"cold = a fresh design per call, its build untimed",
        ["op", "nets", "design", *(name for name, _, _ in MODES),
         "estimate ms", "rule picks", "faster"],
        table,
        extra={"threshold_ms": executor._POOL_MIN_MS,
               "derived_threshold_ms": derived,
               "units": {name: [measured, used]
                         for name, measured, used, _ in units}},
        notes=notes,
    )
    repro.parallel.shutdown()
