"""Application bench: statistical STA vs the Monte-Carlo oracle.

The canonical-form SSTA engine (:mod:`repro.sta.ssta`) claims two
things worth timing and gating:

* one canonical propagation replaces thousands of Monte-Carlo timing
  sweeps — the bench times :func:`analyze_ssta` and reports the
  speedup against the vectorized oracle at ``SAMPLES`` draws;
* the closed-form mean/sigma at every primary output stay inside the
  repo's documented tolerances (<= 1% mean, <= 5% sigma) against that
  oracle swept on the shm warm pool — asserted here and in
  ``tests/sta/test_ssta.py`` so a regression fails both rungs.

Quick mode (``REPRO_BENCH_QUICK=1``) shrinks the design and the sample
count so the CI smoke run finishes in seconds; the tolerance
assertions stay identical in both modes.

:func:`test_ssta_walk` times warm and cold in-process
:func:`analyze_ssta` on the 360- and 1050-net designs (a warm op
reanalyses a design version that keeps its SSTA inputs, a cold one a
freshly built copy, built outside the timed call) with their stage
split, in fresh processes, and writes ``results/ssta_walk.txt``.  It
asserts no wall time.  Run as a script from the repo root, it can time
another checkout's turns interleaved with this tree's::

    PYTHONPATH=src:. python benchmarks/bench_ssta.py \
        [--baseline OTHER_CHECKOUT/src]
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from repro.core.variation import VariationModel
from repro.sta.ssta import (
    ProcessModel,
    analyze_ssta,
    validate_against_monte_carlo,
)
from repro.workloads import random_design

from benchmarks._helpers import git_revision, host_fingerprint, report

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")

#: The repo's documented canonical-vs-Monte-Carlo tolerances.
MEAN_TOL = 0.01
SIGMA_TOL = 0.05

LAYERS, WIDTH = (4, 6) if QUICK else (6, 15)
SAMPLES = 1500 if QUICK else 6000

DESIGN = random_design(layers=LAYERS, width=WIDTH, seed=3)
MODEL = ProcessModel(
    variation=VariationModel(resistance_sigma=0.08,
                             capacitance_sigma=0.08),
    rho_r=0.5, rho_c=0.5, cell_sigma=0.05, rho_cell=0.5,
)


def test_ssta_vs_monte_carlo(benchmark):
    ssta = benchmark(analyze_ssta, DESIGN, MODEL)

    start = time.perf_counter()
    validation = validate_against_monte_carlo(
        DESIGN, MODEL, report=ssta, samples=SAMPLES, seed=1,
        jobs=2, backend="shm",
    )
    oracle_s = time.perf_counter() - start

    ssta_s = benchmark.stats.stats.mean
    critical = ssta.critical
    top = max(ssta.criticality, key=ssta.criticality.get)
    rows = [[
        f"{LAYERS}x{WIDTH}",
        str(len(DESIGN.instances)),
        f"{critical.mu * 1e9:.3f} ns",
        f"{critical.sigma * 1e12:.2f} ps",
        f"{ssta.criticality[top]:.3f} ({top})",
        f"{validation.max_mean_rel_err * 100:.3f}%",
        f"{validation.max_sigma_rel_err * 100:.2f}%",
        f"{oracle_s / ssta_s:.0f}x" if ssta_s > 0 else "n/a",
    ]]
    report(
        "ssta",
        f"canonical SSTA vs {SAMPLES}-sample Monte-Carlo oracle (shm)",
        ["design", "gates", "critical mu", "critical sigma",
         "top criticality", "max mean err", "max sigma err",
         "oracle/ssta time"],
        rows,
        extra={
            "samples": SAMPLES,
            "mean_tolerance": MEAN_TOL,
            "sigma_tolerance": SIGMA_TOL,
            "max_mean_rel_err": validation.max_mean_rel_err,
            "max_sigma_rel_err": validation.max_sigma_rel_err,
            "oracle_seconds": oracle_s,
        },
    )

    # The acceptance gate: closed-form moments inside the documented
    # tolerances at every primary output.
    assert validation.max_mean_rel_err <= MEAN_TOL
    assert validation.max_sigma_rel_err <= SIGMA_TOL
    assert validation.within(MEAN_TOL, SIGMA_TOL)
    # Statistical max never undershoots the deterministic corner.
    assert critical.mu >= ssta.nominal.critical_delay * (1 - 1e-12)


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: ``random_design`` arguments of the 360- and 1050-net designs (the
#: e2e ``ssta`` and ``sta`` designs).
WALK_DESIGNS = ((8, 40, 1), (20, 50, 1))
#: Fresh processes per tree (their turns interleaved), and warm and
#: cold ops each process times (interleaved).
WALK_PROCESSES, WALK_OPS = (1, 3) if QUICK else (5, 9)
#: Stage spans of the split, by column.
WALK_STAGES = {"coefficients": "ssta.coefficients",
               "extract": "ssta.extract", "walk": "ssta.walk",
               "output fold": "ssta.max"}

#: Times ``argv[1]`` warm and cold ops per design, then one traced op of
#: each for the stage split; prints ``{nets: {kind: [median ms, {stage:
#: ms}]}}``.
WALK_PROBE = """
import gc, json, statistics, sys, time
from repro.core.variation import VariationModel
from repro.obs import tracing
from repro.sta.ssta import ProcessModel, analyze_ssta
from repro.workloads import random_design

designs, ops, stages = json.loads(sys.argv[1])
model = ProcessModel(VariationModel(0.08, 0.08), rho_r=0.5, rho_c=0.5,
                     cell_sigma=0.05, rho_cell=0.5)

def spans(span):
    yield span
    for child in span.children:
        yield from spans(child)

def timed(design):
    gc.collect()
    start = time.perf_counter()
    analyze_ssta(design, model)
    return 1e3 * (time.perf_counter() - start)

out = {}
for args in designs:
    warm = random_design(*args)
    analyze_ssta(warm, model)
    times = {"warm": [], "cold": []}
    for k in range(ops):
        for kind in ("warm", "cold")[::1 if k % 2 else -1]:
            design = warm if kind == "warm" else random_design(*args)
            times[kind].append(timed(design))
    row = out[len(warm.nets)] = {}
    for kind, values in times.items():
        design = warm if kind == "warm" else random_design(*args)
        with tracing() as tracer:
            analyze_ssta(design, model)
        found = [s for root in tracer.roots for s in spans(root)]
        row[kind] = [statistics.median(values), {
            stage: 1e3 * sum(s.duration for s in found if s.name == name)
            for stage, name in stages.items()}]
print(json.dumps(out))
"""


def walk_probe(src):
    """One fresh process's :data:`WALK_PROBE` result for tree ``src``."""
    out = subprocess.run(
        [sys.executable, "-c", WALK_PROBE,
         json.dumps([WALK_DESIGNS, WALK_OPS, WALK_STAGES])],
        env=dict(os.environ, PYTHONPATH=src), check=True,
        capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def walk_report(baseline=None):
    """Write ``results/ssta_walk.txt``: medians over the processes of
    each tree, this tree's stage split, and with a ``baseline`` src
    directory its medians and the ratio."""
    trees = {"this": SRC}
    revision = None
    if baseline:
        trees["baseline"] = os.path.abspath(baseline)
        revision = git_revision(trees["baseline"])
    runs = {tree: [] for tree in trees}
    for k in range(WALK_PROCESSES):
        for tree in list(trees)[::-1 if k % 2 else 1]:
            runs[tree].append(walk_probe(trees[tree]))

    def median(tree, nets, kind, stage=None):
        return statistics.median(
            run[nets][kind][0] if stage is None else run[nets][kind][1][stage]
            for run in runs[tree])

    header = ["design", "op", "this tree"]
    if baseline:
        header += [f"baseline {revision or ''}".strip(), "this / baseline"]
    header += list(WALK_STAGES)
    rows = []
    for nets in runs["this"][0]:
        for kind in ("warm", "cold"):
            mine = median("this", nets, kind)
            row = [f"{nets} nets", kind, f"{mine:.1f} ms"]
            if baseline:
                base = median("baseline", nets, kind)
                row += [f"{base:.1f} ms", f"{mine / base:.2f}"]
            row += [f"{median('this', nets, kind, stage):.2f}"
                    for stage in WALK_STAGES]
            rows.append(row)
    notes = [
        "Stage columns: this tree's ms in one traced op (span "
        + ", ".join(f"{stage} = {name}" for stage, name in
                    WALK_STAGES.items()) + ").",
        host_fingerprint(),
    ]
    report(
        "ssta_walk",
        f"In-process analyze_ssta, medians over {WALK_PROCESSES} fresh "
        f"process(es) of {WALK_OPS} interleaved warm and cold ops each",
        header, rows, extra={"processes": WALK_PROCESSES, "ops": WALK_OPS,
                             "baseline_rev": revision}, notes=notes)


def test_ssta_walk():
    walk_report()


def main(argv=None):
    parser = argparse.ArgumentParser(description="Time warm and cold "
                                     "analyze_ssta into ssta_walk.txt")
    parser.add_argument("--baseline", metavar="SRC",
                        help="src directory of another checkout to compare")
    walk_report(parser.parse_args(argv).baseline)


if __name__ == "__main__":
    main()
