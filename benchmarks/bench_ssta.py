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
"""

import os
import time

from repro.core.variation import VariationModel
from repro.sta.ssta import (
    ProcessModel,
    analyze_ssta,
    validate_against_monte_carlo,
)
from repro.workloads import random_design

from benchmarks._helpers import report

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
