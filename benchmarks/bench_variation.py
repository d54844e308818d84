"""Ablation: analytic variation statistics vs Monte Carlo.

The Elmore delay's bilinearity gives closed-form mean/variance under
independent elementwise process variation — O(N) per node versus
thousands of Monte-Carlo tree evaluations.  This bench:

* validates the closed forms against 6000-sample Monte Carlo on three
  topologies (line, clock tree, the paper's Fig. 1), and
* reports the speedup of the analytic path.

Asserted: the nominal value is the exact mean; analytic vs MC std agrees
within 6%; the analytic path is > 100x faster than a per-sample tree
walk over the same sampled rows.

A second table times that per-sample Python walk against one vectorized
``batch_elmore_delays`` sweep over the same ``sample_parameter_batch``
rows on a 256-node random tree at B=1000 samples, asserting identical
samples and a >= 5x speedup.

Set ``REPRO_BENCH_QUICK=1`` for a fast smoke run (smaller tree and
sample count, relaxed speedup assertion).
"""

import os
import time

import numpy as np
import pytest

from repro.circuit import balanced_tree, rc_line
from repro.core.batch import batch_elmore_delays, compile_topology
from repro.core.variation import (
    VariationModel,
    elmore_statistics,
    sample_parameter_batch,
)
from repro.workloads import fig1_tree
from repro.workloads.generators import random_tree

from benchmarks._helpers import ns, report

QUICK = os.environ.get("REPRO_BENCH_QUICK", "") not in ("", "0")
MODEL = VariationModel(resistance_sigma=0.12, capacitance_sigma=0.08)
MC_SAMPLES = 6000
BATCH_NODES = 64 if QUICK else 256
BATCH_SAMPLES = 64 if QUICK else 1000

CASES = [
    ("fig1/n5", fig1_tree(), "n5"),
    ("line/n12", rc_line(12, 120.0, 0.2e-12, driver_resistance=300.0),
     "n12"),
    ("clock/leaf", balanced_tree(5, 2, 40.0, 30e-15,
                                 driver_resistance=150.0,
                                 leaf_load=12e-15), None),
]


def walk_elmore(tree, node, res, cap):
    """Per-sample Python tree walk: ``T_D(node)`` for each row of
    ``(res, cap)`` — the timing baseline for both tables."""
    parent = tree.parents
    n = tree.num_nodes
    # Path mask for the target (edges on its root path).
    on_path = np.zeros(n, dtype=bool)
    i = tree.index_of(node)
    while i >= 0:
        on_path[i] = True
        i = parent[i]

    out = np.empty(res.shape[0], dtype=np.float64)
    for s in range(res.shape[0]):
        cdown = cap[s].copy()
        for i in range(n - 1, -1, -1):
            p = parent[i]
            if p >= 0:
                cdown[p] += cdown[i]
        out[s] = float(np.sum((res[s] * cdown)[on_path]))
    return out


def test_variation(benchmark):
    tree, node = CASES[0][1], CASES[0][2]
    benchmark(elmore_statistics, tree, node, MODEL)

    rows = []
    for label, tree, node in CASES:
        if node is None:
            node = tree.leaves()[0]
        res, cap = sample_parameter_batch(tree, MODEL, MC_SAMPLES, seed=1)
        start = time.perf_counter()
        stats = elmore_statistics(tree, node, MODEL)
        t_analytic = time.perf_counter() - start
        start = time.perf_counter()
        samples = walk_elmore(tree, node, res, cap)
        t_mc = time.perf_counter() - start
        mc_mean = float(np.mean(samples))
        mc_std = float(np.std(samples))
        rows.append([
            label, ns(stats.mean), ns(mc_mean),
            ns(stats.std), ns(mc_std),
            f"{t_mc / max(t_analytic, 1e-9):.0f}x",
        ])
        assert mc_mean == pytest.approx(stats.mean, rel=6e-3)
        assert mc_std == pytest.approx(stats.std, rel=6e-2)
        assert t_mc / max(t_analytic, 1e-9) > 100.0
    report(
        "variation",
        f"Analytic Elmore variation statistics vs {MC_SAMPLES}-sample "
        "Monte Carlo (12% R, 8% C)",
        ["case", "mean (ns)", "MC mean", "std (ns)", "MC std",
         "speedup"],
        rows,
    )


def test_variation_batched(benchmark):
    """Per-sample walk vs one batched sweep over the same rows."""
    tree = random_tree(BATCH_NODES, seed=42)
    node = tree.leaves()[-1]
    topo = compile_topology(tree)
    res, cap = sample_parameter_batch(tree, MODEL, BATCH_SAMPLES, seed=3)
    benchmark(batch_elmore_delays, topo, res, cap)

    start = time.perf_counter()
    loop = walk_elmore(tree, node, res, cap)
    t_loop = time.perf_counter() - start
    start = time.perf_counter()
    batched = batch_elmore_delays(topo, res, cap)[:, topo.index_of(node)]
    t_batch = time.perf_counter() - start

    np.testing.assert_allclose(batched, loop, rtol=1e-9)
    speedup = t_loop / max(t_batch, 1e-9)
    report(
        "variation_batched",
        f"Per-sample walk vs batched sweep — {BATCH_NODES}-node random "
        f"tree, B={BATCH_SAMPLES} samples",
        ["engine", "time", "mean (ns)", "std (ns)"],
        [
            ["walk", f"{t_loop * 1e3:.2f} ms",
             ns(float(np.mean(loop))), ns(float(np.std(loop)))],
            ["sweep", f"{t_batch * 1e3:.2f} ms",
             ns(float(np.mean(batched))), ns(float(np.std(batched)))],
            ["speedup", f"{speedup:.1f}x", "", ""],
        ],
        extra={"samples": BATCH_SAMPLES, "nodes": BATCH_NODES,
               "speedup": speedup},
    )
    assert speedup > (1.0 if QUICK else 5.0)
