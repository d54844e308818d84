"""Vectorized Monte-Carlo variation sweep with the batch engine.

``repro.core.batch`` compiles a tree once into flat topology arrays and
evaluates the whole moment pipeline for B resistance/capacitance vectors
at a time — thousands of process samples become one NumPy sweep instead
of thousands of Python tree walks.

This example:

1. compiles a 200-node random net and draws 4000 variation samples,
2. evaluates all 4000 Elmore-delay vectors in a single batched call and
   checks them against ``monte_carlo_elmore`` and the closed-form stats,
3. derives the full delay *distribution* per node (p50/p95/p99) from the
   same sweep, and
4. reuses the batch to evaluate the paper's bound pair at every sample,
   confirming ``lower <= T_D`` pointwise across process space.

Run:  python examples/batched_variation_sweep.py
"""

import time

import numpy as np

from repro.core import (
    batch_delay_bounds,
    batch_elmore_delays,
    compile_topology,
)
from repro.core.variation import (
    VariationModel,
    elmore_statistics,
    monte_carlo_elmore,
    sample_parameter_batch,
)
from repro.workloads.generators import random_tree

NS = 1e-9
MODEL = VariationModel(resistance_sigma=0.12, capacitance_sigma=0.08)
SAMPLES = 4000


def main():
    tree = random_tree(200, seed=7)
    sink = tree.leaves()[-1]
    print(f"200-node random net, {SAMPLES} variation samples "
          "(12% R / 8% C)\n")

    # One compile, one batched sweep over every sample and node.
    topo = compile_topology(tree)
    res, cap = sample_parameter_batch(tree, MODEL, SAMPLES, seed=11)
    start = time.perf_counter()
    delays = batch_elmore_delays(topo, res, cap)
    t_batch = time.perf_counter() - start
    print(f"batched sweep: {SAMPLES} x {topo.num_nodes} delays in "
          f"{t_batch * 1e3:.1f} ms")

    # monte_carlo_elmore draws the same rows (sharded, one spawned
    # stream per shard), so its samples are this column, bit for bit.
    col = delays[:, topo.index_of(sink)]
    mc = monte_carlo_elmore(tree, sink, MODEL, samples=SAMPLES, seed=11)
    assert np.array_equal(col, mc)
    print(f"monte_carlo_elmore({sink!r}): identical samples, bit for "
          "bit\n")

    # Closed-form statistics agree with the sampled distribution.
    stats = elmore_statistics(tree, sink, MODEL)
    print(f"{'':>10} {'analytic':>9} {'sampled':>9}   (ns, sink "
          f"{sink!r})")
    print(f"{'mean':>10} {stats.mean / NS:9.3f} "
          f"{float(np.mean(col)) / NS:9.3f}")
    print(f"{'std':>10} {stats.std / NS:9.4f} "
          f"{float(np.std(col)) / NS:9.4f}")
    assert abs(float(np.mean(col)) - stats.mean) < 0.02 * stats.mean
    assert abs(float(np.std(col)) - stats.std) < 0.10 * stats.std

    # The sweep gives the whole distribution at every node for free.
    print(f"\n{'node':>8} {'p50':>8} {'p95':>8} {'p99':>8}   (ns)")
    for node in tree.leaves()[:4]:
        q = np.quantile(delays[:, topo.index_of(node)],
                        [0.5, 0.95, 0.99]) / NS
        print(f"{node:>8} {q[0]:8.3f} {q[1]:8.3f} {q[2]:8.3f}")

    # Bound pair per sample: Corollary 1 holds at every process corner.
    lower, upper = batch_delay_bounds(topo, res, cap)
    assert np.all(lower <= upper + 1e-30)
    assert np.allclose(upper, delays, rtol=1e-12)
    print(f"\nbound pair evaluated at all {SAMPLES * topo.num_nodes} "
          "(sample, node) points: lower <= T_D everywhere — the "
          "certificate\nsurvives process variation sample by sample.")


if __name__ == "__main__":
    main()
