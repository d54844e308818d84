"""Seeded workload generators for benchmarks and property tests.

Everything here is deterministic given its seed so benchmark rows are
reproducible run to run.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro._exceptions import ValidationError
from repro.circuit.builders import balanced_tree, random_tree, rc_line
from repro.circuit.rctree import RCTree

__all__ = [
    "random_tree_corpus",
    "line_family",
    "clock_tree_family",
    "mixed_corpus",
    "corner_batch",
    "random_design",
]


def random_tree_corpus(
    count: int,
    size_range: Tuple[int, int] = (3, 40),
    seed: int = 1995,
    r_range: Tuple[float, float] = (10.0, 2000.0),
    c_range: Tuple[float, float] = (1e-15, 2e-12),
) -> List[RCTree]:
    """A corpus of random RC trees spanning sizes and element decades.

    Parameters
    ----------
    count:
        Number of trees (>= 1).
    size_range:
        Inclusive ``(min, max)`` node-count range.
    seed:
        Base seed; tree ``k`` uses a derived deterministic stream.
    """
    if count < 1:
        raise ValidationError("corpus needs at least one tree")
    lo, hi = size_range
    if not (1 <= lo <= hi):
        raise ValidationError("size_range must satisfy 1 <= min <= max")
    rng = np.random.default_rng(seed)
    corpus = []
    for _ in range(count):
        n = int(rng.integers(lo, hi + 1))
        corpus.append(
            random_tree(n, rng=rng, r_range=r_range, c_range=c_range)
        )
    return corpus


def line_family(
    sizes: Tuple[int, ...] = (10, 30, 100, 300, 1000),
    resistance: float = 10.0,
    capacitance: float = 20e-15,
    driver_resistance: float = 200.0,
) -> List[RCTree]:
    """Uniform RC lines of increasing length (for scaling benches)."""
    return [
        rc_line(
            n,
            resistance,
            capacitance,
            driver_resistance=driver_resistance,
        )
        for n in sizes
    ]


def clock_tree_family(
    depths: Tuple[int, ...] = (3, 4, 5),
    fanout: int = 2,
    resistance: float = 40.0,
    capacitance: float = 30e-15,
    driver_resistance: float = 150.0,
    leaf_load: float = 10e-15,
) -> List[RCTree]:
    """Balanced clock-distribution trees of increasing depth."""
    return [
        balanced_tree(
            depth,
            fanout,
            resistance,
            capacitance,
            driver_resistance=driver_resistance,
            leaf_load=leaf_load,
        )
        for depth in depths
    ]


def corner_batch(
    tree: RCTree,
    r_scales: Tuple[float, ...] = (0.85, 1.0, 1.15),
    c_scales: Tuple[float, ...] = (0.85, 1.0, 1.15),
) -> Tuple[np.ndarray, np.ndarray]:
    """The full process-corner cross product as one parameter batch.

    Returns ``(R, C)`` of shape ``(len(r_scales) * len(c_scales), N)``:
    row ``i * len(c_scales) + j`` scales every resistance by
    ``r_scales[i]`` and every capacitance by ``c_scales[j]`` — multi-corner
    timing becomes a single batched sweep instead of one tree rebuild per
    corner.
    """
    if not r_scales or not c_scales:
        raise ValidationError("corner_batch needs at least one scale each")
    if any(s <= 0 for s in r_scales) or any(s <= 0 for s in c_scales):
        raise ValidationError("corner scale factors must be > 0")
    rs = np.repeat(np.asarray(r_scales, dtype=np.float64), len(c_scales))
    cs = np.tile(np.asarray(c_scales, dtype=np.float64), len(r_scales))
    return (
        rs[:, None] * tree.resistances[None, :],
        cs[:, None] * tree.capacitances[None, :],
    )


def random_design(layers: int = 6, width: int = 15, seed: int = 3):
    """A seeded random combinational gate-level design for STA workloads.

    ``layers`` rows of ``width`` random gates (INV/NAND/NOR/AND/OR) with
    jittered placement; each gate input wires to a random driver of the
    previous layer, and unused drivers surface as observation outputs so
    every pin stays connected.  Deterministic given the seed — the same
    generator backs ``benchmarks/bench_sta.py``, the ``repro sta``
    subcommand, and the parallel STA determinism gates.
    """
    from repro.sta import Design, default_library

    if layers < 1 or width < 1:
        raise ValidationError("random_design needs layers >= 1, width >= 1")
    rng = np.random.default_rng(seed)
    design = Design("random", default_library())
    kinds = ("INV", "NAND2", "NOR2", "AND2", "OR2")
    for k in range(width):
        design.add_input(f"i{k}")
    previous = [("@port", f"i{k}") for k in range(width)]
    pitch = 40e-6
    net_id = 0
    for layer in range(layers):
        current = []
        for k in range(width):
            kind = kinds[int(rng.integers(0, len(kinds)))]
            name = f"g{layer}_{k}"
            design.add_instance(
                name, kind,
                position=(layer * pitch, k * pitch +
                          float(rng.uniform(-5e-6, 5e-6))),
            )
            current.append((name, "y"))
        # Wire each gate input to a random driver of the previous layer.
        pending = {}
        for k in range(width):
            name = f"g{layer}_{k}"
            cell = design.instances[name].cell
            for pin in cell.inputs:
                src = previous[int(rng.integers(0, len(previous)))]
                pending.setdefault(src, []).append((name, pin))
        for src, sinks in pending.items():
            design.connect(f"n{net_id}", src, sinks)
            net_id += 1
        # Random fanin selection can leave some drivers unused; expose
        # them as observation outputs so every pin is connected.
        unused = [src for src in previous if src not in pending]
        for src in unused:
            port = f"o_unused{net_id}"
            design.add_output(port)
            design.connect(f"n{net_id}", src, [("@port", port)])
            net_id += 1
        previous = current
    for k, src in enumerate(previous):
        design.add_output(f"o{k}")
        design.connect(f"n{net_id}", src, [("@port", f"o{k}")])
        net_id += 1
    return design


def mixed_corpus(seed: int = 42) -> List[RCTree]:
    """A small fixed mix of shapes (line, star-ish random, clock trees)
    used by integration tests."""
    corpus: List[RCTree] = []
    corpus.append(rc_line(12, 50.0, 0.1e-12, driver_resistance=300.0))
    corpus.append(
        balanced_tree(4, 2, 60.0, 40e-15, driver_resistance=200.0,
                      leaf_load=15e-15)
    )
    corpus.extend(random_tree_corpus(6, size_range=(4, 25), seed=seed))
    return corpus
