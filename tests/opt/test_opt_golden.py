"""Pinned goldens for every ``repro.opt`` repeater entry point.

Seeded random trees drive the single- and multi-type van Ginneken DPs,
the two staged delay evaluators, ``stage_sigmas`` and ``repair_slews``
(including the texts of its errors).  Every float is hashed by its hex
form, so a refactor of the DP or of the stage walk that moves a single
bit of a single output, a chosen buffer or an error message fails here.
"""

import hashlib
import random

from repro._exceptions import ReproError
from repro.circuit import RCTree
from repro.opt import (
    BufferSink,
    BufferType,
    assigned_stage_delays,
    buffered_stage_delays,
    insert_buffers,
    insert_buffers_multi,
    repair_slews,
    stage_sigmas,
)

TREES = 150
OUTPUTS_SHA256 = (
    "cfef44cf1c75808ba545de1c66cbc5d65619972e19e66cf4b5f2687310f52e68"
)


def _log_uniform(rng, low, high):
    return low * (high / low) ** rng.random()


def random_case(seed):
    """A random tree, its sinks, a 1-3-type library and a driver."""
    rng = random.Random(seed)
    tree = RCTree("in")
    names = []
    for k in range(rng.randint(1, 14)):
        parent = rng.choice(["in"] + names[-4:] + names[:1])
        name = f"n{k}"
        tree.add_node(name, parent, _log_uniform(rng, 10.0, 600.0),
                      _log_uniform(rng, 1e-15, 1e-13))
        names.append(name)
    sink_nodes = list(tree.leaves())
    sink_nodes += [n for n in names
                   if n not in sink_nodes and rng.random() < 0.2]
    sinks = [
        BufferSink(n, _log_uniform(rng, 1e-16, 3e-14),
                   rng.choice([0.0, 0.0, rng.uniform(-2e-10, 2e-10)]))
        for n in sink_nodes
    ]
    library = [
        BufferType(f"B{k}", _log_uniform(rng, 1e-15, 4e-14),
                   _log_uniform(rng, 20.0, 600.0),
                   rng.choice([0.0, rng.uniform(0.0, 8e-11)]))
        for k in range(rng.randint(1, 3))
    ]
    driver = _log_uniform(rng, 20.0, 800.0)
    return rng, tree, names, sinks, library, driver


def f(value):
    return float(value).hex()


def mapping_lines(tag, values):
    return [f"{tag} {key}={f(v)}" for key, v in sorted(values.items())]


def case_lines(seed):
    rng, tree, names, sinks, library, driver = random_case(seed)
    buffer = library[0]
    lines = [f"case {seed}"]

    candidates = None if rng.random() < 0.5 else \
        rng.sample(names, rng.randint(0, len(names)))
    single = insert_buffers(tree, sinks, buffer, driver, candidates)
    lines.append(
        f"single {single.buffer_nodes} {f(single.required_at_driver)} "
        f"{f(single.unbuffered_required)} {single.options_kept}"
    )

    multi = insert_buffers_multi(tree, sinks, library, driver, candidates)
    chosen = sorted((n, b.name) for n, b in multi.assignments.items())
    lines.append(
        f"multi {chosen} {f(multi.required_at_driver)} "
        f"{f(multi.unbuffered_required)} {multi.options_kept}"
    )

    subset = rng.sample(names, rng.randint(0, len(names)))
    lines += mapping_lines("staged", buffered_stage_delays(
        tree, sinks, buffer, driver, subset))
    assignment = {n: rng.choice(library) for n in subset}
    lines += mapping_lines("assigned", assigned_stage_delays(
        tree, sinks, assignment, driver))

    unbuffered = max(stage_sigmas(
        tree, sinks, buffer, driver, []).values())
    input_sigma = rng.choice([0.0, unbuffered * rng.uniform(0.0, 0.4)])
    lines += mapping_lines("sigmas", stage_sigmas(
        tree, sinks, buffer, driver, subset, input_sigma))

    limit = unbuffered * _log_uniform(rng, 0.35, 1.2)
    try:
        repair = repair_slews(tree, sinks, buffer, driver, limit,
                              input_sigma)
    except ReproError as exc:
        lines.append(f"repair {type(exc).__name__}: {exc}")
    else:
        lines.append(
            f"repair {repair.buffer_nodes} {f(repair.worst_sigma)} "
            f"{repair.iterations}"
        )
        lines += mapping_lines("repaired", repair.sink_sigmas)
    return lines


def outputs_digest():
    lines = []
    for seed in range(TREES):
        lines += case_lines(seed)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_outputs_are_pinned():
    assert outputs_digest() == OUTPUTS_SHA256
