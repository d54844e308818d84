"""The benchmark's workloads: inputs made from the seed, one op each, and
the checks that hold every output to a slower reference.

Library workloads (``mc-sweep``, ``sta``, ``ssta``) run in a fresh
runner process (``runner.py``) as one closed-loop caller using the
documented sharded path, ``jobs=2, backend="shm"``.  ``serve-stats``
drives ``python -m repro serve`` over HTTP from ``run.py`` itself; its
payloads, response checks and in-process reference live here too.

Every checker returns ``None`` when the output is right and a one-line
reason otherwise; the self-tests plant errors to prove each one bites.
"""

from __future__ import annotations

import json
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuit import balanced_tree
from repro.core.variation import VariationModel, monte_carlo_delay_matrix
from repro.sta import analyze
from repro.sta.ssta import ProcessModel, analyze_ssta
from repro.workloads import random_design

#: Worker processes and transport of every library op (nproc is 2).
JOBS = 2
BACKEND = "shm"

MC_SAMPLES = 2000
#: Per-op Monte-Carlo seed: ``seed * MC_SEED_STRIDE + k`` for op ``k``.
MC_SEED_STRIDE = 100003

SERVE_WORKLOAD = "balanced:9x2"
SERVE_ROWS = 32
#: Offered load.  With two connections on a 2-core host the knee moved
#: between ~130 and ~170 rps from hour to hour, and a run at 120 rps
#: sometimes crossed it (p50 over 100 ms); 60 rps keeps it below half.
SERVE_RATE = 60.0
SERVE_CONNECTIONS = 2
#: A request misses its latency limit past this many seconds from due.
SERVE_SLO_S = 0.050
#: In-process repetitions behind each stage of the serve split.
SPLIT_REPEATS = 200


def mc_seed(seed: int, k: int) -> int:
    """The Monte-Carlo seed of op ``k`` in a run seeded ``seed``."""
    return seed * MC_SEED_STRIDE + k


def ssta_model() -> ProcessModel:
    """The correlated process model of ``benchmarks/bench_ssta.py``."""
    return ProcessModel(
        variation=VariationModel(resistance_sigma=0.08,
                                 capacitance_sigma=0.08),
        rho_r=0.5, rho_c=0.5, cell_sigma=0.05, rho_cell=0.5,
    )


# ---------------------------------------------------------------------------
# Checkers (pure functions)


def check_mc_matrix(matrix: Any, shape: Tuple[int, int]) -> Optional[str]:
    """A finite float matrix of exactly ``shape``."""
    if not isinstance(matrix, np.ndarray) or matrix.shape != shape:
        got = getattr(matrix, "shape", type(matrix).__name__)
        return f"expected a {shape} matrix, got {got}"
    if not np.isfinite(matrix).all():
        return "matrix holds non-finite delays"
    return None


def check_identical(got: np.ndarray, ref: np.ndarray,
                    what: str) -> Optional[str]:
    """``got`` and ``ref`` hold the same bits."""
    if got.shape != ref.shape or got.dtype != ref.dtype:
        return f"{what}: shape/dtype {got.shape}/{got.dtype} differs " \
            f"from the reference {ref.shape}/{ref.dtype}"
    if got.tobytes() != ref.tobytes():
        bad = int(np.count_nonzero(got.view(np.uint64)
                                   != ref.view(np.uint64)))
        return f"{what}: {bad} element(s) differ from the serial reference"
    return None


def check_sta(got, ref) -> Optional[str]:
    """Arrivals and critical delay equal the reference bit for bit."""
    if got.critical_delay != ref.critical_delay:
        return (f"critical delay {got.critical_delay!r} differs from the "
                f"reference {ref.critical_delay!r}")
    if got.arrival.keys() != ref.arrival.keys():
        return "arrival pins differ from the reference"
    for pin, value in ref.arrival.items():
        if got.arrival[pin] != value:
            return f"arrival at {pin} is {got.arrival[pin]!r}, " \
                f"reference {value!r}"
    return None


def check_ssta(got, ref) -> Optional[str]:
    """Critical mean and sigma equal the reference's."""
    if (got.critical.mu, got.critical.sigma) != \
            (ref.critical.mu, ref.critical.sigma):
        return (f"critical (mu, sigma) = ({got.critical.mu!r}, "
                f"{got.critical.sigma!r}) differs from the reference "
                f"({ref.critical.mu!r}, {ref.critical.sigma!r})")
    return None


def check_ssta_bound(report) -> Optional[str]:
    """Clark's max never undershoots the deterministic critical delay."""
    floor = report.nominal.critical_delay * (1.0 - 1e-12)
    if not report.critical.mu >= floor:
        return (f"critical mu {report.critical.mu!r} is below the nominal "
                f"critical delay {report.nominal.critical_delay!r}")
    return None


def check_stats_response(status: int, body: bytes,
                         rows: int = SERVE_ROWS) -> Optional[str]:
    """A 200 carrying ``rows`` rows and ``lower <= upper`` on every row
    of every node (the paper's bound pair)."""
    if status != 200:
        return f"HTTP {status}"
    try:
        payload = json.loads(body)
        if payload["rows"] != rows:
            return f"{payload['rows']} rows, expected {rows}"
        for name, node in payload["nodes"].items():
            lower, upper = node["lower"], node["upper"]
            if len(lower) != rows or len(upper) != rows:
                return f"node {name}: row count differs from {rows}"
            for k, (lo, hi) in enumerate(zip(lower, upper)):
                if not lo <= hi:
                    return f"node {name} row {k}: lower {lo!r} > " \
                        f"upper {hi!r}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed response: {exc!r}"
    return None


def check_stats_equal(body: bytes,
                      reference: Dict[str, Any]) -> Optional[str]:
    """The served node values equal the in-process evaluation's."""
    try:
        nodes = json.loads(body)["nodes"]
    except (ValueError, KeyError, TypeError) as exc:
        return f"malformed response: {exc!r}"
    if nodes != reference:
        return "served values differ from the in-process StatsEngine"
    return None


# ---------------------------------------------------------------------------
# Library workloads


class LibraryWorkload:
    """One library op made from the seed, plus its checks.

    ``op(k)`` runs op number ``k`` on the sharded path; ``check`` is the
    cheap per-op check; ``keep`` retains what :meth:`reference_check`
    (the untimed comparison with the serial path) needs.
    """

    name = ""
    #: What ``work_per_s`` counts for this workload.
    item = ""
    items_per_op = 0

    def __init__(self, seed: int) -> None:
        self.seed = int(seed)
        self.first: Optional[Tuple[int, Any]] = None

    def op(self, k: int, jobs: Optional[int] = JOBS,
           backend: Optional[str] = BACKEND) -> Any:
        raise NotImplementedError

    def check(self, k: int, result: Any) -> Optional[str]:
        raise NotImplementedError

    def keep(self, k: int, result: Any) -> None:
        """Retain the first checked op."""
        if self.first is None:
            self.first = (k, result)

    def reference_check(self) -> List[str]:
        raise NotImplementedError


class McSweep(LibraryWorkload):
    """Sharded Monte-Carlo Elmore sweep of a 1023-node clock tree."""

    name = "mc-sweep"
    item = "node-samples"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.tree = balanced_tree(10, 2, 25.0, 8e-15, driver_resistance=120.0,
                                  leaf_load=4e-15)
        self.model = VariationModel(0.1, 0.1)
        self.shape = (MC_SAMPLES, self.tree.num_nodes)
        self.items_per_op = MC_SAMPLES * self.tree.num_nodes
        self.last: Optional[Tuple[int, Any]] = None

    def op(self, k, jobs=JOBS, backend=BACKEND):
        return monte_carlo_delay_matrix(
            self.tree, self.model, MC_SAMPLES, seed=mc_seed(self.seed, k),
            jobs=jobs, backend=backend,
        )

    def check(self, k, result):
        return check_mc_matrix(result, self.shape)

    def keep(self, k, result):
        """Retain the first and the latest checked op."""
        if self.first is None:
            self.first = (k, result)
        else:
            self.last = (k, result)

    def reference_check(self):
        problems = []
        for kept in (self.first, self.last):
            if kept is None:
                continue
            k, got = kept
            err = check_identical(got, self.op(k, jobs=1, backend="serial"),
                                  f"op {k}")
            if err:
                problems.append(err)
        return problems


class Sta(LibraryWorkload):
    """Elmore STA of a ~1050-net random design."""

    name = "sta"
    item = "nets"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.design = random_design(20, 50, seed=self.seed)
        self.items_per_op = len(self.design.nets)

    def op(self, k, jobs=JOBS, backend=BACKEND):
        return analyze(self.design, "elmore", jobs=jobs, backend=backend)

    def check(self, k, result):
        if self.first is not None and \
                result.critical_delay != self.first[1].critical_delay:
            return (f"critical delay {result.critical_delay!r} differs "
                    f"from op {self.first[0]}'s")
        return None

    def reference_check(self):
        if self.first is None:
            return []
        err = check_sta(self.first[1], analyze(self.design, "elmore"))
        return [f"op {self.first[0]}: {err}"] if err else []


class Ssta(LibraryWorkload):
    """Canonical-form SSTA of a ~360-net random design."""

    name = "ssta"
    item = "nets"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.design = random_design(8, 40, seed=self.seed)
        self.model = ssta_model()
        self.items_per_op = len(self.design.nets)

    def op(self, k, jobs=JOBS, backend=BACKEND):
        return analyze_ssta(self.design, self.model, jobs=jobs,
                            backend=backend)

    def check(self, k, result):
        err = check_ssta_bound(result)
        if err is None and self.first is not None:
            err = check_ssta(result, self.first[1])
        return err

    def reference_check(self):
        if self.first is None:
            return []
        err = check_ssta(self.first[1], analyze_ssta(self.design, self.model))
        return [f"op {self.first[0]}: {err}"] if err else []


LIBRARY_WORKLOADS = {cls.name: cls for cls in (McSweep, Sta, Ssta)}


# ---------------------------------------------------------------------------
# serve-stats inputs and in-process reference


def serve_payloads(seed: int, count: int) -> List[bytes]:
    """``count`` ``/v1/stats`` bodies with 32 resistance scales each,
    drawn from ``default_rng(seed)`` in [0.9, 1.1)."""
    rng = np.random.default_rng(seed)
    return [
        json.dumps({
            "workload": SERVE_WORKLOAD,
            "rscale": rng.uniform(0.9, 1.1, SERVE_ROWS).tolist(),
            "nodes": ["t"],
        }).encode("utf-8")
        for _ in range(count)
    ]


def in_process_nodes(body: bytes) -> Dict[str, Any]:
    """The ``nodes`` stanza ``StatsEngine().evaluate`` gives ``body``,
    round-tripped through JSON exactly as the server encodes it."""
    from repro.serve.engine import StatsEngine
    from repro.serve.schemas import parse_stats_request

    request = parse_stats_request(json.loads(body))
    response = StatsEngine().evaluate(request.key, [request])[0]
    return json.loads(json.dumps(response))["nodes"]


def serve_split(body: bytes) -> Dict[str, float]:
    """Median seconds of each in-process stage of one request: parse
    (``json.loads`` + ``parse_stats_request``), topology key, evaluate
    (``StatsEngine().evaluate``, topology cached) and encode."""
    from repro.serve.engine import StatsEngine
    from repro.serve.schemas import parse_stats_request, topology_key

    engine = StatsEngine()
    request = parse_stats_request(json.loads(body))
    engine.evaluate(request.key, [request])  # compile the topology once
    stages: Dict[str, List[float]] = {
        "parse": [], "topology_key": [], "evaluate": [], "encode": []}
    clock = time.perf_counter
    for _ in range(SPLIT_REPEATS):
        t0 = clock()
        request = parse_stats_request(json.loads(body))
        t1 = clock()
        topology_key(request.tree, origin=SERVE_WORKLOAD)
        t2 = clock()
        response = engine.evaluate(request.key, [request])[0]
        t3 = clock()
        json.dumps(response).encode("utf-8")
        t4 = clock()
        for stage, seconds in zip(stages, (t1 - t0, t2 - t1, t3 - t2,
                                           t4 - t3)):
            stages[stage].append(seconds)
    return {stage: float(np.median(v)) for stage, v in stages.items()}


# ---------------------------------------------------------------------------
# Scale ladder (diagnostic, not gated)

#: ``random_design(layers, width)`` rungs: about 1e2, 1e3 and 1e4 nets
#: for STA; about 1e2, 5e2 and 1e3 nets for SSTA.
STA_LADDER: Sequence[Tuple[int, int]] = ((5, 20), (20, 50), (100, 100))
SSTA_LADDER: Sequence[Tuple[int, int]] = ((4, 25), (10, 50), (20, 50))


def ladder_designs(seed: int):
    """``(kind, layers, width, design, op)`` for every ladder rung."""
    model = ssta_model()
    for kind, rungs in (("sta", STA_LADDER), ("ssta", SSTA_LADDER)):
        for layers, width in rungs:
            design = random_design(layers, width, seed=seed)
            if kind == "sta":
                def op(design=design):
                    return analyze(design, "elmore", jobs=JOBS,
                                   backend=BACKEND)
            else:
                def op(design=design):
                    return analyze_ssta(design, model, jobs=JOBS,
                                        backend=BACKEND)
            yield kind, layers, width, design, op
