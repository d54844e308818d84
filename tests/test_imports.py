"""Import hygiene: the Elmore paths never load scipy or networkx.

The Elmore metric is a few sweeps over numpy arrays, so importing the
package, the CLI's help, an Elmore STA, a Monte-Carlo sweep and one
``/v1/stats`` batch must not pay for scipy (the exact, transient and MNA
solves, the root finders, SSTA's QR and normal CDF) or networkx (the
graph-based routing helpers).  Those entry points import them when they
run.  Every check runs in a fresh interpreter under ``-X importtime``,
which names each module the process imports; none asserts a time.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[1] / "src")

#: Packages only the exact/graph entry points may load.
HEAVY = {"scipy", "networkx"}


def imported_packages(*args):
    """Top-level packages a fresh ``python -X importtime *args`` imports.

    The command must succeed; the import list is its ``-X importtime``
    report on stderr (forked workers inherit the flag and the stream).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return {
        line.rpartition("|")[2].strip().split(".")[0]
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }


@pytest.mark.parametrize("args", [
    ["-c", "import repro"],
    ["-c", "import repro.cli"],
    ["-m", "repro", "--help"],
    ["-m", "repro", "sta", "--layers", "5", "--width", "20", "--seed", "1"],
    ["-c", """
from repro.circuit import balanced_tree
from repro.core.variation import VariationModel, monte_carlo_delay_matrix
tree = balanced_tree(4, 2, 100.0, 1e-14, driver_resistance=50.0)
model = VariationModel(resistance_sigma=0.1, capacitance_sigma=0.1)
assert monte_carlo_delay_matrix(tree, model, 64, seed=1).shape[0] == 64
"""],
    ["-c", """
from repro.serve.engine import StatsEngine
from repro.serve.schemas import parse_stats_request
request = parse_stats_request({"workload": "fig1", "signal": "ramp:2ns"})
(response,) = StatsEngine().evaluate(request.key, [request])
assert response["nodes"]
"""],
], ids=["import-repro", "import-cli", "help", "elmore-sta", "mc-sweep",
        "stats-engine"])
def test_elmore_paths_load_neither_scipy_nor_networkx(args):
    assert imported_packages(*args) & HEAVY == set()


@pytest.mark.parametrize("code, needs", [
    ("""
from repro.sta import analyze
from repro.workloads import random_design
assert analyze(random_design(2, 3, 1), "exact").critical_delay > 0.0
""", "scipy"),
    ("""
from repro.core.variation import VariationModel
from repro.sta import ProcessModel, analyze_ssta
from repro.workloads import random_design
model = ProcessModel(VariationModel(resistance_sigma=0.1,
                                    capacitance_sigma=0.1))
assert analyze_ssta(random_design(2, 3, 1), model).critical.sigma > 0.0
""", "scipy"),
    ("""
from repro.routing.steiner import one_steiner_refinement
points, tree = one_steiner_refinement([(0, 1), (2, 1), (1, 0), (1, 2)])
assert points[4] == (1, 1) and tree.degree(4) == 4
""", "networkx"),
    ("""
from repro.routing.timing_driven import route_net_timing_driven
result = route_net_timing_driven((0.0, 0.0), [(2e-4, 0.0), (0.0, 2e-4)],
                                 150.0)
assert result.objective > 0.0
""", "networkx"),
], ids=["exact-sta", "ssta", "one-steiner", "timing-driven"])
def test_exact_and_graph_paths_load_what_they_need(code, needs):
    assert needs in imported_packages("-c", code)
