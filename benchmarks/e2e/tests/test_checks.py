"""Each output checker accepts the real output and rejects a planted error."""

import dataclasses
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest
from repro.parallel.shm import ShmWorkspace

from procs import leaked_segments, segment_owner, shm_segments
from workloads import (
    McSweep,
    Ssta,
    Sta,
    check_identical,
    check_mc_matrix,
    check_ssta,
    check_ssta_bound,
    check_stats_equal,
    check_stats_response,
    in_process_nodes,
    serve_payloads,
)


def nudged(value):
    """``value`` moved by one unit in the last place."""
    return float(np.nextafter(value, np.inf))


@pytest.fixture(scope="module")
def mc():
    workload = McSweep(seed=1)
    return workload, workload.op(0, jobs=1, backend="serial")


def test_mc_reference_check_catches_a_one_ulp_change(mc):
    workload, matrix = mc
    assert check_mc_matrix(matrix, workload.shape) is None
    assert check_identical(matrix.copy(), matrix, "op 0") is None
    planted = matrix.copy()
    planted[17, 42] = nudged(planted[17, 42])
    assert "1 element" in check_identical(planted, matrix, "op 0")
    workload.keep(0, planted)
    problems = workload.reference_check()
    assert len(problems) == 1 and "differ" in problems[0]


def test_mc_matrix_check_rejects_shape_and_non_finite(mc):
    workload, matrix = mc
    assert check_mc_matrix(matrix[:-1], workload.shape) is not None
    planted = matrix.copy()
    planted[0, 0] = np.nan
    assert "non-finite" in check_mc_matrix(planted, workload.shape)


def test_sta_checks_catch_a_one_ulp_arrival():
    workload = Sta(seed=1)
    result = workload.op(0, jobs=None, backend=None)
    workload.keep(0, result)
    assert workload.reference_check() == []
    pin = next(iter(result.arrival))
    arrival = dict(result.arrival)
    arrival[pin] = nudged(arrival[pin])
    planted = dataclasses.replace(result, arrival=arrival)
    workload.first = (0, planted)
    problems = workload.reference_check()
    assert len(problems) == 1 and str(pin) in problems[0]
    shifted = dataclasses.replace(
        result, critical_delay=nudged(result.critical_delay))
    assert "critical delay" in workload.check(1, shifted)


def test_ssta_checks_catch_sigma_drift_and_an_undershooting_max():
    workload = Ssta(seed=1)
    report = workload.op(0, jobs=None, backend=None)
    assert workload.check(0, report) is None
    workload.keep(0, report)
    assert workload.reference_check() == []
    drifted = SimpleNamespace(critical=SimpleNamespace(
        mu=report.critical.mu, sigma=nudged(report.critical.sigma)))
    assert check_ssta(drifted, report) is not None
    below = SimpleNamespace(
        critical=SimpleNamespace(mu=0.9 * report.nominal.critical_delay),
        nominal=report.nominal)
    assert "below the nominal" in check_ssta_bound(below)


@pytest.fixture(scope="module")
def served():
    payload = serve_payloads(seed=1, count=1)[0]
    nodes = in_process_nodes(payload)
    body = json.dumps({"rows": 32, "nodes": nodes}).encode()
    return payload, nodes, body


def test_stats_response_check_catches_a_swapped_bound_pair(served):
    _, nodes, body = served
    assert check_stats_response(200, body) is None
    row = next(k for k, (lo, hi) in enumerate(zip(nodes["t"]["lower"],
                                                  nodes["t"]["upper"]))
               if lo < hi)
    swapped = json.loads(body)
    node = swapped["nodes"]["t"]
    node["lower"][row], node["upper"][row] = \
        node["upper"][row], node["lower"][row]
    err = check_stats_response(200, json.dumps(swapped).encode())
    assert err is not None and f"row {row}" in err
    assert check_stats_response(503, body) == "HTTP 503"
    assert "rows" in check_stats_response(200, body, rows=31)
    assert "malformed" in check_stats_response(200, b"not json")


def test_stats_equality_check_catches_a_one_ulp_value(served):
    payload, nodes, body = served
    assert check_stats_equal(body, in_process_nodes(payload)) is None
    planted = json.loads(body)
    planted["nodes"]["t"]["elmore"][5] = nudged(
        planted["nodes"]["t"]["elmore"][5])
    assert check_stats_equal(json.dumps(planted).encode(), nodes) \
        is not None


def test_leak_gate_catches_a_live_library_segment():
    before = shm_segments()
    with ShmWorkspace("e2etest") as workspace:
        workspace.put("block", np.arange(8.0))
        leaked = leaked_segments(before, [os.getpid()])
        assert len(leaked) == 1 and segment_owner(leaked[0]) == \
            str(os.getpid())
        assert leaked_segments(before, [os.getpid() + 1]) == []
    assert leaked_segments(before, [os.getpid()]) == []
