"""``BENCHMARK.json`` against its contract and the layer map."""

import copy
import json
from pathlib import Path

import pytest

from layers import LAYER_MAP, SpanTotals
from spec import NAME_RE, load_spec, validate_spec

SPEC = load_spec(Path(__file__).resolve().parents[3] / "BENCHMARK.json")


def test_committed_spec_is_valid():
    assert validate_spec(SPEC) == []
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [w["name"] for w in SPEC["workloads"]] == \
        ["mc-sweep", "sta", "ssta", "serve-stats"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in SPEC["end_to_end"])


def test_every_name_is_legal_and_unique():
    names = [e["name"] for section in ("workloads", "end_to_end",
                                       "per_layer") for e in SPEC[section]]
    assert all(NAME_RE.match(name) for name in names)
    assert len(names) == len(set(names))


def test_counts_are_within_limits():
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128


def test_every_per_layer_metric_names_an_end_to_end_metric_and_workload():
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert set(LAYER_MAP) == {m["name"] for m in SPEC["per_layer"]}
    for metric, (moves, on, flat) in LAYER_MAP.items():
        assert moves in end_to_end, metric
        assert on and set(on) <= workloads, metric
        assert set(flat) <= workloads and not set(flat) & set(on), metric


@pytest.mark.parametrize("mutate, complaint", [
    (lambda s: s.update(workloads=s["workloads"][:1]), "workloads"),
    (lambda s: s["end_to_end"][1].update(bound=0.3), "bound"),
    (lambda s: s["per_layer"][0].update(name="bad name!"), "bad name"),
    (lambda s: s["per_layer"].append(dict(s["per_layer"][0])), "twice"),
    (lambda s: s["end_to_end"][0].update(unit="ms"), "setup_s"),
    (lambda s: s["end_to_end"][1].update(extra=1), "exactly the keys"),
    (lambda s: s.update(run_seconds=61), "run_seconds"),
    (lambda s: s.update(paths=["../elsewhere"]), "paths"),
    (lambda s: s["workloads"][0].update(why="x" * 201), "one line"),
])
def test_validate_spec_rejects_contract_breaks(mutate, complaint):
    spec = copy.deepcopy(SPEC)
    mutate(spec)
    problems = validate_spec(spec)
    assert any(complaint in p for p in problems), problems


def test_load_spec_refuses_invalid_json(tmp_path):
    bad = tmp_path / "BENCHMARK.json"
    bad.write_text(json.dumps({"command": []}))
    with pytest.raises(ValueError):
        load_spec(bad)


def test_worker_spans_are_not_subtracted_from_the_parent():
    def node(name, duration, children=(), **attributes):
        return {"name": name, "duration": duration,
                "attributes": attributes, "children": list(children)}

    worker = node("parallel.worker", 0.030, [
        node("batch.elmore_delays", 0.030,
             [node("batch.level_sweeps", 0.020)], B=10, N=5)])
    op = node("bench.op", 0.100, [
        node("variation.monte_carlo_sharded", 0.090, [
            node("shm.publish", 0.010),
            node("variation.parallel_run", 0.070, [worker, worker]),
        ]),
    ])
    totals = SpanTotals()
    totals.add(op)
    assert totals.parent["bench.op"] == pytest.approx(0.010)
    assert totals.parent["variation.monte_carlo_sharded"] == \
        pytest.approx(0.010)
    # The parent waited the whole 70 ms while both workers ran.
    assert totals.parent["variation.parallel_run"] == pytest.approx(0.070)
    assert totals.worker["batch.elmore_delays"] == pytest.approx(0.020)
    assert totals.worker["batch.level_sweeps"] == pytest.approx(0.040)
    assert "parallel.worker" not in totals.worker
    assert totals.computed_bytes == 2 * 32 * 10 * 5
