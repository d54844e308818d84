"""Compressed SSTA residuals: each net's per-element residual labels are
replaced by the ``S x S`` factor of its residual matrix, computed from the
net's flat arrays in the nominal shard task.  Every covariance, so every
arrival mean and sigma and every criticality, must match the scalar
walk over per-element forms (``ssta_walk(per_element=True)`` of
``tests/sta/ssta_oracle.py``), and the sharded parent must build no RC
tree."""

import json

import numpy as np
import pytest

import repro.sta.timing as timing
from repro.circuit import RCTree
from repro.core.variation import VariationModel
from repro.parallel import plan_shards
from repro.resilience.checkpoint import CheckpointError
from repro.sta import analyze
from repro.sta.interconnect import net_forest, net_record
from repro.sta.ssta import ProcessModel, analyze_ssta, monte_carlo_arrivals
from repro.workloads import random_design
from tests.sta.ssta_oracle import monte_carlo_walk, ssta_walk
from tests.sta.test_net_arrays import shard_task

#: The correlated process model of ``benchmarks/bench_ssta.py``.
MODEL = ProcessModel(
    VariationModel(resistance_sigma=0.08, capacitance_sigma=0.08),
    rho_r=0.5, rho_c=0.5, cell_sigma=0.05, rho_cell=0.5,
)
REL = 1e-9


def gate_criticality(design, report):
    """Per gate: the summed criticality of its input pins."""
    total = dict.fromkeys(design.instances, 0.0)
    for pin, value in report.pin_criticality.items():
        if pin.instance in total and \
                pin.pin in design.instances[pin.instance].cell.inputs:
            total[pin.instance] += value
    return total


def count_tree_builds(monkeypatch):
    built = []
    real_init = RCTree.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(RCTree, "__init__", counting_init)
    return built


class TestAgainstPerElementForms:
    @pytest.mark.parametrize("layers, width, seed",
                             [(8, 40, 1), (8, 40, 2), (20, 50, 1)])
    def test_every_arrival_and_gate_criticality(self, layers, width, seed):
        design = random_design(layers, width, seed=seed)
        ref = ssta_walk(design, MODEL, per_element=True)
        got = analyze_ssta(design, MODEL)
        assert got.arrival.keys() == ref.arrival.keys()
        for pin, form in ref.arrival.items():
            assert got.arrival[pin].mu == pytest.approx(form.mu, rel=REL)
            assert got.arrival[pin].sigma == pytest.approx(form.sigma,
                                                           rel=REL)
        want = gate_criticality(design, ref)
        have = gate_criticality(design, got)
        for name, value in want.items():
            assert have[name] == pytest.approx(value, rel=REL, abs=REL)
        # Three times fewer residual labels per pin.
        labels = sum(len(f.resid) for f in got.arrival.values())
        assert 3 * labels < sum(len(f.resid) for f in ref.arrival.values())

    def test_sink_s_carries_labels_q0_to_qs_of_its_net(self):
        design = random_design(3, 4, seed=3)
        report = analyze_ssta(design, MODEL)
        nominal = report.nominal
        for name, net in nominal.nets.items():
            prefix = f"net:{name}."
            for s, pin in enumerate(net.sink_nodes):
                labels = report.arrival[pin].resid
                assert {label for label in labels
                        if label.startswith(prefix)} == {
                    f"{prefix}q{j}" for j in range(s + 1)}
            if design.nets[name].driver.is_port:
                for pin in net.sink_nodes:
                    assert report.arrival[pin].mu == nominal.wire_delay[pin]

    def test_fully_shared_variation_has_no_wire_labels(self):
        shared = ProcessModel(
            VariationModel(resistance_sigma=0.1, capacitance_sigma=0.1),
            rho_r=1.0, rho_c=1.0,
        )
        design = random_design(3, 4, seed=3)
        report = analyze_ssta(design, shared)
        for pin, form in report.arrival.items():
            assert not any(label.startswith("net:") for label in form.resid)
        for net in design.nets.values():
            for pin in net.sinks:
                assert report.arrival[pin].sigma > 0.0


class TestShardTask:
    def test_builds_no_rc_tree_and_matches_serial_columns(self,
                                                          monkeypatch):
        design = random_design(5, 8, seed=2)
        geometries = list(timing._net_geometries(design, None,
                                                 None).values())
        records = [net_record(g) for g in geometries]
        whole = MODEL.net_columns(net_forest(records))
        built = count_tree_builds(monkeypatch)
        parts = [shard_task(records[s.start:s.stop], "elmore", MODEL)
                 for s in plan_shards(len(geometries))]
        assert built == []
        # The sweep is the STA shard's, and each net's columns do not
        # depend on which shard holds it.
        assert np.concatenate([p[0] for p in parts], axis=1).tobytes() == \
            timing._sweep_nets(net_forest(records), "elmore").tobytes()
        for got, want in zip(
                (np.concatenate([p[1] for p in parts]),
                 np.concatenate([p[2] for p in parts])), whole):
            assert got.tobytes() == want.tobytes()

    def test_sharded_parent_builds_no_rc_tree(self, monkeypatch):
        design = random_design(5, 8, seed=2)
        built = count_tree_builds(monkeypatch)
        report = analyze_ssta(design, MODEL, jobs=2, backend="shm")
        assert built == []
        serial = analyze_ssta(design, MODEL)
        assert built == []  # in process too, through the same shard task
        for pin, form in serial.arrival.items():
            assert (report.arrival[pin].mu, report.arrival[pin].sigma) \
                == (form.mu, form.sigma)

    def test_caller_nominal_gives_the_same_forms(self):
        design = random_design(5, 8, seed=2)
        sharded = analyze(design, "elmore", jobs=2, backend="shm")
        got = analyze_ssta(design, MODEL, nominal=sharded)
        want = analyze_ssta(design, MODEL)
        for pin, form in want.arrival.items():
            assert (got.arrival[pin].mu, got.arrival[pin].sigma) \
                == (form.mu, form.sigma)


    def test_caller_nominal_builds_no_tree_and_is_bit_identical(
            self, monkeypatch):
        design = random_design(8, 40, seed=1)
        want = analyze_ssta(design, MODEL)
        nominal = analyze(design, "elmore")
        built = count_tree_builds(monkeypatch)
        got = analyze_ssta(design, MODEL, nominal=nominal)
        assert built == []
        assert got.arrival.keys() == want.arrival.keys()
        for pin, form in want.arrival.items():
            have = got.arrival[pin]
            assert (have.mu, have.a.tobytes(), have.resid) == \
                (form.mu, form.a.tobytes(), form.resid)
        assert (got.critical.mu, got.critical.a.tobytes(),
                got.critical.resid) == (want.critical.mu,
                                        want.critical.a.tobytes(),
                                        want.critical.resid)
        assert got.criticality == want.criticality
        assert got.pin_criticality == want.pin_criticality
        assert built == []


    @pytest.mark.parametrize("own", [True, False],
                             ids=["own nominal", "caller nominal"])
    def test_monte_carlo_builds_no_tree_and_is_bit_identical(
            self, monkeypatch, own):
        design = random_design(8, 40, seed=1)
        _, want = monte_carlo_walk(design, MODEL, 120, seed=9)
        nominal = None if own else analyze(design, "elmore")
        built = count_tree_builds(monkeypatch)
        _, got = monte_carlo_arrivals(design, MODEL, 120, seed=9,
                                      nominal=nominal)
        assert built == []
        assert got.tobytes() == want.tobytes()


class TestJournal:
    def test_fingerprint_includes_the_process_model(self, tmp_path):
        design = random_design(3, 4, seed=3)
        path = str(tmp_path / "ssta.ckpt")
        first = analyze_ssta(design, MODEL, checkpoint_path=path)
        header = json.loads(open(path).readline())
        assert header["meta"]["kind"] == "ssta.analyze"
        other = ProcessModel(MODEL.variation, rho_r=0.2)
        with pytest.raises(CheckpointError, match="different run"):
            analyze_ssta(design, other, checkpoint_path=path, resume=True)
        with pytest.raises(CheckpointError, match="different run"):
            analyze(design, checkpoint_path=path, resume=True)
        resumed = analyze_ssta(design, MODEL, checkpoint_path=path,
                               resume=True)
        for pin, form in first.arrival.items():
            assert (resumed.arrival[pin].mu, resumed.arrival[pin].sigma) \
                == (form.mu, form.sigma)
