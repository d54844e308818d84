"""A design's compiled timing graph and net records, reused across analyses.

``analyze`` compiles a design once per design version: its levels, its
nets' geometries and records and each plan's laid-out net forests are
cached on the design and reused by every later analysis until something
they depend on changes.  Reused, they must give the bits a cold analysis
of a freshly built copy gives, under every delay model and backend, and
for the slack pass, SSTA and the Monte-Carlo oracle.  Every change they
depend on must force a recompile: each of the four mutators, a
reassigned instance position or cell, another ``wire_load`` and an
override tree mutated in place.
"""

import os
import shutil

import numpy as np
import pytest

import repro.sta.timing as timing
from repro._exceptions import TimingGraphError
from repro.core.variation import VariationModel
from repro.obs.metrics import counter
from repro.sta import DELAY_MODELS, Design, Pin, analyze, compute_slacks
from repro.sta.interconnect import WireLoadModel
from repro.sta.ssta import ProcessModel, analyze_ssta, monte_carlo_arrivals
from repro.workloads import random_design
from tests.sta.test_geometry import mixed_design, overrides

MODEL = ProcessModel(
    VariationModel(resistance_sigma=0.08, capacitance_sigma=0.08),
    rho_r=0.5, rho_c=0.5, cell_sigma=0.05, rho_cell=0.5,
)

BACKENDS = [{}, {"jobs": 1}, {"jobs": 2, "backend": "shm"}]
BACKEND_IDS = ["in-process", "jobs=1", "shm@2"]

#: ``random_design`` arguments of the cached-against-cold suite (280
#: nets, one shard).
PARAMS = dict(layers=6, width=40, seed=7)

#: ``random_design`` arguments of a two-shard design (320 nets), whose
#: shm@2 analyses run on the worker pool.
SHARDED = dict(layers=7, width=40, seed=7)

#: A journal the STA wrote before the shard forests were cached: the
#: header and one of the two shards of ``random_design(1, 160, seed=3)``.
PARTIAL_JOURNAL = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                               "data", "sta_journal_partial.ckpt")


def copy_of(design):
    """A freshly built design equal to ``design`` as it stands now."""
    d = Design(design.name, design.library)
    for port in design.inputs:
        d.add_input(port)
    for port in design.outputs:
        d.add_output(port)
    for inst in design.instances.values():
        d.add_instance(inst.name, inst.cell.name, position=inst.position)
    for net in design.nets.values():
        d.connect(net.name, tuple(net.driver),
                  [tuple(sink) for sink in net.sinks])
    return d


def sta_outcome(design, delay_model="elmore", **kwargs):
    """Everything ``analyze`` and ``compute_slacks`` report on
    ``design``, in order, or the error the analysis raises."""
    try:
        r = analyze(design, delay_model, **kwargs)
    except TimingGraphError as exc:
        return str(exc)
    slacks = compute_slacks(design, r, 1.1 * r.critical_delay)
    return (list(r.arrival.items()), list(r.slew.items()),
            list(r.wire_delay.items()), r.critical_delay, r.critical_output,
            r.critical_path(), list(slacks.required.items()),
            list(slacks.slack.items()), slacks.worst_slack, slacks.worst_pin)


def ssta_outcome(report):
    return ([(pin, form.mu, form.a.tolist(), sorted(form.resid.items()))
             for pin, form in report.arrival.items()],
            (report.critical.mu, report.critical.a.tolist()),
            list(report.criticality.items()),
            list(report.pin_criticality.items()))


@pytest.fixture(scope="module")
def warm():
    """One design analysed once, so every analysis below reuses its
    compiled form."""
    design = random_design(**PARAMS)
    analyze(design)
    return design


class TestCachedEqualsCold:
    @pytest.mark.parametrize("kwargs", BACKENDS, ids=BACKEND_IDS)
    @pytest.mark.parametrize("delay_model", sorted(DELAY_MODELS))
    def test_nominal(self, warm, delay_model, kwargs):
        compiled = warm._compiled
        part = compiled.nets
        mine = sta_outcome(warm, delay_model, **kwargs)
        assert warm._compiled is compiled and compiled.nets is part
        assert mine == sta_outcome(random_design(**PARAMS), delay_model,
                                   **kwargs)

    @pytest.mark.parametrize("kwargs", BACKENDS, ids=BACKEND_IDS)
    def test_statistical(self, warm, kwargs):
        compiled = warm._compiled
        cold = random_design(**PARAMS)
        assert ssta_outcome(analyze_ssta(warm, MODEL, **kwargs)) == \
            ssta_outcome(analyze_ssta(cold, MODEL, **kwargs))
        ports, matrix = monte_carlo_arrivals(warm, MODEL, 64, seed=5,
                                             **kwargs)
        cold_ports, cold_matrix = monte_carlo_arrivals(
            random_design(**PARAMS), MODEL, 64, seed=5, **kwargs)
        assert ports == cold_ports
        assert matrix.tobytes() == cold_matrix.tobytes()
        assert warm._compiled is compiled

    def test_nominal_paths_lay_out_the_shipped_records(self, warm):
        result = analyze(warm)
        assert result.nets.forest is warm._compiled.nets.forests[1][0]
        given = analyze_ssta(warm, MODEL, nominal=result)
        own = analyze_ssta(random_design(**PARAMS), MODEL)
        assert ssta_outcome(given) == ssta_outcome(own)


class TestRecompile:
    """Each change a compiled form depends on recompiles it, and the
    analysis then equals a cold one of a freshly built copy."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        calls = []
        real = timing.levelize

        def counting(design):
            calls.append(design)
            return real(design)

        monkeypatch.setattr(timing, "levelize", counting)
        return calls

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d.add_instance("u9", "INV"), "pin u9.a is unconnected"),
        (lambda d: d.add_input("c"), "port 'c' is unconnected"),
        (lambda d: d.add_output("v"), "port 'v' is unconnected"),
    ], ids=["add_instance", "add_input", "add_output"])
    def test_each_mutator_recompiles(self, compiles, mutate, message):
        d = mixed_design()
        sta_outcome(d)
        mutate(d)
        assert d._compiled is None
        assert sta_outcome(d) == message == sta_outcome(copy_of(d))
        assert compiles.count(d) == 2

    def test_connect_recompiles(self, compiles):
        d = mixed_design()
        before = sta_outcome(d)
        compiled = d._compiled
        # Growing a connected design takes every mutator in turn; after
        # each one the analysis is a fresh one's.
        steps = [
            lambda: d.add_instance("u9", "BUF", position=(200e-6, 0.0)),
            lambda: d.add_input("c"),
            lambda: d.connect("nc", ("@port", "c"), [("u9", "a")]),
            lambda: d.add_output("v"),
            lambda: d.connect("nv", ("u9", "y"), [("@port", "v")]),
        ]
        for step in steps:
            step()
            assert sta_outcome(d) == sta_outcome(copy_of(d))
        assert compiles.count(d) == 1 + len(steps)
        after = sta_outcome(d)
        assert after != before and Pin("@port", "v") in dict(after[0])
        # ``connect`` drops a compiled form it finds, as the others do.
        d.add_instance("u10", "INV")
        d.add_input("e")
        d._compiled = compiled
        d.connect("ne", ("@port", "e"), [("u10", "a")])
        assert d._compiled is None

    @pytest.mark.parametrize("change", [
        lambda d: setattr(d.instances["u3"], "position", (50e-6, 120e-6)),
        lambda d: setattr(d.instances["u3"], "cell",
                          d.library.get("BUF")),
    ], ids=["position", "cell"])
    def test_reassigned_instance_recompiles(self, compiles, change):
        d = mixed_design()
        before = sta_outcome(d)
        change(d)
        after = sta_outcome(d)
        assert after != before
        assert after == sta_outcome(copy_of(d))
        assert compiles.count(d) == 2

    def test_another_wire_load_rereads_the_nets(self, compiles):
        d = mixed_design()
        before = sta_outcome(d)
        heavy = WireLoadModel(200.0, 2e-14)
        after = sta_outcome(d, wire_load=heavy)
        assert after != before
        assert after == sta_outcome(copy_of(d), wire_load=heavy)
        # An equal model is the same key; the default reads again.
        assert sta_outcome(d, wire_load=WireLoadModel(200.0, 2e-14)) == \
            after
        assert d._compiled.nets.wire_load == heavy
        assert sta_outcome(d) == before
        assert d._compiled.nets.wire_load is None
        assert compiles.count(d) == 1  # the graph itself is kept

    def test_a_mutated_override_tree_is_read_afresh(self, compiles):
        d = mixed_design()
        given = overrides()
        tree, _ = given["n3"]
        before = sta_outcome(d, net_overrides=given)
        tree.add_load("y", 30e-15)
        after = sta_outcome(d, net_overrides=given)
        assert after != before
        fresh = overrides()
        fresh["n3"][0].add_load("y", 30e-15)
        assert after == sta_outcome(copy_of(d), net_overrides=fresh)
        # Override calls leave the cached nets of plain calls alone.
        assert d._compiled.nets is None
        assert sta_outcome(d) == sta_outcome(copy_of(d))
        assert compiles.count(d) == 1


class TestSharedLevelsAreReadOnly:
    def test_a_walk_cannot_write_into_shared_levels(self):
        d = mixed_design()
        first, second = analyze(d), analyze(d)
        levels = first.levels
        assert second.levels is levels
        arrays = [levels.ports, levels.outputs, levels.driver, levels.net]
        for level in levels.levels:
            arrays += [level.outputs, level.output_slew, level.starts,
                       level.fanin, level.inputs, level.owner,
                       level.intrinsic, level.slew_impact, level.sinks,
                       level.drivers]
        arrays += [first._rows.sinks, first._rows.counts]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0
        assert np.array_equal(analyze(d)._rows.arrival,
                              analyze(copy_of(d))._rows.arrival)


@pytest.fixture(scope="module")
def sharded():
    """A two-shard design analysed once, so its forests are cached."""
    design = random_design(**SHARDED)
    assert len(timing._net_plan(len(design.nets))) == 2
    analyze(design)
    return design


class TestCachedForests:
    """The forests laid out once per design version (in the parent, or
    by a pool worker from the published records) are what every backend
    sweeps: in process, ``jobs=1`` and shm@2 give the bits a freshly
    generated design gives."""

    @pytest.mark.parametrize("delay_model", sorted(DELAY_MODELS))
    def test_nominal_across_backends(self, sharded, delay_model):
        cold = sta_outcome(random_design(**SHARDED), delay_model)
        for kwargs in BACKENDS:
            assert sta_outcome(sharded, delay_model, **kwargs) == cold
        # The parent keeps one forest of every net (in process) and one
        # per shard (jobs=1), each laid out once.
        forests = dict(sharded._compiled.nets.forests)
        assert sorted(forests) == [1, 2]
        for kwargs in BACKENDS:
            analyze(sharded, delay_model, **kwargs)
            now = sharded._compiled.nets.forests
            assert all(now[k] is forests[k] for k in forests)

    def test_statistical_with_per_name_sigmas(self, sharded):
        # Per-name sigmas read each net's node names (every net has a
        # ``drv``) from the forest's ``nets``, in a worker too.
        model = ProcessModel(
            VariationModel(0.08, 0.08, resistance_sigmas={"drv": 0.2},
                           capacitance_sigmas={"drv": 0.12}),
            rho_r=0.4, rho_c=0.6, cell_sigma=0.05, rho_cell=0.5,
        )
        cold = random_design(**SHARDED)
        want = ssta_outcome(analyze_ssta(cold, model))
        ports, matrix = monte_carlo_arrivals(cold, model, 32, seed=3)
        for kwargs in BACKENDS:
            assert ssta_outcome(analyze_ssta(sharded, model, **kwargs)) \
                == want
            got = monte_carlo_arrivals(sharded, model, 32, seed=3,
                                       **kwargs)
            assert got[0] == ports
            assert got[1].tobytes() == matrix.tobytes()
        for kwargs in BACKENDS:
            nominal = analyze(sharded, **kwargs)
            assert ssta_outcome(analyze_ssta(sharded, model,
                                             nominal=nominal)) == want

    @pytest.mark.parametrize("kwargs", BACKENDS[1:], ids=BACKEND_IDS[1:])
    def test_resume_from_a_journal_written_before(self, tmp_path, kwargs):
        path = str(tmp_path / "run.ckpt")
        shutil.copy(PARTIAL_JOURNAL, path)
        resumed = counter("resilience_checkpoint_shards_resumed_total")
        before = resumed.value
        got = sta_outcome(random_design(1, 160, seed=3),
                          checkpoint_path=path, resume=True, **kwargs)
        assert resumed.value == before + 1
        assert got == sta_outcome(random_design(1, 160, seed=3))


class TestResultViews:
    def test_views_equal_the_dicts_they_replace(self, sharded):
        result = analyze(sharded)
        rows, levels = result._rows, result.levels
        arrival = dict(zip(levels.pins, rows.arrival.tolist()))
        assert result.arrival == arrival and arrival == result.arrival
        assert list(result.arrival) == list(arrival)
        assert list(result.slew.items()) == \
            list(zip(levels.pins, rows.slew.tolist()))
        pins = sharded._compiled.nets.pins
        assert list(result.wire_delay) == list(pins)
        assert list(result.wire_delay.values()) == \
            [float(rows.delay[levels.index[pin]]) for pin in pins]
        slacks = compute_slacks(sharded, result, 1e-9)
        for view in (result.arrival, result.slew, slacks.required,
                     slacks.slack):
            pin = levels.pins[-1]
            assert type(view[pin]) is float
            assert pin in view and len(view) == len(levels.pins)
        gate_output = next(pin for pin in levels.pins
                           if pin not in result.wire_delay)
        with pytest.raises(KeyError):
            result.wire_delay[gate_output]
        with pytest.raises(KeyError):
            result.arrival[Pin("nowhere", "a")]
        with pytest.raises(TypeError):
            result.arrival[levels.pins[0]] = 0.0
