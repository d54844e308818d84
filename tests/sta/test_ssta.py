"""Tests for the statistical STA engine (canonical forms + Clark max)."""

import numpy as np
import pytest

from repro._exceptions import AnalysisError, TimingGraphError
from repro.core.variation import VariationModel, monte_carlo_delay_matrix
from repro.sta import Design, Pin, analyze, default_library
from repro.sta.ssta import (
    ProcessModel,
    analyze_ssta,
    monte_carlo_arrivals,
    validate_against_monte_carlo,
)
from repro.workloads.generators import random_design
from tests.sta.ssta_oracle import net_delay_forms

#: The repo's documented canonical-vs-Monte-Carlo tolerances.
MEAN_TOL = 0.01
SIGMA_TOL = 0.05


@pytest.fixture
def lib():
    return default_library()


@pytest.fixture
def chain(lib):
    d = Design("chain", lib)
    d.add_input("a")
    d.add_output("z")
    d.add_instance("u1", "INV")
    d.add_instance("u2", "INV")
    d.connect("na", ("@port", "a"), [("u1", "a")])
    d.connect("n1", ("u1", "y"), [("u2", "a")])
    d.connect("nz", ("u2", "y"), [("@port", "z")])
    return d


@pytest.fixture
def reconvergent(lib):
    """Two paths from one input reconverging on a NAND — the shape that
    breaks scalar-residual SSTA."""
    d = Design("recon", lib)
    d.add_input("a")
    d.add_output("z")
    d.add_instance("drv", "BUF")
    d.add_instance("p1", "INV")
    d.add_instance("p2", "BUF")
    d.add_instance("m", "NAND2")
    d.connect("na", ("@port", "a"), [("drv", "a")])
    d.connect("nd", ("drv", "y"), [("p1", "a"), ("p2", "a")])
    d.connect("n1", ("p1", "y"), [("m", "a")])
    d.connect("n2", ("p2", "y"), [("m", "b")])
    d.connect("nz", ("m", "y"), [("@port", "z")])
    return d


@pytest.fixture
def model():
    return ProcessModel(
        variation=VariationModel(
            resistance_sigma=0.08, capacitance_sigma=0.08
        ),
        rho_r=0.6, rho_c=0.6, cell_sigma=0.05, rho_cell=0.5,
    )


class TestProcessModel:
    def test_rho_out_of_range_rejected(self):
        with pytest.raises(AnalysisError):
            ProcessModel(VariationModel(), rho_r=1.5)
        with pytest.raises(AnalysisError):
            ProcessModel(VariationModel(), rho_c=-0.1)

    def test_bad_cell_sigma_rejected(self):
        with pytest.raises(AnalysisError):
            ProcessModel(VariationModel(), cell_sigma=-0.2)
        with pytest.raises(AnalysisError):
            ProcessModel(VariationModel(), cell_sigma=float("inf"))

    def test_plain_variation_model_rejected(self, chain):
        with pytest.raises(AnalysisError):
            analyze_ssta(chain, VariationModel(resistance_sigma=0.1))


class TestZeroVariance:
    def test_degenerates_to_nominal(self, chain):
        model = ProcessModel(VariationModel())
        report = analyze_ssta(chain, model)
        nominal = report.nominal
        for pin, form in report.arrival.items():
            assert form.sigma == 0.0
            assert form.mu == pytest.approx(nominal.arrival[pin], rel=1e-12)
        assert report.critical.mu == pytest.approx(
            nominal.critical_delay, rel=1e-12
        )
        assert report.yield_at(nominal.critical_delay + 1e-15) == 1.0
        assert report.yield_at(nominal.critical_delay - 1e-15) == 0.0


class TestChain:
    def test_single_path_mean_is_nominal(self, chain, model):
        # No competing fan-in anywhere: Clark's max never fires, so the
        # statistical mean equals the deterministic arrival exactly.
        report = analyze_ssta(chain, model)
        assert report.critical.mu == pytest.approx(
            report.nominal.critical_delay, rel=1e-12
        )
        assert report.critical.sigma > 0.0

    def test_criticality_trivial(self, chain, model):
        report = analyze_ssta(chain, model)
        assert report.criticality["z"] == pytest.approx(1.0)
        assert report.pin_criticality[Pin(Pin.PORT, "a")] == pytest.approx(
            1.0
        )

    def test_deterministic_repeat(self, chain, model):
        r1 = analyze_ssta(chain, model)
        r2 = analyze_ssta(chain, model)
        assert r1.critical.mu == r2.critical.mu
        assert r1.critical.sigma == r2.critical.sigma


class TestMonteCarloValidation:
    def test_random_design_within_tolerance(self, model):
        design = random_design(layers=4, width=6, seed=3)
        val = validate_against_monte_carlo(
            design, model, samples=4000, seed=1
        )
        assert val.max_mean_rel_err <= MEAN_TOL
        assert val.max_sigma_rel_err <= SIGMA_TOL
        assert val.within(MEAN_TOL, SIGMA_TOL)

    @pytest.mark.usefixtures("pool_always")
    def test_shm_backend_oracle_within_tolerance(self, model):
        # The acceptance gate: canonical mean/sigma vs the Monte-Carlo
        # oracle swept on the shm warm pool.
        design = random_design(layers=3, width=4, seed=7)
        val = validate_against_monte_carlo(
            design, model, samples=3000, seed=2, jobs=2, backend="shm"
        )
        assert val.max_mean_rel_err <= MEAN_TOL
        assert val.max_sigma_rel_err <= SIGMA_TOL

    @pytest.mark.usefixtures("pool_always")
    def test_oracle_bit_identical_across_backends(self, model):
        design = random_design(layers=3, width=4, seed=5)
        ports, serial = monte_carlo_arrivals(design, model, 400, seed=11)
        ports2, shm = monte_carlo_arrivals(
            design, model, 400, seed=11, jobs=2, backend="shm"
        )
        assert ports == ports2
        assert np.array_equal(serial, shm)

    def test_net_forms_match_delay_matrix(self, model):
        # rho=0 reduces the process space to the exact independent
        # element model of monte_carlo_delay_matrix: per-sink canonical
        # sigma must match the per-tree MC column on the shm backend.
        independent = ProcessModel(
            VariationModel(resistance_sigma=0.1, capacitance_sigma=0.1),
            rho_r=0.0, rho_c=0.0, cell_sigma=0.0,
        )
        design = random_design(layers=3, width=4, seed=3)
        report = analyze_ssta(design, independent)
        name, elab = max(
            report.nominal.nets.items(), key=lambda kv: kv[1].tree.num_nodes
        )
        matrix = monte_carlo_delay_matrix(
            elab.tree, independent.variation, 6000, seed=9, backend="shm"
        )
        forms = net_delay_forms(
            name, elab, independent, report.nominal.wire_delay
        )
        for sink, node in elab.sink_nodes.items():
            column = matrix[:, elab.tree.index_of(node)]
            form = forms[sink]
            assert form.mu == pytest.approx(
                float(column.mean()), rel=MEAN_TOL
            )
            assert form.sigma == pytest.approx(
                float(column.std()), rel=SIGMA_TOL
            )

    def test_oracle_needs_process_model(self, chain):
        with pytest.raises(AnalysisError):
            monte_carlo_arrivals(chain, VariationModel(), 10)
        with pytest.raises(AnalysisError):
            monte_carlo_arrivals(
                chain,
                ProcessModel(VariationModel()),
                0,
            )


class TestReconvergence:
    def test_common_path_correlation_kept(self, reconvergent, model):
        # The stem (na/drv/nd) feeds both max operands; labeled
        # residuals keep them correlated, so the merged sigma stays
        # close to the MC truth instead of the root-sum-square answer.
        val = validate_against_monte_carlo(
            reconvergent, model, samples=6000, seed=4
        )
        assert val.max_mean_rel_err <= MEAN_TOL
        assert val.max_sigma_rel_err <= SIGMA_TOL

    def test_criticality_splits_over_branches(self, reconvergent, model):
        report = analyze_ssta(reconvergent, model)
        crit_a = report.pin_criticality[Pin("m", "a")]
        crit_b = report.pin_criticality[Pin("m", "b")]
        assert crit_a + crit_b == pytest.approx(1.0)
        assert 0.0 <= crit_a <= 1.0
        # Both flow back through the stem: the input port sees it all.
        assert report.pin_criticality[Pin(Pin.PORT, "a")] == pytest.approx(
            1.0
        )


class TestReport:
    @pytest.fixture
    def report(self, model):
        design = random_design(layers=4, width=6, seed=3)
        return analyze_ssta(design, model)

    def test_criticality_normalized(self, report):
        assert sum(report.criticality.values()) == pytest.approx(1.0)
        top = max(report.criticality, key=report.criticality.get)
        assert report.criticality[top] >= max(
            1.0 / len(report.criticality), 0.1
        )

    def test_input_criticality_sums_to_one(self, report):
        total = sum(
            weight for pin, weight in report.pin_criticality.items()
            if pin.instance == Pin.PORT and weight > 0.0
            and pin.pin not in report.outputs
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_yield_curve_monotone(self, report):
        ts = np.linspace(
            report.critical.mu - 4 * report.critical.sigma,
            report.critical.mu + 4 * report.critical.sigma,
            41,
        )
        curve = report.yield_curve(ts)
        values = [y for _, y in curve]
        assert values == sorted(values)
        assert values[0] < 0.01 and values[-1] > 0.99
        assert report.yield_at(report.critical.mu) == pytest.approx(0.5)

    def test_sigma_corners_ordered(self, report):
        corners = report.sigma_corners((1.0, 2.0, 3.0))
        assert corners[1.0] < corners[2.0] < corners[3.0]
        assert corners[3.0] == pytest.approx(
            report.critical.mu + 3 * report.critical.sigma
        )

    def test_prob_slack_negative_scalar_and_dict(self, report):
        req = report.critical.quantile(0.95)
        per = report.prob_slack_negative(req)
        assert set(per) == set(report.outputs)
        assert all(0.0 <= p <= 1.0 for p in per.values())
        # Dict form with one output tightened to its own mean.
        tight = {port: req for port in report.outputs}
        top = max(report.criticality, key=report.criticality.get)
        tight[top] = report.outputs[top].mu
        per_tight = report.prob_slack_negative(tight)
        assert per_tight[top] == pytest.approx(0.5)

    def test_fail_probability_bounds(self, report):
        req = report.critical.quantile(0.9)
        per = report.prob_slack_negative(req)
        fail = report.fail_probability(req)
        assert fail <= sum(per.values()) + 1e-9
        assert fail >= max(per.values()) - 0.02
        assert fail == pytest.approx(1.0 - report.yield_at(req), abs=0.02)

    def test_missing_required_rejected(self, report):
        some = dict.fromkeys(list(report.outputs)[:-1], 1.0)
        with pytest.raises(TimingGraphError, match="required times missing"):
            report.prob_slack_negative(some)

    def test_unknown_output_rejected(self, report):
        with pytest.raises(TimingGraphError):
            report.arrival_at_output("ghost")

    def test_outputs_read_the_arrival_forms_lazily(self, model):
        design = random_design(layers=4, width=6, seed=3)
        report = analyze_ssta(design, model)
        assert "0 built" in repr(report.arrival)  # no form built yet
        assert list(report.outputs) == list(design.outputs)
        assert len(report.outputs) == len(design.outputs)
        port = design.outputs[0]
        assert report.outputs[port] is report.arrival[Pin(Pin.PORT, port)]
        assert "1 built" in repr(report.arrival)
        assert port in report.outputs and "ghost" not in report.outputs
        with pytest.raises(KeyError):
            report.outputs["ghost"]
        with pytest.raises(TypeError):
            report.outputs[port] = report.critical


class TestNominalReuse:
    def test_precomputed_nominal_reused(self, chain, model):
        nominal = analyze(chain, "elmore")
        report = analyze_ssta(chain, model, nominal=nominal)
        assert report.nominal is nominal

    def test_wrong_model_nominal_rejected(self, chain, model):
        nominal = analyze(chain, "exact")
        with pytest.raises(TimingGraphError):
            analyze_ssta(chain, model, nominal=nominal)

    def test_sharded_matches_serial(self, model):
        design = random_design(layers=3, width=4, seed=3)
        serial = analyze_ssta(design, model)
        sharded = analyze_ssta(design, model, jobs=2, backend="shm")
        for port in serial.outputs:
            assert serial.outputs[port].mu == sharded.outputs[port].mu
            assert (serial.outputs[port].sigma
                    == sharded.outputs[port].sigma)
