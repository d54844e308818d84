"""Property: the flat-array Elmore sensitivities of several sinks at once
equal :func:`elmore_sensitivity` on the tree, and a net's compressed SSTA
coefficients keep every covariance of its per-element residuals."""

import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from repro.circuit import RCTree
from repro.core.sensitivity import (
    elmore_sensitivity,
    elmore_sensitivity_arrays,
)
from repro.core.variation import VariationModel
from repro.sta.interconnect import NetArrays, net_forest
from repro.sta.ssta import ProcessModel
from tests.sta.ssta_oracle import net_coefficients

REL = 1e-12

_resistances = st.floats(min_value=1.0, max_value=1e5,
                         allow_nan=False, allow_infinity=False)
# Zero caps included: a sink whose whole subtree is uncharged still has
# dT/dC = its own path resistance.
_capacitances = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-16, max_value=1e-11,
              allow_nan=False, allow_infinity=False),
)
_sigmas = st.floats(min_value=0.0, max_value=0.3,
                    allow_nan=False, allow_infinity=False)


@st.composite
def flat_nets(draw, max_nodes=14, max_sinks=6):
    """Flat parent/R/C arrays plus sink node indices (repeats allowed)."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    parents = [draw(st.integers(min_value=-1, max_value=i - 1))
               for i in range(n)]
    res = [draw(_resistances) for _ in range(n)]
    cap = [draw(_capacitances) for _ in range(n)]
    assume(any(cap))  # an RC tree carries some capacitance
    sinks = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                          min_size=1, max_size=max_sinks))
    names = [f"n{i}" for i in range(n)]
    return NetArrays("in", names, parents, res, cap, sinks)


@st.composite
def process_models(draw, names):
    """A process model with per-node sigma overrides picked by name."""
    picked_r = draw(st.lists(st.sampled_from(names), unique=True))
    picked_c = draw(st.lists(st.sampled_from(names), unique=True))
    variation = VariationModel(
        resistance_sigma=draw(_sigmas),
        capacitance_sigma=draw(_sigmas),
        resistance_sigmas={name: draw(_sigmas) for name in picked_r},
        capacitance_sigmas={name: draw(_sigmas) for name in picked_c},
    )
    rho = st.floats(min_value=0.0, max_value=1.0)
    return ProcessModel(variation, rho_r=draw(rho), rho_c=draw(rho))


def assert_close(got, want):
    np.testing.assert_allclose(got, want, rtol=REL,
                               atol=REL * float(np.max(np.abs(want))))


@settings(max_examples=150, deadline=None)
@given(net=flat_nets())
def test_array_sensitivities_match_the_tree_walk(net):
    tree = RCTree.from_arrays(*net[:5])
    d_r, d_c = elmore_sensitivity_arrays(net.parents, net.resistances,
                                         net.capacitances, net.sinks)
    assert d_r.shape == d_c.shape == (len(net.sinks), tree.num_nodes)
    for row, node in enumerate(net.sinks):
        ref = elmore_sensitivity(tree, tree.name_of(node))
        assert_close(d_r[row], ref.dR)
        assert_close(d_c[row], ref.dC)


@st.composite
def nets_with_models(draw):
    net = draw(flat_nets())
    return net, draw(process_models(list(net.node_names)))


# Tiny sigmas: the Gram diagonal underflows to 0 or to a few subnormal
# steps, alone or next to a sink with a normal-sized row.
_TINY_SIGMA = (
    NetArrays("in", ["n0"], [-1], [1e5], [1e-11], [0, 0]),
    ProcessModel(VariationModel(resistance_sigma=0.0,
                                capacitance_sigma=4.48e-119),
                 rho_r=0.0, rho_c=0.0),
)
_SUBNORMAL_GRAM = (
    NetArrays("in", ["n0", "n1", "n2", "n3", "n4"], [-1, 0, 0, 0, 1],
              [68.0, 221.0, 1.0, 1.0, 1.0],
              [0.0, 0.0, 0.0, 8.295819382219656e-12, 9.401109567098607e-12],
              [1]),
    ProcessModel(VariationModel(resistance_sigma=1.315800654270241e-153,
                                capacitance_sigma=0.0),
                 rho_r=0.0, rho_c=0.0),
)
_DECADES_APART = (
    NetArrays("in", [f"n{i}" for i in range(14)],
              [-1, 0, 0, 0, 0, 0, 0, 0, 2, 0, 0, 8, 0, 0], [1.0] * 14,
              [0.0, 6.681994982980477e-12] + [0.0] * 9
              + [1.3130252167662068e-12, 0.0, 0.0],
              [0, 8, 1, 2]),
    ProcessModel(VariationModel(resistance_sigma=0.25,
                                capacitance_sigma=0.0,
                                resistance_sigmas={
                                    "n3": 0.0, "n0": 0.0,
                                    "n1": 6.0114502415773686e-208}),
                 rho_r=0.0, rho_c=0.0),
)


@settings(max_examples=100, deadline=None)
@given(case=nets_with_models())
@example(case=_TINY_SIGMA)
@example(case=_SUBNORMAL_GRAM)
@example(case=_DECADES_APART)
def test_compressed_coefficients_keep_every_covariance(case):
    net, model = case
    tree = RCTree.from_arrays(*net[:5])
    sr, sc = model.variation.sigma_arrays(tree)
    rows_r, rows_c = [], []
    for node in net.sinks:
        sens = elmore_sensitivity(tree, tree.name_of(node))
        rows_r.append(sens.dR * tree.resistances * sr)
        rows_c.append(sens.dC * tree.capacitances * sc)
    gr, gc = np.array(rows_r), np.array(rows_c)
    g = np.hstack([math.sqrt(1.0 - model.rho_r) * gr,
                   math.sqrt(1.0 - model.rho_c) * gc])

    a, packed = model.net_columns(net_forest(
        [(tree, [tree.name_of(node) for node in net.sinks])]))
    # The per-net reference walk gives the same bits on these cases too
    # (multi-root trees, per-name overrides, an underflowing sigma).
    want_a, want_packed = net_coefficients(net, model)
    assert a.tobytes() == want_a.tobytes()
    assert packed.tobytes() == want_packed.tobytes()
    size = len(net.sinks)
    assert packed.shape == (size * (size + 1) // 2,)
    lower = np.zeros((size, size))
    lower[np.tril_indices(size)] = packed
    assert_close(a[:, 0], math.sqrt(model.rho_r) * gr.sum(axis=1))
    assert_close(a[:, 1], math.sqrt(model.rho_c) * gc.sum(axis=1))
    assert not a[:, 2].any()
    # Each bound takes the rows' norms without squaring them (a squared
    # norm can underflow), plus one subnormal step per product in a Gram
    # entry: below the normal range a product can be off by that much,
    # whatever its relative size.
    peak = np.max(np.abs(g), axis=1)
    unit = g / np.where(peak > 0.0, peak, 1.0)[:, None]
    root = peak * np.sqrt(np.sum(unit * unit, axis=1))
    floor = (g.shape[1] + size) * np.finfo(float).smallest_subnormal
    bound = 1e-12 * np.outer(root, root) + floor
    assert np.all(np.abs(lower @ lower.T - g @ g.T) <= bound)
