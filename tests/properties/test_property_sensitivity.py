"""Property: the flat-array Elmore sensitivities of several sinks at once
equal :func:`elmore_sensitivity` on the tree, and a net's compressed SSTA
coefficients keep every covariance of its per-element residuals."""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.circuit import RCTree
from repro.core.sensitivity import (
    elmore_sensitivity,
    elmore_sensitivity_arrays,
)
from repro.core.variation import VariationModel
from repro.sta.interconnect import NetArrays
from repro.sta.ssta import ProcessModel, _net_coefficients

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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_compressed_coefficients_keep_every_covariance(data):
    net = data.draw(flat_nets())
    model = data.draw(process_models(list(net.node_names)))
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

    a, packed = _net_coefficients(net, model)
    size = len(net.sinks)
    assert packed.shape == (size * (size + 1) // 2,)
    lower = np.zeros((size, size))
    lower[np.tril_indices(size)] = packed
    assert_close(a[:, 0], math.sqrt(model.rho_r) * gr.sum(axis=1))
    assert_close(a[:, 1], math.sqrt(model.rho_c) * gc.sum(axis=1))
    assert not a[:, 2].any()
    gram = g @ g.T
    scale = np.sqrt(np.outer(np.diag(gram), np.diag(gram)))
    assert np.all(np.abs(lower @ lower.T - gram) <= 1e-12 * scale)
