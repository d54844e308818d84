"""Shard-wide SSTA coefficients against the per-net reference.

:meth:`~repro.sta.ssta.ProcessModel.net_columns` computes every net's
``(a, l)`` at once over the nets' compiled forest.  It must give the
bytes of :func:`tests.sta.ssta_oracle.net_coefficients` run net by net,
whatever the mix of nets: routed, wire-load star and override nets
(override trees may have several roots and single nodes), pins listed
twice, more sinks than the ``2N`` residual labels (the zero-padded QR),
``rho`` at 0 and 1, and per-name sigma overrides, which must raise the
same :class:`~repro._exceptions.TopologyError` when a net lacks the name.
The nets are drawn as :func:`~repro.sta.interconnect.net_record` tuples,
laid out by :func:`~repro.sta.interconnect.net_forest` for
``net_columns`` and by ``record_arrays`` for the reference.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro._exceptions import TopologyError
from repro.circuit import RCTree
from repro.circuit.wires import DEFAULT_TECHNOLOGY
from repro.core.variation import VariationModel
from repro.sta import NetGeometry, Pin
from repro.sta.interconnect import (
    WireLoadModel,
    net_forest,
    net_record,
    record_arrays,
)
from repro.sta.ssta import ProcessModel
from tests.sta import ssta_oracle

_point = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
    lambda p: (p[0] * 1e-6, p[1] * 1e-6))
_load = st.sampled_from([0.0, 5e-15, 12e-15])
_sigma = st.sampled_from([0.0, 0.02, 0.08, 0.3])
_rho = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


@st.composite
def listed_pins(draw):
    """1-6 listed sink pins; a pin may be listed twice."""
    return [Pin(f"u{k}", "a") for k in
            draw(st.lists(st.integers(0, 4), min_size=1, max_size=6))]


@st.composite
def routed_nets(draw):
    pins = draw(listed_pins())
    where = {pin: draw(_point) for pin in dict.fromkeys(pins)}
    return net_record(NetGeometry(
        net="n", sinks=tuple(pins),
        driver_resistance=draw(st.floats(1.0, 5e3)),
        driver_position=draw(_point),
        sink_positions=tuple(where[pin] for pin in pins),
        sink_loads=tuple(draw(_load) for _ in pins),
        technology=DEFAULT_TECHNOLOGY,
        wire_width=draw(st.sampled_from([0.5e-6, 1e-6])),
    ))


@st.composite
def star_nets(draw):
    pins = draw(listed_pins())
    return net_record(NetGeometry(
        net="n", sinks=tuple(pins),
        driver_resistance=draw(st.floats(1.0, 5e3)),
        sink_loads=tuple(draw(_load) for _ in pins),
        wire_load=WireLoadModel(draw(st.floats(1.0, 500.0)),
                                draw(st.sampled_from([1e-15, 5e-15]))),
    ))


@st.composite
def override_nets(draw):
    """A caller's tree of 1-5 nodes, any of them a root; 1-7 sink pins,
    several of which may sit on one node."""
    n = draw(st.integers(1, 5))
    parents = [-1] + [draw(st.integers(-1, i - 1)) for i in range(1, n)]
    names = ["drv"] + [f"n{i}" for i in range(1, n)]
    caps = [draw(st.sampled_from([0.0, 1e-15, 7e-15])) for _ in range(n)]
    caps[draw(st.integers(0, n - 1))] = 3e-15  # some capacitance
    tree = RCTree.from_arrays(
        "in", names, parents,
        [draw(st.floats(1.0, 1e4)) for _ in range(n)], caps)
    sinks = draw(st.lists(st.sampled_from(names), min_size=1, max_size=7))
    mapping = {Pin(f"u{k}", "a"): node for k, node in enumerate(sinks)}
    return net_record(NetGeometry(net="n", sinks=tuple(mapping),
                                  override=(tree, mapping)))


_nets = st.lists(st.one_of(routed_nets(), star_nets(), override_nets()),
                 min_size=1, max_size=6)
# "drv" names a node of every net; the others miss in some nets.
_overrides = st.one_of(
    st.none(),
    st.dictionaries(st.just("drv"), _sigma, min_size=1),
    st.dictionaries(st.sampled_from(["drv", "p1", "s0", "n1", "ghost"]),
                    _sigma, max_size=2),
)


@st.composite
def process_models(draw):
    return ProcessModel(
        VariationModel(draw(_sigma), draw(_sigma),
                       resistance_sigmas=draw(_overrides),
                       capacitance_sigmas=draw(_overrides)),
        rho_r=draw(_rho), rho_c=draw(_rho))


def outcome(columns):
    try:
        return columns()
    except TopologyError as exc:
        return exc


_MODEL = ProcessModel(VariationModel(0.08, 0.06), rho_r=0.5, rho_c=0.3)
_ONE_NODE = RCTree.from_arrays("in", ["drv"], [-1], [100.0], [4e-15])
# One node, three pins on it: three sinks against two residual labels.
_PADDED = net_record(NetGeometry(
    net="n", sinks=(Pin("u0", "a"), Pin("u1", "a"), Pin("u2", "a")),
    override=(_ONE_NODE, {Pin(f"u{k}", "a"): "drv" for k in range(3)})))


@settings(max_examples=250, deadline=None)
@given(nets=_nets, model=process_models())
@example(nets=[_PADDED], model=_MODEL)
@example(nets=[_PADDED, _PADDED], model=ProcessModel(
    VariationModel(0.1, 0.1, resistance_sigmas={"drv": 0.2}),
    rho_r=0.0, rho_c=1.0))
def test_shard_wide_columns_match_the_per_net_reference(nets, model):
    want = outcome(lambda: ssta_oracle.net_columns(
        [record_arrays(net) for net in nets], model))
    got = outcome(lambda: model.net_columns(net_forest(nets)))
    if isinstance(want, TopologyError):
        assert isinstance(got, TopologyError)
        assert str(got) == str(want)
        return
    for have, ref in zip(got, want):
        assert have.shape == ref.shape and have.dtype == ref.dtype
        assert have.tobytes() == ref.tobytes()
    # Each net alone gives its own part of the same bytes.
    alone = [model.net_columns(net_forest([net])) for net in nets]
    for k, have in enumerate(got):
        assert have.tobytes() == b"".join(x[k].tobytes() for x in alone)

