"""Property-based contracts of the shared-memory transport.

Randomized over trees, array shapes/dtypes/layouts, and worker counts:

* the shm backend returns **bit-identical** results to the serial
  backend for the Monte-Carlo delay-matrix workload;
* workspace descriptors round-trip dtype, shape, and strides *exactly*
  (including Fortran-order layouts) through publish -> pickle ->
  attach;
* segments are always unlinked — on clean close, on context-manager
  exit with an exception in flight, and after every property example
  (the package-level autouse gate re-checks after the test too).
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.variation import VariationModel, monte_carlo_delay_matrix
from repro.parallel import (
    ShmError,
    ShmWorkspace,
    attach_workspace,
    detach_all,
    shm_available,
)
from repro.parallel.shm import active_segment_names

from tests.properties.strategies import rc_trees

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no shared-memory support on this host"
)

COMMON = dict(deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])

_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.uint8, np.complex128]
)
_SHAPES = st.lists(
    st.integers(min_value=1, max_value=7), min_size=1, max_size=3
).map(tuple)


@st.composite
def published_arrays(draw):
    """A random array in a random (C or Fortran) memory layout."""
    dtype = np.dtype(draw(_DTYPES))
    shape = draw(_SHAPES)
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    values = rng.integers(0, 100, size=shape)
    array = values.astype(dtype)
    if draw(st.booleans()):
        array = np.asfortranarray(array)
    return array


class TestDescriptorRoundTrip:
    @given(array=published_arrays())
    @settings(max_examples=40, **COMMON)
    def test_dtype_shape_strides_survive_exactly(self, array):
        with ShmWorkspace(tag="prop") as ws:
            spec = ws.put("a", array)
            assert spec.dtype == array.dtype.str
            assert spec.shape == array.shape
            assert spec.strides == array.strides
            # The descriptor travels pickled; the attached view must
            # reproduce the exact layout and bytes on the other side.
            descriptor = pickle.loads(pickle.dumps(ws.descriptor()))
            attached = attach_workspace(descriptor)
            view = attached.arrays["a"]
            assert view.dtype == array.dtype
            assert view.shape == array.shape
            assert view.strides == array.strides
            np.testing.assert_array_equal(view, array)
            detach_all()
        assert active_segment_names() == ()

    @given(array=published_arrays())
    @settings(max_examples=20, **COMMON)
    def test_republish_after_mutation_ships_new_bytes(self, array):
        with ShmWorkspace(tag="prop") as ws:
            ws.put("a", array)
            mutated = array.copy()
            mutated.flat[0] += 1
            ws.put("a", mutated)
            attached = attach_workspace(
                pickle.loads(pickle.dumps(ws.descriptor()))
            )
            np.testing.assert_array_equal(attached.arrays["a"], mutated)
            detach_all()
        assert active_segment_names() == ()


class TestLifecycle:
    def test_close_unlinks_every_segment(self):
        ws = ShmWorkspace(tag="life")
        for k in range(5):
            ws.put(f"b{k}", np.arange(10.0) * k)
        assert len(active_segment_names()) == 5
        ws.close()
        assert active_segment_names() == ()
        ws.close()  # idempotent

    def test_exception_in_context_still_unlinks(self):
        with pytest.raises(RuntimeError, match="boom"):
            with ShmWorkspace(tag="boom") as ws:
                ws.put("x", np.ones(4))
                assert active_segment_names() != ()
                raise RuntimeError("boom")
        assert active_segment_names() == ()

    def test_put_after_close_raises(self):
        ws = ShmWorkspace(tag="closed")
        ws.close()
        with pytest.raises(ShmError, match="closed"):
            ws.put("x", np.ones(2))

    def test_attach_after_unlink_raises_shm_error(self):
        ws = ShmWorkspace(tag="gone")
        ws.put("x", np.ones(3))
        descriptor = ws.descriptor()
        ws.close()
        with pytest.raises(ShmError, match="gone"):
            attach_workspace(descriptor)

    def test_allocate_block_is_shared_with_attachments(self):
        with ShmWorkspace(tag="out") as ws:
            out = ws.allocate("out", (3, 4))
            attached = attach_workspace(ws.descriptor())
            attached.arrays["out"][1, :] = 7.0
            np.testing.assert_array_equal(out[1], np.full(4, 7.0))
            detach_all()
        assert active_segment_names() == ()


class TestRepublication:
    """Re-publishing a block must never serve stale views or bytes."""

    def test_recreated_block_gets_a_fresh_segment_name(self):
        """Resizing a block bumps the generation stamp in the segment
        name, so a stale mapping can never alias the new segment."""
        with ShmWorkspace(tag="gen") as ws:
            ws.put("a", np.arange(4.0))
            first = ws.descriptor().arrays["a"].segment
            ws.put("a", np.arange(6.0))  # resize -> recreate
            second = ws.descriptor().arrays["a"].segment
            assert first != second
        assert active_segment_names() == ()

    def test_resized_block_invalidates_cached_attachment(self):
        """The attach cache revalidates the full spec map: a resized
        block (same key, new segment) forces a fresh attach instead of
        serving views of the old unlinked segment."""
        with ShmWorkspace(tag="respec") as ws:
            ws.put("a", np.arange(6.0))
            attach_workspace(ws.descriptor())
            ws.put("a", np.arange(2.0, 10.0))  # resize under the cache
            attached = attach_workspace(ws.descriptor())
            assert attached.arrays["a"].shape == (8,)
            np.testing.assert_array_equal(
                attached.arrays["a"], np.arange(2.0, 10.0)
            )
            detach_all()
        assert active_segment_names() == ()

    def test_reallocated_output_block_invalidates_cached_attachment(self):
        """Writes through a re-attach after allocate() resized the
        output block land in the segment the parent reads."""
        with ShmWorkspace(tag="realloc") as ws:
            ws.allocate("out", (2, 3))
            attach_workspace(ws.descriptor())
            bigger = ws.allocate("out", (4, 3))
            attached = attach_workspace(ws.descriptor())
            attached.arrays["out"][3, :] = 9.0
            np.testing.assert_array_equal(bigger[3], np.full(3, 9.0))
            detach_all()
        assert active_segment_names() == ()


class TestShmEqualsSerial:
    @given(
        tree=rc_trees(min_nodes=2, max_nodes=10),
        samples=st.integers(min_value=1, max_value=40),
        jobs=st.integers(min_value=1, max_value=3),
        shard_size=st.one_of(
            st.none(), st.integers(min_value=1, max_value=8)
        ),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=8, **COMMON)
    def test_bit_identical_for_random_trees_and_jobs(
        self, tree, samples, jobs, shard_size, seed
    ):
        model = VariationModel(
            resistance_sigma=0.08, capacitance_sigma=0.05
        )
        serial = monte_carlo_delay_matrix(
            tree, model, samples, seed=seed, shard_size=shard_size,
        )
        shm = monte_carlo_delay_matrix(
            tree, model, samples, seed=seed, shard_size=shard_size,
            jobs=jobs, backend="shm",
        )
        np.testing.assert_array_equal(shm, serial)
