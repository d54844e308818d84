"""Shared fixtures for the test suite."""

import numpy as np
import pytest

import repro.parallel as parallel
from repro.circuit import RCTree, rc_line
from repro.parallel.shm import active_segment_names
from repro.workloads import fig1_tree, mixed_corpus, tree25


@pytest.fixture(autouse=True)
def shm_leak_gate():
    """Tear down the warm pool and every shm workspace after each test,
    and fail loudly if a library-owned ``/dev/shm`` segment survived.

    Any ``jobs >= 2`` call forks the process-global warm pool; a pool
    left running would serve later tests from workers forked before
    their fault schedule was armed, and a leaked segment would poison
    every test after it."""
    yield
    parallel.shutdown()
    leaked = active_segment_names()
    assert leaked == (), (
        f"shared-memory segments leaked past teardown: {leaked}"
    )


@pytest.fixture
def simple_line():
    """A 5-segment uniform RC line (100 ohm, 1 pF): T_D(n5) = 1.5 ns."""
    return rc_line(5, 100.0, 1e-12)


@pytest.fixture
def single_rc():
    """The one-pole reference: 1 kohm into 1 pF (tau = 1 ns)."""
    tree = RCTree("in")
    tree.add_node("out", "in", 1000.0, 1e-12)
    return tree


@pytest.fixture
def branched_tree():
    """A small tree with a branch point and unequal branches."""
    tree = RCTree("in")
    tree.add_node("trunk", "in", 200.0, 0.2e-12)
    tree.add_node("a1", "trunk", 150.0, 0.1e-12)
    tree.add_node("a2", "a1", 300.0, 0.4e-12)
    tree.add_node("b1", "trunk", 500.0, 0.05e-12)
    return tree


@pytest.fixture(scope="session")
def fig1():
    """The paper's Fig. 1 circuit (fitted)."""
    return fig1_tree()


@pytest.fixture(scope="session")
def paper_tree25():
    """The paper's 25-node tree (Section IV-B)."""
    return tree25()


@pytest.fixture(scope="session")
def corpus():
    """A deterministic mixed corpus of tree shapes."""
    return mixed_corpus(seed=42)


@pytest.fixture
def rng():
    """Seeded generator for test-local randomness."""
    return np.random.default_rng(20260707)
