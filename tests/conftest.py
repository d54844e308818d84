"""Shared fixtures for the test suite."""

import os
import re

import numpy as np
import pytest

import repro.parallel as parallel
from repro.circuit import RCTree, rc_line
from repro.parallel.shm import active_segment_names
from repro.workloads import fig1_tree, mixed_corpus, tree25


_CREATOR_PID = re.compile(r"^repro_shm_(\d+)_")


def _running(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # alive, but another user's
        pass
    return True


def _started_after(pid: int, path: str) -> bool:
    """Whether process ``pid`` started after ``path`` was last written.

    A segment is written only after its creator started, so such a
    process is not the creator: the system gave the exited creator's pid
    to it.  Start times come from ``/proc`` in whole seconds of boot
    time, hence the one-second margin; without ``/proc`` this is False.
    """
    try:
        with open(f"/proc/{pid}/stat") as stat:
            fields = stat.read().rpartition(")")[2].split()
        with open("/proc/stat") as stat:
            boot = next(int(line.split()[1]) for line in stat
                        if line.startswith("btime "))
        started = boot + int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return started > os.stat(path).st_mtime + 1.0
    except (OSError, ValueError, IndexError, StopIteration):
        return False


def leaked_segments(names):
    """The ``names`` a test run owns: segments created by this process,
    by a process that is no longer running (or whose pid a later process
    now holds), or by no process the name records.  Another live
    process's segments (a concurrent benchmark, a second test run) are
    its own business."""
    leaked = []
    for name in names:
        match = _CREATOR_PID.match(name)
        pid = int(match.group(1)) if match else None
        if pid is None or pid == os.getpid() or not _running(pid) \
                or _started_after(pid, os.path.join("/dev/shm", name)):
            leaked.append(name)
    return tuple(leaked)


@pytest.fixture(autouse=True)
def shm_leak_gate():
    """Tear down the warm pool and every shm workspace after each test,
    and fail loudly if a library-owned ``/dev/shm`` segment survived.

    Any ``jobs >= 2`` call forks the process-global warm pool; a pool
    left running would serve later tests from workers forked before
    their fault schedule was armed, and a leaked segment would poison
    every test after it.  Only segments this run could have leaked are
    flagged (see :func:`leaked_segments`), so a finished subprocess's
    leftovers still fail the test."""
    yield
    parallel.shutdown()
    leaked = leaked_segments(active_segment_names())
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
