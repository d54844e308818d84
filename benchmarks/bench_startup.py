"""Cold start: what a fresh ``repro`` process pays before it computes.

The Elmore metric of an STA op takes milliseconds, so the interpreter
and its imports are most of a short ``repro`` run.  This script times
fresh subprocesses from spawn to exit (``repro serve``: from spawn to
the first ``/v1/stats`` answer), takes the top ``-X importtime``
packages of an Elmore ``repro sta``, and measures the one cost that moved
into pool workers: scipy is imported by a worker's first ``"exact"``
shard, not by the parent before it forks.

Every run reads bytecode: before timing, each tree is compiled into its
own temporary ``PYTHONPYCACHEPREFIX`` (``compileall`` of its ``src``,
plus one untimed run of every command, which caches the stdlib and numpy
modules it imports there too), and the timed runs read that cache and
write nothing.  So neither checkout is written, and the comparison does
not depend on whether a checkout happens to hold ``__pycache__``
directories or on ``PYTHONDONTWRITEBYTECODE``.  Run from the repo root::

    PYTHONPATH=src:. python benchmarks/bench_startup.py \
        [--baseline OTHER_CHECKOUT/src]

``--baseline`` names the ``src`` directory of another checkout (a
``git clone`` of an earlier commit); its runs then take turns with this
tree's, and each row gets the ratio of the medians.  The table goes to
``benchmarks/results/startup.txt``.
"""

import argparse
import compileall
import contextlib
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from collections import defaultdict

from benchmarks._helpers import RESULTS_DIR, git_revision, \
    host_fingerprint, render_table
from repro.obs.report import atomic_write_text

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src")

#: Fresh subprocesses per case and tree, their turns interleaved.
REPEATS = 7

#: The Elmore ``repro sta`` whose ``-X importtime`` report is tabulated.
ELMORE_STA = ["-m", "repro", "sta", "--layers", "5", "--width", "20",
              "--seed", "1"]

#: ``(label, python arguments)`` of the timed commands; ``None`` is the
#: ``repro serve`` start to its first ``/v1/stats`` answer.
CASES = [
    ("bare interpreter", ["-c", "pass"]),
    ("import numpy", ["-c", "import numpy"]),
    ("import repro", ["-c", "import repro"]),
    ("import repro.cli", ["-c", "import repro.cli"]),
    ("from repro.sta import analyze", ["-c", "from repro.sta import analyze"]),
    ("repro sta --layers 5 --width 20", ELMORE_STA),
    ("repro sta --layers 20 --width 50",
     ["-m", "repro", "sta", "--layers", "20", "--width", "50", "--seed",
      "1"]),
    ("repro serve -> first /v1/stats", None),
]

#: Two ``"exact"`` STA ops on the warm pool in one fresh process; prints
#: each op's wall, the ``parallel.worker`` span time and the shard tasks'
#: own seconds (``parallel_shard_seconds``), all in seconds.
POOL_PROBE = """
import json, time
import repro.parallel
from repro.obs import tracing
from repro.obs.metrics import histogram
from repro.sta import analyze
from repro.workloads import random_design

def walk(span):
    yield span
    for child in span.children:
        yield from walk(child)

design = random_design(8, 40, 1)
shards = histogram("parallel_shard_seconds")
ops = []
for _ in range(2):
    before = shards.sum
    with tracing() as tracer:
        start = time.perf_counter()
        analyze(design, "exact", jobs=2, backend="shm")
        wall = time.perf_counter() - start
    spans = [s for root in tracer.roots for s in walk(root)]
    ops.append([wall,
                sum(s.duration for s in spans if s.name == "parallel.worker"),
                shards.sum - before])
repro.parallel.shutdown()
print(json.dumps(ops))
"""


#: Each tree's ``src`` -> ``[bytecode cache, whether runs may write
#: to it]``, set by :func:`compiled`.
_CACHES = {}


def _env(src):
    cache, writable = _CACHES[src]
    env = dict(os.environ, PYTHONPATH=src, PYTHONPYCACHEPREFIX=cache)
    if writable:
        env.pop("PYTHONDONTWRITEBYTECODE", None)
    else:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


@contextlib.contextmanager
def compiled(trees):
    """Compile every tree into its own temporary bytecode cache (see the
    module docstring), removed on exit."""
    with contextlib.ExitStack() as stack:
        for src in trees.values():
            cache = stack.enter_context(tempfile.TemporaryDirectory(
                prefix="repro_pycache_"))
            _CACHES[src] = [cache, True]
            sys.pycache_prefix, saved = cache, sys.pycache_prefix
            try:
                compileall.compile_dir(src, quiet=1)
            finally:
                sys.pycache_prefix = saved
            for _, args in CASES:
                if args is None:
                    _serve(src)
                else:
                    _run(src, args)
            _importtime(src)
            pool_probe(src)
            _CACHES[src][1] = False
        yield


def _run(src, args):
    start = time.perf_counter()
    subprocess.run([sys.executable, *args], env=_env(src), check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - start


def _serve(src):
    """Seconds from spawning ``repro serve`` to its first ``/v1/stats``
    answer; the server is then stopped with SIGTERM."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0"],
        env=_env(src), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    ) as proc:
        try:
            line = ""
            while "serving on" not in line:
                line = proc.stdout.readline()
                if not line:
                    raise RuntimeError("repro serve exited before serving")
            url = line[line.index("http://"):].split()[0]
            request = urllib.request.Request(
                f"{url}/v1/stats", method="POST",
                data=b'{"workload": "fig1", "signal": "ramp:2ns"}')
            with urllib.request.urlopen(request, timeout=60) as response:
                if not json.load(response)["nodes"]:
                    raise RuntimeError("/v1/stats answered no nodes")
            return time.perf_counter() - start
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=60)


def _importtime(src):
    """Self milliseconds of the imports of :data:`ELMORE_STA`, per
    top-level package, ``repro`` split by subpackage (``repro.sta``)."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", *ELMORE_STA],
        env=_env(src), check=True, capture_output=True, text=True,
    ).stderr
    totals = defaultdict(float)
    for line in out.splitlines():
        if line.startswith("import time:") and "|" in line:
            self_us, _, name = line[len("import time:"):].split("|")
            if self_us.strip().isdigit():
                parts = name.strip().split(".")
                key = ".".join(parts[:2 if parts[0] == "repro" else 1])
                totals[key] += int(self_us) / 1e3
    return totals


def measure(trees):
    """Interleaved medians (seconds) of every case for every tree, and
    the median ``-X importtime`` package table of each tree."""
    turns = [(tree, label, args) for label, args in CASES for tree in trees]
    times = defaultdict(list)
    imports = {tree: defaultdict(list) for tree in trees}
    for k in range(REPEATS):
        for tree, label, args in turns[k:] + turns[:k]:
            src = trees[tree]
            times[tree, label].append(
                _serve(src) if args is None else _run(src, args))
        for tree, src in trees.items():
            for package, ms in _importtime(src).items():
                imports[tree][package].append(ms)
    medians = {key: statistics.median(v) for key, v in times.items()}
    tables = {
        tree: {package: statistics.median(v + [0.0] * (REPEATS - len(v)))
               for package, v in packages.items()}
        for tree, packages in imports.items()
    }
    return medians, tables


def pool_probe(src):
    """``[[wall, worker span, shard tasks], ...]`` of the two ops."""
    out = subprocess.run([sys.executable, "-c", POOL_PROBE], env=_env(src),
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out.splitlines()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", metavar="SRC",
                        help="src directory of another checkout to compare")
    args = parser.parse_args(argv)
    trees = {"this": SRC}
    if args.baseline:
        trees["baseline"] = os.path.abspath(args.baseline)
    with compiled(trees):
        medians, tables = measure(trees)
        probes = {tree: pool_probe(src) for tree, src in trees.items()}

    header = ["command", "this tree"]
    if args.baseline:
        header += ["baseline", "this / baseline"]
    rows = []
    for label, _ in CASES:
        row = [label, f"{medians['this', label] * 1e3:.0f} ms"]
        if args.baseline:
            base = medians["baseline", label]
            row += [f"{base * 1e3:.0f} ms",
                    f"{medians['this', label] / base:.2f}"]
        rows.append(row)
    revisions = {"this": "this tree"}
    if args.baseline:
        revisions["baseline"] = "baseline " + (
            git_revision(os.path.dirname(trees["baseline"])) or "?")
    lines = [
        render_table(
            f"Cold start, interleaved medians of {REPEATS} fresh "
            f"subprocesses" + (f" ({revisions['baseline']})"
                               if args.baseline else "")
            + ", every tree read from its own precompiled bytecode cache",
            header, rows),
        "", host_fingerprint(), "",
    ]

    for tree, table in tables.items():
        packages = defaultdict(float)
        for name, ms in table.items():
            packages[name.split(".")[0]] += ms
        top = sorted(packages.items(), key=lambda item: -item[1])[:8]
        lines.append(
            f"python -X importtime {' '.join(ELMORE_STA)}, "
            f"{revisions[tree]}: {sum(table.values()):.0f} ms of import "
            f"self time; top packages (median ms): "
            + ", ".join(f"{name} {ms:.0f}" for name, ms in top))
        heavy = {name: packages.get(name, 0.0) for name in ("scipy",
                                                              "networkx")}
        lines.append("  scipy and networkx: " + ", ".join(
            f"{name} {ms:.0f} ms" for name, ms in heavy.items()))
        own = sorted(((name, ms) for name, ms in table.items()
                      if name.split(".")[0] == "repro"),
                     key=lambda item: -item[1])
        lines.append(f"  repro {packages['repro']:.1f} ms by subpackage: "
                     + ", ".join(f"{name} {ms:.1f}" for name, ms in own))
    lines.append("")

    lines.append(
        "First against second analyze(random_design(8, 40, 1), \"exact\", "
        "jobs=2, backend=\"shm\") in a fresh process (s: op wall, "
        "parallel.worker span time, shard task time):")
    for tree, (first, second) in probes.items():
        lines.append(
            f"  {revisions[tree]}: first "
            + " / ".join(f"{v:.3f}" for v in first) + ", second "
            + " / ".join(f"{v:.3f}" for v in second))
    text = "\n".join(lines)
    print(text)
    atomic_write_text(os.path.join(RESULTS_DIR, "startup.txt"), text + "\n")


if __name__ == "__main__":
    main()
