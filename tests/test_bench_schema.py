"""Differential pinning of the benchmark row-file schema.

Every benchmark persists ``benchmarks/results/<name>.json`` through
:func:`benchmarks._helpers.report` under the ``repro.bench_rows/1``
schema tag.  Downstream tooling diffs those files across runs, so their
shape is a public contract: these tests pin the top-level keys, the
string-typed row cells, and ``bench_parallel``'s exact header — and a
regression asserts that the serial Monte-Carlo baseline the bench pins
its determinism gate against produces identical rows before and after a
shared-memory backend run (the shm transport must not perturb the
serial bits it is compared to).
"""

import numpy as np
import pytest

from benchmarks import _helpers
from benchmarks._helpers import ROW_SCHEMA, load_rows, report

from repro.circuit import balanced_tree
from repro.core.variation import VariationModel, monte_carlo_delay_matrix

#: The exact column set ``bench_parallel.py`` tabulates.  Extending the
#: bench means extending this pin in the same change — row files are
#: diffed by external tooling, so column drift must be deliberate.
PARALLEL_BENCH_HEADER = [
    "backend", "jobs", "nodes", "samples", "wall clock", "speedup",
    "bit-identical",
]

#: Top-level keys of every ``<name>.json`` row file, exactly.
ROW_FILE_KEYS = {
    "schema", "name", "title", "generated_at", "quick", "environment",
    "header", "rows", "extra",
}


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(_helpers, "RESULTS_DIR", str(tmp_path))
    return tmp_path


class TestRowFileSchema:
    def test_schema_tag_is_pinned(self):
        assert ROW_SCHEMA == "repro.bench_rows/1"

    def test_report_round_trips_under_the_pinned_schema(self, results_dir):
        report(
            "schema_probe",
            "probe title",
            PARALLEL_BENCH_HEADER,
            [["serial", 1, 511, 600, "10.0 ms", "1.00x", "yes"],
             ["shm", 2, 511, 600, "5.0 ms", "2.00x", "yes"]],
            extra={"cores": 2},
        )
        payload = load_rows("schema_probe")
        assert payload["schema"] == ROW_SCHEMA
        assert set(payload) == ROW_FILE_KEYS
        assert payload["header"] == PARALLEL_BENCH_HEADER
        # Every cell is serialized as a string — numeric cells included —
        # so diffs never churn on int-vs-float formatting.
        assert all(
            isinstance(cell, str) for row in payload["rows"] for cell in row
        )
        assert payload["rows"][0] == \
            ["serial", "1", "511", "600", "10.0 ms", "1.00x", "yes"]
        assert payload["extra"] == {"cores": 2}
        assert "git_rev" in payload["environment"]
        # A report writes exactly its two row files.
        assert sorted(p.name for p in results_dir.iterdir()) == \
            ["schema_probe.json", "schema_probe.txt"]

    def test_text_table_mirrors_the_rows(self, results_dir):
        report("mirror", "t", ["a", "b"], [[1, 2]])
        text = (results_dir / "mirror.txt").read_text()
        for cell in ("a", "b", "1", "2"):
            assert cell in text


class TestSerialBaselineUnperturbed:
    """``bench_parallel``'s determinism gate compares every shm row to
    the serial sweep; that baseline must be byte-stable across shm
    activity in the same process."""

    @pytest.mark.usefixtures("pool_always")
    def test_serial_rows_identical_before_and_after_shm(self):
        tree = balanced_tree(5, 2, 25.0, 8e-15, driver_resistance=120.0,
                             leaf_load=4e-15)
        model = VariationModel(resistance_sigma=0.1,
                               capacitance_sigma=0.1)

        def serial_row():
            matrix = monte_carlo_delay_matrix(tree, model, 90, seed=1995)
            return [
                "serial", "1", str(tree.num_nodes), "90",
                matrix.tobytes(),
            ]

        before = serial_row()
        shm = monte_carlo_delay_matrix(
            tree, model, 90, seed=1995, jobs=2, backend="shm"
        )
        after = serial_row()
        assert before == after
        np.testing.assert_array_equal(
            np.frombuffer(after[-1]).reshape(90, tree.num_nodes), shm
        )
