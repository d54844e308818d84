"""Crash-safe checkpoint journals: round-trips, tail repair after a
mid-write crash, fingerprint discipline, codecs, and the counters the
run-report notices are built from."""

import json
import os

import numpy as np
import pytest

from repro.circuit.rctree import RCTree
from repro.obs.metrics import counter
from repro.resilience.checkpoint import (
    SCHEMA,
    CheckpointError,
    close_open_journals,
    open_checkpoint,
    run_fingerprint,
    tree_fingerprint,
)


def chain_tree(n=4, r=1.0, c=1.0):
    tree = RCTree("n0")
    for i in range(1, n):
        tree.add_node(f"n{i}", f"n{i - 1}", r, c)
    return tree


class TestFingerprints:
    def test_run_fingerprint_deterministic(self):
        a = run_fingerprint("verify_corpus", trees=["abc"], samples=100,
                            plan=[3, 3, 2])
        b = run_fingerprint("verify_corpus", trees=["abc"], samples=100,
                            plan=[3, 3, 2])
        assert a == b

    def test_run_fingerprint_sensitive_to_every_ingredient(self):
        base = run_fingerprint("mc", seed=0, samples=10, plan=[5, 5])
        assert base != run_fingerprint("mc", seed=1, samples=10,
                                       plan=[5, 5])
        assert base != run_fingerprint("mc", seed=0, samples=11,
                                       plan=[5, 5])
        assert base != run_fingerprint("mc", seed=0, samples=10,
                                       plan=[5, 4, 1])
        assert base != run_fingerprint("mc2", seed=0, samples=10,
                                       plan=[5, 5])

    def test_ndarray_params_hash_by_content(self):
        x = np.arange(8, dtype=np.float64)
        assert run_fingerprint("k", sigma=x) == \
            run_fingerprint("k", sigma=x.copy())
        y = x.copy()
        y[3] += 1e-12
        assert run_fingerprint("k", sigma=x) != \
            run_fingerprint("k", sigma=y)

    def test_tree_fingerprint_content_hash(self):
        assert tree_fingerprint(chain_tree()) == \
            tree_fingerprint(chain_tree())
        assert tree_fingerprint(chain_tree(r=1.0)) != \
            tree_fingerprint(chain_tree(r=2.0))
        assert tree_fingerprint(chain_tree(n=4)) != \
            tree_fingerprint(chain_tree(n=5))


class TestJournalRoundTrip:
    def test_record_then_resume(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        fp = run_fingerprint("t", seed=0)
        rows = {0: np.arange(6, dtype=np.float64).reshape(2, 3),
                2: np.full((2, 3), np.pi)}
        journal = open_checkpoint(path, fp, 4)
        assert journal.resumed == 0
        for index, value in rows.items():
            journal.record(index, value)
        journal.close()

        resumed = open_checkpoint(path, fp, 4, resume=True)
        assert resumed.resumed == 2
        assert resumed.completed_indices() == [0, 2]
        restored = resumed.restore_results(4)
        resumed.close()
        assert set(restored) == {0, 2}
        for index, value in rows.items():
            assert restored[index].dtype == value.dtype
            assert np.array_equal(restored[index], value)

    def test_pickle_codec_for_object_payloads(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        fp = run_fingerprint("t", seed=1)
        payload = [("verdict", 1, 2.5), {"node": "n3"}]
        with open_checkpoint(path, fp, 2) as journal:
            journal.record(1, payload)
        with open_checkpoint(path, fp, 2, resume=True) as resumed:
            assert resumed.restore_results(2) == {1: payload}

    def test_without_resume_existing_journal_is_replaced(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        fp = run_fingerprint("t", seed=2)
        with open_checkpoint(path, fp, 2) as journal:
            journal.record(0, np.zeros(3))
        with open_checkpoint(path, fp, 2) as journal:
            assert journal.resumed == 0
        with open_checkpoint(path, fp, 2, resume=True) as resumed:
            assert resumed.restore_results(2) == {}

    def test_restore_ignores_out_of_range_shards(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        fp = run_fingerprint("t", seed=3)
        with open_checkpoint(path, fp, 4) as journal:
            journal.record(0, np.zeros(2))
            journal.record(3, np.ones(2))
        with open_checkpoint(path, fp, 4, resume=True) as resumed:
            assert set(resumed.restore_results(2)) == {0}

    def test_record_after_close_drops_silently(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        fp = run_fingerprint("t", seed=4)
        journal = open_checkpoint(path, fp, 2)
        journal.close()
        journal.record(0, np.zeros(2))  # must not raise
        with open_checkpoint(path, fp, 2, resume=True) as resumed:
            assert resumed.resumed == 0


class TestCrashRepair:
    def _journal_with_two_shards(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        fp = run_fingerprint("t", seed=5)
        with open_checkpoint(path, fp, 4) as journal:
            journal.record(0, np.arange(4, dtype=np.float64))
            journal.record(1, np.arange(4, 8, dtype=np.float64))
        return path, fp

    def test_truncated_tail_is_repaired(self, tmp_path):
        path, fp = self._journal_with_two_shards(tmp_path)
        clean_size = os.path.getsize(path)
        with open(path, "ab") as handle:
            handle.write(b'{"shard": 2, "payload": {"codec": "nd')
        resumed = open_checkpoint(path, fp, 4, resume=True)
        assert resumed.completed_indices() == [0, 1]
        resumed.record(2, np.arange(8, 12, dtype=np.float64))
        resumed.close()
        # The torn tail was truncated before appending: the repaired
        # journal reads back clean, with the new record after the old.
        assert os.path.getsize(path) > clean_size
        final = open_checkpoint(path, fp, 4, resume=True)
        assert final.completed_indices() == [0, 1, 2]
        final.close()

    def test_corrupt_tail_line_is_dropped(self, tmp_path):
        path, fp = self._journal_with_two_shards(tmp_path)
        with open(path, "ab") as handle:
            handle.write(b"not json at all\n")
        with open_checkpoint(path, fp, 4, resume=True) as resumed:
            assert resumed.completed_indices() == [0, 1]

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path, fp = self._journal_with_two_shards(tmp_path)
        other = run_fingerprint("t", seed=999)
        with pytest.raises(CheckpointError, match="different run"):
            open_checkpoint(path, other, 4, resume=True)

    def test_schema_mismatch_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        fp = run_fingerprint("t", seed=6)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "schema": "repro.checkpoint/0", "fingerprint": fp,
                "shards": 2, "meta": {},
            }) + "\n")
        with pytest.raises(CheckpointError, match="schema"):
            open_checkpoint(path, fp, 2, resume=True)

    def test_headerless_file_rejected(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        with open(path, "wb") as handle:
            handle.write(b"torn header with no newline")
        with pytest.raises(CheckpointError, match="header"):
            open_checkpoint(path, run_fingerprint("t"), 2, resume=True)

    def test_resume_on_missing_or_empty_file_starts_fresh(self, tmp_path):
        fp = run_fingerprint("t", seed=7)
        missing = str(tmp_path / "missing.ckpt")
        with open_checkpoint(missing, fp, 2, resume=True) as journal:
            assert journal.resumed == 0
        empty = str(tmp_path / "empty.ckpt")
        open(empty, "wb").close()
        with open_checkpoint(empty, fp, 2, resume=True) as journal:
            assert journal.resumed == 0


class TestCodecHooksAndLifecycle:
    def test_codec_hooks_extract_and_reinstate(self, tmp_path):
        """The shm Monte-Carlo shape: the task value is a row-count ack,
        the journal stores the actual rows, restore writes them home."""
        path = str(tmp_path / "run.ckpt")
        fp = run_fingerprint("t", seed=8)
        out = np.zeros((4, 3))
        spans = {0: (0, 2), 1: (2, 4)}

        journal = open_checkpoint(path, fp, 2)
        journal.set_codec(
            encode=lambda i, value: np.array(
                out[spans[i][0]:spans[i][1]], copy=True),
            restore=lambda i, stored: None,
        )
        out[0:2] = np.arange(6).reshape(2, 3)
        journal.record(0, 2)  # task value is just the ack
        journal.close()

        target = np.zeros((4, 3))

        def _restore(i, stored):
            start, stop = spans[i]
            target[start:stop] = stored
            return stop - start

        resumed = open_checkpoint(path, fp, 2, resume=True)
        resumed.set_codec(restore=_restore)
        assert resumed.restore_results(2) == {0: 2}
        resumed.close()
        assert np.array_equal(target[0:2], out[0:2])

    def test_close_open_journals_flushes_everything(self, tmp_path):
        fp = run_fingerprint("t", seed=9)
        journal = open_checkpoint(str(tmp_path / "a.ckpt"), fp, 1)
        journal.record(0, np.zeros(2))
        close_open_journals()
        # Closed: further records drop silently instead of crashing the
        # drain path, and the file reads back complete.
        journal.record(1, np.zeros(2))
        with open_checkpoint(str(tmp_path / "a.ckpt"), fp, 1,
                             resume=True) as resumed:
            assert resumed.completed_indices() == [0]

    def test_counters_track_journal_traffic(self, tmp_path):
        written = counter("resilience_checkpoint_shards_written_total")
        resumed_ctr = counter("resilience_checkpoint_shards_resumed_total")
        nbytes = counter("resilience_checkpoint_bytes_total")
        w0, r0, b0 = written.value, resumed_ctr.value, nbytes.value

        path = str(tmp_path / "run.ckpt")
        fp = run_fingerprint("t", seed=10)
        with open_checkpoint(path, fp, 3) as journal:
            journal.record(0, np.zeros(4))
            journal.record(1, np.ones(4))
        assert written.value == w0 + 2
        assert nbytes.value > b0

        with open_checkpoint(path, fp, 3, resume=True) as journal:
            journal.restore_results(3)
            journal.restore_results(3)  # second call must not double-count
        assert resumed_ctr.value == r0 + 2


class TestStaJournal:
    """``analyze`` journals each shard's ``(3, sinks)`` delay/variance/
    fallback array and fingerprints the nets' geometry."""

    @staticmethod
    def design(u2_position=(100e-6, 0.0)):
        from repro.sta import Design, default_library

        d = Design("chain", default_library())
        d.add_input("a")
        d.add_output("z")
        d.add_instance("u1", "INV", position=(0.0, 0.0))
        d.add_instance("u2", "INV", position=u2_position)
        d.connect("na", ("@port", "a"), [("u1", "a")])
        d.connect("n1", ("u1", "y"), [("u2", "a")])
        d.connect("nz", ("u2", "y"), [("@port", "z")])
        return d

    def test_shard_results_use_the_ndarray_codec(self, tmp_path):
        from repro.sta import analyze

        path = tmp_path / "sta.ckpt"
        analyze(self.design(), checkpoint_path=str(path))
        records = [json.loads(line)
                   for line in path.read_text().splitlines()[1:]]
        # Three nets sit under the net shard floor: one shard, 3 sinks.
        assert len(records) == 1
        assert {r["payload"]["codec"] for r in records} == {"ndarray"}
        assert {tuple(r["payload"]["shape"]) for r in records} == {(3, 3)}

    def test_resume_with_other_geometry_is_refused(self, tmp_path):
        from repro.sta import analyze

        path = str(tmp_path / "sta.ckpt")
        analyze(self.design(), checkpoint_path=path)
        moved = self.design(u2_position=(120e-6, 0.0))
        with pytest.raises(CheckpointError, match="different run"):
            analyze(moved, checkpoint_path=path, resume=True)
        # The unchanged geometry still resumes.
        analyze(self.design(), checkpoint_path=path, resume=True)
