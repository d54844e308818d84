"""Pinned journal headers for every sharded entry point.

A ``repro.checkpoint/1`` journal resumes only when its header — the
run fingerprint, the shard count and the meta dict — matches the run
that opens it.  These goldens hold the header line of each of the five
journal kinds byte for byte, so a refactor of how a run builds its
journal cannot silently orphan the journals of earlier runs.
"""

import hashlib
import json

import pytest

import repro.sta.timing as timing
from repro.circuit.builders import balanced_tree, rc_line
from repro.core.variation import VariationModel, monte_carlo_delay_matrix
from repro.core.verification import verify_corpus, verify_tree
from repro.parallel import plan_shards
from repro.resilience.checkpoint import journal
from repro.sta import analyze
from repro.sta.ssta import ProcessModel, analyze_ssta
from repro.workloads import random_design

MODEL = ProcessModel(
    VariationModel(resistance_sigma=0.08, capacitance_sigma=0.08),
    rho_r=0.5, rho_c=0.5, cell_sigma=0.05, rho_cell=0.5,
)

#: sha256 of each kind's header line, as written before ``journal()``
#: took over the four call sites.
HEADER_SHA256 = {
    "monte_carlo_delay_matrix": (
        "303fee9ea4d01cfaad64cfa2e72d7ee1df7ba85fbbf745199819ac076c964b54"
    ),
    "verify_tree": (
        "05bc611a84e5b3f51cb69a01917559dc9d4ce388ddb7afc6a15ee15a806f7b2a"
    ),
    "verify_corpus": (
        "785fca456642ef03fdcfcac0714382e973e4009e322c42bc4d093a96a0b7917f"
    ),
    "sta.analyze": (
        "1efaa4d36d0b5ecd48345a1df173c464a291cb485f7064783fc55f356d67e1cd"
    ),
    "ssta.analyze": (
        "d2cc6d0ec0844f0b11fa60ee16a87a1e9f91f396d42124ea9bd77c66f4f8d0bf"
    ),
}


def line_tree():
    return rc_line(5, 100.0, 20e-15, driver_resistance=250.0,
                   load_capacitance=10e-15)


def write_journal(kind, path):
    if kind == "monte_carlo_delay_matrix":
        monte_carlo_delay_matrix(
            line_tree(), VariationModel(0.1, 0.05), 24, seed=5,
            shard_size=8, backend="serial", checkpoint_path=path,
        )
    elif kind == "verify_tree":
        verify_tree(line_tree(), samples=201, shard_size=2,
                    checkpoint_path=path)
    elif kind == "verify_corpus":
        corpus = [line_tree(),
                  balanced_tree(2, 2, 60.0, 40e-15, driver_resistance=200.0)]
        verify_corpus(corpus, samples=201, shard_size=1,
                      checkpoint_path=path)
    elif kind == "sta.analyze":
        analyze(random_design(3, 4, seed=3), checkpoint_path=path)
    else:
        analyze_ssta(random_design(3, 4, seed=3), MODEL,
                     checkpoint_path=path)


@pytest.mark.parametrize("kind", sorted(HEADER_SHA256))
def test_header_matches_golden(tmp_path, kind):
    path = str(tmp_path / "run.ckpt")
    write_journal(kind, path)
    with open(path, "rb") as handle:
        header = handle.readline()
    assert json.loads(header)["meta"]["kind"] == kind
    assert hashlib.sha256(header).hexdigest() == HEADER_SHA256[kind]


class TestIngredientsAreLazy:
    def test_no_path_opens_nothing_and_reads_no_ingredients(self):
        calls = []

        def ingredients():
            calls.append(1)
            return {}

        with journal(None, "k", [], False, {}, ingredients) as handle:
            assert handle is None
        assert calls == []

    def test_a_path_reads_them_once(self, tmp_path):
        calls = []

        def ingredients():
            calls.append(1)
            return {"seed": 1}

        path = str(tmp_path / "run.ckpt")
        shards = plan_shards(4, shard_size=2)
        with journal(path, "k", shards, False, {}, ingredients) as handle:
            assert handle.total_shards == 2
        assert calls == [1]

    @pytest.mark.parametrize("jobs", [None, 1])
    def test_sta_without_a_checkpoint_builds_no_journal_key(
            self, monkeypatch, tmp_path, jobs):
        keys = []
        real = timing._journal_key

        def counting(geometry):
            keys.append(geometry.net)
            return real(geometry)

        monkeypatch.setattr(timing, "_journal_key", counting)
        design = random_design(3, 4, seed=3)
        analyze(design, jobs=jobs)
        analyze_ssta(design, MODEL, jobs=jobs)
        assert keys == []
        analyze(design, jobs=jobs, checkpoint_path=str(tmp_path / "c"))
        assert len(keys) == len(design.nets)
