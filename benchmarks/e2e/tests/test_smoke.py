"""The whole benchmark end to end, with 1 s windows."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[3]
RUN = ROOT / "benchmarks" / "e2e" / "run.py"
WORKLOADS = ("mc-sweep", "sta", "ssta", "serve-stats")


def test_smoke_runs_all_four_workloads_within_a_minute(tmp_path):
    out = tmp_path / "smoke.json"
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke", "--seed", "2", "--out",
         str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - start
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert elapsed < 60.0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {f"{w}.{m['name']}" for w in WORKLOADS
                for m in spec["end_to_end"]}
    assert set(result["metrics"]) == expected
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
    record = json.loads(out.read_text())
    assert record["host"]["nproc"] and record["git_rev"]
    assert [run["workload"] for run in record["runs"]] == list(WORKLOADS)


def request_chain_depth(span, depth=0):
    """Longest run of ``serve.request`` spans nested in one another."""
    here = depth + 1 if span["name"] == "serve.request" else 0
    return max([here] + [request_chain_depth(child, here)
                         for child in span["children"]])


def test_traced_window_is_split_over_fresh_servers(monkeypatch):
    # A traced server can nest each request under an earlier one, so no
    # server takes more requests than TRACED_REQUESTS_PER_SERVER and the
    # chains stay short enough for /spans to serialize.
    import run
    from layers import serve_span_summary
    from workloads import serve_payloads

    monkeypatch.setattr(run, "TRACED_REQUESTS_PER_SERVER", 10)
    payloads = serve_payloads(seed=1, count=26)
    problems = []
    chunks, spans, counters = run.traced_windows(payloads, problems)
    assert problems == []
    assert [len(chunk) for chunk in chunks] == [10, 10, 5]
    # Every server answered its warm-up request and its share.
    assert len(serve_span_summary(spans)["requests"]) == 3 + 25
    assert max(request_chain_depth(root) for root in spans) <= 11
    assert counters["serve_batch_size_count"] >= 3


def test_refuses_to_run_without_the_program(tmp_path):
    # Every flag a run of the BENCHMARK.json command passes.
    (tmp_path / "benchmarks").mkdir()
    shutil.copytree(RUN.parent, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "sta",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=str(tmp_path), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
