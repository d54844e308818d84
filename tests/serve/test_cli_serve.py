"""The ``repro serve`` CLI: parsing, the subprocess lifecycle, and the
``--metrics-port`` satellite behaviors.

The subprocess tests launch the real ``python -m repro serve`` on an
ephemeral port, talk to it over HTTP, terminate it with SIGTERM, and
check the clean-exit contract: exit code 0, no orphan workers, no
leaked ``/dev/shm`` segments.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO_SRC = str(Path(__file__).resolve().parents[2] / "src")


class TestParsing:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert (args.host, args.port) == ("127.0.0.1", 8080)
        assert args.batch_window == pytest.approx(2.0)
        assert args.max_queue == 256
        assert not args.no_coalesce

    def test_flags(self):
        args = build_parser().parse_args([
            "serve", "--port", "0", "--jobs", "4", "--backend", "shm",
            "--batch-window", "5", "--max-queue", "32",
            "--deadline", "3", "--drain-timeout", "1", "--no-coalesce",
        ])
        assert args.port == 0
        assert args.jobs == 4
        assert args.backend == "shm"
        assert args.no_coalesce

    @pytest.mark.parametrize("argv", [
        ["serve", "--port", "-1"],
        ["serve", "--batch-window", "-2"],
        ["serve", "--max-queue", "0"],
        ["serve", "--backend", "bogus"],
    ])
    def test_invalid_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_taken_port_is_a_clean_error(self, capsys):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            blocker.listen(1)
            assert main(["serve", "--port", str(port)]) == 1
        out = capsys.readouterr().out
        assert "cannot bind" in out
        assert "Traceback" not in out


def _spawn_serve(*extra_args):
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         *extra_args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        text=True,
    )


def _await_url(process, timeout=30.0):
    """Read the announced URL from the server's stdout."""
    deadline = time.monotonic() + timeout
    line = ""
    while time.monotonic() < deadline:
        line = process.stdout.readline()
        if "serving on" in line:
            return line.split("serving on ", 1)[1].strip()
        if process.poll() is not None:
            break
        time.sleep(0.05)
    raise AssertionError(
        f"server never announced its URL (last line {line!r}, "
        f"stderr: {process.stderr.read() if process.poll() is not None else '...running'})"
    )


class TestSubprocessLifecycle:
    def test_sigterm_drains_cleanly_without_shm_leaks(self):
        process = _spawn_serve("--jobs", "2", "--backend", "shm")
        try:
            url = _await_url(process)
            body = json.dumps({"workload": "fig1"}).encode()
            request = urllib.request.Request(url + "/v1/stats", data=body)
            with urllib.request.urlopen(request, timeout=30.0) as resp:
                assert resp.status == 200
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
        leftovers = [
            name for name in os.listdir("/dev/shm")
            if name.startswith("repro")
        ] if os.path.isdir("/dev/shm") else []
        assert leftovers == []

    def test_port_zero_announces_ephemeral_port_on_stdout(self):
        process = _spawn_serve()
        try:
            url = _await_url(process)
            assert url.startswith("http://127.0.0.1:")
            port = int(url.rsplit(":", 1)[1])
            assert port > 0
            with urllib.request.urlopen(url + "/healthz",
                                        timeout=10.0) as resp:
                assert resp.read() == b"ok\n"
            process.send_signal(signal.SIGINT)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)

    def test_first_scrape_lists_every_library_series(self):
        # A counter registers when its module loads, so a fresh server
        # lists a library series only if it loaded the module; these
        # names must not depend on which requests came first.
        process = _spawn_serve()
        try:
            url = _await_url(process)
            with urllib.request.urlopen(url + "/metrics",
                                        timeout=10.0) as resp:
                text = resp.read().decode()
            process.send_signal(signal.SIGTERM)
            assert process.wait(timeout=30.0) == 0
        finally:
            if process.poll() is None:
                process.kill()
                process.wait(timeout=10.0)
        names = {line.split()[2] for line in text.splitlines()
                 if line.startswith("# TYPE ")}
        assert names == FIRST_SCRAPE_SERIES


#: Every series a fresh ``repro serve`` lists at its first ``/metrics``.
FIRST_SCRAPE_SERIES = {
    "batch_rows_total", "batch_sweeps_total", "incremental_edits_total",
    "incremental_queries_total", "parallel_degraded_total",
    "parallel_in_process_total", "parallel_malformed_results_total",
    "parallel_pool_forks_total", "parallel_pool_recycles_total",
    "parallel_pool_reuses_total", "parallel_pool_workers",
    "parallel_retries_total", "parallel_retry_backoff_seconds",
    "parallel_shard_seconds", "parallel_shards_total",
    "parallel_shm_active_segments", "parallel_shm_attach_total",
    "parallel_shm_bytes_total", "parallel_shm_fallback_total",
    "parallel_shm_publish_skipped_total", "parallel_shm_publish_total",
    "parallel_shm_unlink_total", "parallel_timeouts_total",
    "parallel_worker_merge_skipped_total", "parallel_worker_payloads_total",
    "parallel_worker_spans_total", "resilience_checkpoint_bytes_total",
    "resilience_checkpoint_shards_resumed_total",
    "resilience_checkpoint_shards_written_total",
    "resilience_fault_checks_total", "resilience_faults_injected_total",
    "resilience_watchdog_fired_total", "scalar_walks_total",
    "serve_batch_size", "serve_batches_total", "serve_coalesced_total",
    "serve_deadline_expired_total", "serve_draining", "serve_inflight",
    "serve_rejected_total", "serve_requests_total",
    "topology_cache_hits_total", "topology_cache_misses_total",
    "topology_compile_total", "variation_samples_total", "verify_nodes_total",
    "verify_samples_total",
}


class TestMetricsPortSatellite:
    def test_port_zero_reports_chosen_port_on_stdout(self, netlist,
                                                     capsys):
        assert main(["analyze", netlist, "--metrics-port", "0"]) == 0
        out = capsys.readouterr().out
        assert "metrics server listening on http://127.0.0.1:" in out

    def test_taken_metrics_port_is_clear_error_run_continues(
        self, netlist, capsys
    ):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            port = blocker.getsockname()[1]
            blocker.listen(1)
            assert main([
                "analyze", netlist, "--metrics-port", str(port)
            ]) == 0  # the run itself still succeeds
        captured = capsys.readouterr()
        assert "cannot serve metrics" in captured.err
        assert "Traceback" not in captured.err


@pytest.fixture
def netlist(tmp_path):
    from repro.circuit import tree_to_netlist
    from repro.workloads import fig1_tree

    path = tmp_path / "fig1.sp"
    path.write_text(tree_to_netlist(fig1_tree(), title="fig1"))
    return str(path)
