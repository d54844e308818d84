#!/usr/bin/env python3
"""End-to-end benchmark: four workloads, gated metrics, traced layer split.

Run from anywhere in a checkout (``src`` is put on the path here)::

    python3 benchmarks/e2e/run.py --seed 1                  # all workloads
    python3 benchmarks/e2e/run.py --workload sta --seed 2 --seconds 25 --trace 0
    python3 benchmarks/e2e/run.py --workload ssta --trace   # per-layer split
    python3 benchmarks/e2e/run.py --repeat 5 --seed 1 --out FILE
    python3 benchmarks/e2e/run.py --ladder                  # cost curves
    python3 benchmarks/e2e/run.py --smoke                   # 1 s windows

The window defaults to ``run_seconds`` in ``BENCHMARK.json``; an explicit
``--seconds`` is accepted because a run of the ``BENCHMARK.json`` command
always passes it.  Each workload runs in fresh processes:
:data:`COLD_STARTS` cold starts are timed (``setup_s`` is their median)
and the last one continues into the timed window.  Every gated timing
is scaled to a reference host speed by the probe taken next to it
(``hostspeed.py``); the raw timings print as ``raw.*``.  Every metric
prints as ``<workload> <metric> <value> <unit> n=<samples>``; the full
record, tagged with git rev and host, goes to ``--out``; the last
stdout line is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Any failed check (a wrong
output, a leaked ``/dev/shm`` segment or a surviving process) makes the
exit code non-zero.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import http.client
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

E2E = Path(__file__).resolve().parent
ROOT = E2E.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("mc-sweep", "sta", "ssta", "serve-stats")
SMOKE_SECONDS = 1.0
COLD_STARTS = 5
LADDER_REPEATS = 3
#: Seconds a fresh process may take to become ready, and that the tail
#: of a window (reference checks, teardown) may take beyond it.
READY_TIMEOUT = 120.0
TAIL_TIMEOUT = 120.0
RUNNER_MARK = "@e2e "
SERVER_MARK = "serving on "
RESULTS_SCHEMA = "repro.e2e_bench/1"
DEFAULT_OUT = E2E / "results" / "latest.json"

Metrics = Dict[str, Tuple[float, int]]


# ---------------------------------------------------------------------------
# Child processes


def child_env() -> Dict[str, str]:
    """The environment every child runs with: ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


class Lines:
    """Line reader over a child's stdout pipe, with a deadline."""

    def __init__(self, proc: subprocess.Popen) -> None:
        self._proc = proc
        self._fd = proc.stdout.fileno()
        self._buf = b""

    def expect(self, timeout: float, parse: Callable[[str], Any]) -> Any:
        """The value of the first line ``parse`` accepts (does not map to
        ``None``); other lines pass through to stderr."""
        deadline = time.monotonic() + timeout
        while True:
            while b"\n" in self._buf:
                raw, self._buf = self._buf.split(b"\n", 1)
                line = raw.decode("utf-8", "replace")
                value = parse(line)
                if value is not None:
                    return value
                print(line, file=sys.stderr)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(f"pid {self._proc.pid} sent nothing "
                                   f"usable within {timeout:.0f} s")
            readable, _, _ = select.select([self._fd], [], [], remaining)
            if readable:
                chunk = os.read(self._fd, 1 << 16)
                if not chunk:
                    raise EOFError(f"pid {self._proc.pid} exited with "
                                   f"code {self._proc.wait()}")
                self._buf += chunk


def runner_message(line: str) -> Optional[Dict[str, Any]]:
    return json.loads(line[len(RUNNER_MARK):]) \
        if line.startswith(RUNNER_MARK) else None


def server_url(line: str) -> Optional[str]:
    return line[len(SERVER_MARK):].strip() \
        if line.startswith(SERVER_MARK) else None


def stop(proc: subprocess.Popen, timeout: float = 30.0) -> None:
    """SIGTERM ``proc``, SIGKILL it after ``timeout``; always reap it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for pipe in (proc.stdin, proc.stdout):
        if pipe is not None:
            pipe.close()


def hygiene(pids: List[int], shm_before) -> List[str]:
    """Leak and orphan gate, run once the workload's processes stopped."""
    from procs import leaked_segments, survivors

    problems = []
    alive = survivors(pids)
    if alive:
        problems.append(f"processes outlived the workload: {alive}")
    leaked = leaked_segments(shm_before, pids)
    if leaked:
        problems.append(f"/dev/shm segments leaked: {leaked}")
    return problems


# ---------------------------------------------------------------------------
# Library workloads


def run_library(name: str, seed: int, seconds: float, trace: bool,
                cold_starts: int) -> Dict[str, Any]:
    """``cold_starts`` fresh runner processes; the last one runs the
    timed window.  Returns its ``done`` message plus the setup times
    (each with the host speed probe taken once the runner was ready)
    and every problem found."""
    from hostspeed import settled_probe
    from procs import shm_segments

    setups: List[Tuple[float, float]] = []
    problems: List[str] = []
    attempted = 0
    done: Dict[str, Any] = {}
    for start in range(cold_starts):
        last = start == cold_starts - 1
        shm_before = shm_segments()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(E2E / "runner.py"), name, str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=child_env(),
            cwd=str(ROOT),
        )
        try:
            lines = Lines(proc)
            lines.expect(READY_TIMEOUT, runner_message)
            setups.append((time.perf_counter() - t0, settled_probe()))
            command = f"run {seconds} {int(trace)}\n" if last else "exit\n"
            proc.stdin.write(command.encode())
            proc.stdin.flush()
            done = lines.expect(seconds + TAIL_TIMEOUT, runner_message)
            proc.wait(TAIL_TIMEOUT)
        finally:
            stop(proc)
        attempted += done["attempted"]
        problems += done["failures"]
        problems += hygiene([proc.pid] + done["pids"], shm_before)
    done.update(setups=setups, problems=problems, attempted=attempted)
    return done


def timing_metrics(lat: List[float], service: List[float],
                   probes: Optional[List[float]],
                   setups: List[Tuple[float, float]],
                   work_per_op: float) -> Tuple[Metrics, Metrics]:
    """Gated timings, and the raw ones.

    ``lat`` and ``service`` are seconds per op, from due and from send.
    With ``probes`` (the probe time measured next to each op) they are
    gated at the reference host speed, without as measured.  ``setups``
    holds ``(seconds, probe seconds)`` per cold start and is always
    scaled.  The ungated tail is raw: p90, plus the highest percentile
    with ten samples beyond it.
    """
    from hostspeed import scaled, scaled_all
    from stats import percentile, tail_percentile

    n = len(lat)
    tail = max(tail_percentile(n) or 90.0, 90.0)
    gated_lat = lat if probes is None else scaled_all(lat, probes)
    gated_service = service if probes is None else scaled_all(service,
                                                              probes)
    gated = {
        "setup_s": (statistics.median(scaled(s, p) for s, p in setups),
                    len(setups)),
        "work_per_s": (work_per_op * n / sum(gated_service), n),
        "latency_p50_ms": (1e3 * percentile(gated_lat, 50.0), n),
    }
    ungated = {f"latency_p{p:g}_ms": (1e3 * percentile(lat, p), n)
               for p in sorted({90.0, tail})}
    ungated.update({
        "raw.setup_s": (statistics.median(s for s, _ in setups),
                        len(setups)),
        "raw.work_per_s": (work_per_op * n / sum(service), n),
        "raw.latency_p50_ms": (1e3 * percentile(lat, 50.0), n),
    })
    return gated, ungated


def library_metrics(done: Dict[str, Any]) -> Tuple[Metrics, Metrics]:
    """Gated and ungated end-to-end metrics of a library run."""
    from stats import percentile

    lat, probes = done["latencies"], done["probes"]
    n = len(lat)
    gated, ungated = timing_metrics(lat, lat, probes, done["setups"],
                                    done["items_per_op"])
    gated["peak_rss_mb"] = (done["peak_rss_mb"], 1 + len(done["pids"]))
    ungated.update({
        "host.probe_ms": (1e3 * statistics.median(probes), n),
        "failed_frac": (len(done["problems"]) / done["attempted"],
                        done["attempted"]),
        "loadgen.late_p90_ms": (1e3 * percentile(done["gaps"], 90.0), n),
    })
    return gated, ungated


# ---------------------------------------------------------------------------
# serve-stats


class Server:
    """``python -m repro serve --port 0`` with default settings."""

    def __init__(self, traced: bool) -> None:
        self.started = time.perf_counter()
        # A traced server dumps its whole span tree to stderr on exit.
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0"]
            + (["--trace"] if traced else []),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL if traced else None,
            env=child_env(), cwd=str(ROOT),
        )
        try:
            url = Lines(self.proc).expect(READY_TIMEOUT, server_url)
        except BaseException:
            stop(self.proc)
            raise
        self.port = int(url.rsplit(":", 1)[1])

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """One request on a fresh connection (closed before returning,
        so the server's drain never waits on it)."""
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        try:
            conn.request(method, path, body,
                         {"Content-Type": "application/json"})
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def processes(self) -> List[int]:
        from procs import descendants

        return [self.proc.pid] + descendants(self.proc.pid)


#: Requests one ``--trace`` server takes before the next fresh one.  The
#: traced server's span stack is per thread, so a request that ends
#: while another on the event loop is still open stays on the stack and
#: every later span nests under it.  Chains grow by 0.3-1 level per
#: request, and ``GET /spans`` fails with a 500 (RecursionError) once one
#: nears the interpreter's recursion limit, about 490 levels.
TRACED_REQUESTS_PER_SERVER = 300


class StatsClient:
    """One keep-alive connection posting the window's payloads."""

    def __init__(self, port: int, payloads: List[bytes]) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        self.payloads = payloads

    def send(self, k: int) -> Tuple[int, bytes]:
        self.conn.request("POST", "/v1/stats", self.payloads[k],
                          {"Content-Type": "application/json"})
        response = self.conn.getresponse()
        return response.status, response.read()

    def close(self) -> None:
        self.conn.close()


@contextlib.contextmanager
def serving(traced: bool, warmup: bytes, problems: List[str],
            setups: List[Tuple[float, float]]) -> Iterator[Server]:
    """A fresh server that answered one warm-up request (``setups``
    gets the seconds from spawn to that answer, with the host speed
    probe taken right after it); stopped and put through the leak/orphan
    gate on exit."""
    from hostspeed import settled_probe
    from procs import shm_segments
    from workloads import check_stats_response

    shm_before = shm_segments()
    server = Server(traced)
    pids = [server.proc.pid]
    try:
        err = check_stats_response(*server.request("POST", "/v1/stats",
                                                   warmup))
        setups.append((time.perf_counter() - server.started,
                       settled_probe()))
        if err:
            problems.append(f"warm-up request: {err}")
        yield server
        pids = server.processes()
    finally:
        stop(server.proc)
    problems.extend(hygiene(pids, shm_before))


def serve_window(server: Server, payloads: List[bytes],
                 problems: List[str]):
    """Open-loop window posting every payload; checks each response
    after the window (untimed) and marks failed samples."""
    from loadgen import open_loop
    from workloads import (SERVE_CONNECTIONS, SERVE_RATE,
                           check_stats_equal, check_stats_response,
                           in_process_nodes)

    samples = open_loop(lambda: StatsClient(server.port, payloads),
                        SERVE_RATE, len(payloads),
                        threads=SERVE_CONNECTIONS)
    for sample in samples:
        if sample.error is not None:
            problems.append(f"request {sample.index} raised "
                            f"{sample.error!r}")
            continue
        err = check_stats_response(*sample.outcome)
        if err is None and sample.index == 0:
            err = check_stats_equal(sample.outcome[1],
                                    in_process_nodes(payloads[0]))
        if err:
            problems.append(f"request {sample.index}: {err}")
            sample.error = AssertionError(err)
    return samples


def run_serve(seed: int, seconds: float, trace: bool,
              cold_starts: int) -> Dict[str, Any]:
    """``cold_starts`` fresh servers, the last one serving the timed
    window; with ``trace`` an untraced server and then a series of
    ``--trace`` servers serve half a window each."""
    from procs import peak_rss_mb
    from workloads import SERVE_RATE, serve_payloads

    window = seconds / 2 if trace else seconds
    payloads = serve_payloads(seed, 1 + max(1, round(SERVE_RATE * window)))
    problems: List[str] = []
    setups: List[Tuple[float, float]] = []
    out: Dict[str, Any] = {"problems": problems, "setups": setups,
                           "item": "rows"}
    for start in range(cold_starts):
        with serving(False, payloads[0], problems, setups) as server:
            if start == cold_starts - 1:
                out["samples"] = serve_window(server, payloads[1:], problems)
                pids = server.processes()
                out["peak_rss_mb"] = peak_rss_mb(pids)
                out["processes"] = len(pids)
    out["attempted"] = cold_starts + len(out["samples"])
    if trace:
        chunks, spans, counters = traced_windows(payloads, problems)
        out["attempted"] += sum(1 + len(chunk) for chunk in chunks)
        out.update(serve_layers(payloads[1], out["samples"], chunks, spans,
                                counters))
    return out


def traced_windows(payloads: List[bytes], problems: List[str]):
    """Serve ``payloads[1:]`` from fresh ``--trace`` servers taking at
    most :data:`TRACED_REQUESTS_PER_SERVER` requests each.

    Returns each server's samples, all their spans, and their summed
    counters.  Every server is fresh, so its counters and its spans both
    cover exactly its warm-up request plus its share of the window.
    """
    from layers import prometheus_values

    chunks = []
    spans: List[Dict[str, Any]] = []
    counters: Dict[str, float] = {}
    for first in range(1, len(payloads), TRACED_REQUESTS_PER_SERVER):
        chunk = payloads[first:first + TRACED_REQUESTS_PER_SERVER]
        with serving(True, payloads[0], problems, []) as server:
            chunks.append(serve_window(server, chunk, problems))
            metrics = prometheus_values(
                server.request("GET", "/metrics")[1].decode())
            status, body = server.request("GET", "/spans")
        if status != 200:
            raise RuntimeError(f"GET /spans answered HTTP {status}")
        spans += json.loads(body)["spans"]
        for name, value in metrics.items():
            counters[name] = counters.get(name, 0.0) + value
    return chunks, spans, counters


def _ok(samples) -> list:
    return [s for s in samples if s.error is None]


def _window(samples) -> float:
    return max(s.end for s in samples) - min(s.due for s in samples)


def serve_metrics(out: Dict[str, Any]) -> Tuple[Metrics, Metrics]:
    """Gated and ungated end-to-end metrics of a serve run; a failed
    request counts as missing the latency limit."""
    from stats import percentile
    from workloads import SERVE_ROWS, SERVE_SLO_S

    samples = out["samples"]
    ok = _ok(samples)
    lat = [s.latency for s in ok]
    n = len(lat)
    sent = len(samples)
    # Rows per second of request service time (send to response), like
    # the library workloads' work per second of op time; the open-loop
    # schedule fixes the offered rate, so rows over the window would
    # only read it back.  Request times are not scaled: at this load
    # they did not follow the host speed probe (see README).
    gated, ungated = timing_metrics(lat, [s.service for s in ok], None,
                                    out["setups"], SERVE_ROWS)
    gated["peak_rss_mb"] = (out["peak_rss_mb"], out["processes"])
    met = sum(1 for x in lat if x <= SERVE_SLO_S)
    setup_probes = [p for _, p in out["setups"]]
    ungated.update({
        "host.probe_ms": (1e3 * statistics.median(setup_probes),
                          len(setup_probes)),
        "failed_frac": (len(out["problems"]) / out["attempted"],
                        out["attempted"]),
        "slo_miss_frac": ((sent - met) / sent, sent),
        "loadgen.late_p90_ms": (
            1e3 * percentile([s.lateness for s in samples], 90.0), sent),
        "loadgen.achieved_rps": (len(samples) / _window(samples), sent),
    })
    return gated, ungated


def serve_layers(body: bytes, untraced, chunks, spans,
                 counters: Dict[str, float]) -> Dict[str, Any]:
    """Per-layer metrics of the traced serve window.

    ``chunks`` holds each traced server's samples.  Shares divide by the
    mean client service time (send to response) of the traced window;
    server span totals are per ``/v1/stats`` request.  ``counters`` sums
    the fresh servers' final readings, so it covers the same requests as
    their spans.
    """
    from layers import LAYER_MAP, layer_metrics, serve_span_summary
    from stats import percentile
    from workloads import serve_split

    traced = [sample for chunk in chunks for sample in chunk]
    ok = _ok(traced)
    client = statistics.fmean(s.service for s in ok)
    summary = serve_span_summary(spans)
    requests = len(summary["requests"])
    request_share = statistics.fmean(summary["requests"]) / client
    batch_share = sum(summary["batches"]) / requests / client
    split = serve_split(body)
    untraced_p50 = percentile([s.latency for s in _ok(untraced)], 50.0)
    traced_p50 = percentile([s.latency for s in ok], 50.0)
    batched = counters.get("serve_batch_size_count", 0.0)
    extra = {
        "serve.request_share": request_share,
        "serve.batch_share": batch_share,
        "serve.outside_batch_share": request_share - batch_share,
        "serve.client_overhead_share": 1.0 - request_share,
        "serve.requests_per_batch":
            counters.get("serve_batch_size_sum", 0.0) / batched
            if batched else 0.0,
        "trace.coverage_frac": request_share,
        "obs.trace_overhead_frac": traced_p50 / untraced_p50 - 1.0,
        "loadgen.late_p90_ms":
            1e3 * percentile([s.lateness for s in traced], 90.0),
        "loadgen.achieved_rps":
            len(traced) / sum(_window(chunk) for chunk in chunks),
    }
    extra.update({f"serve.{stage}_share": seconds / client
                  for stage, seconds in split.items()})
    return {
        "layers": layer_metrics(LAYER_MAP, summary["totals"], requests,
                                client, {}, counters, extra),
        "spans_ms_per_op": summary["totals"].ms_per_op(requests),
        "traced_ops": requests,
    }


# ---------------------------------------------------------------------------
# One workload, repeats, ladder


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 spec: Dict[str, Any]) -> Dict[str, Any]:
    """Run one workload and shape its record; prints its metric lines.
    A traced run reports no ``setup_s``, so it starts only once."""
    cold_starts = 1 if trace else COLD_STARTS
    if name == "serve-stats":
        out = run_serve(seed, seconds, trace, cold_starts)
        gated, ungated = serve_metrics(out)
    else:
        out = run_library(name, seed, seconds, trace, cold_starts)
        gated, ungated = library_metrics(out)
    units = {m["name"]: m["unit"] for m in
             spec["end_to_end"] + spec["per_layer"]}
    if trace:
        n = out["traced_ops"]
        reported = {m["name"]: (out["layers"][m["name"]], n)
                    for m in spec["per_layer"]}
    else:
        reported = {m["name"]: gated[m["name"]] for m in spec["end_to_end"]}
    for metric, (value, count) in reported.items():
        print(f"{name} {metric} {value:.6g} {units[metric]} n={count}")
    for metric, (value, count) in ungated.items():
        print(f"{name} {metric} {value:.6g} (not gated) n={count}")
    for problem in out["problems"]:
        print(f"{name} FAILED {problem}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "work_item": out["item"],
        "metrics": {k: {"value": v, "unit": units[k], "n": c}
                    for k, (v, c) in reported.items()},
        "ungated": {k: {"value": v, "n": c}
                    for k, (v, c) in ungated.items()},
        "spans_ms_per_op": out.get("spans_ms_per_op", {}),
        "problems": out["problems"],
        "attempted": out["attempted"],
        "failed": len(out["problems"]),
    }


def summarize_repeats(runs: List[Dict[str, Any]],
                      spec: Dict[str, Any]) -> Dict[str, Any]:
    """Median, quartiles and spread of every gated metric over repeats;
    a metric whose max-min spread exceeds its bound is flagged."""
    from stats import summarize

    summary: Dict[str, Any] = {}
    for name in dict.fromkeys(run["workload"] for run in runs):
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"]
                      for run in runs if run["workload"] == name]
            stats = summarize(values)
            stats["bound"] = metric["bound"]
            stats["flagged"] = stats["range_frac"] > metric["bound"]
            summary[f"{name}.{metric['name']}"] = stats
            print(f"repeat {name} {metric['name']} "
                  f"median={stats['median']:.6g} q1={stats['q1']:.6g} "
                  f"q3={stats['q3']:.6g} "
                  f"spread={100 * stats['range_frac']:.1f}% "
                  f"iqr={100 * stats['iqr_frac']:.1f}% "
                  f"bound={100 * metric['bound']:.0f}%"
                  + (" FLAGGED" if stats["flagged"] else ""))
    return summary


def run_ladder(seed: int) -> List[Dict[str, Any]]:
    """Per-layer self time against design size (not gated)."""
    import repro.parallel
    from repro.obs import span, tracing

    from layers import SpanTotals
    from workloads import ladder_designs

    rows = []
    try:
        for kind, layers, width, design, op in ladder_designs(seed):
            op()
            totals = SpanTotals()
            walls: List[float] = []
            with tracing() as tracer:
                for _ in range(LADDER_REPEATS):
                    with span("bench.op"):
                        op()
                    walls.extend(totals.take(tracer))
            row = {
                "kind": kind, "layers": layers, "width": width,
                "nets": len(design.nets),
                "op_ms": 1e3 * statistics.median(walls),
                "self_ms_per_op": totals.ms_per_op(len(walls)),
            }
            rows.append(row)
            top = sorted(row["self_ms_per_op"].items(),
                         key=lambda kv: -kv[1])[:6]
            print(f"ladder {kind} nets={row['nets']} "
                  f"op_ms={row['op_ms']:.2f} "
                  + " ".join(f"{k}={v:.2f}" for k, v in top))
    finally:
        repro.parallel.shutdown()
    return rows


# ---------------------------------------------------------------------------
# Record keeping and entry point


def git_rev() -> str:
    """``HEAD`` of the checkout, or ``unknown`` outside a repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT),
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host() -> Dict[str, Any]:
    """CPU model, core count and interpreter/NumPy versions."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark of the repro system.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1,
                        help="the only workload input (default 1)")
    parser.add_argument("--seconds", type=float,
                        help="timed window per workload (default: "
                             "run_seconds in BENCHMARK.json; traced runs "
                             "split it into an untraced and a traced half)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="report the per-layer metrics instead of the "
                             "end-to-end ones")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="results JSON (default %(default)s)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the workloads N times and report each "
                             "gated metric's median and spread")
    parser.add_argument("--ladder", action="store_true",
                        help="print per-layer self time against design "
                             "size instead of running the workloads")
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS:g} s windows")
    args = parser.parse_args(argv)
    if args.repeat < 1 or (args.seconds is not None and args.seconds <= 0):
        parser.error("--repeat must be >= 1 and --seconds > 0")
    if args.smoke:
        args.seconds = SMOKE_SECONDS
    return args


def final_line(record: Dict[str, Any], single: bool) -> Dict[str, Any]:
    """The last stdout line: correctness, counts and the metrics."""
    runs = record["runs"]
    failed = sum(run["failed"] for run in runs)
    attempted = sum(run["attempted"] for run in runs)
    metrics: Dict[str, Any] = {}
    if "summary" in record:
        for key, stats in record["summary"].items():
            name = key.split(".", 1)[1]
            unit = runs[0]["metrics"][name]["unit"]
            metrics[name if single else key] = {"value": stats["median"],
                                                "unit": unit}
    else:
        for run in runs:
            for name, entry in run["metrics"].items():
                key = name if single else f"{run['workload']}.{name}"
                metrics[key] = {"value": entry["value"],
                                "unit": entry["unit"]}
    for row in record.get("ladder", []):
        attempted += LADDER_REPEATS
        metrics[f"ladder.{row['kind']}.{row['nets']}.op_ms"] = {
            "value": row["op_ms"], "unit": "ms"}
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a full "
              "checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from spec import SpecError, load_spec

    try:
        spec = load_spec(ROOT / "BENCHMARK.json")
    except SpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    record: Dict[str, Any] = {
        "schema": RESULTS_SCHEMA,
        "generated_at": datetime.datetime.now(
            datetime.timezone.utc).isoformat(timespec="seconds"),
        "git_rev": git_rev(),
        "host": host(),
        "args": {k: str(v) if isinstance(v, Path) else v
                 for k, v in vars(args).items()},
        "runs": [],
    }
    workloads = [args.workload] if args.workload else list(WORKLOADS)
    if args.ladder:
        record["ladder"] = run_ladder(args.seed)
    else:
        for _ in range(args.repeat):
            for name in workloads:
                record["runs"].append(run_workload(
                    name, args.seed, args.seconds, bool(args.trace), spec))
        if args.repeat > 1 and not args.trace:
            record["summary"] = summarize_repeats(record["runs"], spec)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    result = final_line(record, single=len(workloads) == 1)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
