"""End-to-end HTTP tests against an in-process server thread.

One module-scoped server handles every request-shape test (startup
forks nothing — jobs default to in-process sweeps), so the suite stays
fast while covering the full request -> batcher -> engine -> response
path, the error contract, and the observability surface.
"""

import json
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import delay_bounds, transfer_moments
from repro.serve import ServeConfig, ServerThread
from repro.signals import SaturatedRamp
from repro.workloads import fig1_tree


@pytest.fixture(scope="module")
def server():
    with ServerThread(ServeConfig(port=0, batch_window=0.001,
                                  manage_pool=False)) as thread:
        yield thread


def _post(url, path, payload, timeout=60.0):
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url, path):
    with urllib.request.urlopen(url + path, timeout=10.0) as response:
        return response.status, response.read()


class TestStatsEndpoint:
    def test_matches_direct_library_evaluation(self, server):
        status, body = _post(server.url, "/v1/stats",
                             {"workload": "fig1"})
        assert status == 200
        tree = fig1_tree()
        moments = transfer_moments(tree, 3)
        for node in tree.node_names:
            bounds = delay_bounds(tree, node, moments=moments)
            served = body["nodes"][node]
            assert served["elmore"] == pytest.approx(moments.mean(node),
                                                     rel=0, abs=0)
            assert served["upper"] == bounds.upper
            assert served["lower"] == bounds.lower

    def test_generalized_signal(self, server):
        status, body = _post(
            server.url, "/v1/stats",
            {"workload": "fig1", "signal": "ramp:2ns", "nodes": ["n5"]},
        )
        assert status == 200
        assert list(body["nodes"]) == ["n5"]
        bounds = delay_bounds(fig1_tree(), "n5",
                              signal=SaturatedRamp(2e-9))
        assert body["nodes"]["n5"]["upper"] == bounds.upper
        assert body["nodes"]["n5"]["lower"] == bounds.lower

    def test_multi_row_request(self, server):
        status, body = _post(
            server.url, "/v1/stats",
            {"workload": "fig1", "rscale": [1.0, 2.0], "nodes": ["n5"]},
        )
        assert status == 200
        assert body["rows"] == 2
        elmore = body["nodes"]["n5"]["elmore"]
        # Scaling every resistance scales every RC product linearly.
        assert elmore[1] == pytest.approx(2.0 * elmore[0])

    def test_inline_tree(self, server):
        status, body = _post(server.url, "/v1/stats", {
            "tree": {
                "input": "in",
                "nodes": [
                    {"name": "out", "parent": "in", "r": 1000.0,
                     "c": 1e-12},
                ],
            },
        })
        assert status == 200
        assert body["nodes"]["out"]["elmore"] == pytest.approx(1e-9)

    def test_concurrent_identical_requests_coalesce_bit_identically(
        self, server
    ):
        """N concurrent same-topology requests run as fewer than N
        sweeps and return bit-identical payloads to a serial request."""
        from repro.obs.metrics import counter

        solo = _post(server.url, "/v1/stats",
                     {"workload": "tree25", "rscale": 1.25})[1]
        batches_before = counter("serve_batches_total").value
        coalesced_before = counter("serve_coalesced_total").value
        n = 8
        with ThreadPoolExecutor(max_workers=n) as pool:
            payloads = list(pool.map(
                lambda _: _post(server.url, "/v1/stats",
                                {"workload": "tree25", "rscale": 1.25}),
                range(n),
            ))
        assert all(status == 200 for status, _ in payloads)
        for _status, body in payloads:
            assert body["nodes"] == solo["nodes"]  # exact JSON equality
        sweeps = counter("serve_batches_total").value - batches_before
        coalesced = counter("serve_coalesced_total").value - \
            coalesced_before
        assert sweeps < n
        assert coalesced >= n - sweeps
        assert any(body["batch"]["coalesced"]
                   for _status, body in payloads)


class TestVerifyEndpoint:
    def test_verify_fig1(self, server):
        status, body = _post(
            server.url, "/v1/verify",
            {"workload": "fig1", "samples": 401, "nodes": ["n5"]},
        )
        assert status == 200
        assert body["all_hold"] is True
        node = body["nodes"]["n5"]
        assert node["upper_bound_holds"] and node["lower_bound_holds"]
        assert node["elmore"] > node["actual_delay"] > 0


class TestStaEndpoint:
    def test_sta_round_trip(self, server):
        status, body = _post(
            server.url, "/v1/sta",
            {"layers": 3, "width": 4, "seed": 1},
        )
        assert status == 200
        assert body["critical_delay"] > 0
        path = body["critical_path"]
        assert path[-1]["arrival"] == pytest.approx(
            body["critical_delay"]
        )
        arrivals = [element["arrival"] for element in path]
        assert arrivals == sorted(arrivals)


class TestSstaEndpoint:
    def test_ssta_round_trip(self, server):
        status, body = _post(
            server.url, "/v1/ssta",
            {"layers": 3, "width": 4, "seed": 1, "required": 1.0},
        )
        assert status == 200
        assert body["critical"]["sigma"] > 0
        assert body["critical"]["corners"]["3s"] == pytest.approx(
            body["critical"]["mean"] + 3 * body["critical"]["sigma"]
        )
        assert sum(
            out["criticality"] for out in body["outputs"].values()
        ) == pytest.approx(1.0)
        # A 1-second requirement is unmeetable to miss: full yield.
        assert body["yield"] == pytest.approx(1.0)
        assert body["fail_probability"] == pytest.approx(0.0, abs=1e-12)

    def test_ssta_matches_direct_library_evaluation(self, server):
        from repro.core.variation import VariationModel
        from repro.sta.ssta import ProcessModel, analyze_ssta
        from repro.workloads import random_design

        status, body = _post(
            server.url, "/v1/ssta",
            {"layers": 3, "width": 4, "seed": 2, "rsigma": 0.1,
             "correlation": 0.4},
        )
        assert status == 200
        report = analyze_ssta(
            random_design(layers=3, width=4, seed=2),
            ProcessModel(
                VariationModel(resistance_sigma=0.1,
                               capacitance_sigma=0.08),
                rho_r=0.4, rho_c=0.4, cell_sigma=0.05, rho_cell=0.4,
            ),
        )
        assert body["critical"]["mean"] == report.critical.mu
        assert body["critical"]["sigma"] == report.critical.sigma

    def test_ssta_monte_carlo_cross_check(self, server):
        status, body = _post(
            server.url, "/v1/ssta",
            {"layers": 3, "width": 4, "samples": 1500},
        )
        assert status == 200
        mc = body["monte_carlo"]
        assert mc["samples"] == 1500
        assert mc["within_tolerance"] is True
        assert mc["max_mean_rel_err"] <= 0.01
        assert mc["max_sigma_rel_err"] <= 0.05

    def test_ssta_validation_errors(self, server):
        status, body = _post(server.url, "/v1/ssta",
                             {"correlation": 1.5})
        assert status == 400
        assert "correlation" in body["error"]["message"]
        status, body = _post(server.url, "/v1/ssta", {"bogus": 1})
        assert status == 400
        assert "unknown" in body["error"]["message"]


class TestErrorContract:
    @pytest.mark.parametrize("payload,fragment", [
        ({"workload": "nope"}, "unknown workload"),
        ({"workload": "fig1", "rscale": -1.0}, "finite and > 0"),
        ({"workload": "fig1", "bogus": True}, "unknown"),
        ({}, "workload"),
        ({"workload": "fig1", "signal": "ramp:1e999"}, "must be finite"),
    ])
    def test_validation_errors_are_400_json(self, server, payload,
                                            fragment):
        status, body = _post(server.url, "/v1/stats", payload)
        assert status == 400
        assert fragment in body["error"]["message"]
        assert "Traceback" not in body["error"]["message"]

    def test_malformed_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/stats", data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10.0)
        assert err.value.code == 400

    def test_unknown_path_is_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/v1/nope", timeout=10.0)
        assert err.value.code == 404

    def test_wrong_method_is_405(self, server):
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(server.url + "/v1/stats",
                                   timeout=10.0)  # GET
        assert err.value.code == 405
        status, _body = _post(server.url, "/healthz", {})
        assert status == 405

    def test_deadline_expiry_is_504(self, server):
        status, body = _post(
            server.url, "/v1/verify",
            {"workload": "tree25", "timeout_ms": 1},
        )
        assert status == 504
        assert "deadline" in body["error"]["message"]


class TestObservabilitySurface:
    def test_healthz(self, server):
        status, body = _get(server.url, "/healthz")
        assert (status, body) == (200, b"ok\n")

    def test_metrics_exposes_serve_series(self, server):
        _post(server.url, "/v1/stats", {"workload": "fig1"})
        status, body = _get(server.url, "/metrics")
        assert status == 200
        text = body.decode("utf-8")
        for name in ("serve_requests_total", "serve_batches_total",
                     "serve_batch_size", "serve_inflight",
                     "serve_draining"):
            assert name in text
        assert 'endpoint="/v1/stats",status="200"' in text

    def test_spans(self, server):
        status, body = _get(server.url, "/spans")
        assert status == 200
        payload = json.loads(body)
        assert set(payload) == {"tracing", "spans"}

    def test_unmatched_paths_share_one_metric_label(self, server):
        """Scanner traffic must not grow label cardinality: unmatched
        routes all fold into endpoint="unknown"."""
        for path in ("/v1/scanner-probe-a", "/v1/scanner-probe-b"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + path, timeout=10.0)
            assert err.value.code == 404
        text = _get(server.url, "/metrics")[1].decode("utf-8")
        assert 'endpoint="unknown",status="404"' in text
        assert "scanner-probe" not in text


class TestInternalErrorMapping:
    def test_server_side_repro_error_is_500_not_400(self):
        """A ReproError from the engine/batcher internals is a server
        fault; only the 4xx-worthy subclasses may blame the client."""
        import asyncio

        from repro._exceptions import ReproError
        from repro.serve.app import ReproServer, ServeConfig

        async def main():
            srv = ReproServer(ServeConfig(manage_pool=False))
            try:
                async def broken_submit(key, request, timeout=None):
                    raise ReproError(
                        "evaluator returned 1 results for 2 requests"
                    )

                srv.batcher.submit = broken_submit
                body = json.dumps({"workload": "fig1"}).encode("utf-8")
                status, (payload, _type) = await srv._dispatch_route(
                    "POST", "/v1/stats", body
                )
                return status, json.loads(payload)
            finally:
                srv._sweep_executor.shutdown(wait=False)
                srv._aux_executor.shutdown(wait=False)

        status, payload = asyncio.run(main())
        assert status == 500
        assert payload["error"]["message"] == "internal server error"
        assert "evaluator" not in payload["error"]["message"]


class TestAuxBackpressure:
    """Verify/sta requests are bounded: past ``aux_max_queue`` pending
    (queued + executing, including deadline-abandoned work) they get a
    429 instead of piling onto the executor's unbounded queue."""

    @staticmethod
    def _server():
        from repro.serve.app import ReproServer, ServeConfig

        return ReproServer(ServeConfig(manage_pool=False, aux_threads=1,
                                       aux_max_queue=1))

    def test_pending_request_past_bound_is_rejected(self):
        import asyncio
        import threading
        from types import SimpleNamespace

        from repro.serve.batcher import QueueFullError

        release = threading.Event()
        started = threading.Event()

        def slow_eval(request, jobs, backend):
            started.set()
            release.wait(30.0)
            return {"ok": True}

        async def main():
            srv = self._server()
            try:
                first = asyncio.ensure_future(srv._handle_aux(
                    slow_eval, SimpleNamespace(timeout_s=None)
                ))
                while not started.is_set():
                    await asyncio.sleep(0.005)
                with pytest.raises(QueueFullError, match="queue is full"):
                    await srv._handle_aux(
                        slow_eval, SimpleNamespace(timeout_s=None)
                    )
                release.set()
                assert await first == {"ok": True}
            finally:
                release.set()
                srv._sweep_executor.shutdown(wait=False)
                srv._aux_executor.shutdown(wait=True)
            assert srv.aux_pending == 0

        asyncio.run(main())

    def test_deadline_abandoned_work_holds_its_slot(self):
        """A 504'd request keeps executing on its thread; its slot must
        only free when the work finishes, so abandoned jobs cannot
        accumulate without backpressure."""
        import asyncio
        import threading
        from types import SimpleNamespace

        from repro.serve.batcher import (
            DeadlineExpiredError,
            QueueFullError,
        )

        release = threading.Event()

        def slow_eval(request, jobs, backend):
            release.wait(30.0)
            return {"ok": True}

        async def main():
            srv = self._server()
            try:
                with pytest.raises(DeadlineExpiredError):
                    await srv._handle_aux(
                        slow_eval, SimpleNamespace(timeout_s=0.05)
                    )
                assert srv.aux_pending == 1  # still running its thread
                with pytest.raises(QueueFullError):
                    await srv._handle_aux(
                        slow_eval, SimpleNamespace(timeout_s=None)
                    )
                release.set()
                for _ in range(200):
                    if srv.aux_pending == 0:
                        break
                    await asyncio.sleep(0.01)
                assert srv.aux_pending == 0
            finally:
                release.set()
                srv._sweep_executor.shutdown(wait=False)
                srv._aux_executor.shutdown(wait=True)

        asyncio.run(main())


class TestLifecycle:
    def test_graceful_stop_completes_inflight_requests(self):
        """Requests racing shutdown either complete or get a clean
        structured error (503 draining / connection refused or reset)
        within the server's own drain and I/O bounds — a client left
        waiting past ``drain_timeout + io_timeout`` fails — and the
        server thread always joins."""
        config = ServeConfig(port=0, batch_window=0.02, manage_pool=False,
                             drain_timeout=2.0, io_timeout=2.0)
        bound = config.drain_timeout + config.io_timeout
        with ServerThread(config) as thread:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [
                    pool.submit(_post, thread.url, "/v1/stats",
                                {"workload": "fig1"}, timeout=bound)
                    for _ in range(4)
                ]
                thread.stop()
                statuses = []
                for future in futures:
                    try:
                        statuses.append(future.result()[0])
                    except TimeoutError:
                        statuses.append("stranded")
                    except urllib.error.URLError as error:
                        statuses.append(
                            "stranded"
                            if isinstance(error.reason, TimeoutError)
                            else "refused")
                    except ConnectionError:
                        statuses.append("refused")
        assert all(code in (200, 503, "refused") for code in statuses), \
            statuses

    def test_two_servers_bind_distinct_ephemeral_ports(self):
        with ServerThread(ServeConfig(port=0, manage_pool=False)) as a, \
                ServerThread(ServeConfig(port=0,
                                         manage_pool=False)) as b:
            assert a.port != b.port
            assert _get(a.url, "/healthz")[0] == 200
            assert _get(b.url, "/healthz")[0] == 200

    def test_taken_port_fails_with_clear_error(self):
        from repro._exceptions import ReproError

        with ServerThread(ServeConfig(port=0, manage_pool=False)) as a:
            clash = ServerThread(ServeConfig(port=a.port,
                                             manage_pool=False))
            with pytest.raises(ReproError, match="failed to start"):
                clash.start()
