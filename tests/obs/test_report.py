"""Tests for run reports: atomic writes, round-trips, rendering."""

import json
import os

import pytest

from repro._exceptions import ValidationError
from repro.obs import (
    SCHEMA,
    MetricsRegistry,
    Tracer,
    atomic_write_text,
    collect_report,
    format_seconds,
    load_report,
    render_report,
    render_span_tree,
    write_report,
)


class TestAtomicWrite:
    def test_writes_and_replaces(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "first")
        atomic_write_text(path, "second")
        with open(path) as handle:
            assert handle.read() == "second"

    def test_creates_parent_directory(self, tmp_path):
        path = str(tmp_path / "deep" / "nested" / "out.txt")
        atomic_write_text(path, "x")
        assert os.path.exists(path)

    def test_no_temp_litter(self, tmp_path):
        path = str(tmp_path / "out.txt")
        atomic_write_text(path, "data")
        assert os.listdir(tmp_path) == ["out.txt"]


def _traced_tracer():
    tracer = Tracer()
    tracer.enable()
    with tracer.span("root", N=8):
        with tracer.span("child"):
            pass
    return tracer


class TestReportRoundTrip:
    def test_collect_shape(self):
        tracer = _traced_tracer()
        registry = MetricsRegistry()
        registry.counter("x_total").inc(3)
        report = collect_report(
            command="repro stats", seed=11, extra={"k": "v"},
            tracer=tracer, registry=registry,
        )
        assert report["schema"] == SCHEMA
        assert report["command"] == "repro stats"
        assert report["seed"] == 11
        assert report["extra"] == {"k": "v"}
        assert report["spans"][0]["name"] == "root"
        assert report["metrics"]["x_total"]["value"] == 3
        assert "numpy" in report["environment"]

    def test_write_then_load(self, tmp_path):
        path = str(tmp_path / "run.json")
        write_report(path, tracer=_traced_tracer(),
                     registry=MetricsRegistry(), command="c", seed=1)
        report = load_report(path)
        assert report["command"] == "c"
        assert report["spans"][0]["children"][0]["name"] == "child"

    def test_load_rejects_non_reports(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(ValidationError):
            load_report(str(path))

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": "repro.run_report/0",
                                    "spans": []}))
        with pytest.raises(ValidationError):
            load_report(str(path))

    @pytest.mark.parametrize("body", [
        {"spans": [{"name": "a", "duration": 1.0,
                    "children": [{"name": "b", "duration": "1"}]}]},
        {"spans": [{"name": "a", "duration": 1.0, "attributes": []}]},
        {"spans": [], "metrics": {"x_total": 5}},
        {"spans": [], "metrics": {"x_total": {"kind": ["counter"]}}},
        {"spans": [], "metrics": {"x_total": {"series": [{"value": "1"}]}}},
        {"spans": [], "environment": ["linux"]},
    ])
    def test_load_rejects_malformed_shapes(self, tmp_path, body):
        # Each of these once crashed render_report with a TypeError,
        # KeyError or AttributeError; the loader now names the problem.
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": SCHEMA, **body}))
        with pytest.raises(ValidationError):
            load_report(str(path))

    def test_non_finite_gauge_renders(self, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(json.dumps({
            "schema": SCHEMA, "spans": [],
            "metrics": {"g": {"kind": "gauge", "value": float("inf")}},
        }))
        assert "inf" in render_report(load_report(str(path)))

    def test_spans_carry_pid_and_seq(self):
        spans = _traced_tracer().to_dicts()
        root = spans[0]
        assert root["pid"] == os.getpid()
        assert root["seq"] == 0
        assert root["children"][0]["seq"] == 1

    def test_load_upgrades_v1_reports(self, tmp_path):
        # A /1 report predates pid/seq on spans; the reader shim fills
        # them in (pid unknown, seq in depth-first order) and retags.
        path = tmp_path / "v1.json"
        path.write_text(json.dumps({
            "schema": "repro.run_report/1",
            "spans": [{
                "name": "root", "start": 0.0, "duration": 1.0,
                "self": 0.5, "attributes": {},
                "children": [{"name": "child", "start": 0.1,
                              "duration": 0.5, "self": 0.5,
                              "attributes": {}, "children": []}],
            }],
            "metrics": {},
        }))
        report = load_report(str(path))
        assert report["schema"] == SCHEMA
        root = report["spans"][0]
        assert root["pid"] is None and root["seq"] == 0
        assert root["children"][0]["seq"] == 1


class TestRendering:
    def test_format_seconds_scales(self):
        assert format_seconds(2.5) == "2.5 s"
        assert format_seconds(3.2e-3) == "3.2 ms"
        assert format_seconds(4.5e-6) == "4.5 us"
        assert format_seconds(7e-9) == "7 ns"

    def test_span_tree_layout(self):
        text = render_span_tree(_traced_tracer().to_dicts())
        lines = text.split("\n")
        assert lines[0].split() == ["span", "cum", "self", "attributes"]
        assert any(line.lstrip().startswith("root") and "N=8" in line
                   for line in lines)
        # The child is indented beneath its parent.
        root_idx = next(i for i, l in enumerate(lines)
                        if l.startswith("root"))
        assert lines[root_idx + 1].startswith("  child")

    def test_empty_span_tree_hint(self):
        assert "was tracing enabled" in render_span_tree([])

    def test_render_report_sections(self):
        registry = MetricsRegistry()
        registry.counter("n_total").inc(2)
        registry.histogram("t_seconds").observe(0.25)
        report = collect_report(command="repro verify", seed=7,
                                tracer=_traced_tracer(),
                                registry=registry)
        text = render_report(report)
        assert "command: repro verify" in text
        assert "seed: 7" in text
        assert "root" in text and "child" in text
        assert "n_total" in text and "t_seconds" in text
        assert "count=1" in text
        assert "degraded" not in text

    def test_render_report_degraded_notices(self):
        registry = MetricsRegistry()
        fallback = registry.counter("parallel_shm_fallback_total", "t")
        fallback.inc()
        fallback.labels(reason="shm-unavailable").inc()
        registry.counter("parallel_degraded_total", "t").inc(2)
        report = collect_report(tracer=_traced_tracer(),
                                registry=registry)
        text = render_report(report)
        assert "degraded: shm→serial" in text
        assert "shm-unavailable" in text
        assert "2 shard(s) fell back" in text
