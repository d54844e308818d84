"""Tests for the span tracer: nesting, the disabled path, decorators."""

import threading

import pytest

from repro.obs import (
    Tracer,
    get_tracer,
    iter_span_dicts,
    span,
    traced,
    tracing,
    tracing_enabled,
)
from repro.obs.trace import _NULL_SPAN


class TestNesting:
    def test_tree_reconstruction(self):
        with tracing() as tracer:
            with span("outer", phase="sweep"):
                with span("inner-a", N=16):
                    pass
                with span("inner-b"):
                    with span("leaf"):
                        pass
        roots = tracer.roots
        assert [r.name for r in roots] == ["outer"]
        outer = roots[0]
        assert [c.name for c in outer.children] == ["inner-a", "inner-b"]
        assert [c.name for c in outer.children[1].children] == ["leaf"]
        assert outer.attributes == {"phase": "sweep"}
        assert outer.children[0].attributes == {"N": 16}

    def test_sibling_roots(self):
        with tracing() as tracer:
            with span("first"):
                pass
            with span("second"):
                pass
        assert [r.name for r in tracer.roots] == ["first", "second"]

    def test_timings_nest(self):
        with tracing() as tracer:
            with span("outer"):
                with span("inner"):
                    pass
        outer = tracer.roots[0]
        inner = outer.children[0]
        assert outer.end is not None and inner.end is not None
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert outer.duration >= inner.duration
        assert outer.self_time == pytest.approx(
            outer.duration - inner.duration
        )

    def test_set_attribute_and_to_dict(self):
        with tracing() as tracer:
            with span("phase", B=4) as sp:
                sp.set_attribute("rows", 123)
        entry = tracer.to_dicts()[0]
        assert entry["name"] == "phase"
        assert entry["attributes"] == {"B": 4, "rows": 123}
        assert entry["duration"] >= entry["self"] >= 0.0
        assert entry["children"] == []

    def test_exception_recorded_and_stack_unwound(self):
        with tracing() as tracer:
            with pytest.raises(RuntimeError):
                with span("failing"):
                    raise RuntimeError("boom")
            with span("after"):
                pass
        roots = tracer.roots
        assert [r.name for r in roots] == ["failing", "after"]
        assert roots[0].attributes["error"] == "RuntimeError"

    def test_find_depth_first(self):
        with tracing() as tracer:
            with span("a"):
                with span("walk"):
                    pass
            with span("walk"):
                pass
        assert len(tracer.find("walk")) == 2
        assert tracer.find("missing") == []

    def test_iter_span_dicts(self):
        with tracing() as tracer:
            with span("root"):
                with span("mid"):
                    with span("leaf"):
                        pass
        names = [e["name"] for e in iter_span_dicts(tracer.to_dicts())]
        assert names == ["root", "mid", "leaf"]


class TestDisabledPath:
    def test_disabled_span_is_shared_noop(self):
        assert not tracing_enabled()
        first = span("anything", N=1)
        second = span("else")
        assert first is _NULL_SPAN and second is _NULL_SPAN
        with first as sp:
            sp.set_attribute("ignored", True)  # must not raise

    def test_disabled_records_nothing(self):
        tracer = get_tracer()
        tracer.reset()
        with span("invisible"):
            pass
        assert tracer.roots == []

    def test_scope_restores_prior_state(self):
        assert not tracing_enabled()
        with tracing():
            assert tracing_enabled()
            with tracing(reset=False):
                assert tracing_enabled()
            assert tracing_enabled()
        assert not tracing_enabled()


class TestTracedDecorator:
    def test_records_qualified_name_by_default(self):
        @traced()
        def hot_phase():
            return 41 + 1

        with tracing() as tracer:
            assert hot_phase() == 42
        assert len(tracer.roots) == 1
        assert tracer.roots[0].name.endswith("hot_phase")

    def test_explicit_name_and_attributes(self):
        @traced("custom.phase", kind="test")
        def fn():
            return "ok"

        with tracing() as tracer:
            fn()
        assert tracer.roots[0].name == "custom.phase"
        assert tracer.roots[0].attributes == {"kind": "test"}

    def test_disabled_calls_straight_through(self):
        calls = []

        @traced()
        def fn(x):
            calls.append(x)
            return x * 2

        assert not tracing_enabled()
        assert fn(3) == 6
        assert calls == [3]
        assert get_tracer().find(fn.__qualname__) == []


class TestOutOfOrderClose:
    def test_interleaved_spans_leave_no_stack(self):
        """Overlapping spans on one thread (event-loop requests) that close
        oldest-first must not pile up on the open stack."""
        tracer = Tracer()
        tracer.enable()
        for k in range(1000):
            first = tracer.span(f"a{k}")
            second = tracer.span(f"b{k}")
            first.__enter__()
            second.__enter__()
            first.__exit__(None, None, None)
            second.__exit__(None, None, None)
        assert tracer._stack() == []
        with tracer.span("after") as after:
            pass
        assert tracer.roots[-1] is after
        assert len(tracer.roots) == 1001
        assert len(tracer.to_dicts()) == 1001

    def test_middle_span_closes_first(self):
        tracer = Tracer()
        tracer.enable()
        outer, middle, inner = (tracer.span(n) for n in ("o", "m", "i"))
        for s in (outer, middle, inner):
            s.__enter__()
        middle.__exit__(None, None, None)
        assert tracer._stack() == [outer, inner]
        inner.__exit__(None, None, None)
        outer.__exit__(None, None, None)
        assert tracer._stack() == []


class TestThreads:
    def test_worker_threads_build_disjoint_roots(self):
        tracer = Tracer()
        tracer.enable()

        def work(tag):
            with tracer.span(f"root-{tag}"):
                with tracer.span(f"child-{tag}"):
                    pass

        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        roots = tracer.roots
        assert len(roots) == 4
        for root in roots:
            tag = root.name.split("-")[1]
            assert [c.name for c in root.children] == [f"child-{tag}"]
