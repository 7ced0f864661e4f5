"""Unit tests for the tracing substrate (`repro.obs.tracing`).

Covers the three tracer grades (recording, measure-only, null), span
nesting across threads, explicit cross-thread parenting, fork resets,
retention caps and the cProfile hook.
"""

import threading
import time

from repro.obs import NULL_SPAN, NULL_TRACER, Observability, Span, Trace, Tracer
from repro.obs.profiling import SpanProfiler


class TestSpan:
    def test_set_is_chainable(self):
        span = Span("phase")
        assert span.set(a=1, b="x") is span
        assert span.attributes == {"a": 1, "b": "x"}

    def test_dict_round_trip(self):
        span = Span("phase", span_id=3, parent_id=1, depth=2, duration=0.5)
        span.set(bytes=17)
        assert Span.from_dict(span.to_dict()) == span

    def test_cede_keeps_two_adjacent_spans_tiling_their_interval(self):
        """Two phases that interleaved inside the first span's block:
        the second's share moves over, the shared boundary moves back."""
        first = Span("gather", started_at=1.0, duration=0.75)
        second = Span("check", started_at=1.75, duration=0.25)
        first.cede(0.5, second)
        assert (first.started_at, first.duration) == (1.0, 0.25)
        assert (second.started_at, second.duration) == (1.25, 0.75)
        first.cede(0.125, NULL_SPAN)  # a disabled scope's span takes nothing
        assert first.duration == 0.125
        assert NULL_SPAN.cede(1.0, second) is None
        assert (NULL_SPAN.duration, second.duration) == (0.0, 0.75)


class TestRecordingTracer:
    def test_nesting_assigns_parent_and_depth(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.depth == outer.depth + 1
        assert outer.parent_id is None

    def test_completion_order_inner_first(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        names = [span.name for span in tracer.trace()]
        assert names == ["inner", "outer"]

    def test_sibling_order_restored_by_started_at(self):
        tracer = Tracer()
        with tracer.span("root") as root:
            with tracer.span("first"):
                pass
            with tracer.span("second"):
                pass
        trace = tracer.trace()
        kids = trace.children(trace.first("root"))
        assert [s.name for s in kids] == ["first", "second"]
        assert all(k.parent_id == root.span_id for k in kids)

    def test_durations_are_positive_and_nested_fits_in_parent(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                time.sleep(0.002)
        trace = tracer.trace()
        inner = trace.first("inner")
        outer = trace.first("outer")
        assert inner.duration > 0.0
        assert outer.duration >= inner.duration

    def test_attrs_via_kwargs_and_set(self):
        tracer = Tracer()
        with tracer.span("phase", stars=3) as span:
            span.set(rs_size=10)
        recorded = tracer.trace().first("phase")
        assert recorded.attributes == {"stars": 3, "rs_size": 10}

    def test_explicit_parent_overrides_stack(self):
        """Worker-thread spans attach to the span passed as parent=."""
        tracer = Tracer()
        with tracer.span("matching") as matching:
            results = []

            def work():
                with tracer.span("star", parent=matching) as s:
                    results.append(s)

            threads = [threading.Thread(target=work) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        trace = tracer.trace()
        stars = trace.named("star")
        assert len(stars) == 3
        assert all(s.parent_id == matching.span_id for s in stars)
        assert all(s.depth == matching.depth + 1 for s in stars)

    def test_threads_nest_independently(self):
        """Each thread gets its own stack: no cross-thread implicit parents."""
        tracer = Tracer()

        def work(idx):
            with tracer.span(f"root-{idx}"):
                with tracer.span(f"child-{idx}"):
                    pass

        threads = [threading.Thread(target=work, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        trace = tracer.trace()
        for i in range(4):
            root = trace.first(f"root-{i}")
            child = trace.first(f"child-{i}")
            assert root.parent_id is None
            assert child.parent_id == root.span_id

    def test_take_trace_clears_buffer(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        first = tracer.take_trace()
        assert len(first) == 1
        assert len(tracer.trace()) == 0

    def test_max_spans_drops_oldest(self):
        tracer = Tracer(max_spans=3)
        for i in range(5):
            with tracer.span(f"s{i}"):
                pass
        names = [s.name for s in tracer.trace()]
        assert names == ["s2", "s3", "s4"]

    def test_fork_reset_clears_buffer_and_repins_pid(self):
        tracer = Tracer()
        with tracer.span("parent-span"):
            pass
        tracer._pid = -1  # simulate "we are a forked child now"
        with tracer.span("child-span"):
            pass
        names = [s.name for s in tracer.trace()]
        assert names == ["child-span"]


class TestMeasureOnlyTracer:
    def test_durations_without_retention(self):
        tracer = Tracer(record=False)
        with tracer.span("phase") as span:
            time.sleep(0.001)
        assert span.duration > 0.0
        assert span.span_id == 0  # no ids allocated
        assert len(tracer.trace()) == 0
        assert tracer.recording is False

    def test_parent_kwarg_is_inert(self):
        tracer = Tracer(record=False)
        fake_parent = Span("outer")  # span_id == 0
        with tracer.span("inner", parent=fake_parent) as span:
            pass
        assert span.parent_id is None


class TestNullTracer:
    def test_shared_null_span(self):
        assert NULL_TRACER.span("anything") is NULL_SPAN
        with NULL_TRACER.span("x") as span:
            assert span.set(a=1) is span
        assert NULL_SPAN.attributes == {}
        assert len(NULL_TRACER.trace()) == 0
        assert NULL_TRACER.recording is False
        assert NULL_TRACER.enabled is False


class TestTraceHelpers:
    def _trace(self):
        tracer = Tracer()
        with tracer.span("root", k=2):
            with tracer.span("leaf", bytes=10):
                pass
            with tracer.span("leaf", bytes=5):
                pass
        return tracer.trace()

    def test_named_first_attr_sum(self):
        trace = self._trace()
        assert len(trace.named("leaf")) == 2
        assert trace.first("root").attributes["k"] == 2
        assert trace.attr("leaf", "bytes") == 10  # first leaf
        assert trace.sum_attr("leaf", "bytes") == 15
        assert trace.attr("missing", "bytes", 7) == 7

    def test_total_seconds_counts_roots_only(self):
        trace = self._trace()
        assert trace.total_seconds == trace.first("root").duration

    def test_extend_and_dict_round_trip(self):
        trace = self._trace()
        other = self._trace()
        merged = Trace().extend(trace).extend(other)
        assert len(merged) == len(trace) + len(other)
        restored = Trace.from_dict(merged.to_dict())
        assert restored == merged


class TestProfilerHook:
    def test_profile_attribute_attached(self):
        obs = Observability(profile=True)
        tracer = obs.tracer
        with tracer.span("query"):
            sum(range(2000))
        span = tracer.trace().first("query")
        profile = span.attributes.get("profile")
        assert isinstance(profile, list) and profile

    def test_named_profile_targets_only_those_spans(self):
        profiler = SpanProfiler(["cloud.join"])
        tracer = Tracer(profiler=profiler)
        with tracer.span("query"):
            with tracer.span("cloud.join"):
                sum(range(2000))
        trace = tracer.trace()
        assert "profile" in trace.first("cloud.join").attributes
        assert "profile" not in trace.first("query").attributes

    def test_for_query_scope_inherits_profiler(self):
        obs = Observability(profile=True)
        scope = obs.for_query()
        with scope.tracer.span("query"):
            sum(range(2000))
        span = scope.tracer.trace().first("query")
        assert "profile" in span.attributes


class TestTraceStitching:
    """Trace.merge / Tracer.absorb: cross-id-space grafting.

    Every tracer counts span ids from 1, so fork children and remote
    processes produce ids that collide with the local tracer's.  The
    stitching primitives must remap every foreign id to a fresh local
    one, rewrite internal parent links through the mapping, and re-root
    foreign roots under the local parent span.
    """

    def _foreign_trace(self, label):
        tracer = Tracer(query_id="q-remote")
        with tracer.span(f"{label}.root") as root:
            root.set(ctx_parent=99)
            with tracer.span(f"{label}.child"):
                pass
        return tracer.take_trace()

    def test_merge_remaps_colliding_ids(self):
        local = Tracer()
        with local.span("local.root"):
            pass
        trace = local.take_trace()
        foreign = self._foreign_trace("remote")
        # both tracers allocated ids starting at 1: guaranteed overlap
        assert {s.span_id for s in trace} & {s.span_id for s in foreign}
        merged = trace.merge(
            foreign, parent_id=trace.first("local.root").span_id
        )
        ids = [span.span_id for span in merged]
        assert len(ids) == len(set(ids)) == 3

    def test_merge_preserves_parent_links_and_depths(self):
        local = Tracer()
        with local.span("local.root"):
            pass
        trace = local.take_trace()
        root_id = trace.first("local.root").span_id
        trace.merge(self._foreign_trace("remote"), parent_id=root_id)
        remote_root = trace.first("remote.root")
        remote_child = trace.first("remote.child")
        assert remote_root.parent_id == root_id
        assert remote_child.parent_id == remote_root.span_id
        assert remote_root.depth == trace.first("local.root").depth + 1
        assert remote_child.depth == remote_root.depth + 1

    def test_merge_does_not_mutate_the_input(self):
        foreign = self._foreign_trace("remote")
        before = [(s.span_id, s.parent_id) for s in foreign]
        Trace().merge(foreign, parent_id=None)
        assert [(s.span_id, s.parent_id) for s in foreign] == before

    def test_fork_children_with_colliding_ids_absorb_uniquely(self):
        """Regression: two fork children both count span ids from 1;
        absorbing both into the coordinator must never produce
        duplicate ids or cross-wired parent links."""
        coordinator = Tracer()
        with coordinator.span("cloud.star_matching") as parent:
            for shard in range(2):
                child = Tracer(query_id="q-1")
                with child.span("shard.match") as span:
                    span.set(shard=shard)
                    with child.span("shard.inner"):
                        pass
                # round-trip through the wire encoding, as the real
                # fork pool does
                coordinator.absorb(
                    Trace.from_dict(child.take_trace().to_dict()),
                    parent=parent,
                )
        trace = coordinator.trace()
        ids = [span.span_id for span in trace]
        assert len(ids) == len(set(ids))
        roots = trace.named("shard.match")
        inners = trace.named("shard.inner")
        assert len(roots) == 2 and len(inners) == 2
        assert all(s.parent_id == parent.span_id for s in roots)
        assert all(s.depth == parent.depth + 1 for s in roots)
        # each inner chains to its own shard's root — not the other's
        assert {s.parent_id for s in inners} == {s.span_id for s in roots}

    def test_absorbed_ids_never_collide_with_later_local_spans(self):
        local = Tracer()
        with local.span("local.root") as root:
            local.absorb(self._foreign_trace("remote"), parent=root)
            with local.span("local.later"):
                pass
        ids = [span.span_id for span in local.trace()]
        assert len(ids) == len(set(ids))

    def test_absorb_is_noop_on_measure_only_tracer(self):
        tracer = Tracer(record=False)
        assert tracer.absorb(self._foreign_trace("remote")) == []
        assert len(tracer.trace()) == 0

    def test_snapshot_of_open_span_has_live_duration(self):
        tracer = Tracer()
        with tracer.span("gateway.request") as root:
            time.sleep(0.002)
            snap = tracer.snapshot(root)
            assert snap.duration > 0.0
            assert snap.span_id == root.span_id
            assert root.duration == 0.0  # the original is still open


class TestObservabilityFacade:
    def test_for_query_shares_registry_not_tracer(self):
        obs = Observability()
        scope = obs.for_query()
        assert scope.metrics is obs.metrics
        assert scope.tracer is not obs.tracer
        assert scope.recording

    def test_disabled_is_shared_noop(self):
        disabled = Observability.disabled()
        assert disabled is Observability.disabled()
        assert disabled.for_query() is disabled
        assert not disabled.enabled
        assert disabled.tracer.span("x") is NULL_SPAN
        # null registry hands out null metrics that accept everything
        disabled.metrics.counter("c").inc(5)
        assert disabled.metrics.counter("c").total == 0.0

    def test_measuring_times_without_retaining(self):
        obs = Observability.measuring()
        with obs.tracer.span("phase") as span:
            pass
        assert span.duration >= 0.0
        assert len(obs.tracer.trace()) == 0
