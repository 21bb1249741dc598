"""Tests for the tracing primitives: NullTracer, SpanTracer, PhaseProfiler."""

from repro.obs import NULL_TRACER, NullTracer, PhaseProfiler, SpanTracer


class FakeClock:
    """Deterministic monotonic clock; advance() controls elapsed time."""

    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False

    def test_span_is_shared_and_stateless(self):
        # One shared no-op context manager: no allocation per span.
        a = NULL_TRACER.span("solve", target="b1")
        b = NULL_TRACER.span("encode")
        assert a is b
        with a:
            pass  # usable as a context manager

    def test_sample_is_a_noop(self):
        tracer = NullTracer()
        tracer.sample("tree_nodes", 0.1, 3.0)
        # No attributes grew: NullTracer carries no per-instance state.
        assert not hasattr(tracer, "__dict__")

    def test_exceptions_propagate(self):
        try:
            with NULL_TRACER.span("boom"):
                raise ValueError("x")
        except ValueError:
            pass
        else:
            raise AssertionError("span must not swallow exceptions")


class TestSpanTracer:
    def test_records_spans_with_durations(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("solve", target="b1"):
            clock.advance(0.5)
        with tracer.span("solve", target="b2"):
            clock.advance(0.25)
        assert [s.name for s in tracer.spans] == ["solve", "solve"]
        assert tracer.spans[0].seconds == 0.5
        assert tracer.spans[0].tags == {"target": "b1"}

    def test_phase_totals_aggregates(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        for dt in (0.5, 0.25):
            with tracer.span("solve"):
                clock.advance(dt)
        with tracer.span("encode"):
            clock.advance(1.0)
        totals = tracer.phase_totals()
        assert totals["solve"] == {"count": 2, "seconds": 0.75}
        assert totals["encode"] == {"count": 1, "seconds": 1.0}

    def test_target_totals_slowest_first(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("solve", target="fast"):
            clock.advance(0.1)
        with tracer.span("solve", target="slow"):
            clock.advance(2.0)
        with tracer.span("scan"):  # untagged: excluded
            clock.advance(5.0)
        targets = tracer.target_totals()
        assert [t["target"] for t in targets] == ["slow", "fast"]
        assert targets[0] == {"target": "slow", "calls": 1, "seconds": 2.0}

    def test_series(self):
        tracer = SpanTracer(clock=FakeClock())
        tracer.sample("tree_nodes", 0.1, 1.0)
        tracer.sample("tree_nodes", 0.2, 3.0)
        assert tracer.series["tree_nodes"] == [(0.1, 1.0), (0.2, 3.0)]
        # Counting is not a tracer concern (see repro.metrics).
        assert not hasattr(tracer, "count")

    def test_summary_shape(self):
        clock = FakeClock()
        tracer = SpanTracer(clock=clock)
        with tracer.span("solve", target="b"):
            clock.advance(0.5)
        tracer.sample("tree_nodes", 0.1, 1.0)
        summary = tracer.summary()
        assert set(summary) == {"phase_totals", "targets", "series"}
        assert summary["series"]["tree_nodes"] == [[0.1, 1.0]]


class TestPhaseProfiler:
    def test_aggregates_without_keeping_spans(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        for dt in (0.5, 0.25, 0.25):
            with profiler.span("solve", target="b1"):
                clock.advance(dt)
        totals = profiler.phase_totals()
        assert totals["solve"] == {"count": 3, "seconds": 1.0}
        assert profiler.target_totals() == [
            {"target": "b1", "calls": 3, "seconds": 1.0}
        ]
        # No raw spans kept by default: memory stays bounded.
        assert profiler.samples == []

    def test_sample_every_keeps_every_nth_span(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock, sample_every=2)
        for i in range(5):
            with profiler.span(f"phase{i}"):
                clock.advance(0.1)
        assert [s.name for s in profiler.samples] == ["phase1", "phase3"]

    def test_series_decimation_bounds_memory(self):
        profiler = PhaseProfiler(clock=FakeClock(), max_series_points=8)
        for i in range(40):
            profiler.sample("tree_nodes", float(i), float(i))
        points = profiler.series["tree_nodes"]
        assert len(points) <= 9  # halved whenever the cap is exceeded
        # First and last samples survive decimation.
        assert points[0] == (0.0, 0.0)
        assert points[-1] == (39.0, 39.0)
        # Order is preserved.
        assert [t for t, _ in points] == sorted(t for t, _ in points)

    def test_max_series_points_floor(self):
        profiler = PhaseProfiler(clock=FakeClock(), max_series_points=1)
        assert profiler.max_series_points == 8

    def test_summary_matches_span_tracer_shape(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        with profiler.span("encode"):
            clock.advance(0.5)
        summary = profiler.summary()
        assert set(summary) == {"phase_totals", "targets", "series"}
        assert summary["phase_totals"]["encode"]["count"] == 1
