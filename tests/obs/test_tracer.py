"""Tests for the tracing primitives: NullTracer and PhaseProfiler."""

from repro.obs import NULL_TRACER, NullTracer, PhaseProfiler


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

    def test_phase_totals_aggregates(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        for dt in (0.5, 0.25):
            with profiler.span("solve"):
                clock.advance(dt)
        with profiler.span("encode"):
            clock.advance(1.0)
        totals = profiler.phase_totals()
        assert totals["solve"] == {"count": 2, "seconds": 0.75}
        assert totals["encode"] == {"count": 1, "seconds": 1.0}

    def test_target_totals_slowest_first(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        with profiler.span("solve", target="fast"):
            clock.advance(0.1)
        with profiler.span("solve", target="slow"):
            clock.advance(2.0)
        with profiler.span("scan"):  # untagged: excluded
            clock.advance(5.0)
        targets = profiler.target_totals()
        assert [t["target"] for t in targets] == ["slow", "fast"]
        assert targets[0] == {"target": "slow", "calls": 1, "seconds": 2.0}

    def test_series(self):
        profiler = PhaseProfiler(clock=FakeClock())
        profiler.sample("tree_nodes", 0.1, 1.0)
        profiler.sample("tree_nodes", 0.2, 3.0)
        assert profiler.series["tree_nodes"] == [(0.1, 1.0), (0.2, 3.0)]
        # Counting is not a tracer concern (see repro.metrics).
        assert not hasattr(profiler, "count")

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

    def test_summary_shape(self):
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        with profiler.span("solve", target="b"):
            clock.advance(0.5)
        profiler.sample("tree_nodes", 0.1, 1.0)
        summary = profiler.summary()
        assert set(summary) == {"phase_totals", "targets", "series"}
        assert summary["targets"][0]["target"] == "b"
        assert summary["series"]["tree_nodes"] == [[0.1, 1.0]]

    def test_summary_matches_span_tracer_shape(self):
        # Reports read the three-key summary the former full-span tracer
        # wrote; the profiler keeps that shape for untagged phases too.
        clock = FakeClock()
        profiler = PhaseProfiler(clock=clock)
        with profiler.span("encode"):
            clock.advance(0.5)
        summary = profiler.summary()
        assert set(summary) == {"phase_totals", "targets", "series"}
        assert summary["phase_totals"]["encode"]["count"] == 1
