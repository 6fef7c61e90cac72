"""Unit tests for the telemetry metrics registry and span recorders."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import MetricsRegistry, SpanRecorder
from repro.telemetry.instrument import FRACTION_BUCKETS
from repro.telemetry.metrics import DEFAULT_BUCKETS


class TestCounter:
    def test_inc_and_value(self):
        registry = MetricsRegistry()
        counter = registry.counter("kvm.exits", core=0, reason="mmio")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        # same labels -> same series object
        assert registry.counter("kvm.exits", reason="mmio", core=0) is counter

    def test_negative_increment_rejected(self):
        counter = MetricsRegistry().counter("c")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        registry.counter("kvm.exits", core=0).inc(3)
        registry.counter("kvm.exits", core=1).inc(7)
        assert registry.total("kvm.exits") == 10
        assert registry.total("kvm.exits", core=1) == 7


class TestGauge:
    def test_tracks_extremes_and_updates(self):
        gauge = MetricsRegistry().gauge("kernel.runnable_depth")
        for value in (3, 1, 8, 2):
            gauge.set(value)
        assert gauge.value == 2
        assert gauge.min == 1
        assert gauge.max == 8
        assert gauge.updates == 4


class TestHistogram:
    def test_default_buckets_are_1_2_5_decades(self):
        assert DEFAULT_BUCKETS[:6] == (1, 2, 5, 10, 20, 50)

    def test_observe_statistics(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in (3, 7, 90):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == 100
        assert histogram.min == 3 and histogram.max == 90
        assert histogram.mean == pytest.approx(100 / 3)

    def test_quantile_is_bucket_upper_bound(self):
        histogram = MetricsRegistry().histogram("latency")
        for value in range(1, 11):
            histogram.observe(value)
        assert histogram.quantile(0.5) <= histogram.quantile(0.99)
        assert histogram.quantile(1.0) >= 10

    def test_custom_buckets(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("fraction", buckets=(0.5, 1.0))
        histogram.observe(0.3)
        histogram.observe(0.9)
        histogram.observe(7.0)          # overflows the last bound
        assert histogram.count == 3


class TestRegistry:
    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_series_of_is_sorted_and_snapshot_deterministic(self):
        def build():
            registry = MetricsRegistry()
            registry.counter("b", core=1).inc()
            registry.counter("b", core=0).inc(2)
            registry.gauge("a").set(5)
            registry.histogram("c").observe(1)
            return registry

        first, second = build(), build()
        assert [i.labels for i in first.series_of("b")] == [
            {"core": 0}, {"core": 1}]
        assert first.snapshot() == second.snapshot()
        assert first.names() == ["a", "b", "c"]

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("kvm.exits", core=0, reason="mmio").inc(3)
        snapshot = registry.snapshot()
        assert snapshot["num_series"] == 1
        (metric,) = snapshot["metrics"]
        assert metric["name"] == "kvm.exits"
        assert metric["type"] == "counter"
        assert metric["series"][0]["labels"] == {"core": 0, "reason": "mmio"}
        assert metric["series"][0]["value"] == 3


class TestSpanRecorder:
    def test_begin_end_pairs(self):
        recorder = SpanRecorder(unit="ns")
        recorder.begin("core0", "quantum", 100)
        recorder.end("core0", 400)
        (span,) = recorder.spans
        assert span.begin == 100 and span.duration == 300 and span.end == 400

    def test_nesting_is_a_stack_per_track(self):
        recorder = SpanRecorder(unit="ns")
        recorder.begin("t", "outer", 0)
        recorder.begin("t", "inner", 10)
        recorder.end("t", 20)
        recorder.end("t", 50)
        names = {span.name: span for span in recorder.spans}
        assert names["inner"].duration == 10
        assert names["outer"].duration == 50
        assert recorder.open_count() == 0

    def test_unmatched_end_raises(self):
        recorder = SpanRecorder(unit="ns")
        with pytest.raises(ValueError):
            recorder.end("t", 10)

    def test_backwards_end_raises(self):
        recorder = SpanRecorder(unit="ns")
        recorder.begin("t", "s", 100)
        with pytest.raises(ValueError):
            recorder.end("t", 50)

    def test_complete_and_tracks(self):
        recorder = SpanRecorder(unit="ps")
        recorder.complete("core1", "wfi", 10, 5, core=1)
        recorder.complete("core0", "wfi", 0, 3)
        assert recorder.tracks() == ["core0", "core1"]
        assert recorder.spans[0].args == {"core": 1}


class TestMetricsEdgeCases:
    """Boundary and consistency behaviour the obs layer leans on."""

    def test_bucket_bounds_are_inclusive_upper_bounds(self):
        # observe() uses ``value <= bound``: a value sitting exactly on a
        # 1-2-5 boundary belongs to that bucket, not the next one up.
        histogram = MetricsRegistry().histogram("latency")
        for boundary in (1, 2, 5, 10, 20, 50):
            histogram.observe(boundary)
        occupied = histogram.to_json()["buckets"]
        assert occupied == {repr(b): 1 for b in (1, 2, 5, 10, 20, 50)}
        # Just past a boundary spills into the next decade step.
        histogram.observe(2.0001)
        assert histogram.to_json()["buckets"][repr(5)] == 2

    def test_values_beyond_last_bound_land_in_overflow(self):
        histogram = MetricsRegistry().histogram("latency")
        top = DEFAULT_BUCKETS[-1]
        histogram.observe(top)            # inclusive: last finite bucket
        histogram.observe(top * 1.001)    # past the end: +inf bucket
        buckets = histogram.to_json()["buckets"]
        assert buckets[repr(top)] == 1
        assert buckets["+inf"] == 1
        assert sum(buckets.values()) == histogram.count == 2

    def test_label_cardinality_growth_stays_deterministic(self):
        registry = MetricsRegistry()
        # Insert series in scrambled order and with scrambled kwarg order;
        # the registry must expose one series per distinct label set, in
        # sorted order, independent of insertion history.
        for core in (3, 1, 4, 1, 5, 9, 2, 6):
            registry.counter("kvm.exits", reason="mmio", core=core).inc()
        for core in (2, 7, 1):
            registry.counter("kvm.exits", core=core, reason="irq").inc()
        assert len(registry) == 7 + 3
        labels = [series.labels for series in registry.series_of("kvm.exits")]
        assert labels == sorted(labels, key=lambda l: (l["core"], l["reason"]))
        assert registry.total("kvm.exits", core=1) == 3
        assert registry.total("kvm.exits") == 8 + 3

    def test_snapshot_is_decoupled_from_later_updates(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        histogram = registry.histogram("latency")
        counter.inc(2)
        histogram.observe(3)
        before = registry.snapshot()
        import copy
        frozen = copy.deepcopy(before)
        counter.inc(40)
        histogram.observe(7)
        registry.gauge("new.series").set(1)
        # The snapshot taken earlier does not observe the new activity...
        assert before == frozen
        # ...while a fresh one does.
        after = registry.snapshot()
        assert after["num_series"] == 3
        by_name = {m["name"]: m for m in after["metrics"]}
        assert by_name["events"]["series"][0]["value"] == 42


def _linear_bucket(bounds, value):
    """Reference bucket index: the first inclusive upper bound, else +inf."""
    for index, bound in enumerate(bounds):
        if value <= bound:
            return index
    return len(bounds)


def _bucket_values(bounds):
    """On-bound values, their float neighbours, negatives, infinities, NaN."""
    edges = st.sampled_from(bounds).flatmap(lambda bound: st.sampled_from(
        (bound, math.nextafter(bound, -math.inf),
         math.nextafter(bound, math.inf), -bound)))
    return st.one_of(edges, st.floats(allow_nan=True, allow_infinity=True),
                     st.integers(-10 ** 12, 10 ** 12),
                     st.sampled_from((0, 0.0, -0.0, math.inf, -math.inf,
                                      math.nan)))


class TestHistogramBuckets:
    """``observe`` places every value where a linear scan of the bounds does."""

    @pytest.mark.parametrize("bounds", [DEFAULT_BUCKETS, FRACTION_BUCKETS],
                             ids=["default", "fraction"])
    @given(data=st.data())
    def test_observe_matches_linear_scan(self, bounds, data):
        values = data.draw(st.lists(_bucket_values(bounds), max_size=40))
        histogram = MetricsRegistry().histogram("h", buckets=bounds)
        expected = [0] * (len(bounds) + 1)
        for value in values:
            histogram.observe(value)
            expected[_linear_bucket(bounds, value)] += 1
        assert histogram.bucket_counts == expected
        assert histogram.count == len(values)

    def test_nan_lands_in_overflow(self):
        histogram = MetricsRegistry().histogram("h")
        histogram.observe(math.nan)
        assert histogram.bucket_counts[-1] == 1
        assert histogram.to_json()["buckets"] == {"+inf": 1}
