"""Sliding-window SLO views: quantiles, rates, registry integration.

The quantile property tests pin the window's inclusive method to the
stdlib's ``statistics.quantiles(..., method="inclusive")`` cut points,
and the fork test proves per-child windows shipped back from a
forked batch merge into exactly the window a shared-memory run
would have produced.
"""

import pickle
import random
import statistics

import pytest

from repro.cloud.parallel import fork_available, map_batch
from repro.obs import MetricsRegistry, SlidingWindow, quantile_inclusive
from repro.obs import names, prometheus_text
from repro.obs.exporters import PROM_LINE_RE


class TestQuantileInclusive:
    def test_empty_is_zero(self):
        assert quantile_inclusive([], 0.5) == 0.0

    def test_single_value(self):
        assert quantile_inclusive([3.5], 0.0) == 3.5
        assert quantile_inclusive([3.5], 0.99) == 3.5

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            quantile_inclusive([1.0], 1.5)

    def test_median_of_even_set_interpolates(self):
        assert quantile_inclusive([1.0, 2.0, 3.0, 4.0], 0.5) == 2.5

    def test_extremes_are_min_and_max(self):
        data = [5.0, 1.0, 9.0, 3.0]
        assert quantile_inclusive(data, 0.0) == 1.0
        assert quantile_inclusive(data, 1.0) == 9.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("size", [2, 5, 17, 100, 257])
    def test_matches_statistics_inclusive_cut_points(self, seed, size):
        # statistics.quantiles(n=N, method="inclusive") returns the
        # cut points at q = i/N for i in 1..N-1 — exactly what
        # quantile_inclusive must reproduce at every of those q.
        rng = random.Random(seed * 1000 + size)
        data = [rng.expovariate(20.0) for _ in range(size)]
        n = 20
        expected = statistics.quantiles(data, n=n, method="inclusive")
        for i, cut in enumerate(expected, start=1):
            assert quantile_inclusive(data, i / n) == pytest.approx(cut)

    def test_unsorted_input_is_sorted_internally(self):
        data = [9.0, 1.0, 5.0]
        assert quantile_inclusive(data, 0.5) == 5.0
        assert data == [9.0, 1.0, 5.0]  # input untouched


class TestSlidingWindow:
    def test_capacity_evicts_oldest(self):
        window = SlidingWindow(capacity=3)
        for value in (1.0, 2.0, 3.0, 4.0):
            window.observe(value)
        assert window.values() == [2.0, 3.0, 4.0]
        assert len(window) == 3
        assert window.total_observations == 4

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindow(capacity=0)
        with pytest.raises(ValueError):
            SlidingWindow(window_seconds=-1.0)

    def test_time_bound_prunes_expired(self):
        clock = {"now": 100.0}
        window = SlidingWindow(
            capacity=16, window_seconds=10.0, clock=lambda: clock["now"]
        )
        window.observe(1.0)  # at t=100
        clock["now"] = 105.0
        window.observe(2.0)  # at t=105
        clock["now"] = 112.0  # t=100 entry now older than 10s
        assert window.values() == [2.0]
        assert window.count() == 1
        # rate over the fixed time window: 1 observation / 10 s
        assert window.rate() == pytest.approx(0.1)

    def test_rate_without_time_bound_uses_observed_spread(self):
        clock = {"now": 0.0}
        window = SlidingWindow(capacity=16, clock=lambda: clock["now"])
        assert window.rate() == 0.0  # fewer than 2 observations
        window.observe(1.0)
        clock["now"] = 2.0
        window.observe(1.0)
        assert window.rate() == pytest.approx(2 / 2.0)

    def test_snapshot_views_agree(self):
        window = SlidingWindow(capacity=64)
        values = [float(v) for v in range(1, 11)]
        for value in values:
            window.observe(value)
        snap = window.snapshot()
        assert snap["count"] == 10.0
        assert snap["mean"] == pytest.approx(statistics.mean(values))
        assert snap["p50"] == pytest.approx(statistics.median(values))
        assert snap["p95"] == window.p95()
        assert snap["p99"] == window.p99()

    def test_register_exposes_pull_gauges(self):
        registry = MetricsRegistry()
        window = SlidingWindow(capacity=8)
        window.register(registry, names.W_QUERY_WINDOW, help="query seconds")
        for value in (0.1, 0.2, 0.3):
            window.observe(value)
        snapshot = {name: value for name, value, _ in registry.callbacks()}
        assert snapshot["query_seconds_window_p50"] == pytest.approx(0.2)
        assert snapshot["query_seconds_window_count"] == 3.0
        text = prometheus_text(registry)
        assert "repro_query_seconds_window_p95" in text
        for line in text.strip().splitlines():
            assert PROM_LINE_RE.match(line), f"unparseable line: {line!r}"

    def test_pickle_round_trip_drops_and_recreates_lock(self):
        window = SlidingWindow(capacity=4, window_seconds=60.0)
        window.observe(1.0, now=0.0)
        window.observe(2.0, now=1.0)
        clone = pickle.loads(pickle.dumps(window))
        assert clone.capacity == 4
        assert clone.window_seconds == 60.0
        assert clone.values(now=1.0) == [1.0, 2.0]
        clone.observe(3.0, now=2.0)  # the recreated lock works
        assert clone.total_observations == 3


class TestMerge:
    def test_merge_equals_shared_window(self):
        shared = SlidingWindow(capacity=128)
        left = SlidingWindow(capacity=128)
        right = SlidingWindow(capacity=128)
        rng = random.Random(7)
        for i in range(50):
            ts, value = float(i), rng.random()
            shared.observe(value, now=ts)
            (left if i % 2 == 0 else right).observe(value, now=ts)
        left.merge(right)
        assert left.values() == shared.values()
        assert left.total_observations == shared.total_observations

    def test_merge_keeps_newest_up_to_capacity(self):
        left = SlidingWindow(capacity=3)
        right = SlidingWindow(capacity=3)
        for i in range(3):
            left.observe(float(i), now=float(i))  # t=0,1,2
        for i in range(3, 6):
            right.observe(float(i), now=float(i))  # t=3,4,5
        left.merge(right)
        assert left.values() == [3.0, 4.0, 5.0]
        assert left.total_observations == 6

    @pytest.mark.skipif(not fork_available(), reason="needs fork")
    def test_fork_process_children_merge_correctly(self):
        # a forked batch pickles per-child windows back to the
        # parent; their merge must equal one window fed all values.
        rng = random.Random(42)
        chunks = [
            [(float(10 * c + i), rng.random()) for i in range(10)]
            for c in range(4)
        ]

        def child(chunk):
            window = SlidingWindow(capacity=256)
            for ts, value in chunk:
                window.observe(value, now=ts)
            return window

        children = map_batch(child, chunks, workers=4)
        merged = SlidingWindow(capacity=256)
        for window in children:
            merged.merge(window)

        reference = SlidingWindow(capacity=256)
        for chunk in chunks:
            for ts, value in chunk:
                reference.observe(value, now=ts)
        assert merged.values() == reference.values()
        assert merged.total_observations == reference.total_observations
        assert merged.p95() == pytest.approx(reference.p95())
