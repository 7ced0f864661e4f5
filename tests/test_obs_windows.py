"""Sliding-window SLO views: quantiles, rates, registry integration.

The quantile property tests pin the window's inclusive method to the
stdlib's ``statistics.quantiles(..., method="inclusive")`` cut points.
"""

import random
import statistics
from types import SimpleNamespace

import pytest

from repro.obs import MetricsRegistry, SlidingWindow, quantile_inclusive
from repro.obs import windows
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

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            SlidingWindow(capacity=0)

    def test_rate_without_time_bound_uses_observed_spread(self, monkeypatch):
        clock = {"now": 0.0}
        monkeypatch.setattr(
            windows, "time", SimpleNamespace(monotonic=lambda: clock["now"])
        )
        window = SlidingWindow(capacity=16)
        assert window.rate() == 0.0  # fewer than 2 observations
        window.observe(1.0)
        clock["now"] = 2.0
        window.observe(1.0)
        assert window.rate() == pytest.approx(2 / 2.0)

    def test_quantile_matches_statistics_inclusive_cut_points(self):
        window = SlidingWindow(capacity=64)
        rng = random.Random(7)
        values = [rng.expovariate(20.0) for _ in range(10)]
        for value in values:
            window.observe(value)
        assert window.count() == 10
        assert window.quantile(0.5) == pytest.approx(statistics.median(values))
        cuts = statistics.quantiles(values, n=20, method="inclusive")
        for i, cut in enumerate(cuts, start=1):
            assert window.quantile(i / 20) == pytest.approx(cut)

    def test_register_exposes_pull_gauges(self):
        registry = MetricsRegistry()
        window = SlidingWindow(capacity=8)
        window.register(registry, names.W_GATEWAY_WINDOW, help="request seconds")
        for value in (0.1, 0.2, 0.3):
            window.observe(value)
        snapshot = {name: value for name, value, _ in registry.callbacks()}
        assert snapshot["gateway_seconds_window_p50"] == pytest.approx(0.2)
        assert snapshot["gateway_seconds_window_count"] == 3.0
        text = prometheus_text(registry)
        assert "repro_gateway_seconds_window_p95" in text
        for line in text.strip().splitlines():
            assert PROM_LINE_RE.match(line), f"unparseable line: {line!r}"
