"""Tests for the terminal visualization helpers."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.viz import comparison_table, scatter_plot, sparkline, time_series_plot


class TestSparkline:
    def test_shape(self):
        s = sparkline([0, 1, 0, -1, 0], width=5)
        assert len(s) == 5
        assert s[1] == "█"  # the max
        assert s[3] == "▁"  # the min

    def test_resampling_caps_width(self):
        s = sparkline(np.sin(np.linspace(0, 10, 1000)), width=40)
        assert len(s) == 40

    def test_constant_series(self):
        assert sparkline([5, 5, 5], width=3) == "▁▁▁"

    def test_empty(self):
        assert sparkline([]) == ""

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    @settings(max_examples=30, deadline=None)
    def test_always_within_glyph_set(self, values):
        s = sparkline(values, width=50)
        assert 0 < len(s) <= 50
        assert all(c in "▁▂▃▄▅▆▇█" for c in s)


class TestTimeSeriesPlot:
    def test_contains_extremes_and_axis(self):
        t = np.linspace(0, 10, 100)
        out = time_series_plot(t, np.sin(t), title="response",
                               y_label="m")
        assert "response" in out
        assert "•" in out
        assert "t=0" in out
        assert "[m]" in out

    def test_empty(self):
        assert "(no data)" in time_series_plot([], [], title="x")

    def test_height_respected(self):
        out = time_series_plot([0, 1], [0, 1], height=8, title="")
        data_lines = [line for line in out.splitlines() if "|" in line]
        assert len(data_lines) == 8


class TestScatterPlot:
    def test_hysteresis_shape(self):
        t = np.linspace(0, 4 * np.pi, 300)
        d = np.sin(t)
        f = np.sin(t - 0.5)  # a loop
        out = scatter_plot(d, f, title="hysteresis", x_label="d [m]",
                           y_label="F [N]")
        assert "hysteresis" in out and "·" in out
        assert "x: d [m]" in out

    def test_empty(self):
        assert "(no data)" in scatter_plot([], [])


class TestComparisonTable:
    def test_rows_and_floats(self):
        out = comparison_table(
            [{"run": "dry", "steps": 1499, "wall": 4.63},
             {"run": "public", "steps": 1492, "wall": 4.62}],
            columns=["run", "steps", "wall"], title="MOST")
        assert "MOST" in out
        assert "dry" in out and "1499" in out and "4.63" in out

    def test_empty_rows(self):
        out = comparison_table([], columns=["a", "b"])
        assert "a" in out and "b" in out

    def test_missing_cells_blank(self):
        out = comparison_table([{"a": 1}], columns=["a", "b"])
        assert "1" in out
