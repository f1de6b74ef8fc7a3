"""ASCII bar charts: rendering, data export."""

import pytest

from repro.core.errors import ConfigurationError
from repro.viz.barchart import BarChart, GroupedBarChart


class TestBarChart:
    def test_add_and_render(self):
        chart = BarChart("scores", width=10, max_value=10.0)
        chart.add("a", 5.0).add("b", 10.0)
        text = chart.to_text()
        assert "scores" in text
        assert "a" in text and "b" in text
        # b's bar is full width, a's is half
        a_line = next(l for l in text.splitlines() if l.startswith("a"))
        b_line = next(l for l in text.splitlines() if l.startswith("b"))
        assert a_line.count("#") == 5
        assert b_line.count("#") == 10

    def test_values_printed(self):
        chart = BarChart("x", unit="%")
        chart.add("a", 42.5)
        assert "42.5%" in chart.to_text()

    def test_auto_scale(self):
        chart = BarChart("x", width=10)
        chart.add("a", 50.0)
        line = chart.to_text().splitlines()[-1]
        assert line.count("#") == 10  # max value fills the width

    def test_values_above_max_clamped(self):
        chart = BarChart("x", width=10, max_value=10.0)
        chart.add("a", 25.0)
        assert chart.to_text().splitlines()[-1].count("#") == 10

    def test_mismatched_lengths_rejected(self):
        chart = BarChart("x", labels=["a"], values=[])
        with pytest.raises(ConfigurationError):
            chart.to_text()

    def test_to_dicts(self):
        chart = BarChart("x")
        chart.add("a", 1.0)
        assert chart.to_dicts() == [{"label": "a", "value": 1.0}]

    def test_to_csv(self):
        chart = BarChart("x")
        chart.add("a", 1.5)
        assert chart.to_csv() == "label,value\na,1.5\n"

    def test_csv_to_file(self, tmp_path):
        chart = BarChart("x")
        chart.add("a", 1.0)
        path = tmp_path / "chart.csv"
        chart.to_csv(path)
        assert path.read_text(encoding="utf-8").startswith("label,value")

    def test_empty_chart_renders(self):
        assert "empty" in BarChart("empty").to_text()


class TestGroupedBarChart:
    def _chart(self):
        chart = GroupedBarChart("fig", max_value=100.0, unit="%")
        for group in ("low", "high"):
            for series, value in (("FCFS", 90.0), ("MECT", 95.0)):
                chart.set(group, series, value - (50 if group == "high" else 0))
        return chart

    def test_groups_and_series_registered_in_order(self):
        chart = self._chart()
        assert chart.groups == ["low", "high"]
        assert chart.series == ["FCFS", "MECT"]

    def test_get(self):
        chart = self._chart()
        assert chart.get("low", "MECT") == 95.0
        assert chart.get("high", "FCFS") == 40.0

    def test_get_missing_rejected(self):
        chart = self._chart()
        with pytest.raises(ConfigurationError):
            chart.get("low", "NOPE")

    def test_render_sections(self):
        text = self._chart().to_text()
        assert "[low]" in text and "[high]" in text
        assert text.index("[low]") < text.index("[high]")

    def test_to_dicts(self):
        rows = self._chart().to_dicts()
        assert {"group": "low", "series": "FCFS", "value": 90.0} in rows
        assert len(rows) == 4

    def test_to_csv_header(self):
        assert self._chart().to_csv().splitlines()[0] == "group,series,value"

    def test_series_values(self):
        chart = self._chart()
        assert [chart.get(g, "FCFS") for g in chart.groups] == [90.0, 40.0]

    def test_set_overwrites(self):
        chart = self._chart()
        chart.set("low", "FCFS", 10.0)
        assert chart.get("low", "FCFS") == 10.0
        assert chart.groups == ["low", "high"]  # no duplicate group
