"""ASCII bar charts — the figure renderer of this reproduction.

The paper's evaluation figures are grouped bar charts (completion % per
policy per intensity, the §5 survey's scores per metric). PyQt/matplotlib are not
available offline, so figures render as deterministic ASCII: horizontal bars
grouped by category, with the numeric value printed at the bar end. Every
chart also exports its series as CSV/dicts so EXPERIMENTS.md numbers come
from the same object that draws them.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

from ..core.errors import ConfigurationError

__all__ = ["BarChart", "GroupedBarChart"]

_FULL = "#"


@dataclass
class BarChart:
    """A flat horizontal bar chart: one labelled value per bar."""

    title: str
    labels: list[str] = field(default_factory=list)
    values: list[float] = field(default_factory=list)
    max_value: float | None = None
    width: int = 40
    unit: str = ""

    def add(self, label: str, value: float) -> "BarChart":
        self.labels.append(label)
        self.values.append(float(value))
        return self

    def _scale(self) -> float:
        top = self.max_value
        if top is None:
            top = max(self.values, default=1.0)
        if top <= 0:
            top = 1.0
        return top

    def to_text(self) -> str:
        if len(self.labels) != len(self.values):
            raise ConfigurationError("labels and values must align")
        top = self._scale()
        label_w = max((len(l) for l in self.labels), default=0)
        lines = [self.title, "-" * max(len(self.title), 8)]
        for label, value in zip(self.labels, self.values):
            filled = int(round(min(value / top, 1.0) * self.width))
            bar = _FULL * filled + " " * (self.width - filled)
            lines.append(
                f"{label.ljust(label_w)} |{bar}| {value:.4g}{self.unit}"
            )
        return "\n".join(lines)

    def to_dicts(self) -> list[dict]:
        return [
            {"label": l, "value": v} for l, v in zip(self.labels, self.values)
        ]

    def to_csv(self, target: str | Path | TextIO | None = None) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["label", "value"])
        for label, value in zip(self.labels, self.values):
            writer.writerow([label, f"{value:.9g}"])
        text = buffer.getvalue()
        _maybe_write(text, target)
        return text


@dataclass
class GroupedBarChart:
    """Grouped horizontal bars: value per (group, series) pair.

    Matches the layout of Figures 5–7 (groups = intensity levels, series =
    scheduling policies) and Figure 8 (groups = metrics, series = genders).
    """

    title: str
    groups: list[str] = field(default_factory=list)
    series: list[str] = field(default_factory=list)
    _data: dict[tuple[str, str], float] = field(default_factory=dict)
    max_value: float | None = None
    width: int = 40
    unit: str = ""

    def set(self, group: str, series: str, value: float) -> "GroupedBarChart":
        if group not in self.groups:
            self.groups.append(group)
        if series not in self.series:
            self.series.append(series)
        self._data[(group, series)] = float(value)
        return self

    def get(self, group: str, series: str) -> float:
        try:
            return self._data[(group, series)]
        except KeyError:
            raise ConfigurationError(
                f"no value for group={group!r}, series={series!r}"
            ) from None

    def _scale(self) -> float:
        top = self.max_value
        if top is None:
            top = max(self._data.values(), default=1.0)
        if top <= 0:
            top = 1.0
        return top

    def to_text(self) -> str:
        top = self._scale()
        series_w = max((len(s) for s in self.series), default=0)
        lines = [self.title, "=" * max(len(self.title), 8)]
        for group in self.groups:
            lines.append(f"[{group}]")
            for series in self.series:
                value = self._data.get((group, series))
                if value is None:
                    continue
                filled = int(round(min(value / top, 1.0) * self.width))
                bar = _FULL * filled + " " * (self.width - filled)
                lines.append(
                    f"  {series.ljust(series_w)} |{bar}| {value:.4g}{self.unit}"
                )
        return "\n".join(lines)

    def to_dicts(self) -> list[dict]:
        return [
            {"group": g, "series": s, "value": self._data[(g, s)]}
            for g in self.groups
            for s in self.series
            if (g, s) in self._data
        ]

    def to_csv(self, target: str | Path | TextIO | None = None) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["group", "series", "value"])
        for row in self.to_dicts():
            writer.writerow(
                [row["group"], row["series"], f"{row['value']:.9g}"]
            )
        text = buffer.getvalue()
        _maybe_write(text, target)
        return text


def _maybe_write(text: str, target: str | Path | TextIO | None) -> None:
    if target is None:
        return
    if isinstance(target, (str, Path)):
        Path(target).write_text(text, encoding="utf-8")
    else:
        target.write(text)
