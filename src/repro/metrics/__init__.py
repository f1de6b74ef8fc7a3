"""Metrics, reports, energy accounting and statistics helpers."""

from .collector import MetricsCollector, SummaryMetrics
from .comparison import PolicyComparison
from .energy import EnergyBreakdown, energy_breakdown
from .event_log import EventLog, EventRecord
from .queueing import (
    md1_mean_wait,
    mg1_mean_wait,
    mm1_mean_wait,
    utilization,
)
from .reports import Report, ReportBundle
from .rollup import global_energy, global_summary, routing_table
from .stats import SummaryStats, jain_fairness, summarize

__all__ = [
    "global_summary",
    "global_energy",
    "routing_table",
    "MetricsCollector",
    "SummaryMetrics",
    "Report",
    "ReportBundle",
    "EnergyBreakdown",
    "energy_breakdown",
    "SummaryStats",
    "summarize",
    "jain_fairness",
    "PolicyComparison",
    "EventLog",
    "EventRecord",
    "utilization",
    "mg1_mean_wait",
    "md1_mean_wait",
    "mm1_mean_wait",
]
