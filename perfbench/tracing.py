"""Spans and counts around the public entry points of each E2C layer.

Nothing here edits the simulator. Every probe is a wrapper installed from
outside, in one of three ways:

* on a built engine and its collaborators (gateway, WAN manager, event
  queue, local schedulers, metrics collectors, rebalancer). The engines
  look these methods up on every call, so an instance attribute shadows
  the class method for that engine only;
* on a class, for entry points that are static or run before an engine
  exists (``Scenario.build_simulator``, ``Scenario.build_workload``,
  ``WanManager.on_link_event``/``on_cross_traffic``,
  ``CampaignResult.to_csv``);
* on a module global the campaign runner looks up per cell
  (``runner._execute_cell``, ``runner.result_extras``).

Class and module patches are undone when the :class:`Probe` context exits.

A span's *self time* is its duration minus the time covered by the spans
it encloses. Inside ``engine.run`` the layers below therefore partition
the run: their self times, the engine's residual included, sum to the
traced run time (:data:`RUN_LAYERS`).
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from collections import Counter, defaultdict
from typing import Any, Callable

from repro.core.config import Scenario
from repro.experiments import runner
from repro.experiments.runner import CampaignResult
from repro.net.wan import WanManager

__all__ = ["RUN_LAYERS", "Probe", "Spans"]

clock = time.perf_counter

#: Layers whose spans open only inside ``engine.run``; their self times sum
#: to the traced run time. ``engine`` is the residual: event loop, heap,
#: dispatch and the shard handlers' own bookkeeping.
RUN_LAYERS = ("engine", "gateway", "wan", "sched", "metrics", "rebalancer", "result")


class Spans:
    """Self time per layer, call counts and span durations of one call."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.durations: defaultdict[str, list[float]] = defaultdict(list)
        # Time covered by the children of each open span; the bottom entry
        # collects top-level spans and is never popped.
        self._child = [0.0]

    def span(
        self,
        layer: str,
        counter: str,
        fn: Callable[..., Any],
        observe: Callable[..., None] | None = None,
    ) -> Callable[..., Any]:
        """Wrap *fn*: count it under *counter*, time it under *layer*.

        ``observe`` sees the call's arguments before the call (used to
        read a scheduling pass's batch size).
        """
        stack = self._child
        self_s = self.self_s
        counts = self.counts
        durations = self.durations[counter]

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[counter] += 1
            if observe is not None:
                observe(*args, **kwargs)
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - stack.pop()
                stack[-1] += elapsed
                durations.append(elapsed)

        return wrapper

    def count(self, counter: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Wrap *fn* to count its calls without timing them."""
        counts = self.counts

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper


class Probe:
    """Time, and optionally trace, every engine a user call builds and runs.

    Untraced (``spans=None``) the probe adds two clock reads per engine
    build and per ``run()``: that is how the set-up/run split of a campaign
    is summed over its cells. Traced, it also installs the layer spans.
    With ``heap=True`` it runs the call under ``tracemalloc`` and keeps in
    ``peak`` the largest heap growth of one cell (the whole call for a
    single run). Each campaign cell starts from a collected heap there:
    otherwise the peak is mostly earlier cells' cyclic garbage, whose size
    depends on when the collector happened to run.
    Use it as a context manager around exactly one user call.
    """

    def __init__(self, spans: Spans | None = None, heap: bool = False) -> None:
        self.spans = spans
        self.heap = heap
        self.setup_s = 0.0
        self.run_s = 0.0
        self.tasks = 0
        self.peak = 0
        self._base = 0
        self._cell_start = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- patching ---------------------------------------------------------------------

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __enter__(self) -> "Probe":
        spans = self.spans
        build_simulator = Scenario.build_simulator
        execute_cell = runner._execute_cell
        if spans is not None:
            build_simulator = spans.span("engine.construct", "engine.builds", build_simulator)
            execute_cell = spans.span("campaign", "campaign.cells", execute_cell)
            self._patch(
                Scenario,
                "build_workload",
                spans.span("tasks", "tasks.builds", Scenario.build_workload),
            )
            for name in ("on_link_event", "on_cross_traffic"):
                self._patch(
                    WanManager,
                    name,
                    staticmethod(spans.span("wan", "wan.link_events", getattr(WanManager, name))),
                )
            self._patch(
                runner, "result_extras", spans.span("result.extras", "result.extras", runner.result_extras)
            )
            self._patch(
                CampaignResult,
                "to_csv",
                spans.span("campaign.table", "campaign.tables", CampaignResult.to_csv),
            )

        def timed_build(scenario: Scenario, *args: Any, **kwargs: Any) -> Any:
            engine = build_simulator(scenario, *args, **kwargs)
            self.setup_s += clock() - self._cell_start
            self._time_run(engine)
            if spans is not None:
                _trace_engine(engine, spans)
            return engine

        def cell(*args: Any, **kwargs: Any) -> Any:
            if self.heap:
                self._fold_peak()
                gc.collect()
                tracemalloc.reset_peak()
                self._base = tracemalloc.get_traced_memory()[0]
            self._cell_start = clock()
            return execute_cell(*args, **kwargs)

        self._patch(Scenario, "build_simulator", timed_build)
        self._patch(runner, "_execute_cell", cell)
        if self.heap:
            tracemalloc.start()
        self._cell_start = clock()
        return self

    def __exit__(self, *exc: object) -> None:
        if self.heap:
            self._fold_peak()
            tracemalloc.stop()
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    def _fold_peak(self) -> None:
        self.peak = max(self.peak, tracemalloc.get_traced_memory()[1] - self._base)

    # -- per-engine probes ------------------------------------------------------------

    def _time_run(self, engine: Any) -> None:
        run = engine.run
        spans = self.spans
        if spans is not None:
            run = spans.span("engine", "engine.runs", run)

        def timed_run(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = run(*args, **kwargs)
            self.run_s += clock() - start
            self.tasks += result.summary.total_tasks
            if spans is not None:
                _count_result(result, spans)
            return result

        engine.run = timed_run


def _trace_engine(engine: Any, spans: Spans) -> None:
    """Install the in-run layer spans on one freshly built engine."""
    events = engine.events
    # push_many only seeds the initial arrivals during construction, before
    # these probes exist; every in-run insertion goes through push.
    events.push = spans.count("heap.pushes", events.push)
    events.cancel = spans.count("heap.cancels", events.cancel)
    engine._build_result = spans.span("result", "result.builds", engine._build_result)

    shards = getattr(engine, "shards", None)
    if shards is None:  # the single-cluster Simulator
        shards = [engine]
    else:
        gateway = engine.gateway
        gateway.choose_cluster = spans.span("gateway", "gateway.calls", gateway.choose_cluster)
        wan = engine.wan
        wan.submit = spans.span("wan", "wan.submits", wan.submit)
        wan.cancel = spans.span("wan", "wan.cancels", wan.cancel)
        wan.on_delivered = spans.span("wan", "wan.deliveries", wan.on_delivered)
        wan.release = spans.span("wan", "wan.releases", wan.release)
        rebalancer = engine.rebalancer
        if rebalancer is not None:
            rebalancer.on_tick = spans.span("rebalancer", "rebalancer.ticks", rebalancer.on_tick)

    def observe_pass(ctx: Any) -> None:
        size = len(ctx.pending)
        spans.counts["sched.pass_tasks"] += size
        if size == 1:
            spans.counts["sched.singleton_passes"] += 1

    for shard in shards:
        scheduler = shard.scheduler
        scheduler.schedule = spans.span("sched", "sched.passes", scheduler.schedule, observe_pass)
        if hasattr(scheduler, "choose_machine"):
            scheduler.choose_machine = spans.span(
                "sched", "sched.choose_calls", scheduler.choose_machine
            )
        collector = shard.collector
        collector.record_terminal = spans.span(
            "metrics", "metrics.terminal_calls", collector.record_terminal
        )


def _count_result(result: Any, spans: Spans) -> None:
    """Read the run's own counters off its result (no timing involved)."""
    counts = spans.counts
    counts["engine.events"] += result.events_processed
    for usage in getattr(result, "wan_links", {}).values():
        counts["wan.delivered"] += usage.delivered
        counts["wan.abandoned"] += usage.abandoned
        counts["wan.wait_sim_s"] += usage.wait_time
    stats = getattr(result, "migration_stats", None)
    if stats is not None:
        counts["migration.attempted"] += stats.attempted
        counts["migration.delivered"] += stats.delivered
