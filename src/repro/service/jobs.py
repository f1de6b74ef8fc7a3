"""Durable job queue: persistent simulation workers with explicit job states.

This extends the one-shot multiprocessing fan-out of
:class:`repro.experiments.runner.CampaignRunner` into a long-lived service
substrate. A :class:`JobQueue` owns a pool of persistent worker *processes*
(forked once, fed many jobs over per-worker inboxes) and a dispatcher
*thread* that assigns work, streams progress, and supervises worker health.

Job lifecycle::

    PENDING ──dispatch──> RUNNING ──> DONE
                             │└─────> FAILED     (executor raised, or the
                             │                    worker crashed max_attempts
                             │                    times)
                             └──────> CANCELLED  (cancel(); also any job
                                                  still running at close())

Three guarantees the tests pin:

* **Single-flight**: concurrent submissions with the same canonical key
  coalesce onto one job — at most one engine execution per key, with later
  submitters attached to the first job (or served straight from the result
  cache when the key has ever completed before).
* **Crash containment**: a worker killed mid-run (``SIGKILL``) is detected
  by the dispatcher, its job retried with exponential backoff up to
  ``max_attempts``, then marked ``FAILED`` with the crash captured; a fresh
  worker replaces the dead one. Executor *exceptions* (a bad spec, a
  simulator bug) fail immediately — they are deterministic, retrying cannot
  help. No code path leaves a job ``RUNNING`` with nobody working on it.
* **Durability**: with a ``state_dir``, every transition and every
  runs-completed progress tick is appended to ``journal.jsonl`` and each
  job keeps an atomic snapshot under ``jobs/``; a restarted queue recovers
  finished jobs (results re-served from the cache) and re-queues interrupted
  ones.
"""

from __future__ import annotations

import collections
import multiprocessing
import os
import queue as queue_module
import threading
import time
import traceback
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, Mapping

from ..core.errors import ServiceError, UnknownJobError
from .cache import ResultCache
from .hashing import canonical_hash

__all__ = ["JobState", "Job", "JobQueue", "execute_request"]

ProgressFn = Callable[[int, int], None]
Executor = Callable[[Mapping[str, Any], ProgressFn], dict[str, Any]]


class JobState(str, Enum):
    """Explicit lifecycle states of a queued simulation job."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def is_terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


def execute_request(
    request: Mapping[str, Any], progress: ProgressFn | None = None
) -> dict[str, Any]:
    """The default executor: run one normalised scenario/campaign request.

    *request* is the ``{"kind": ..., "spec": ...}`` document produced by
    :func:`repro.service.hashing.request_key`. Returns the (small, JSON-ready)
    result payload that the cache stores: the summary metrics plus federated
    extras for a scenario, the canonical tidy CSV plus the comparison report
    for a campaign.
    """
    kind = request.get("kind")
    spec = request.get("spec")
    if kind == "scenario":
        from ..core.config import Scenario
        from ..experiments import result_extras

        scenario = Scenario.from_dict(spec)
        if progress is not None:
            progress(0, 1)
        result = scenario.run()
        payload = {
            "kind": "scenario",
            "name": scenario.name,
            "scheduler": result.scheduler_name,
            "events_processed": result.events_processed,
            "summary": result.summary.as_dict(),
            "extras": result_extras(result),
        }
        if progress is not None:
            progress(1, 1)
        return payload
    if kind == "campaign":
        from ..experiments import CampaignSpec, execute_campaign

        campaign = CampaignSpec.from_dict(spec)
        result = execute_campaign(campaign, progress=progress)
        return {
            "kind": "campaign",
            "name": campaign.name,
            "n_runs": campaign.n_runs,
            "csv": result.to_csv(),
            "text": result.to_text(),
        }
    raise ServiceError(f"cannot execute request of unknown kind {kind!r}")


def _worker_main(
    inbox: multiprocessing.Queue,
    outbox: multiprocessing.Queue,
    executor: Executor,
) -> None:  # pragma: no cover - runs in child processes
    """Persistent worker loop: pull a job, run it, report, repeat."""
    while True:
        item = inbox.get()
        if item is None:
            return
        job_id, request = item

        def report(done: int, total: int, _job_id: str = job_id) -> None:
            outbox.put(("progress", _job_id, done, total))

        try:
            payload = executor(request, report)
        except BaseException:
            outbox.put(("failed", job_id, traceback.format_exc(limit=20)))
        else:
            outbox.put(("done", job_id, payload))


def _mp_context():
    """``fork`` where available — same contract as the campaign runner."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


@dataclass
class Job:
    """One submission's full lifecycle record."""

    id: str
    key: str
    request: dict[str, Any]
    max_attempts: int
    state: JobState = JobState.PENDING
    attempts: int = 0
    error: str | None = None
    runs_done: int = 0
    runs_total: int = 0
    from_cache: bool = False
    result: dict[str, Any] | None = None
    worker_pid: int | None = None
    created: float = field(default_factory=time.time)
    finished: float | None = None
    #: Earliest monotonic time a retried job may be re-dispatched (backoff).
    not_before: float = 0.0

    @property
    def kind(self) -> str:
        return str(self.request.get("kind", "unknown"))

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready status view (the snapshot / status-file body).

        The result payload itself is *not* embedded — it lives in the
        content-addressed cache under ``key``; status stays cheap to write
        on every transition.
        """
        return {
            "id": self.id,
            "key": self.key,
            "kind": self.kind,
            "state": self.state.value,
            "attempts": self.attempts,
            "max_attempts": self.max_attempts,
            "error": self.error,
            "runs_done": self.runs_done,
            "runs_total": self.runs_total,
            "from_cache": self.from_cache,
            "created": self.created,
            "finished": self.finished,
            "request": self.request,
        }


class _WorkerSlot:
    """One persistent worker process plus its private inbox."""

    def __init__(self, index: int, ctx, outbox, executor: Executor):
        self.index = index
        self.job_id: str | None = None
        self._ctx = ctx
        self._outbox = outbox
        self._executor = executor
        self.inbox = None
        self.process = None
        self.spawn()

    def spawn(self) -> None:
        """(Re)start the worker with a fresh inbox.

        The inbox is replaced rather than reused: a worker killed between
        ``inbox.get()`` stages could leave a stale item in the old pipe, and
        a successor must never double-execute a job the dispatcher already
        retried elsewhere.
        """
        if self.inbox is not None:
            self.inbox.cancel_join_thread()
        self.inbox = self._ctx.Queue()
        self.process = self._ctx.Process(
            target=_worker_main,
            args=(self.inbox, self._outbox, self._executor),
            daemon=True,
            name=f"e2c-service-worker-{self.index}",
        )
        self.process.start()

    @property
    def idle(self) -> bool:
        return self.job_id is None

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.is_alive()


class JobQueue:
    """Persistent-worker job queue with caching, retries, and a journal.

    Parameters
    ----------
    cache:
        Content-addressed result store (or a directory path for one); jobs
        whose key is already cached complete instantly, and every successful
        execution populates it. ``None`` disables caching.
    workers:
        Persistent worker processes (forked lazily on first submit).
    max_attempts:
        Executions allowed per job before a crashing job is ``FAILED``.
    retry_delay:
        Base backoff after a worker crash; attempt *n* waits
        ``retry_delay * 2**(n-1)`` seconds before re-dispatch.
    executor:
        The function workers run — ``executor(request, progress) ->
        payload``; defaults to :func:`execute_request`. Injectable so tests
        can submit hanging/poison jobs deterministically.
    state_dir:
        Durability root (``journal.jsonl`` + ``jobs/*.json`` snapshots);
        ``None`` keeps the queue in-memory only.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | str | Path | None = None,
        workers: int = 2,
        max_attempts: int = 3,
        retry_delay: float = 0.05,
        poll: float = 0.02,
        executor: Executor = execute_request,
        state_dir: str | Path | None = None,
    ):
        if workers < 1:
            raise ServiceError(f"need at least 1 worker, got {workers}")
        if max_attempts < 1:
            raise ServiceError(f"need at least 1 attempt, got {max_attempts}")
        if isinstance(cache, (str, Path)):
            cache = ResultCache(cache)
        self.cache = cache
        self.n_workers = workers
        self.max_attempts = max_attempts
        self.retry_delay = retry_delay
        self.poll = poll
        self.executor = executor
        self.state_dir = None if state_dir is None else Path(state_dir)

        self._jobs: dict[str, Job] = {}
        self._by_key: dict[str, str] = {}
        self._pending: collections.deque[str] = collections.deque()
        self._slots: list[_WorkerSlot] = []
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._stop = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self._ctx = _mp_context()
        self._outbox = None
        self._closed = False
        self._seq = 0
        #: Times a job was handed to a worker (one engine execution each).
        self.executions = 0
        #: Submissions served straight from the result cache.
        self.cache_hits = 0
        #: Submissions coalesced onto an already-live job with the same key.
        self.coalesced = 0

        if self.state_dir is not None:
            (self.state_dir / "jobs").mkdir(parents=True, exist_ok=True)
            self._recover()

    # -- submission / inspection ---------------------------------------------------

    def submit(
        self, request: Mapping[str, Any], *, key: str | None = None
    ) -> Job:
        """Enqueue one request; returns its (possibly pre-existing) job.

        *key* is the canonical content-address of the request (computed from
        the request document itself when omitted). Single-flight semantics:
        if a job with this key is already pending, running, or finished, that
        job is returned — a cohort of identical submissions costs one engine
        execution, ever.
        """
        request = dict(request)
        if key is None:
            key = canonical_hash(request)
        with self._cond:
            if self._closed:
                raise ServiceError("cannot submit to a closed JobQueue")
            existing_id = self._by_key.get(key)
            if existing_id is not None:
                existing = self._jobs[existing_id]
                if existing.state is JobState.DONE:
                    self.cache_hits += 1
                    return existing
                if not existing.state.is_terminal:
                    self.coalesced += 1
                    return existing
                # FAILED / CANCELLED: fall through and try again fresh.
            job = Job(
                id=self._next_id(),
                key=key,
                request=request,
                max_attempts=self.max_attempts,
            )
            self._jobs[job.id] = job
            self._by_key[key] = job.id
            self._journal(job, "submitted")
            cached = None if self.cache is None else self.cache.get(key)
            if cached is not None:
                self.cache_hits += 1
                job.from_cache = True
                job.result = cached
                job.runs_done = job.runs_total = int(
                    cached.get("n_runs", 1) or 1
                )
                self._transition(job, JobState.DONE)
                return job
            self._snapshot(job)
            self._pending.append(job.id)
            self._ensure_started()
            self._cond.notify_all()
            return job

    def get(self, job_id: str) -> Job:
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise UnknownJobError(f"unknown job id {job_id!r}") from None

    def jobs(self) -> list[Job]:
        with self._lock:
            return list(self._jobs.values())

    def result(self, job_id: str) -> dict[str, Any]:
        """The finished job's result payload (cache-backed after recovery)."""
        job = self.get(job_id)
        if job.state is not JobState.DONE:
            raise ServiceError(
                f"job {job_id} has no result (state: {job.state.value}"
                + (f", error: {job.error}" if job.error else "")
                + ")"
            )
        if job.result is None and self.cache is not None:
            job.result = self.cache.get(job.key)
        if job.result is None:
            raise ServiceError(
                f"job {job_id} finished but its result is no longer "
                "available (cache entry evicted?)"
            )
        return job.result

    def wait(self, job_id: str, timeout: float | None = None) -> Job:
        """Block until the job reaches a terminal state (or timeout)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while True:
                job = self._jobs.get(job_id)
                if job is None:
                    raise UnknownJobError(f"unknown job id {job_id!r}")
                if job.state.is_terminal:
                    return job
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ServiceError(
                        f"timed out waiting for job {job_id} "
                        f"(state: {job.state.value})"
                    )
                self._cond.wait(remaining if remaining is not None else 1.0)

    def cancel(self, job_id: str) -> bool:
        """Cancel a pending or running job; returns whether anything changed.

        A running job's worker is killed and replaced — the engine has no
        mid-run checkpoint to resume from, and a fresh worker is cheaper
        than a poisoned one.
        """
        with self._cond:
            job = self._jobs.get(job_id)
            if job is None:
                raise UnknownJobError(f"unknown job id {job_id!r}")
            if job.state is JobState.PENDING:
                try:
                    self._pending.remove(job_id)
                except ValueError:
                    pass
                self._transition(job, JobState.CANCELLED)
                return True
            if job.state is JobState.RUNNING:
                for slot in self._slots:
                    if slot.job_id == job_id:
                        slot.job_id = None
                        if slot.alive:
                            slot.process.kill()
                self._transition(job, JobState.CANCELLED)
                return True
            return False

    # -- lifecycle -----------------------------------------------------------------

    def close(self) -> None:
        """Stop the dispatcher and workers; cancel anything still live."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=10.0)
        with self._cond:
            while self._pending:
                job = self._jobs[self._pending.popleft()]
                self._transition(job, JobState.CANCELLED)
            for slot in self._slots:
                if slot.job_id is not None:
                    job = self._jobs[slot.job_id]
                    slot.job_id = None
                    if not job.state.is_terminal:
                        self._transition(job, JobState.CANCELLED)
                if slot.alive:
                    slot.process.terminate()
            for slot in self._slots:
                if slot.process is not None:
                    slot.process.join(timeout=2.0)
                    if slot.process.is_alive():  # pragma: no cover - stubborn
                        slot.process.kill()
                        slot.process.join(timeout=2.0)
                if slot.inbox is not None:
                    slot.inbox.cancel_join_thread()
            if self._outbox is not None:
                self._outbox.cancel_join_thread()
            self._cond.notify_all()

    def __enter__(self) -> "JobQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals -----------------------------------------------------------------

    def _next_id(self) -> str:
        self._seq += 1
        return f"job-{self._seq:06d}"

    def _ensure_started(self) -> None:
        """Fork the worker pool and start the dispatcher, once (lazily)."""
        if self._dispatcher is not None:
            return
        self._outbox = self._ctx.Queue()
        self._slots = [
            _WorkerSlot(i, self._ctx, self._outbox, self.executor)
            for i in range(self.n_workers)
        ]
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="e2c-service-dispatcher",
            daemon=True,
        )
        self._dispatcher.start()

    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            try:
                message = self._outbox.get(timeout=self.poll)
            except queue_module.Empty:
                message = None
            with self._cond:
                if message is not None:
                    self._handle_message(message)
                    while True:
                        try:
                            self._handle_message(self._outbox.get_nowait())
                        except queue_module.Empty:
                            break
                self._reap_dead_workers()
                self._assign_pending()

    def _handle_message(self, message: tuple) -> None:
        tag, job_id = message[0], message[1]
        job = self._jobs.get(job_id)
        if job is None:  # pragma: no cover - defensive
            return
        if tag == "progress":
            if job.state is JobState.RUNNING:
                job.runs_done, job.runs_total = int(message[2]), int(message[3])
                self._journal(job, "progress")
            return
        # done / failed: a worker finished with this job either way.
        for slot in self._slots:
            if slot.job_id == job_id:
                slot.job_id = None
        if job.state is not JobState.RUNNING:
            return  # cancelled (or already failed) while the result raced in
        if tag == "done":
            job.result = message[2]
            if job.runs_total:
                job.runs_done = job.runs_total
            if self.cache is not None:
                self.cache.put(job.key, job.result)
            self._transition(job, JobState.DONE)
        elif tag == "failed":
            job.error = str(message[2]).strip()
            self._transition(job, JobState.FAILED)

    def _reap_dead_workers(self) -> None:
        """Replace crashed workers; retry or fail the jobs they carried."""
        for slot in self._slots:
            if slot.alive:
                continue
            exitcode = None if slot.process is None else slot.process.exitcode
            job_id, slot.job_id = slot.job_id, None
            slot.spawn()
            if job_id is None:
                continue
            job = self._jobs.get(job_id)
            if job is None or job.state is not JobState.RUNNING:
                continue
            crash = (
                f"worker crashed (exit code {exitcode}) during attempt "
                f"{job.attempts}/{job.max_attempts}"
            )
            if job.attempts >= job.max_attempts:
                job.error = crash
                self._transition(job, JobState.FAILED)
            else:
                job.worker_pid = None
                job.not_before = time.monotonic() + self.retry_delay * (
                    2 ** (job.attempts - 1)
                )
                self._transition(job, JobState.PENDING, event="retry")
                self._pending.append(job.id)

    def _assign_pending(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if not self._pending:
                return
            if not (slot.idle and slot.alive):
                continue
            # Respect backoff: rotate held-back jobs instead of stalling the
            # queue behind them.
            for _ in range(len(self._pending)):
                job_id = self._pending.popleft()
                job = self._jobs[job_id]
                if job.not_before <= now:
                    break
                self._pending.append(job_id)
            else:
                return
            job.attempts += 1
            job.worker_pid = slot.process.pid
            self.executions += 1
            slot.job_id = job.id
            slot.inbox.put((job.id, job.request))
            self._transition(job, JobState.RUNNING)

    def _transition(
        self, job: Job, state: JobState, *, event: str | None = None
    ) -> None:
        job.state = state
        if state.is_terminal:
            job.finished = time.time()
        self._journal(job, event or state.value)
        self._snapshot(job)
        self._cond.notify_all()

    # -- durability ----------------------------------------------------------------

    def _journal(self, job: Job, event: str) -> None:
        if self.state_dir is None:
            return
        import json

        line = json.dumps(
            {
                "t": time.time(),
                "job": job.id,
                "key": job.key,
                "event": event,
                "state": job.state.value,
                "attempts": job.attempts,
                "runs_done": job.runs_done,
                "runs_total": job.runs_total,
                "error": job.error,
            },
            sort_keys=True,
        )
        with open(
            self.state_dir / "journal.jsonl", "a", encoding="utf-8"
        ) as handle:
            handle.write(line + "\n")

    def _snapshot(self, job: Job) -> None:
        if self.state_dir is None:
            return
        import json

        target = self.state_dir / "jobs" / f"{job.id}.json"
        tmp = target.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(job.as_dict(), indent=2), encoding="utf-8")
        os.replace(tmp, target)

    def _recover(self) -> None:
        """Reload snapshots: finished jobs re-serve, interrupted ones re-queue.

        A job that was ``RUNNING`` when the previous process died has no
        worker anymore — it restarts as ``PENDING`` with its attempt count
        preserved, so a crash loop cannot evade ``max_attempts`` by
        restarting the service.
        """
        assert self.state_dir is not None
        snapshots = sorted((self.state_dir / "jobs").glob("job-*.json"))
        with self._cond:
            self._recover_snapshots(snapshots)
        if self._pending:
            self._ensure_started()

    def _recover_snapshots(self, snapshots: list[Path]) -> None:
        import json

        for path in snapshots:
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                job = Job(
                    id=str(data["id"]),
                    key=str(data["key"]),
                    request=dict(data["request"]),
                    max_attempts=int(data.get("max_attempts", self.max_attempts)),
                    state=JobState(data["state"]),
                    attempts=int(data.get("attempts", 0)),
                    error=data.get("error"),
                    runs_done=int(data.get("runs_done", 0)),
                    runs_total=int(data.get("runs_total", 0)),
                    from_cache=bool(data.get("from_cache", False)),
                    created=float(data.get("created", 0.0)),
                    finished=data.get("finished"),
                )
            except (KeyError, ValueError, TypeError, json.JSONDecodeError):
                continue  # torn snapshot: the journal still has the history
            self._jobs[job.id] = job
            self._by_key.setdefault(job.key, job.id)
            self._seq = max(self._seq, int(job.id.split("-")[-1]))
            if job.state in (JobState.PENDING, JobState.RUNNING):
                job.worker_pid = None
                self._transition(job, JobState.PENDING, event="recovered")
                self._pending.append(job.id)
