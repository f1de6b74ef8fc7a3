"""Job queue: single-flight caching, determinism, and crash containment.

The acceptance bar of the service PR lives here:

* N concurrent submitters of the same spec → exactly one engine execution,
  and every submitter gets the same job (cache single-flight).
* A served-from-cache result is byte-identical to a fresh run's.
* A worker killed mid-run (SIGKILL) is retried up to the bound, then the
  job lands in FAILED with the crash captured — and no job is ever left
  RUNNING with no worker on it.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.core.errors import ServiceError, UnknownJobError
from repro.scenarios import build_scenario
from repro.service import CampaignService, JobQueue, JobState, ResultCache

SMALL_SCENARIO = {
    "preset": "classroom_homogeneous",
    "overrides": {"duration": 60.0},
}
SMALL_CAMPAIGN = {
    "scenarios": [
        {"name": "classroom_homogeneous", "overrides": {"duration": 40.0}}
    ],
    "schedulers": ["FCFS", "MECT"],
    "seeds": [1, 2],
}


def _toy_executor(request, progress=None):
    """Injectable executor: hangs on demand, fails on demand, else returns."""
    if request.get("hang"):
        time.sleep(300)
    if request.get("boom"):
        raise ValueError("poison spec")
    if progress is not None:
        progress(1, 1)
    return {"ok": True, "payload": request.get("payload", 0), "n_runs": 1}


def _wait_for(predicate, timeout=30.0, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestSingleFlight:
    def test_concurrent_identical_submissions_run_once(self, tmp_path):
        """≥8 racing submitters of one spec cost exactly one execution."""
        n_submitters = 8
        receipts = [None] * n_submitters
        barrier = threading.Barrier(n_submitters)
        with CampaignService(tmp_path, workers=4) as service:

            def submitter(i):
                barrier.wait()
                receipts[i] = service.submit(dict(SMALL_SCENARIO))

            threads = [
                threading.Thread(target=submitter, args=(i,))
                for i in range(n_submitters)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            job_ids = {r.job_id for r in receipts}
            keys = {r.key for r in receipts}
            assert len(job_ids) == 1
            assert len(keys) == 1
            job = service.wait(job_ids.pop(), timeout=60)
            assert job.state is JobState.DONE
            assert service.queue.executions == 1
            assert service.queue.coalesced + service.queue.cache_hits == (
                n_submitters - 1
            )

    def test_mixed_keys_execute_once_each(self, tmp_path):
        """Racing submitters over a spec mix: one execution per unique key."""
        specs = [
            {"preset": "classroom_homogeneous",
             "overrides": {"duration": 40.0, "seed": seed}}
            for seed in (1, 2, 3)
        ]
        with CampaignService(tmp_path, workers=4) as service:
            receipts = []
            lock = threading.Lock()
            barrier = threading.Barrier(8)

            def submitter(i):
                barrier.wait()
                r = service.submit(dict(specs[i % len(specs)]))
                with lock:
                    receipts.append(r)

            threads = [
                threading.Thread(target=submitter, args=(i,))
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            for receipt in receipts:
                service.wait(receipt.job_id, timeout=60)
            assert len({r.key for r in receipts}) == 3
            assert service.queue.executions == 3


class TestCacheBitIdentity:
    def test_cached_result_is_byte_identical_to_fresh_run(self, tmp_path):
        """Cache bytes from two independent services are identical."""
        with CampaignService(tmp_path / "a", workers=1) as first:
            receipt_a = first.submit(dict(SMALL_SCENARIO))
            first.wait(receipt_a.job_id, timeout=60)
            bytes_a = first.cache.path(receipt_a.key).read_bytes()
        with CampaignService(tmp_path / "b", workers=1) as second:
            receipt_b = second.submit(dict(SMALL_SCENARIO))
            second.wait(receipt_b.job_id, timeout=60)
            bytes_b = second.cache.path(receipt_b.key).read_bytes()
        assert receipt_a.key == receipt_b.key
        assert bytes_a == bytes_b

    def test_cache_hit_serves_without_resimulating(self, tmp_path):
        with CampaignService(tmp_path, workers=1) as service:
            first = service.submit(dict(SMALL_SCENARIO))
            service.wait(first.job_id, timeout=60)
            executions = service.queue.executions
            again = service.submit(dict(SMALL_SCENARIO))
            assert again.cached
            assert again.job_id == first.job_id
            assert service.queue.executions == executions
            assert service.result(first.job_id) == service.result(again.job_id)

    def test_cache_survives_service_restart(self, tmp_path):
        with CampaignService(tmp_path, workers=1) as service:
            receipt = service.submit(dict(SMALL_SCENARIO))
            payload = dict(
                service.wait(receipt.job_id, timeout=60).result or
                service.result(receipt.job_id)
            )
        with CampaignService(tmp_path, workers=1) as reborn:
            again = reborn.submit(dict(SMALL_SCENARIO))
            assert again.cached
            assert reborn.queue.executions == 0
            assert reborn.result(again.job_id) == payload

    def test_cached_summary_matches_direct_run_exactly(self, tmp_path):
        """Reconstructed SummaryMetrics equals a fresh in-process run's."""
        direct = build_scenario(
            "classroom_homogeneous", duration=60.0
        ).run().summary
        with CampaignService(tmp_path, workers=1) as service:
            receipt = service.submit(dict(SMALL_SCENARIO))
            service.wait(receipt.job_id, timeout=60)
            assert service.summary(receipt.job_id) == direct
            # and again, through the cache-hit path
            again = service.submit(dict(SMALL_SCENARIO))
            assert service.summary(again.job_id) == direct


class TestProgressAndJournal:
    def test_campaign_progress_counters_and_journal(self, tmp_path):
        with CampaignService(tmp_path, workers=1) as service:
            receipt = service.submit(dict(SMALL_CAMPAIGN))
            job = service.wait(receipt.job_id, timeout=120)
            assert job.state is JobState.DONE
            assert job.runs_total == 4
            assert job.runs_done == 4
        journal = tmp_path / "state" / "journal.jsonl"
        events = [
            json.loads(line)
            for line in journal.read_text(encoding="utf-8").splitlines()
        ]
        mine = [e for e in events if e["job"] == receipt.job_id]
        assert [e for e in mine if e["event"] == "submitted"]
        assert [e for e in mine if e["event"] == "done"]
        progress = [e["runs_done"] for e in mine if e["event"] == "progress"]
        # Incremental streaming: runs-completed counters are journalled as
        # they happen, monotonically, up to the full grid.
        assert progress == sorted(progress)
        assert progress[-1] == 4

    def test_snapshots_written_per_job(self, tmp_path):
        with CampaignService(tmp_path, workers=1) as service:
            receipt = service.submit(dict(SMALL_SCENARIO))
            service.wait(receipt.job_id, timeout=60)
        snapshot = tmp_path / "state" / "jobs" / f"{receipt.job_id}.json"
        body = json.loads(snapshot.read_text(encoding="utf-8"))
        assert body["state"] == "done"
        assert body["key"] == receipt.key


class TestFaultInjection:
    def test_sigkilled_worker_retries_then_fails(self, tmp_path):
        """SIGKILL the worker each attempt: bounded retries, then FAILED."""
        queue = JobQueue(
            cache=ResultCache(tmp_path / "cache"),
            workers=1,
            max_attempts=3,
            retry_delay=0.01,
            executor=_toy_executor,
            state_dir=tmp_path / "state",
        )
        try:
            job = queue.submit({"hang": True})
            kills = 0
            seen_pids = set()

            def kill_when_running():
                nonlocal kills
                record = queue.get(job.id)
                if record.state is JobState.FAILED:
                    return True
                if (
                    record.state is JobState.RUNNING
                    and record.worker_pid
                    and record.worker_pid not in seen_pids
                ):
                    seen_pids.add(record.worker_pid)
                    try:
                        os.kill(record.worker_pid, signal.SIGKILL)
                        kills += 1
                    except ProcessLookupError:
                        pass
                return False

            assert _wait_for(kill_when_running, timeout=60)
            record = queue.get(job.id)
            assert record.state is JobState.FAILED
            assert record.attempts == 3
            assert kills == 3
            assert "worker crashed" in (record.error or "")
            # the bound is recorded in the captured error
            assert "3/3" in record.error
            # no orphaned RUNNING jobs anywhere
            assert not [
                j for j in queue.jobs() if j.state is JobState.RUNNING
            ]
            # and the replacement worker is healthy: new work still runs
            ok = queue.submit({"payload": 42})
            assert queue.wait(ok.id, timeout=30).state is JobState.DONE
            assert queue.result(ok.id)["payload"] == 42
        finally:
            queue.close()

    def test_one_crash_then_success_retries_transparently(self, tmp_path):
        """A single crash retries with backoff and still completes."""
        queue = JobQueue(
            cache=ResultCache(tmp_path / "cache"),
            workers=1,
            max_attempts=3,
            retry_delay=0.01,
            executor=_toy_executor,
        )
        try:
            job = queue.submit({"hang": True, "payload": 7})
            assert _wait_for(
                lambda: queue.get(job.id).state is JobState.RUNNING
                and queue.get(job.id).worker_pid,
                timeout=30,
            )
            # The worker already holds a pickled copy of the hanging request;
            # flip the live request *before* the kill so the retry (which
            # re-pickles at dispatch) terminates. This models a transient
            # fault: same job, crash once, succeed on the second attempt.
            record = queue.get(job.id)
            record.request["hang"] = False
            os.kill(record.worker_pid, signal.SIGKILL)
            final = queue.wait(job.id, timeout=60)
            assert final.state is JobState.DONE
            assert final.attempts == 2
            assert queue.result(job.id)["payload"] == 7
        finally:
            queue.close()

    def test_executor_exception_fails_immediately_with_error(self, tmp_path):
        queue = JobQueue(
            workers=1, max_attempts=3, retry_delay=0.01,
            executor=_toy_executor,
        )
        try:
            job = queue.submit({"boom": True})
            record = queue.wait(job.id, timeout=30)
            assert record.state is JobState.FAILED
            # deterministic failures are not retried
            assert record.attempts == 1
            assert "poison spec" in record.error
            with pytest.raises(ServiceError, match="no result"):
                queue.result(job.id)
        finally:
            queue.close()


class TestLifecycle:
    def test_cancel_pending_job(self, tmp_path):
        queue = JobQueue(workers=1, executor=_toy_executor)
        try:
            blocker = queue.submit({"hang": True})
            _wait_for(
                lambda: queue.get(blocker.id).state is JobState.RUNNING,
                timeout=30,
            )
            pending = queue.submit({"payload": 1})
            assert queue.cancel(pending.id)
            assert queue.get(pending.id).state is JobState.CANCELLED
            assert not queue.cancel(pending.id)
        finally:
            queue.close()

    def test_cancel_running_job_replaces_worker(self, tmp_path):
        queue = JobQueue(workers=1, executor=_toy_executor)
        try:
            job = queue.submit({"hang": True})
            assert _wait_for(
                lambda: queue.get(job.id).state is JobState.RUNNING,
                timeout=30,
            )
            assert queue.cancel(job.id)
            assert queue.get(job.id).state is JobState.CANCELLED
            # replacement worker takes new jobs
            ok = queue.submit({"payload": 5})
            assert queue.wait(ok.id, timeout=30).state is JobState.DONE
        finally:
            queue.close()

    def test_close_cancels_live_jobs(self):
        queue = JobQueue(workers=1, executor=_toy_executor)
        running = queue.submit({"hang": True})
        _wait_for(lambda: queue.get(running.id).state is JobState.RUNNING,
                  timeout=30)
        queued = queue.submit({"hang": True, "payload": 2})
        queue.close()
        assert queue.get(running.id).state is JobState.CANCELLED
        assert queue.get(queued.id).state is JobState.CANCELLED
        with pytest.raises(ServiceError, match="closed"):
            queue.submit({"payload": 3})

    def test_unknown_job_id(self):
        queue = JobQueue(workers=1, executor=_toy_executor)
        try:
            with pytest.raises(UnknownJobError):
                queue.get("job-999999")
            with pytest.raises(UnknownJobError):
                queue.cancel("job-999999")
        finally:
            queue.close()

    def test_recovery_requeues_interrupted_jobs(self, tmp_path):
        """PENDING/RUNNING snapshots from a dead service restart as PENDING."""
        state_dir = tmp_path / "state"
        queue = JobQueue(
            workers=1, executor=_toy_executor, state_dir=state_dir,
            cache=ResultCache(tmp_path / "cache"),
        )
        hanging = queue.submit({"hang": True, "payload": 9})
        _wait_for(lambda: queue.get(hanging.id).state is JobState.RUNNING,
                  timeout=30)
        # Simulate a hard service death: snapshot says RUNNING, nobody runs it.
        queue._stop.set()
        queue._dispatcher.join(timeout=10)
        for slot in queue._slots:
            slot.process.kill()
            slot.process.join(timeout=5)
        snapshot_path = state_dir / "jobs" / f"{hanging.id}.json"
        snapshot = json.loads(snapshot_path.read_text(encoding="utf-8"))
        assert snapshot["state"] == "running"
        # Recovery re-dispatches straight from the snapshot's request, so
        # defuse the hang there (before the reborn queue forks workers).
        snapshot["request"]["hang"] = False
        snapshot_path.write_text(json.dumps(snapshot), encoding="utf-8")

        reborn = JobQueue(
            workers=1, executor=_toy_executor, state_dir=state_dir,
            cache=ResultCache(tmp_path / "cache"),
        )
        try:
            final = reborn.wait(hanging.id, timeout=60)
            assert final.state is JobState.DONE
            assert reborn.result(hanging.id)["payload"] == 9
        finally:
            reborn.close()
