"""Unit tests for the durable job queue (repro.fleet.queue)."""

from __future__ import annotations

import json
import re

import pytest

from repro.fleet import DurableJobQueue, JobState, LeaseLostError
from repro.obs import SimulatedClock, TraceRecorder


@pytest.fixture
def clock() -> SimulatedClock:
    return SimulatedClock()


@pytest.fixture
def queue(tmp_path, clock) -> DurableJobQueue:
    return DurableJobQueue(
        tmp_path / "queue", lease_seconds=10.0, backoff_base=1.0, clock=clock
    )


class TestSubmit:
    def test_submit_creates_durable_file(self, queue):
        job = queue.submit("refresh_check", "newsdb")
        assert job.state == JobState.PENDING
        path = queue.jobs_dir / f"{job.job_id}.json"
        assert path.is_file()
        data = json.loads(path.read_text())
        assert data["schema"] == "repro-fleet-queue/1"
        assert data["database"] == "newsdb"
        assert "priority" not in data

    def test_submit_is_idempotent_while_open(self, queue):
        first = queue.submit("refresh_check", "newsdb", payload={"seed": 1})
        second = queue.submit("refresh_check", "newsdb", payload={"seed": 9})
        assert second.job_id == first.job_id
        assert second.payload == {"seed": 1}  # the open job is returned unchanged
        assert queue.counts()[JobState.PENDING] == 1

    def test_done_job_can_be_resubmitted(self, queue):
        job = queue.submit("refresh_check", "newsdb")
        claimed = queue.claim("w1")
        queue.complete(claimed.job_id, claimed.lease.token)
        again = queue.submit("refresh_check", "newsdb")
        assert again.job_id == job.job_id
        assert again.state == JobState.PENDING

    def test_awkward_database_names_are_safe(self, queue):
        job = queue.submit("refresh_check", "db with spaces/and=slashes")
        assert (queue.jobs_dir / f"{job.job_id}.json").is_file()
        assert queue.get(job.job_id).database == "db with spaces/and=slashes"

    def test_validation(self, queue):
        with pytest.raises(ValueError):
            queue.submit("refresh_check", "x", max_attempts=0)
        with pytest.raises(ValueError):
            DurableJobQueue("/tmp/x", lease_seconds=0)


class TestClaim:
    def test_claims_in_job_id_order(self, queue):
        for name in ["mid", "high", "low"]:
            queue.submit("refresh_check", name)
        order = [queue.claim("w1").database for _ in range(3)]
        assert order == ["high", "low", "mid"]

    def test_a_priority_key_from_an_older_file_is_ignored(self, tmp_path, clock):
        older = DurableJobQueue(tmp_path / "q", clock=clock)
        for name in ["a", "b"]:
            older.submit("refresh_check", name)
        for name, priority in [("a", 0.0), ("b", 5.0)]:
            path = older.jobs_dir / f"refresh_check--{name}.json"
            path.write_text(json.dumps(dict(json.loads(path.read_text()), priority=priority)))
        reopened = DurableJobQueue(tmp_path / "q", clock=clock)
        assert [reopened.claim("w1").database for _ in range(2)] == ["a", "b"]
        rewritten = json.loads((reopened.jobs_dir / "refresh_check--b.json").read_text())
        assert rewritten["state"] == JobState.LEASED and "priority" not in rewritten

    def test_empty_queue_returns_none(self, queue):
        assert queue.claim("w1") is None

    def test_claim_stamps_a_lease(self, queue, clock):
        queue.submit("refresh_check", "newsdb")
        job = queue.claim("w1")
        assert job.state == JobState.LEASED
        assert job.attempts == 1
        assert job.lease.worker == "w1"
        assert job.lease.expires == clock.now + 10.0

    def test_leased_job_not_reclaimable_before_expiry(self, queue, clock):
        queue.submit("refresh_check", "newsdb")
        queue.claim("w1")
        clock.sleep(5.0)
        assert queue.claim("w2") is None

    def test_expired_lease_is_reclaimed(self, queue, clock):
        recorder = TraceRecorder()
        queue.recorder = recorder
        queue.submit("refresh_check", "newsdb")
        first = queue.claim("w1")
        clock.sleep(10.0)  # lease ages out: w1 presumably died
        second = queue.claim("w2")
        assert second is not None
        assert second.job_id == first.job_id
        assert second.lease.worker == "w2"
        assert second.attempts == 2
        assert recorder.metrics.counter("fleet.leases_expired").value == 1


class TestExactlyOnce:
    def test_complete_requires_the_lease_token(self, queue):
        queue.submit("refresh_check", "newsdb")
        job = queue.claim("w1")
        with pytest.raises(LeaseLostError):
            queue.complete(job.job_id, "forged-token")
        assert queue.complete(job.job_id, job.lease.token, {"refreshed": True})
        assert queue.get(job.job_id).result == {"refreshed": True}

    def test_dead_workers_completion_is_discarded(self, queue, clock):
        """The lease expired, someone else finished: the result must not
        double-apply."""
        queue.submit("refresh_check", "newsdb")
        first = queue.claim("w1")
        clock.sleep(10.0)
        second = queue.claim("w2")
        assert queue.complete(second.job_id, second.lease.token)
        # w1 wakes up late and tries to complete with its stale token.
        assert queue.complete(first.job_id, first.lease.token) is False
        assert queue.get(first.job_id).state == JobState.DONE

    def test_stale_token_fail_raises(self, queue, clock):
        queue.submit("refresh_check", "newsdb")
        first = queue.claim("w1")
        clock.sleep(10.0)
        queue.claim("w2")
        with pytest.raises(LeaseLostError):
            queue.fail(first.job_id, first.lease.token, "late failure")


class TestRetry:
    def test_failed_attempt_backs_off_exponentially(self, queue, clock):
        queue.submit("refresh_check", "newsdb", max_attempts=3)
        job = queue.claim("w1")
        failed = queue.fail(job.job_id, job.lease.token, "transient")
        assert failed.state == JobState.PENDING
        assert failed.not_before == clock.now + 1.0  # base * mult**0
        assert queue.claim("w1") is None  # gate not open yet
        clock.sleep(1.0)
        second = queue.claim("w1")
        assert second.attempts == 2
        failed = queue.fail(second.job_id, second.lease.token, "transient")
        assert failed.not_before == clock.now + 2.0  # base * mult**1

    def test_attempts_exhausted_parks_as_failed(self, queue, clock):
        queue.submit("refresh_check", "newsdb", max_attempts=2)
        for _ in range(2):
            clock.sleep(100.0)
            job = queue.claim("w1")
            outcome = queue.fail(job.job_id, job.lease.token, "still broken")
        assert outcome.state == JobState.FAILED
        assert outcome.error == "still broken"
        clock.sleep(100.0)
        assert queue.claim("w1") is None  # failed jobs are not claimable
        assert queue.drained()


class TestDurability:
    def test_queue_state_survives_reopen(self, tmp_path, clock):
        first = DurableJobQueue(tmp_path / "q", clock=clock, lease_seconds=10.0)
        first.submit("refresh_check", "a")
        first.submit("refresh_check", "b")
        claimed = first.claim("w1")
        assert claimed.database == "a"

        # A fresh object over the same directory (a restarted process)
        # sees the same jobs: a still leased, b still pending.
        reopened = DurableJobQueue(tmp_path / "q", clock=clock, lease_seconds=10.0)
        counts = reopened.counts()
        assert counts[JobState.LEASED] == 1
        assert counts[JobState.PENDING] == 1
        assert reopened.claim("w2").database == "b"

    def test_crashed_workers_lease_expires_across_reopen(self, tmp_path, clock):
        first = DurableJobQueue(tmp_path / "q", clock=clock, lease_seconds=10.0)
        first.submit("refresh_check", "a")
        first.claim("dead-worker")
        clock.sleep(11.0)
        survivor = DurableJobQueue(tmp_path / "q", clock=clock, lease_seconds=10.0)
        job = survivor.claim("live-worker")
        assert job is not None
        assert job.lease.worker == "live-worker"
        assert survivor.complete(job.job_id, job.lease.token)
        assert survivor.drained()


class TestNextClaimAt:
    def test_a_pending_jobs_backoff_gate(self, queue, clock):
        queue.submit("refresh_check", "newsdb")
        assert queue.next_claim_at() == 0.0  # claimable now
        job = queue.claim("w1")
        queue.fail(job.job_id, job.lease.token, "transient")
        assert queue.next_claim_at() == clock.now + 1.0

    def test_a_live_lease_expiry(self, queue, clock):
        queue.submit("refresh_check", "a")
        queue.claim("w1")
        clock.sleep(3.0)
        queue.submit("refresh_check", "b")
        job = queue.claim("w2")
        queue.fail(job.job_id, job.lease.token, "transient")  # b's gate opens at 4
        assert queue.next_claim_at() == 4.0
        clock.sleep(2.0)
        queue.claim("w3")  # b again, leased until 15; a's lease expires at 10
        assert queue.next_claim_at() == 10.0

    def test_a_drained_queue_has_none(self, queue):
        assert queue.next_claim_at() is None and queue.drained()
        queue.submit("refresh_check", "newsdb", max_attempts=1)
        job = queue.claim("w1")
        queue.fail(job.job_id, job.lease.token, "broken")
        assert queue.drained()
        assert queue.next_claim_at() is None


class TestNonFiniteTimes:
    """A NaN or infinite time would wedge a lease or a gate for good."""

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_the_queue_refuses_them(self, tmp_path, value):
        with pytest.raises(ValueError, match="lease_seconds must be finite and positive"):
            DurableJobQueue(tmp_path / "q", lease_seconds=value)
        with pytest.raises(ValueError, match="backoff_base must be finite"):
            DurableJobQueue(tmp_path / "q", backoff_base=value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda data: dict(data, not_before=float("nan")), "a time is not finite"),
            (lambda data: dict(data, not_before=float("inf")), "a time is not finite"),
            (lambda data: dict(data, lease=dict(data["lease"], expires=float("nan"))),
             "a time is not finite"),
            (lambda data: {k: v for k, v in data.items() if k != "lease"},
             "leased without a lease"),
        ],
    )
    def test_a_job_file_holding_one_is_malformed(self, queue, edit, message):
        queue.submit("refresh_check", "newsdb")
        job = queue.claim("w1")
        path = queue.jobs_dir / f"{job.job_id}.json"
        path.write_text(json.dumps(edit(json.loads(path.read_text()))))
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed job file: {message}")):
            queue.next_claim_at()

    def test_a_torn_job_file_is_named(self, queue):
        queue.submit("refresh_check", "newsdb")
        path = queue.jobs_dir / "refresh_check--newsdb.json"
        path.write_text("{ torn")
        with pytest.raises(json.JSONDecodeError, match="^" + re.escape(f"{path}: Expecting")):
            queue.counts()
