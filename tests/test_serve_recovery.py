"""Crash safety of the exploration service.

Three layers, matching :mod:`repro.serve.persist`'s design:

* **Journal unit tests** — append/replay round-trips, torn-tail
  tolerance (both hand-truncated and injected via the fault harness),
  and boot-time compaction.
* **Engine recovery tests** — a second engine on the same
  ``state_dir`` must recover the exact cache *verbatim* (the
  byte-identity contract survives SIGKILL), re-enqueue interrupted
  jobs under their original ids, and keep fresh ids collision-free.
  Plus the drain-vs-running race: a shutdown issued mid-lineage must
  finish the job, publish its terminal event, and journal the ``end``
  record before returning.
* **Daemon E2E** — a real ``python -m repro serve --state-dir`` child
  is SIGKILL'd mid-job and rebooted; the cache must answer with the
  first life's bytes and the interrupted job must complete under the
  same id.
"""

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro import faults
from repro.serve import persist
from repro.serve.client import ServeClient
from repro.serve.engine import ServeEngine

FIG2 = {"space": {"kind": "figure2"}}
GENERATED = {
    "space": {
        "kind": "generated",
        "seed": 3,
        "n_variants": 2,
        "cluster_size": 2,
        "common_processes": 2,
    }
}
TERMINAL = ("done", "failed", "timeout")


@pytest.fixture(autouse=True)
def _clean_plan():
    faults.clear()
    yield
    faults.clear()


async def _wait_terminal(job, timeout=60.0):
    deadline = time.monotonic() + timeout
    while job.state not in TERMINAL:
        assert time.monotonic() < deadline, f"{job.job_id} stuck"
        await asyncio.sleep(0.01)
    return job


# ----------------------------------------------------------------------
# Journal unit tests
# ----------------------------------------------------------------------
class TestJournal:
    def test_replay_of_missing_file_is_empty(self, tmp_path):
        replayed = persist.replay(str(tmp_path / "nope.jsonl"))
        assert not replayed.cache_entries
        assert not replayed.pending
        assert not replayed.torn
        assert replayed.records == 0

    def test_roundtrip_and_end_clears_pending(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = persist.Journal(path)
        journal.submit("job-000004", {"space": {"kind": "figure2"}})
        journal.submit("job-000005", {"space": {"kind": "figure2"}})
        journal.cache("key-a", '{"selections": []}')
        journal.warm("fam", 12.5, {"u0": "hw"})
        journal.end("job-000004", "done")
        journal.close()
        replayed = persist.replay(path)
        assert list(replayed.pending) == ["job-000005"]
        assert replayed.cache_entries == {
            "key-a": '{"selections": []}'
        }
        assert replayed.warm_entries == {"fam": (12.5, {"u0": "hw"})}
        assert replayed.max_job_number == 5
        assert replayed.records == 5
        assert not replayed.torn

    def test_warm_keeps_the_cheapest(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = persist.Journal(path)
        journal.warm("fam", 20.0, {"u0": "hw"})
        journal.warm("fam", 10.0, {"u0": "sw:0"})
        journal.warm("fam", 15.0, {"u0": "hw"})
        journal.close()
        replayed = persist.replay(path)
        assert replayed.warm_entries["fam"] == (10.0, {"u0": "sw:0"})

    def test_truncated_tail_is_tolerated(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = persist.Journal(path)
        journal.cache("key-a", "text-a")
        journal.submit("job-000001", {"space": {"kind": "figure2"}})
        journal.close()
        # Chop mid-way through the last line: a crash between write
        # and fsync.
        data = Path(path).read_bytes()
        Path(path).write_bytes(data[: len(data) - 7])
        replayed = persist.replay(path)
        assert replayed.torn
        assert replayed.records == 1
        assert replayed.cache_entries == {"key-a": "text-a"}
        assert not replayed.pending  # the torn submit never happened

    def test_garbage_line_stops_replay(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = persist.Journal(path)
        journal.cache("key-a", "text-a")
        journal.close()
        with open(path, "a") as handle:
            handle.write("not json at all\n")
            handle.write(
                json.dumps({"t": "cache", "key": "b", "text": "x"})
                + "\n"
            )
        replayed = persist.replay(path)
        assert replayed.torn
        # Nothing after the corruption is trusted.
        assert replayed.cache_entries == {"key-a": "text-a"}

    def test_injected_tear_kills_the_journal(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        faults.install(
            faults.FaultPlan(
                ops=[{"op": "torn-tail", "scope": "journal", "at": 1,
                      "fraction": 0.5}]
            )
        )
        journal = persist.Journal(path)
        journal.cache("key-a", "text-a")
        journal.cache("key-b", "text-b")  # torn; journal goes dead
        journal.cache("key-c", "text-c")  # silently dropped
        journal.close()
        replayed = persist.replay(path)
        assert replayed.torn
        assert replayed.cache_entries == {"key-a": "text-a"}

    def test_compaction_drops_history(self, tmp_path):
        path = str(tmp_path / "journal.jsonl")
        journal = persist.Journal(path)
        journal.submit("job-000001", {"space": {"kind": "figure2"}})
        journal.end("job-000001", "done")
        journal.cache("key-a", "text-a")
        journal.warm("fam", 3.0, {"u0": "hw"})
        journal.close()
        persist.compact(path, persist.replay(path))
        replayed = persist.replay(path)
        assert replayed.records == 2  # cache + warm only
        assert replayed.cache_entries == {"key-a": "text-a"}
        assert replayed.warm_entries == {"fam": (3.0, {"u0": "hw"})}
        assert not replayed.pending


# ----------------------------------------------------------------------
# Engine recovery
# ----------------------------------------------------------------------
def test_engine_recovers_cache_and_pending_jobs(tmp_path):
    state = str(tmp_path / "state")

    async def first_life():
        engine = ServeEngine(workers=1, state_dir=state)
        await engine.start()
        done = engine.submit(GENERATED)
        await _wait_terminal(done)
        assert done.state == "done"
        # Submitted but never run: its worker "dies" with the engine
        # (we simply abandon the loop — no shutdown, like SIGKILL).
        pending = engine.submit(FIG2)
        return done.result_text, pending.job_id

    text, pending_id = asyncio.run(first_life())
    # Schema drift: a journaled job this build rejects is dropped.
    drifted = persist.Journal(persist.journal_path(state))
    drifted.submit("job-000900", {"explorer": {"frontier": "lds"}})
    drifted.submit("job-000901", {"explorer": {"backend": "numpy"}})
    drifted.submit("job-000902", {"explorer": {"name": "annealing"}})
    # An older daemon journaled the whole normalized explorer config,
    # iterations included.
    drifted.submit("job-000903", {"explorer": {"iterations": 4000}})
    drifted.submit("job-000904", {"explorer": {"frontier": "hybrid"}})
    # Every job an older daemon journaled carries the removed
    # cluster re-election knob in its normalized explorer config.
    drifted.submit("job-000905", {"explorer": {"dynamic_pool": True}})
    drifted.close()

    async def second_life():
        engine = ServeEngine(workers=1, state_dir=state)
        await engine.start()
        assert engine.jobs_recovered == 1
        assert "job-000900" not in engine.jobs
        assert "job-000901" not in engine.jobs
        assert "job-000902" not in engine.jobs
        assert "job-000903" not in engine.jobs
        assert "job-000904" not in engine.jobs
        assert "job-000905" not in engine.jobs
        assert engine.stats()["persistent"] is True
        # The interrupted job came back under its original id...
        recovered = engine.get(pending_id)
        await _wait_terminal(recovered)
        assert recovered.state == "done"
        # ...the exact cache answers with the first life's bytes...
        hit = engine.submit(GENERATED)
        assert hit.cache_status == "hit"
        assert hit.result_text == text
        # ...and fresh ids never collide with recovered ones.
        fresh = engine.submit({**GENERATED, "use_cache": False})
        assert int(fresh.job_id[4:]) > int(pending_id[4:])
        await _wait_terminal(fresh)
        await engine.shutdown()

    asyncio.run(second_life())


def test_recovered_job_result_is_byte_identical(tmp_path):
    state = str(tmp_path / "state")

    async def reference():
        engine = ServeEngine(workers=1)
        await engine.start()
        job = engine.submit(FIG2)
        await _wait_terminal(job)
        await engine.shutdown()
        return job.result_text

    async def interrupted():
        engine = ServeEngine(workers=1, state_dir=state)
        await engine.start()
        job_id = engine.submit(FIG2).job_id
        # Abandon before the worker runs anything? The job may or may
        # not have finished; either way the second life must converge
        # on identical bytes.
        return job_id

    async def recovered(job_id):
        engine = ServeEngine(workers=1, state_dir=state)
        await engine.start()
        if job_id in engine.jobs:
            job = engine.get(job_id)
            await _wait_terminal(job)
            text = job.result_text
        else:  # first life finished it; the cache must answer
            hit = engine.submit(FIG2)
            assert hit.cache_status == "hit"
            text = hit.result_text
        await engine.shutdown()
        return text

    expected = asyncio.run(reference())
    job_id = asyncio.run(interrupted())
    assert asyncio.run(recovered(job_id)) == expected


def test_shutdown_mid_lineage_finishes_and_journals(tmp_path):
    """The drain-vs-running race: SIGTERM while a lineage runs.

    ``shutdown`` must wait for the in-flight job, publish its terminal
    event, and write the ``end`` record before returning — a drained
    daemon leaves no pending entries behind.
    """
    state = str(tmp_path / "state")
    faults.install(
        faults.FaultPlan(
            ops=[{"op": "delay", "scope": "serve", "seconds": 0.15}]
        )
    )

    async def main():
        engine = ServeEngine(workers=1, state_dir=state)
        await engine.start()
        job = engine.submit(GENERATED)
        while job.state == "queued":
            await asyncio.sleep(0.005)
        assert job.state == "running"
        await engine.shutdown()  # issued mid-lineage
        assert job.state == "done"
        assert job.events[-1]["event"] == "done"
        assert job.result_text is not None
        with pytest.raises(Exception):
            engine.submit(GENERATED)  # draining rejects
        return job.job_id

    job_id = asyncio.run(main())
    replayed = persist.replay(persist.journal_path(state))
    assert job_id not in replayed.pending
    assert not replayed.torn


def test_timeout_job_keeps_partial_result():
    async def main():
        engine = ServeEngine(workers=1)
        await engine.start()
        job = engine.submit(
            {**GENERATED, "lineage_size": 1, "time_budget": 1e-9}
        )
        await _wait_terminal(job)
        assert job.state == "timeout"
        # Between-lineage checkpoint: partial results on the status
        # view, but never on the byte-identity route or the cache.
        assert job.result is not None
        partial = job.result["partial"]
        assert partial["resumable"] is True
        assert partial["total_selections"] >= 1
        assert job.result_text is None
        assert "result" in job.describe()
        assert job.events[-1]["event"] == "timeout"
        assert job.events[-1]["partial"] == partial
        assert engine.cache.stats()["exact_entries"] == 0
        await engine.shutdown()

    asyncio.run(main())


def test_torn_journal_still_recovers_the_prefix(tmp_path):
    state = str(tmp_path / "state")
    faults.install(
        faults.FaultPlan(
            ops=[{"op": "torn-tail", "scope": "journal", "at": 1,
                  "fraction": 0.4}]
        )
    )

    async def first_life():
        engine = ServeEngine(workers=1, state_dir=state)
        await engine.start()
        job = engine.submit(FIG2)  # submit fsync'd; cache append torn
        await _wait_terminal(job)
        return job.job_id

    job_id = asyncio.run(first_life())
    faults.clear()

    async def second_life():
        engine = ServeEngine(workers=1, state_dir=state)
        await engine.start()
        # The cache/end records died with the tear, so the job is
        # replayed as pending and simply runs again.
        assert engine.jobs_recovered == 1
        job = engine.get(job_id)
        await _wait_terminal(job)
        assert job.state == "done"
        await engine.shutdown()

    asyncio.run(second_life())


# ----------------------------------------------------------------------
# Daemon E2E: SIGKILL mid-job, reboot, verbatim cache + completion
# ----------------------------------------------------------------------
def _spawn_daemon(port, state_dir, extra_env=None):
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(faults.ENV_VAR, None)
    if extra_env:
        env.update(extra_env)
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            str(port),
            "--workers",
            "1",
            "--state-dir",
            state_dir,
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _wait_healthy(client, timeout=30.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if client.healthz()["status"] == "ok":
                return
        except Exception:
            time.sleep(0.1)
    raise TimeoutError("daemon never became healthy")


def test_daemon_survives_sigkill_with_state_dir(tmp_path):
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    state = str(tmp_path / "state")
    slow_plan = faults.FaultPlan(
        ops=[{"op": "delay", "scope": "serve", "seconds": 0.5}]
    )
    client = ServeClient(port=port, retries=3)

    proc = _spawn_daemon(
        port, state, extra_env={faults.ENV_VAR: slow_plan.to_json()}
    )
    try:
        _wait_healthy(client)
        # Job A completes in the first life; record its exact bytes.
        view_a = client.run(FIG2, timeout=60)
        assert view_a["state"] == "done"
        bytes_a = client.result_text(view_a["job_id"])
        # Job B: one delayed lineage per selection — plenty of time
        # to land the SIGKILL while it is mid-run.
        view_b = client.submit({**FIG2, "lineage_size": 1,
                                "use_cache": False})
        job_b = view_b["job_id"]
        deadline = time.monotonic() + 30
        while client.job(job_b)["state"] == "queued":
            assert time.monotonic() < deadline
            time.sleep(0.02)
        proc.kill()  # SIGKILL: no drain, no goodbye
        proc.wait(timeout=20)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)

    proc = _spawn_daemon(port, state)
    try:
        _wait_healthy(client)
        stats = client.stats()
        assert stats["persistent"] is True
        assert stats["jobs_recovered"] >= 1
        # The exact cache answers job A with the first life's bytes.
        view = client.run(FIG2, timeout=60)
        assert view["state"] == "done"
        assert view["cache"] == "hit"
        assert client.result_text(view["job_id"]) == bytes_a
        # The interrupted job finishes under its original id.
        final = client.wait(job_b, timeout=60)
        assert final["state"] == "done"
        assert "result" in final
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
