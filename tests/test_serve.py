"""End-to-end lifecycle tests of the exploration service.

Engine tests drive :class:`repro.serve.engine.ServeEngine` directly
inside ``asyncio.run`` (no socket); HTTP tests boot the real server on
an ephemeral port in a background event-loop thread and talk to it
through the blocking :class:`repro.serve.client.ServeClient` — the
same path ``curl`` takes.
"""

import asyncio
import math
import socket
import subprocess
import sys
import threading

import pytest

from repro.apps import figure2
from repro.serve import engine as engine_module
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.engine import ServeEngine, ServiceUnavailable, UnknownJob
from repro.serve.http import ServeHTTP
from repro.synth.ordering import FRONTIERS

FIG2 = {"space": {"kind": "figure2"}}
GENERATED = {"space": {"kind": "generated", "n_variants": 3}}


async def _drain_events(engine, job_id, timeout=60.0):
    queue = engine.subscribe(job_id)
    events = []
    while True:
        event = await asyncio.wait_for(queue.get(), timeout=timeout)
        events.append(event)
        if event["event"] in ("done", "failed", "timeout"):
            return events


async def _run_job(engine, payload):
    job = engine.submit(payload)
    if job.state in ("done", "failed", "timeout"):
        return job, job.events
    events = await _drain_events(engine, job.job_id)
    return job, events


# ----------------------------------------------------------------------
# Engine lifecycle
# ----------------------------------------------------------------------
def test_job_lifecycle_events_and_result():
    async def main():
        engine = ServeEngine(workers=1)
        await engine.start()
        job, events = await _run_job(engine, FIG2)
        names = [e["event"] for e in events]
        assert names[0] == "queued"
        assert names[1] == "running"
        assert names[-1] == "done"
        assert "lineage" in names
        assert job.state == "done"
        assert job.cache_status == "miss"
        assert job.result["best"]["cost"] > 0
        assert job.result["feasible_count"] >= 1
        view = job.describe()
        assert view["state"] == "done"
        assert view["elapsed_seconds"] >= 0
        await engine.shutdown()

    asyncio.run(main())


def test_exact_hit_is_byte_identical_and_instant():
    async def main():
        engine = ServeEngine(workers=1)
        await engine.start()
        cold, _ = await _run_job(engine, FIG2)
        hit = engine.submit(FIG2)
        assert hit.state == "done"
        assert hit.cache_status == "hit"
        assert hit.result_text == cold.result_text
        names = [e["event"] for e in hit.events]
        assert names == ["queued", "done"]  # never ran
        assert engine.cache.exact_hits == 1
        miss = engine.submit({**FIG2, "use_cache": False})
        assert miss.state != "done"  # bypasses the cache
        await _drain_events(engine, miss.job_id)
        assert miss.cache_status in ("miss", "warm")
        await engine.shutdown()

    asyncio.run(main())


def test_warm_adjacent_hit_keeps_cost_and_optimality():
    space = figure2.variant_space()
    selection = dict(space.selection_at(1))
    single = {"space": {"kind": "figure2"}, "selection": selection}

    async def cold_run():
        engine = ServeEngine(workers=1)
        await engine.start()
        job, _ = await _run_job(engine, single)
        await engine.shutdown()
        return job.result

    async def warm_run():
        engine = ServeEngine(workers=1)
        await engine.start()
        # The space job populates the warm store for the family...
        await _run_job(engine, FIG2)
        # ...so the selection job (an exact-store miss) seeds from it.
        job, _ = await _run_job(engine, single)
        await engine.shutdown()
        assert job.cache_status == "warm"
        assert engine.cache.warm_hits >= 1
        return job.result

    cold = asyncio.run(cold_run())
    warm = asyncio.run(warm_run())
    assert warm["best"]["cost"] == cold["best"]["cost"]
    assert warm["best"]["mapping"] == cold["best"]["mapping"]
    assert warm["best"]["optimal"] and cold["best"]["optimal"]


def test_warm_seeded_result_never_enters_exact_store():
    space = figure2.variant_space()
    selection = dict(space.selection_at(1))
    single = {"space": {"kind": "figure2"}, "selection": selection}

    async def main():
        engine = ServeEngine(workers=1)
        await engine.start()
        # The space job stores its cold bytes and seeds the warm store.
        await _run_job(engine, FIG2)
        job, _ = await _run_job(engine, single)
        assert job.cache_status == "warm"
        # Seeded bytes depend on daemon history (node counts,
        # "+warm_start" provenance), so only the cold space job's
        # entry may live in the exact store.
        assert engine.cache.stats()["exact_entries"] == 1
        # A resubmission therefore re-runs (warm again), not a hit.
        again = engine.submit(single)
        assert again.state != "done"
        await _drain_events(engine, again.job_id)
        assert again.cache_status == "warm"
        await engine.shutdown()

    asyncio.run(main())


def test_terminal_jobs_evicted_beyond_max_jobs():
    async def main():
        engine = ServeEngine(workers=1, max_jobs=2)
        await engine.start()
        ids = []
        for seed in (1, 2, 3):
            job, _ = await _run_job(
                engine,
                {
                    "space": {
                        "kind": "generated",
                        "n_variants": 3,
                        "seed": seed,
                    }
                },
            )
            ids.append(job.job_id)
        assert len(engine.jobs) == 2
        assert engine.stats()["jobs_tracked"] == 2
        with pytest.raises(UnknownJob):
            engine.get(ids[0])
        assert engine.get(ids[-1]).state == "done"
        await engine.shutdown()

    asyncio.run(main())


def test_warm_seeding_skipped_when_warm_cache_off():
    exhaustive = {
        "space": {"kind": "figure2"},
        "explorer": {"name": "exhaustive"},
    }

    async def main():
        engine = ServeEngine(workers=1)
        await engine.start()
        await _run_job(engine, FIG2)
        # Both explorers are exact, so either takes the family's seed...
        seeded, _ = await _run_job(engine, exhaustive)
        assert seeded.cache_status == "warm"
        # ...unless the job opts out.
        job, _ = await _run_job(engine, {**exhaustive, "warm_cache": False})
        assert job.cache_status == "miss"
        await engine.shutdown()

    asyncio.run(main())


def test_priority_orders_the_queue():
    async def main():
        engine = ServeEngine(workers=1)
        # Submit before starting workers: both jobs sit in the queue,
        # so the high-priority one must run first despite FIFO order.
        low = engine.submit({**FIG2, "priority": 0})
        high = engine.submit({**GENERATED, "priority": 5})
        await engine.start()
        await _drain_events(engine, low.job_id)
        await _drain_events(engine, high.job_id)
        assert high.started < low.started
        await engine.shutdown()

    asyncio.run(main())


def test_timeout_budget_yields_timeout_state():
    async def main():
        engine = ServeEngine(workers=1)
        await engine.start()
        job, events = await _run_job(
            engine, {**GENERATED, "time_budget": 1e-9}
        )
        assert job.state == "timeout"
        assert "time budget" in job.error
        assert events[-1]["event"] == "timeout"
        assert engine.stats()["jobs_timed_out"] == 1
        await engine.shutdown()

    asyncio.run(main())


def test_queue_full_rejects_with_service_unavailable():
    async def main():
        engine = ServeEngine(workers=1, max_queue=2)
        # Workers not started: nothing drains, so the bound is hit.
        engine.submit(FIG2)
        engine.submit(GENERATED)
        with pytest.raises(ServiceUnavailable):
            engine.submit({**FIG2, "use_cache": False})
        assert engine.stats()["jobs_failed"] == 1
        await engine.start()
        await engine.shutdown()

    asyncio.run(main())


def test_graceful_shutdown_drains_then_rejects():
    async def main():
        engine = ServeEngine(workers=1)
        jobs = [
            engine.submit(
                {"space": {"kind": "generated", "n_variants": 3, "seed": s}}
            )
            for s in (1, 2, 3)
        ]
        await engine.start()
        await engine.shutdown()
        assert all(job.state == "done" for job in jobs)
        with pytest.raises(ServiceUnavailable):
            engine.submit(FIG2)
        assert engine.stats()["draining"] is True

    asyncio.run(main())


def test_unknown_job_and_subscribe_replay():
    async def main():
        engine = ServeEngine(workers=1)
        await engine.start()
        with pytest.raises(UnknownJob):
            engine.get("job-999999")
        job, events = await _run_job(engine, FIG2)
        # Late subscribers replay the full terminal history.
        replay = await _drain_events(engine, job.job_id, timeout=1.0)
        assert [e["event"] for e in replay] == [
            e["event"] for e in events
        ]
        await engine.shutdown()

    asyncio.run(main())


# ----------------------------------------------------------------------
# HTTP edge
# ----------------------------------------------------------------------
@pytest.fixture()
def serve_client():
    loop = asyncio.new_event_loop()
    engine = ServeEngine(workers=2, max_queue=16)
    server = ServeHTTP(engine, host="127.0.0.1", port=0)

    def run():
        asyncio.set_event_loop(loop)
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    async def boot():
        await server.start()
        return server.bound_port

    port = asyncio.run_coroutine_threadsafe(boot(), loop).result(30)
    client = ServeClient(host="127.0.0.1", port=port)
    try:
        yield client
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


def test_http_submit_stream_result(serve_client):
    client = serve_client
    assert client.healthz() == {"status": "ok"}
    view = client.submit(FIG2)
    assert view["state"] in ("queued", "running", "done")
    events = [e["event"] for e in client.events(view["job_id"])]
    assert events[0] == "queued" and events[-1] == "done"
    final = client.job(view["job_id"])
    assert final["state"] == "done"
    text = client.result_text(view["job_id"])

    hit = client.submit(FIG2)
    assert hit["state"] == "done" and hit["cache"] == "hit"
    assert client.result_text(hit["job_id"]) == text

    stats = client.stats()
    assert stats["jobs_completed"] >= 2
    assert stats["cache"]["exact_hits"] >= 1
    assert stats["jobs_per_sec"] > 0


def test_http_error_paths(serve_client):
    client = serve_client
    with pytest.raises(ServeClientError) as err:
        client.submit({"bogus": True})
    assert err.value.status == 400
    for frontier in ("beam", "hybrid"):
        with pytest.raises(ServeClientError) as err:
            client.submit({"explorer": {"frontier": frontier}})
        assert err.value.status == 400
        assert repr(FRONTIERS) in err.value.body
    with pytest.raises(ServeClientError) as err:
        client.submit({"explorer": {"backend": "numpy"}})
    assert err.value.status == 400
    assert "null or 'python'" in err.value.body
    # The client's json.dumps sends NaN/Infinity literals, which the
    # server's parser accepts: the spec must refuse them (and bools
    # posing as integers, removed explorers and removed explorer
    # options) with a 400 rather than drop the connection.
    for payload in (
        {"space": {"kind": "generated", "processor_capacity": math.nan}},
        {"explorer": {"time_budget": math.inf}},
        {"time_budget": math.inf},
        {"explorer": {"node_budget": True}},
        {"lineage_size": True},
        {"explorer": {"name": "annealing"}},
        {"explorer": {"iterations": 4000}},
        {"explorer": {"dynamic_pool": True}},
    ):
        with pytest.raises(ServeClientError) as err:
            client.submit(payload)
        assert err.value.status == 400, payload
    with pytest.raises(ServeClientError) as err:
        client.job("job-999999")
    assert err.value.status == 404
    with pytest.raises(ServeClientError) as err:
        client._request("PUT", "/jobs", payload={})
    assert err.value.status == 405
    # result of a non-done job conflicts
    timed = client.run({**GENERATED, "time_budget": 1e-9})
    assert timed["state"] == "timeout"
    with pytest.raises(ServeClientError) as err:
        client.result_text(timed["job_id"])
    assert err.value.status == 409


def _raw_request(host, port, data: bytes) -> bytes:
    with socket.create_connection((host, port), timeout=10) as sock:
        sock.sendall(data)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks)


def test_http_malformed_framing_gets_400_not_a_drop(serve_client):
    client = serve_client
    bad_length = b"POST /jobs HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
    reply = _raw_request(client.host, client.port, bad_length)
    assert reply.startswith(b"HTTP/1.1 400 ")
    negative = b"POST /jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n"
    reply = _raw_request(client.host, client.port, negative)
    assert reply.startswith(b"HTTP/1.1 400 ")
    # A request line over the stream limit (64 KiB default) must be
    # answered, not surfaced as an unhandled ValueError.
    long_line = b"GET /" + b"x" * (1 << 17) + b" HTTP/1.1\r\n\r\n"
    reply = _raw_request(client.host, client.port, long_line)
    assert reply.startswith(b"HTTP/1.1 400 ")
    # The server stays healthy afterwards.
    assert client.healthz() == {"status": "ok"}


def test_http_healthz_503_while_draining():
    loop = asyncio.new_event_loop()
    engine = ServeEngine(workers=1)
    server = ServeHTTP(engine, host="127.0.0.1", port=0)

    def run():
        asyncio.set_event_loop(loop)
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    async def boot():
        await server.start()
        return server.bound_port

    port = asyncio.run_coroutine_threadsafe(boot(), loop).result(30)
    client = ServeClient(port=port)
    assert client.healthz()["status"] == "ok"

    async def drain_only():
        engine.draining = True

    asyncio.run_coroutine_threadsafe(drain_only(), loop).result(10)
    try:
        with pytest.raises(ServeClientError) as err:
            client.healthz()
        assert err.value.status == 503
        with pytest.raises(ServeClientError) as err:
            client.submit(FIG2)
        assert err.value.status == 503
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


def test_serve_cli_help_exits_zero():
    from repro.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["serve", "--help"])
    assert excinfo.value.code == 0


def test_serve_daemon_boots_and_drains_on_sigterm():
    import os
    import signal
    import socket
    import time
    from pathlib import Path
    from urllib.request import urlopen

    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            str(port),
            "--workers",
            "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        deadline = time.monotonic() + 20
        status = None
        while time.monotonic() < deadline:
            try:
                status = urlopen(
                    f"http://127.0.0.1:{port}/healthz", timeout=2
                ).status
                break
            except OSError:
                time.sleep(0.1)
        assert status == 200
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=20) == 0
        out = proc.stdout.read()
        assert "drained and stopped" in out
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)


# ----------------------------------------------------------------------
# Admission control: queue deadlines, engine caps, Retry-After.
# ----------------------------------------------------------------------
def test_memory_error_fails_job_and_worker_carries_on(monkeypatch):
    real = engine_module.run_lineage
    calls = []

    def exhausted_once(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise MemoryError("search heap exhausted")
        return real(*args, **kwargs)

    monkeypatch.setattr(engine_module, "run_lineage", exhausted_once)

    async def main():
        engine = ServeEngine(workers=1)
        await engine.start()
        failed, events = await _run_job(engine, {**FIG2, "use_cache": False})
        assert failed.state == "failed"
        assert failed.error == "MemoryError: search heap exhausted"
        assert events[-1] == {
            "event": "failed",
            "job": failed.job_id,
            "error": failed.error,
        }
        # The same single worker takes the next job to completion.
        done, events = await _run_job(engine, {**FIG2, "use_cache": False})
        assert done.state == "done"
        assert events[-1]["event"] == "done"
        stats = engine.stats()
        assert stats["jobs_failed"] == 1
        assert stats["jobs_completed"] == 1
        await engine.shutdown()

    asyncio.run(main())


async def _drain_terminal(engine, job_id, timeout=60.0):
    """Like :func:`_drain_events` but ``shed`` also terminates."""
    queue = engine.subscribe(job_id)
    events = []
    while True:
        event = await asyncio.wait_for(queue.get(), timeout=timeout)
        events.append(event)
        if event["event"] in ("done", "failed", "timeout", "shed"):
            return events


def test_queue_deadline_sheds_stale_jobs():
    async def main():
        engine = ServeEngine(workers=1, queue_deadline=0.05)
        # Queue before starting workers, then let the deadline lapse:
        # the worker's first act must be to shed, not run.
        job = engine.submit({**FIG2, "use_cache": False})
        await asyncio.sleep(0.15)
        await engine.start()
        events = await _drain_terminal(engine, job.job_id)
        assert job.state == "shed"
        assert "shed after" in job.error
        last = events[-1]
        assert last["event"] == "shed"
        assert last["waited_seconds"] >= 0.05
        assert last["retry_after"] >= 1.0
        stats = engine.stats()
        assert stats["jobs_shed"] == 1
        assert stats["queue_deadline"] == 0.05
        await engine.shutdown()

    asyncio.run(main())


def test_time_budget_exhausted_in_queue_is_shed():
    async def main():
        # The queue deadline itself is generous; the job's own
        # time_budget expires while it waits, so running it could
        # only ever return a useless instant-timeout.
        engine = ServeEngine(workers=1, queue_deadline=30.0)
        job = engine.submit(
            {**FIG2, "use_cache": False, "time_budget": 0.01}
        )
        await asyncio.sleep(0.1)
        await engine.start()
        await _drain_terminal(engine, job.job_id)
        assert job.state == "shed"
        assert engine.stats()["jobs_shed"] == 1
        await engine.shutdown()

    asyncio.run(main())


def test_no_queue_deadline_never_sheds():
    async def main():
        engine = ServeEngine(workers=1)
        job = engine.submit(
            {**FIG2, "use_cache": False, "time_budget": 1e-9}
        )
        await asyncio.sleep(0.05)
        await engine.start()
        await _drain_terminal(engine, job.job_id)
        # Without the knob the job still runs (and times out inside
        # the search) -- shedding is strictly opt-in.
        assert job.state == "timeout"
        assert engine.stats()["jobs_shed"] == 0
        await engine.shutdown()

    asyncio.run(main())


def test_stats_reports_frontier_gauges():
    payload = {
        **GENERATED,
        "explorer": {"name": "bnb", "frontier": "best-first"},
    }

    async def main():
        engine = ServeEngine(workers=1)
        await engine.start()
        job, _ = await _run_job(engine, payload)
        assert job.state == "done"
        stats = engine.stats()
        assert stats["frontier_high_water"] > 0
        assert stats["jobs_shed"] == 0
        assert stats["max_open_nodes"] is None
        await engine.shutdown()

    asyncio.run(main())


def test_engine_cap_applies_and_evicting_runs_bypass_cache():
    payload = {
        **GENERATED,
        "explorer": {"name": "bnb", "frontier": "best-first"},
    }

    async def main():
        engine = ServeEngine(workers=1, max_open_nodes=1)
        await engine.start()
        first, _ = await _run_job(engine, payload)
        assert first.state == "done"
        stats = engine.stats()
        assert stats["frontier_high_water"] <= 1
        assert stats["subtrees_evicted"] > 0
        # The daemon cap shaped this result, so caching it would let
        # an uncapped daemon later serve capped bytes: resubmission
        # must miss.
        second = engine.submit(payload)
        assert second.cache_status != "hit"
        if second.state not in ("done", "failed", "timeout"):
            await _drain_terminal(engine, second.job_id)
        await engine.shutdown()

    asyncio.run(main())


def test_spec_keyed_max_open_stays_cacheable():
    payload = {
        **GENERATED,
        "explorer": {
            "name": "bnb",
            "frontier": "best-first",
            "max_open": 1,
        },
    }

    async def main():
        engine = ServeEngine(workers=1)
        await engine.start()
        first, _ = await _run_job(engine, payload)
        assert first.state == "done"
        # max_open in the spec is part of the job key, so the capped
        # bytes are deterministic for that key: exact hits are sound.
        hit = engine.submit(payload)
        assert hit.state == "done"
        assert hit.cache_status == "hit"
        assert hit.result_text == first.result_text
        await engine.shutdown()

    asyncio.run(main())


def test_engine_cap_without_eviction_still_caches():
    # DFS carries a max_open attribute but never evicts: the capped
    # run's bytes equal the uncapped run's, so caching stays sound.
    payload = {
        **GENERATED,
        "explorer": {"name": "bnb", "frontier": "dfs"},
    }

    async def main():
        engine = ServeEngine(workers=1, max_open_nodes=2)
        await engine.start()
        first, _ = await _run_job(engine, payload)
        assert first.state == "done"
        assert engine.stats()["subtrees_evicted"] == 0
        hit = engine.submit(payload)
        assert hit.state == "done" and hit.cache_status == "hit"
        await engine.shutdown()

    asyncio.run(main())


def test_rejects_bad_admission_config():
    from repro.errors import SynthesisError
    from repro.serve.jobs import JobSpec

    with pytest.raises(SynthesisError, match="max_open_nodes"):
        ServeEngine(max_open_nodes=0)
    with pytest.raises(SynthesisError, match="queue_deadline"):
        ServeEngine(queue_deadline=0.0)
    for bad in (0, -3, True, "many"):
        with pytest.raises(SynthesisError, match="max_open"):
            JobSpec.from_payload(
                {**FIG2, "explorer": {"name": "bnb", "max_open": bad}}
            )


def test_http_503_carries_retry_after_header_and_body():
    import http.client
    import json as json_mod

    loop = asyncio.new_event_loop()
    engine = ServeEngine(workers=1, max_queue=1)
    server = ServeHTTP(engine, host="127.0.0.1", port=0)

    def run():
        asyncio.set_event_loop(loop)
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()

    async def boot():
        await server.start()
        return server.bound_port

    port = asyncio.run_coroutine_threadsafe(boot(), loop).result(30)

    async def drain_only():
        # Flip the draining flag without shutting down: submissions
        # now 503 deterministically (no queue race) while the server
        # keeps answering.
        engine.draining = True

    asyncio.run_coroutine_threadsafe(drain_only(), loop).result(10)
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        body = json_mod.dumps({**GENERATED, "use_cache": False})
        conn.request(
            "POST",
            "/jobs",
            body=body,
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        text = response.read().decode()
        assert response.status == 503
        header = response.getheader("Retry-After")
        assert header is not None and int(header) >= 1
        payload = json_mod.loads(text)
        assert payload["retry_after"] >= 1.0
        assert "draining" in payload["error"]
        conn.close()
    finally:
        engine.draining = False
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


def test_client_retries_503_honoring_hint(monkeypatch):
    import json as json_mod

    from repro.serve import client as client_mod

    sleeps = []
    monkeypatch.setattr(
        client_mod.time, "sleep", lambda s: sleeps.append(s)
    )
    answers = [
        ServeClientError(
            503, json_mod.dumps({"error": "full", "retry_after": 0.7})
        ),
        ServeClientError(503, "not json"),
        (200, "{}"),
    ]

    calls = {"n": 0}

    def fake_request_once(self, method, path, payload, ok):
        answer = answers[calls["n"]]
        calls["n"] += 1
        if isinstance(answer, ServeClientError):
            raise answer
        return answer

    monkeypatch.setattr(
        client_mod.ServeClient, "_request_once", fake_request_once
    )
    client = ServeClient(retries=2, retry_backoff=0.05)
    status, text = client._request("GET", "/stats")
    assert (status, text) == (200, "{}")
    assert calls["n"] == 3
    assert len(sleeps) == 2
    # First delay honors the server hint (0.7 > 0.05 backoff), with
    # at most 10% jitter on top; second falls back to exponential
    # backoff because the body carried no hint.
    assert 0.7 <= sleeps[0] <= 0.7 * 1.1 + 1e-9
    assert 0.1 <= sleeps[1] <= 0.1 * 1.1 + 1e-9


def test_client_does_not_retry_non_503(monkeypatch):
    from repro.serve import client as client_mod

    calls = {"n": 0}

    def fake_request_once(self, method, path, payload, ok):
        calls["n"] += 1
        raise ServeClientError(400, "bad")

    monkeypatch.setattr(
        client_mod.ServeClient, "_request_once", fake_request_once
    )
    client = ServeClient(retries=3)
    with pytest.raises(ServeClientError) as err:
        client._request("GET", "/stats")
    assert err.value.status == 400
    assert calls["n"] == 1
