"""Serve-daemon load bench: sustained jobs/sec + cache-hit latency.

Boots the real HTTP daemon (ephemeral port, background event-loop
thread) and drives it the way production traffic would — many blocking
clients submitting a mix of fresh and repeated jobs over sockets:

* **cold vs hit latency** — one knapsack-hard job is searched cold,
  then resubmitted; the exact cache hit must return a byte-identical
  result body and be >=10x faster than the search (the acceptance
  contract of the content-addressed cache).  Every one of the
  :data:`LOAD_REPEATS` daemons makes this measurement once, and the
  recorded speedup is the median of their speedups.
* **sustained jobs/sec** — N client threads each run a stream of jobs
  (distinct seeds mixed with repeats, so the cache sees realistic
  reuse); the rate is the median of :data:`LOAD_REPEATS` runs, each
  on a fresh daemon so every run serves the same hit/miss mix.  The
  rate and the observed hit fraction land in the ``serve`` section
  of ``BENCH_explorer.json``, gated by ``check_regression.py``
  (``serve_jobs_per_sec``, ``serve_cache_hit_speedup``).

Set ``BENCH_QUICK=1`` for the reduced CI workload.
"""

import asyncio
import statistics
import threading
import time

from repro.serve.client import ServeClient
from repro.serve.engine import ServeEngine
from repro.serve.http import ServeHTTP

from .conftest import merge_json_artifact, quick_mode

#: Knapsack-hard workload for the cold/hit contrast: zero processor
#: cost and a tight capacity force a real hardware-subset search, and
#: two processors keep every selection a real tree (~38k nodes, a few
#: hundred milliseconds cold), far above the client's poll interval
#: and the hit latency it is compared with.
HARD_JOB = {
    "space": {
        "kind": "generated",
        "seed": 3,
        "n_variants": 6,
        "cluster_size": 6,
        "common_processes": 6,
        "max_processors": 2,
        "processor_cost": 0.0,
        "processor_capacity": 0.25,
    }
}


#: Fresh daemons per bench, each measuring one cold search against its
#: cache hits and then timing one load run; the recorded cache-hit
#: speedup and load rate are medians over them.
LOAD_REPEATS = 5


def _light_job(seed: int) -> dict:
    """A small distinct job; the load mix cycles over a few seeds."""
    return {
        "space": {
            "kind": "generated",
            "seed": seed,
            "n_variants": 3,
            "cluster_size": 2,
        }
    }


class _Daemon:
    """The real server on an ephemeral port, in a loop thread."""

    def __init__(self, workers: int = 2) -> None:
        self.loop = asyncio.new_event_loop()
        self.engine = ServeEngine(workers=workers, max_queue=4096)
        self.server = ServeHTTP(self.engine, host="127.0.0.1", port=0)
        self.thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def __enter__(self) -> ServeClient:
        self.thread.start()

        async def boot():
            await self.server.start()
            return self.server.bound_port

        port = asyncio.run_coroutine_threadsafe(boot(), self.loop).result(
            30
        )
        return ServeClient(host="127.0.0.1", port=port, timeout=120.0)

    def __exit__(self, *exc) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(15)
        self.loop.close()


def measure_cache_hit(client: ServeClient, samples: int = 20):
    """Cold-search vs exact-hit latency on the knapsack-hard job.

    The cold job completes at its terminal SSE event, which the
    daemon pushes the moment the job ends, so no poll interval is
    folded into the cold time.
    """
    start = time.perf_counter()
    submitted = client.submit(HARD_JOB)
    for _event in client.events(submitted["job_id"], timeout=600.0):
        pass
    cold_seconds = time.perf_counter() - start
    cold = client.job(submitted["job_id"])
    assert cold["state"] == "done", cold
    assert cold["cache"] != "hit", cold
    cold_text = client.result_text(cold["job_id"])

    hit_samples = []
    for _ in range(samples):
        start = time.perf_counter()
        hit = client.submit(HARD_JOB)
        hit_samples.append(time.perf_counter() - start)
        assert hit["state"] == "done" and hit["cache"] == "hit", hit
    hit_text = client.result_text(hit["job_id"])
    hit_seconds = statistics.median(hit_samples)
    return {
        "cold_seconds": round(cold_seconds, 6),
        "hit_seconds": round(hit_seconds, 6),
        "cache_hit_speedup": round(cold_seconds / hit_seconds, 2),
        "hit_byte_identical": hit_text == cold_text,
        "hit_samples": samples,
    }


def run_client_load(client: ServeClient, clients: int, jobs_each: int):
    """``clients`` threads each run ``jobs_each`` jobs; measure rate.

    Each thread cycles through a small pool of distinct seeds, so
    after the first lap most submissions are exact cache hits — the
    repeated-traffic regime the daemon exists for.
    """
    distinct = 4
    errors = []
    done = []
    lock = threading.Lock()

    def worker(worker_id: int) -> None:
        local = ServeClient(
            host=client.host, port=client.port, timeout=120.0
        )
        for i in range(jobs_each):
            payload = _light_job(seed=(worker_id + i) % distinct)
            try:
                view = local.run(payload, timeout=600.0)
                with lock:
                    done.append(view["cache"])
            except Exception as exc:  # pragma: no cover - diagnostics
                with lock:
                    errors.append(repr(exc))

    threads = [
        threading.Thread(target=worker, args=(w,)) for w in range(clients)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert not errors, errors[:3]
    total = clients * jobs_each
    hits = sum(1 for cache in done if cache == "hit")
    return {
        "clients": clients,
        "jobs_total": total,
        "elapsed_seconds": round(elapsed, 4),
        "jobs_per_sec": round(total / elapsed, 3),
        "hit_fraction": round(hits / total, 4),
    }


def median_cache(samples):
    """One cache record from repeated cold/hit measurements.

    Latencies and the speedup are medians over ``samples``; every
    daemon's speedup is kept alongside.
    """
    return {
        "repeats": len(samples),
        "hit_byte_identical": all(
            sample["hit_byte_identical"] for sample in samples
        ),
        **{
            key: statistics.median(sample[key] for sample in samples)
            for key in ("cold_seconds", "hit_seconds", "cache_hit_speedup")
        },
        "cache_hit_speedup_runs": [
            sample["cache_hit_speedup"] for sample in samples
        ],
    }


def median_load(runs):
    """One load record from repeated runs: the median rate.

    ``elapsed_seconds``, ``jobs_per_sec`` and ``hit_fraction`` are
    medians over ``runs``; every run's rate is kept alongside.
    """
    return {
        "clients": runs[0]["clients"],
        "jobs_total": runs[0]["jobs_total"],
        "repeats": len(runs),
        **{
            key: statistics.median(run[key] for run in runs)
            for key in ("elapsed_seconds", "jobs_per_sec", "hit_fraction")
        },
        "jobs_per_sec_runs": [run["jobs_per_sec"] for run in runs],
    }


def test_serve_load_recorded(benchmark):
    quick = quick_mode()
    clients = 4 if quick else 8
    jobs_each = 6 if quick else 12

    def run():
        caches, runs, stats = [], [], []
        # A warm daemon would answer every later search from its
        # cache: each repeat gets a fresh one, so every repeat makes
        # one cold search and serves the same hit/miss mix.
        for _ in range(LOAD_REPEATS):
            with _Daemon(workers=2) as client:
                caches.append(
                    measure_cache_hit(client, samples=10 if quick else 20)
                )
                runs.append(run_client_load(client, clients, jobs_each))
                stats.append(client.stats())
        return median_cache(caches), median_load(runs), stats

    cache, load, stats = benchmark.pedantic(run, rounds=1, iterations=1)

    # Recorded before the assertions, so a failing run's numbers are
    # in the artifact too (bench_history baselines take medians over
    # runs, failing ones included).
    section = {
        "quick_mode": quick,
        "cold_latency_seconds": cache["cold_seconds"],
        "hit_latency_seconds": cache["hit_seconds"],
        "cache_hit_speedup": cache["cache_hit_speedup"],
        "cache_hit_speedup_runs": cache["cache_hit_speedup_runs"],
        "hit_byte_identical": cache["hit_byte_identical"],
        "load": load,
        "daemon_stats": {
            "jobs_completed": stats[0]["jobs_completed"],
            "cache": stats[0]["cache"],
        },
    }
    merge_json_artifact(
        "BENCH_explorer.json", {"serve": section}, also_repo_root=True
    )

    # The acceptance contract: byte-identical replay, >=10x faster
    # than re-searching — in the median over the fresh daemons.
    assert cache["hit_byte_identical"]
    assert cache["repeats"] == LOAD_REPEATS == len(
        cache["cache_hit_speedup_runs"]
    )
    assert cache["cache_hit_speedup"] >= 10.0, cache
    # Sanity on the load phase: the cache absorbed the repeats.
    assert load["hit_fraction"] > 0.3, load
    assert all(daemon["jobs_failed"] == 0 for daemon in stats)
