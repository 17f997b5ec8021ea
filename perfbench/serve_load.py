"""A real ``repro serve`` daemon driven by a closed loop of clients.

The daemon runs as its own process (``python -m repro serve``, or the
tracing launcher next to this file), so the load generator never
shares its interpreter lock.  Each client thread keeps exactly one job
in flight: submit, then follow the job's SSE event stream to its
terminal event — that instant is the job's completion time (polling
the status view would add up to one poll interval to ~3 ms hits).
The measured load has one client; the traced run adds a second one to
show contention inside the daemon.

The job stream is drawn from the seed:

* **hits** re-submit one of a few job keys warmed during set-up, so the
  daemon answers them from its exact result cache;
* **misses** are fresh keys: a generated space from a fixed pool, with
  a unique ``explorer.seed`` (branch-and-bound ignores it, but it is
  part of the job key) and ``warm_cache`` off, so every miss is a cold
  search of the same size as the first job on that space.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from workloads import quantile

HERE = os.path.dirname(os.path.abspath(__file__))

#: Daemon worker threads.
WORKERS = 2

#: Client threads of the measured load.  One job in flight at a time
#: keeps the load on one CPU: on a host that gives the benchmark two
#: shared CPUs, two clients plus two workers measured the neighbours'
#: use of the second CPU more than the daemon.
CLIENTS = 1

#: ``peak_rss_mb`` is the daemon's VmHWM once this many jobs are done:
#: the daemon keeps every finished job and cached result (up to its
#: table and cache caps), so a reading at the end of a timed load
#: would grow with the host's speed.
RSS_AT_JOBS = 200

#: Shape of every generated space (one cache-miss job ~20-90 ms).
SPACE = {
    "kind": "generated",
    "n_variants": 8,
    "cluster_size": 8,
    "common_processes": 8,
    "max_processors": 1,
    "processor_cost": 0,
    "processor_capacity": 0.45,
}

#: Generated-space seeds of the miss pool and of the warmed hit keys.
POOL_SIZE = 16
HIT_KEYS = 4
SPACE_SEEDS = {"main": 0, "heldout": 1000}

TERMINAL = ("done", "failed", "timeout", "shed")


def _space(seed: int) -> Dict[str, object]:
    return dict(SPACE, seed=seed)


def hit_payloads(corpus: str) -> List[Dict[str, object]]:
    base = SPACE_SEEDS[corpus] + 500
    return [{"space": _space(base + k)} for k in range(HIT_KEYS)]


class JobStream:
    """The seeded job sequence: (kind, key, payload) triples.

    Jobs come in blocks of one hit and one miss in seeded order, so
    every stretch of the load is half hits, and the misses walk a
    seeded permutation of the space pool, so every stretch covers the
    pool evenly.
    """

    def __init__(self, seed: int, corpus: str) -> None:
        self._rng = random.Random(seed)
        pool = [SPACE_SEEDS[corpus] + k for k in range(POOL_SIZE)]
        self._rng.shuffle(pool)
        self._pool = pool
        self._hits = hit_payloads(corpus)
        self._block: List[str] = []
        self._misses = 0
        self._lock = threading.Lock()

    def next(self) -> Tuple[str, int, Dict[str, object]]:
        with self._lock:
            if not self._block:
                self._block = ["hit", "miss"]
                self._rng.shuffle(self._block)
            if self._block.pop() == "hit":
                key = self._rng.randrange(len(self._hits))
                return "hit", key, self._hits[key]
            space = self._pool[self._misses % len(self._pool)]
            self._misses += 1
            payload = {
                "space": _space(space),
                "explorer": {"seed": self._misses},
                "warm_cache": False,
            }
            return "miss", space, payload


# ----------------------------------------------------------------------
# HTTP
# ----------------------------------------------------------------------
def _connect(port: int) -> http.client.HTTPConnection:
    return http.client.HTTPConnection("127.0.0.1", port, timeout=60)


def post_job(port: int, payload) -> Tuple[int, Dict[str, object]]:
    conn = _connect(port)
    try:
        conn.request(
            "POST",
            "/jobs",
            body=json.dumps(payload),
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def terminal_event(port: int, job_id: str) -> Dict[str, object]:
    """Follow ``/jobs/<id>/events`` until the terminal event."""
    conn = _connect(port)
    try:
        conn.request("GET", f"/jobs/{job_id}/events")
        response = conn.getresponse()
        if response.status != 200:
            raise RuntimeError(f"events of {job_id}: HTTP {response.status}")
        name = None
        while True:
            line = response.fp.readline()
            if not line:
                raise RuntimeError(f"event stream of {job_id} ended early")
            text = line.decode("utf-8").rstrip("\n")
            if text.startswith("event:"):
                name = text[6:].strip()
            elif text.startswith("data:") and name in TERMINAL:
                return json.loads(text[5:])
    finally:
        conn.close()


def get_text(port: int, path: str) -> Tuple[int, bytes]:
    conn = _connect(port)
    try:
        conn.request("GET", path)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def reserve_port() -> int:
    """A free local port to hand the daemon (``--port 0`` is not
    reported back by the daemon)."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ----------------------------------------------------------------------
# Daemon
# ----------------------------------------------------------------------
class Daemon:
    """One daemon process with a private state directory."""

    def __init__(self, root: str, work_dir: str, trace_path=None) -> None:
        self.root = root
        self.work_dir = work_dir
        self.trace_path = trace_path
        self.port = 0
        self.proc: Optional[subprocess.Popen] = None
        self.state_dir: Optional[str] = None

    def start(self, timeout: float = 60.0) -> None:
        """Spawn the daemon and wait until ``/healthz`` answers 200."""
        self.port = reserve_port()
        self.state_dir = tempfile.mkdtemp(
            prefix="serve-state-", dir=self.work_dir
        )
        serve_args = [
            "--host", "127.0.0.1",
            "--port", str(self.port),
            "--workers", str(WORKERS),
            "--state-dir", self.state_dir,
        ]
        if self.trace_path is None:
            cmd = [sys.executable, "-m", "repro", "serve", *serve_args]
        else:
            launcher = os.path.join(HERE, "serve_launcher.py")
            cmd = [sys.executable, launcher, "--trace-out", self.trace_path]
            cmd += serve_args
        env = dict(os.environ)
        paths = [os.path.join(self.root, "src"), env.get("PYTHONPATH", "")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        log_path = os.path.join(self.work_dir, "daemon.log")
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                cmd,
                cwd=self.root,
                env=env,
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        deadline = time.monotonic() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited early with {self.proc.returncode}"
                )
            try:
                if get_text(self.port, "/healthz")[0] == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("daemon did not become healthy")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        """The daemon's VmHWM, read from /proc while it still runs."""
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def stop(self, timeout: float = 60.0) -> int:
        """SIGTERM, wait for the drain; returns the exit code."""
        proc = self.proc
        try:
            if proc is None:
                return 0
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
                try:
                    proc.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
            return proc.returncode
        finally:
            if self.state_dir is not None:
                shutil.rmtree(self.state_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
@dataclass
class LoadResult:
    """Client-side outcome of one closed-loop load."""

    #: Completed jobs' latencies by class.
    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {"hit": [], "miss": []}
    )
    #: Completed jobs' latencies by (class, hit key or miss space).
    by_item: Dict[Tuple[str, int], List[float]] = field(
        default_factory=dict
    )
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0
    errors: List[str] = field(default_factory=list)

    def completed(self) -> int:
        return sum(len(times) for times in self.latencies.values())


def warm_hits(port: int, corpus: str) -> List[bytes]:
    """Run every hit key once cold; returns each key's result body."""
    bodies = []
    for payload in hit_payloads(corpus):
        status, view = post_job(port, payload)
        if status not in (200, 202):
            raise RuntimeError(f"warm-up submit: HTTP {status}")
        event = terminal_event(port, view["job_id"])
        if event.get("event") != "done":
            raise RuntimeError(f"warm-up job ended {event.get('event')}")
        status, body = get_text(port, f"/jobs/{view['job_id']}/result")
        if status != 200:
            raise RuntimeError(f"warm-up result: HTTP {status}")
        bodies.append(body)
    return bodies


def _one_job(port, kind, key, payload, hit_bodies) -> Tuple[float, str]:
    """Submit one job and follow it; returns (seconds, error or "").

    A job passes when it ends ``done`` with the cache status of its
    class, and a hit's body is byte-identical to its key's first body.
    """
    began = time.perf_counter()
    status, view = post_job(port, payload)
    if status not in (200, 202):
        return 0.0, f"submit HTTP {status}"
    event = terminal_event(port, view["job_id"])
    seconds = time.perf_counter() - began
    if event.get("event") != "done":
        return seconds, f"job ended {event.get('event')}"
    if event.get("cache") != kind or view.get("cache") != kind:
        return seconds, f"{kind} job reported cache {event.get('cache')}"
    if kind == "hit":
        status, body = get_text(port, f"/jobs/{view['job_id']}/result")
        if status != 200 or body != hit_bodies[key]:
            return seconds, "hit body differs from its key's first body"
    return seconds, ""


def run_load(
    port: int,
    stream: JobStream,
    hit_bodies: List[bytes],
    seconds: Optional[float] = None,
    jobs: Optional[int] = None,
    on_done: Optional[Callable[[int], None]] = None,
    clients: int = CLIENTS,
) -> LoadResult:
    """Closed loop of ``clients`` threads for ``seconds`` or ``jobs``.

    ``on_done(n)`` runs after the n-th job completed successfully.
    """
    out = LoadResult()
    lock = threading.Lock()
    issued = [0]
    start = time.perf_counter()
    stop_at = start + seconds if seconds is not None else None

    def client() -> None:
        while True:
            with lock:
                if jobs is not None and issued[0] >= jobs:
                    return
                if stop_at is not None and time.perf_counter() >= stop_at:
                    return
                issued[0] += 1
            kind, key, payload = stream.next()
            try:
                taken, error = _one_job(port, kind, key, payload, hit_bodies)
            except (OSError, ValueError, http.client.HTTPException) as exc:
                taken, error = 0.0, f"{type(exc).__name__}: {exc}"
            except RuntimeError as exc:
                taken, error = 0.0, str(exc)
            with lock:
                out.attempted += 1
                if error:
                    out.failed += 1
                    out.errors.append(error)
                    continue
                out.latencies[kind].append(taken)
                out.by_item.setdefault((kind, key), []).append(taken)
                if on_done is not None:
                    on_done(out.completed())

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    out.wall = time.perf_counter() - start
    return out


def boot(root: str, work_dir: str, corpus: str, trace_path=None):
    """Start a daemon and warm its hit keys; returns (daemon, bodies)."""
    daemon = Daemon(root, work_dir, trace_path)
    try:
        daemon.start()
        return daemon, warm_hits(daemon.port, corpus)
    except BaseException:
        daemon.stop()
        raise


def service_rate(load: LoadResult) -> float:
    """Jobs per second of one pass of the mix at each item's fastest.

    The same estimate as the in-process workloads' throughput: a pass
    of the stream is one miss on every pool space and as many hits,
    spread over the hit keys; its time is the sum of each space's
    fastest miss plus that many of the hit keys' mean fastest hit.  A
    slow spell of the host only ever slows a job down, so fastest
    times track the daemon's own cost more steadily than a mean rate.
    """
    best: Dict[str, List[float]] = {"hit": [], "miss": []}
    for (kind, _key), times in load.by_item.items():
        best[kind].append(min(times))
    misses = len(best["miss"])
    seconds = sum(best["miss"]) + misses * statistics.mean(best["hit"])
    return 2 * misses / seconds


def measure_serve(
    root: str,
    work_dir: str,
    corpus: str,
    seed: int,
    seconds: float,
    setup_repeats: int = 5,
):
    """Boot ``setup_repeats`` daemons (timing each), load the last one.

    The run record gets two kinds of latency quantiles: ``hit_*`` and
    ``miss_*`` over every job the client saw, and ``best_miss_*`` over
    the pool's spaces of each space's fastest miss, the service time of
    a cold job that the host leaves alone.
    """
    failed = 0
    setup: List[float] = []
    for repeat in range(setup_repeats):
        started = time.perf_counter()
        daemon, bodies = boot(root, work_dir, corpus)
        setup.append(time.perf_counter() - started)
        if repeat < setup_repeats - 1 and daemon.stop() != 0:
            failed += 1
    rss: List[float] = []

    def sample_rss(done: int) -> None:
        if done == RSS_AT_JOBS:
            rss.append(daemon.peak_rss_mb())

    try:
        stream = JobStream(seed, corpus)
        load = run_load(
            daemon.port, stream, bodies, seconds=seconds, on_done=sample_rss
        )
        if not rss:
            rss.append(daemon.peak_rss_mb())
    finally:
        code = daemon.stop()
    failed += load.failed + (code != 0)
    best = [
        min(times)
        for (kind, _key), times in load.by_item.items()
        if kind == "miss"
    ]
    metrics = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss[0],
        "throughput_per_s": service_rate(load),
    }
    info = {
        "daemon_exit_code": code,
        "errors": load.errors[:5],
        "mean_jobs_per_s": load.completed() / load.wall,
        "best_miss_p50_ms": quantile(best, 0.5) * 1e3,
        "best_miss_p90_ms": quantile(best, 0.9) * 1e3,
    }
    for kind, values in load.latencies.items():
        info[f"{kind}_samples"] = len(values)
        if values:
            info[f"{kind}_p50_ms"] = quantile(values, 0.5) * 1e3
            info[f"{kind}_p90_ms"] = quantile(values, 0.9) * 1e3
    return metrics, load.attempted + setup_repeats, failed, info
