"""The served workload: a burst of jobs through the HTTP API and one drain.

One burst, on a fresh queue:

1. set-up: create the queue file and start the API server
   (``repro.service.api.make_server``) on a thread of this process;
2. a client thread POSTs every job of the burst to ``/jobs``;
3. once all are submitted, one ``QueueSupervisor(workers=2).drain()``
   runs on the main thread; meanwhile the client polls the oldest
   outstanding job's ``/jobs/<id>/result`` every :data:`POLL_INTERVAL`
   seconds (and at once again after each hit), so API reads run beside
   the drain's writes on the same SQLite WAL file;
4. the client collects the remaining results, the server stops and the
   per-job ``submitted``/``leased``/``done`` timestamps are read from
   ``JobQueue.events``.

The drain exits when the queue is empty, so each burst pays for worker
spawn and the per-worker dataset prewarm: a batch arrival, not an open
loop.  Worker processes re-import ``repro``, so the benchmark's span
wrappers cannot reach inside them; the stage split comes from the queue
events, the supervisor's stats and the client's own timings.
"""

from __future__ import annotations

import json
import shutil
import tempfile
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from metrics import percentile
from oracle import Oracle

#: Worker processes per drain (one per core of the 2-core reference host).
WORKERS = 2

#: Seconds between result polls while the oldest outstanding job is not
#: done yet.
POLL_INTERVAL = 0.1

#: Seconds the client may take to fetch the results left after the drain.
CLIENT_GRACE = 30.0

#: Times a burst submits :data:`SERVE_CELLS`, each copy in its own
#: seed-drawn order.  With two copies the median job finishes at the end
#: of the first copy, so its latency does not depend on which jobs the
#: seed put first.
COPIES = 2

#: The 114 Table II cells that take under about 0.5 s in process
#: (measured on a 2-core host with numpy 2.4.6), in table order.
SERVE_CELLS: Tuple[Tuple[str, str, str], ...] = (
    # road-USA-W
    ("LS", "bfs", "road-USA-W"), ("SS", "cc", "road-USA-W"),
    ("GB", "cc", "road-USA-W"), ("LS", "cc", "road-USA-W"),
    ("SS", "ktruss", "road-USA-W"), ("GB", "ktruss", "road-USA-W"),
    ("LS", "ktruss", "road-USA-W"), ("SS", "pr", "road-USA-W"),
    ("GB", "pr", "road-USA-W"), ("LS", "pr", "road-USA-W"),
    ("SS", "tc", "road-USA-W"), ("GB", "tc", "road-USA-W"),
    ("LS", "tc", "road-USA-W"),
    # road-USA
    ("SS", "cc", "road-USA"), ("GB", "cc", "road-USA"),
    ("LS", "cc", "road-USA"), ("SS", "ktruss", "road-USA"),
    ("GB", "ktruss", "road-USA"), ("SS", "pr", "road-USA"),
    ("GB", "pr", "road-USA"), ("LS", "pr", "road-USA"),
    ("SS", "tc", "road-USA"), ("GB", "tc", "road-USA"),
    ("LS", "tc", "road-USA"),
    # rmat22
    ("SS", "bfs", "rmat22"), ("GB", "bfs", "rmat22"), ("LS", "bfs", "rmat22"),
    ("SS", "cc", "rmat22"), ("GB", "cc", "rmat22"), ("LS", "cc", "rmat22"),
    ("SS", "pr", "rmat22"), ("GB", "pr", "rmat22"), ("LS", "pr", "rmat22"),
    ("SS", "sssp", "rmat22"), ("GB", "sssp", "rmat22"),
    ("LS", "sssp", "rmat22"), ("SS", "tc", "rmat22"), ("GB", "tc", "rmat22"),
    ("LS", "tc", "rmat22"),
    # indochina04
    ("SS", "bfs", "indochina04"), ("GB", "bfs", "indochina04"),
    ("LS", "bfs", "indochina04"), ("SS", "cc", "indochina04"),
    ("GB", "cc", "indochina04"), ("LS", "cc", "indochina04"),
    ("SS", "pr", "indochina04"), ("GB", "pr", "indochina04"),
    ("LS", "pr", "indochina04"), ("SS", "sssp", "indochina04"),
    ("GB", "sssp", "indochina04"), ("LS", "sssp", "indochina04"),
    ("LS", "tc", "indochina04"),
    # eukarya
    ("SS", "bfs", "eukarya"), ("GB", "bfs", "eukarya"),
    ("LS", "bfs", "eukarya"), ("SS", "cc", "eukarya"), ("GB", "cc", "eukarya"),
    ("LS", "cc", "eukarya"), ("SS", "pr", "eukarya"), ("GB", "pr", "eukarya"),
    ("LS", "pr", "eukarya"), ("SS", "tc", "eukarya"), ("GB", "tc", "eukarya"),
    ("LS", "tc", "eukarya"),
    # rmat26
    ("SS", "bfs", "rmat26"), ("GB", "bfs", "rmat26"), ("LS", "bfs", "rmat26"),
    ("SS", "cc", "rmat26"), ("GB", "cc", "rmat26"), ("LS", "cc", "rmat26"),
    ("SS", "pr", "rmat26"), ("GB", "pr", "rmat26"), ("LS", "pr", "rmat26"),
    ("SS", "sssp", "rmat26"), ("GB", "sssp", "rmat26"),
    ("LS", "sssp", "rmat26"), ("LS", "tc", "rmat26"),
    # twitter40
    ("SS", "bfs", "twitter40"), ("GB", "bfs", "twitter40"),
    ("LS", "bfs", "twitter40"), ("SS", "cc", "twitter40"),
    ("GB", "cc", "twitter40"), ("LS", "cc", "twitter40"),
    ("SS", "pr", "twitter40"), ("GB", "pr", "twitter40"),
    ("LS", "pr", "twitter40"), ("SS", "sssp", "twitter40"),
    ("GB", "sssp", "twitter40"), ("LS", "sssp", "twitter40"),
    ("LS", "tc", "twitter40"),
    # friendster
    ("SS", "bfs", "friendster"), ("GB", "bfs", "friendster"),
    ("LS", "bfs", "friendster"), ("SS", "cc", "friendster"),
    ("GB", "cc", "friendster"), ("LS", "cc", "friendster"),
    ("SS", "pr", "friendster"), ("LS", "pr", "friendster"),
    ("SS", "sssp", "friendster"), ("GB", "sssp", "friendster"),
    ("LS", "sssp", "friendster"), ("LS", "tc", "friendster"),
    # uk07
    ("SS", "bfs", "uk07"), ("GB", "bfs", "uk07"), ("LS", "bfs", "uk07"),
    ("SS", "cc", "uk07"), ("GB", "cc", "uk07"), ("LS", "cc", "uk07"),
    ("SS", "pr", "uk07"), ("GB", "pr", "uk07"), ("LS", "pr", "uk07"),
    ("SS", "sssp", "uk07"), ("GB", "sssp", "uk07"), ("LS", "sssp", "uk07"),
)


@dataclass
class BurstResult:
    setup_s: float
    #: First submit to last ``done`` event.
    window_s: float
    latencies: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    runs: List[float] = field(default_factory=list)
    submit_s: List[float] = field(default_factory=list)
    poll_s: List[float] = field(default_factory=list)
    first_lease_s: float = 0.0
    busy_frac: float = 0.0
    stats: Dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)

    @property
    def jobs_per_s(self) -> float:
        return len(self.latencies) / self.window_s


class _Client:
    """Submits the burst, then polls results until every job is in."""

    def __init__(self, base: str, jobs, oracle: Oracle):
        self.base = base
        self.jobs = jobs
        self.oracle = oracle
        self.submitted = threading.Event()
        self.stop = threading.Event()
        self.ids: List[int] = []
        self.rows: Dict[int, dict] = {}
        self.submit_s: List[float] = []
        self.poll_s: List[float] = []
        self.failures: List[str] = []
        self.error: Optional[Exception] = None

    def _call(self, method: str, path: str, body=None):
        data = None if body is None else json.dumps(body).encode()
        request = urllib.request.Request(
            self.base + path, data=data, method=method,
            headers={"Content-Type": "application/json"})
        t0 = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=30) as response:
                code, payload = response.status, json.loads(response.read())
        except urllib.error.HTTPError as exc:
            code, payload = exc.code, json.loads(exc.read() or b"{}")
        return code, payload, time.perf_counter() - t0

    def run(self) -> None:
        try:
            self._submit()
        except Exception as exc:  # re-raised by the main thread
            self.error = exc
        finally:
            self.submitted.set()
        try:
            self._poll()
        except Exception as exc:
            self.error = exc

    def _submit(self) -> None:
        for key in self.jobs:
            system, app, graph = key
            body = {"system": system, "app": app, "graph": graph}
            if self.oracle.wants_sweep(key):
                body["params"] = {"sweep": True}
            code, payload, seconds = self._call("POST", "/jobs", body)
            self.submit_s.append(seconds)
            if code // 100 != 2:
                self.failures.append(f"{'/'.join(key)}: submit answered "
                                     f"{code}")
                continue
            self.ids.append(int(payload["id"]))

    def _poll(self) -> None:
        pending = list(self.ids)
        while pending:
            code, payload, seconds = self._call(
                "GET", f"/jobs/{pending[0]}/result")
            self.poll_s.append(seconds)
            if code == 200:
                self.rows[pending.pop(0)] = payload["result"]
            elif self.stop.is_set():
                pending.pop(0)  # the drain is over: no result will come
            else:
                self.stop.wait(POLL_INTERVAL)


def _start_api(qdir: str):
    """Set-up: a fresh queue file and the API server on its own thread.
    Returns ``(queue path, server, server thread, seconds taken)``."""
    from repro.service.api import make_server
    from repro.service.queue import JobQueue

    t0 = time.perf_counter()
    path = f"{qdir}/queue.db"
    JobQueue(path).close()
    server = make_server(path)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05},
        name="perfbench-api", daemon=True)
    thread.start()
    return path, server, thread, time.perf_counter() - t0


def _stop_api(server, thread) -> None:
    server.shutdown()
    server.server_close()
    thread.join(10)


def setup_sample(workdir: str) -> float:
    """Time one set-up alone (queue creation and server start)."""
    qdir = tempfile.mkdtemp(prefix="serve-", dir=workdir)
    try:
        _path, server, thread, seconds = _start_api(qdir)
        _stop_api(server, thread)
        return seconds
    finally:
        shutil.rmtree(qdir, ignore_errors=True)


def run_burst(jobs, oracle: Oracle, workdir: str) -> BurstResult:
    """Serve one burst of ``jobs`` on a fresh queue under ``workdir``."""
    from repro.service.queue import JobQueue
    from repro.service.queue_supervisor import QueueSupervisor

    qdir = tempfile.mkdtemp(prefix="serve-", dir=workdir)
    try:
        path, server, server_thread, setup_s = _start_api(qdir)
        try:
            host, port = server.server_address[:2]
            client = _Client(f"http://{host}:{port}", jobs, oracle)
            client_thread = threading.Thread(
                target=client.run, name="perfbench-client", daemon=True)
            client_thread.start()
            client.submitted.wait()
            queue = JobQueue(path)
            try:
                supervisor = QueueSupervisor(queue, workers=WORKERS)
                drain_start = time.time()
                supervisor.drain()
            finally:
                queue.close()
                client.stop.set()
            client_thread.join(CLIENT_GRACE)
            if client_thread.is_alive():
                raise RuntimeError("result client did not finish")
            if client.error is not None:
                raise client.error
        finally:
            _stop_api(server, server_thread)
        return _summarize(path, jobs, client, supervisor, oracle,
                          setup_s, drain_start)
    finally:
        shutil.rmtree(qdir, ignore_errors=True)


def _summarize(path, jobs, client: _Client, supervisor, oracle: Oracle,
               setup_s: float, drain_start: float) -> BurstResult:
    from repro.service.queue import JobQueue

    failures = list(client.failures)
    latencies, waits, runs = [], [], []
    submitted_ts, leased_ts, done_ts = [], [], []
    queue = JobQueue(path)
    try:
        for job_id in client.ids:
            events = queue.events(job_id)
            first = {}
            for event in events:
                first.setdefault(event["kind"], event["ts"])
            last_lease = max((e["ts"] for e in events
                              if e["kind"] == "leased"), default=None)
            job = queue.get(job_id)
            if job.state != "done" or "done" not in first:
                failures.append(f"job {job_id}: ended {job.state}")
                continue
            row = client.rows.get(job_id)
            reason = ("result never polled" if row is None
                      else oracle.mismatch(row))
            if reason is not None:
                failures.append(f"job {job_id}: {reason}")
            latencies.append(first["done"] - first["submitted"])
            waits.append(first["leased"] - first["submitted"])
            runs.append(first["done"] - last_lease)
            submitted_ts.append(first["submitted"])
            leased_ts.append(first["leased"])
            done_ts.append(first["done"])
    finally:
        queue.close()
    if not done_ts:
        raise RuntimeError("no job of the burst completed")
    window = max(done_ts) - min(submitted_ts)
    active = max(done_ts) - min(leased_ts)
    stats = dict(supervisor.stats)
    return BurstResult(
        setup_s=setup_s, window_s=window, latencies=latencies,
        queue_waits=waits, runs=runs, submit_s=client.submit_s,
        poll_s=client.poll_s, first_lease_s=min(leased_ts) - drain_start,
        busy_frac=sum(runs) / (WORKERS * active), stats=stats,
        attempted=len(jobs), failures=failures)


def service_metrics(burst: BurstResult) -> Dict[str, float]:
    """The ``service.*`` per-layer metrics of one burst."""
    return {
        "service.submit_p50_s": percentile(burst.submit_s, 50),
        "service.poll_p50_s": percentile(burst.poll_s, 50),
        "service.queue_wait_p50_s": percentile(burst.queue_waits, 50),
        "service.queue_wait_p90_s": percentile(burst.queue_waits, 90),
        "service.run_p50_s": percentile(burst.runs, 50),
        "service.run_p90_s": percentile(burst.runs, 90),
        "service.first_lease_s": burst.first_lease_s,
        "service.worker_busy_frac": burst.busy_frac,
        **{f"service.{key}": float(burst.stats.get(key, 0))
           for key in ("spawned", "prewarmed", "requeued", "crashes",
                       "dead")},
    }
