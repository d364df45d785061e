"""The fleet job: ``repro fleet-serve`` driven by closed-loop clients.

The fleet runs as a subprocess (``python -m repro fleet-serve --shards 2
--port 0``) on a fresh data directory, with the defaults a user gets:
the WAL fsyncs every batch before the ack, and each shard checkpoints a
monitor every 64 batches inline. Two monitors, one per shard (chosen
with ``shard_for``), are driven by one client thread each; a client
sends its next request only after the previous one is answered. Every
``REPORT_EVERY``-th request is a ``GET /report``, which runs the
posterior read path while the other client writes.

Processes are stopped by PID: SIGTERM to ``fleet-serve`` (timed as the
shutdown, which includes the final checkpoints), SIGKILL to it and its
shard PIDs from the banner if anything goes wrong. Whether anything
outlived the teardown is checked once per run, by ``run.py``.

With tracing on, the same batches are also pushed up the stack one
layer at a time (the ladder in :func:`ladder`).
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from probes import peak_rss_mb, process_alive
from workload import FLEET_OUTCOME, FLEET_PROTECTED

N_SHARDS = 2
BATCH_ROWS = 1000
WINDOW = 50_000
POSTERIOR_SAMPLES = 200
REPORT_EVERY = 10
EPSILON_THRESHOLD = 3.0
MIN_ACKS = 1000  # so ack p99 has at least ten samples beyond it
MIN_REPORTS = 100  # so report p90 has at least ten samples beyond it
CLIENT_RETRIES = 8
BANNER_SECONDS = 60.0
STOP_SECONDS = 60.0
LADDER_BATCHES = 60

PROTECTED = tuple(name for name, _ in FLEET_PROTECTED)
OUTCOME = FLEET_OUTCOME[0]


def monitor_config(name: str) -> dict:
    return {
        "name": name,
        "protected": list(PROTECTED),
        "outcome": OUTCOME,
        "alpha": 1.0,
        "window": WINDOW,
        "posterior_samples": POSTERIOR_SAMPLES,
        "rules": [{"type": "epsilon_threshold", "threshold": EPSILON_THRESHOLD}],
    }


def monitor_names() -> list[str]:
    """One monitor name per shard, by the router's own hash."""
    from repro.monitor.routing import shard_for

    found: dict[int, str] = {}
    index = 0
    while len(found) < N_SHARDS:
        name = f"bench{index}"
        found.setdefault(shard_for(name, N_SHARDS), name)
        index += 1
    return [found[shard] for shard in range(N_SHARDS)]


class Fleet:
    """One ``fleet-serve`` process and the shard PIDs its banner names."""

    def __init__(self, data_dir: Path, env: dict, log_path: Path):
        self.data_dir = data_dir
        self._env = env
        self._log_path = log_path
        self.proc: subprocess.Popen | None = None
        self.url: str | None = None
        self.shard_pids: list[int] = []
        self.shard_urls: list[str] = []

    def start(self) -> None:
        """Spawn and wait for the router banner and every shard line."""
        with open(self._log_path, "ab") as log:
            self.proc = subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "fleet-serve",
                    "--data-dir", str(self.data_dir),
                    "--shards", str(N_SHARDS), "--port", "0",
                ],
                stdout=subprocess.PIPE,
                stderr=log,
                env=self._env,
                text=True,
            )
        timer = threading.Timer(BANNER_SECONDS, self.proc.kill)
        timer.start()
        try:
            while self.url is None or len(self.shard_pids) < N_SHARDS:
                line = self.proc.stdout.readline()
                if not line:
                    raise RuntimeError(
                        f"fleet-serve exited before its banner; see {self._log_path}"
                    )
                words = line.split()
                if "router listening on" in line:
                    self.url = words[words.index("on") + 1]
                elif " pid " in line:
                    self.shard_pids.append(int(words[words.index("pid") + 1]))
                    self.shard_urls.append(words[words.index("at") + 1])
        finally:
            timer.cancel()

    def pids(self) -> list[int]:
        return ([self.proc.pid] if self.proc else []) + self.shard_pids

    def peak_rss_mb(self) -> float:
        return sum(peak_rss_mb(pid) for pid in self.pids())

    def stop(self) -> float:
        """SIGTERM, wait for a clean exit; returns the seconds it took."""
        started = time.perf_counter()
        self.proc.send_signal(signal.SIGTERM)
        self.proc.communicate(timeout=STOP_SECONDS)
        code = self.proc.returncode
        elapsed = time.perf_counter() - started
        if code != 0:
            raise RuntimeError(f"fleet-serve exited with code {code}")
        return elapsed

    def kill(self) -> None:
        """Stop everything this fleet started, by PID, and reap it."""
        for pid in self.pids():
            if process_alive(pid):
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        if self.proc is not None:
            self.proc.wait(timeout=STOP_SECONDS)
            if self.proc.stdout is not None:
                self.proc.stdout.close()


def start_fleet(data_dir: Path, env: dict, log_path: Path, names):
    """Set-up as a user pays it: spawn, banner, monitors created."""
    from repro.monitor.client import MonitorClient

    fleet = Fleet(data_dir, env, log_path)
    started = time.perf_counter()
    try:
        fleet.start()
        client = MonitorClient(fleet.url, retries=CLIENT_RETRIES)
        for name in names:
            client.create(monitor_config(name))
    except BaseException:
        fleet.kill()
        raise
    return fleet, time.perf_counter() - started


class ClientLoop:
    """One closed-loop client owning one monitor."""

    def __init__(self, url: str, name: str, stream, min_acks: int, min_reports: int):
        from repro.monitor.client import MonitorClient

        self.name = name
        self.stream = stream
        self.min_acks = min_acks
        self.min_reports = min_reports
        self.retries = 0
        self.client = MonitorClient(
            url, retries=CLIENT_RETRIES, sleep=self._sleep
        )
        self.ack_ms: list[float] = []
        self.report_ms: list[float] = []
        self.acked_rows: list[list[str]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _sleep(self, seconds: float) -> None:
        self.retries += 1
        time.sleep(seconds)

    def done(self, deadline: float) -> bool:
        return (
            time.perf_counter() >= deadline
            and len(self.ack_ms) >= self.min_acks
            and len(self.report_ms) >= self.min_reports
        )

    def run(self, deadline: float, hard_deadline: float, tracer) -> None:
        batch = 0
        while not self.done(deadline) and time.perf_counter() < hard_deadline:
            self.attempted += 1
            is_report = self.attempted % REPORT_EVERY == 0
            started = time.perf_counter()
            try:
                if is_report:
                    with tracer.span("client.report", monitor=self.name):
                        self.client.report(self.name)
                    self.report_ms.append(1e3 * (time.perf_counter() - started))
                    continue
                rows = self.stream.batch(batch)
                with tracer.span("client.observe", monitor=self.name):
                    self.client.observe(
                        self.name, rows, batch_id=f"{self.name}-{batch}"
                    )
                self.ack_ms.append(1e3 * (time.perf_counter() - started))
                self.acked_rows.extend(rows)
                batch += 1
            except Exception as error:  # noqa: BLE001 - counted and reported
                self.failed += 1
                self.errors.append(f"{type(error).__name__}: {error}")
                if not is_report:
                    batch += 1


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def run_fleet(work: Path, env: dict, streams, seconds: float, tracer, *,
              cycles: int, ladder_too: bool):
    """One of ``cycles`` fleet cycles: set-up, closed-loop ingest for
    ``seconds`` (and this cycle's share of MIN_ACKS acks and MIN_REPORTS
    reports), the oracle, and a SIGTERM shutdown. Returns the cycle's
    samples and problems."""
    from repro.monitor.client import MonitorClient

    from oracle import check_fleet

    names = monitor_names()
    log_path = work.parent / f"{work.name}-fleet.log"  # kept after the run
    fleet, setup_s = start_fleet(work / "fleet", env, log_path, names)
    record = {"setup_s": setup_s, "problems": []}
    try:
        clients = N_SHARDS * cycles
        loops = [
            ClientLoop(
                fleet.url, name, stream,
                -(-MIN_ACKS // clients), -(-MIN_REPORTS // clients),
            )
            for name, stream in zip(names, streams)
        ]
        started = time.perf_counter()
        deadline = started + seconds
        hard_deadline = started + max(4 * seconds, 60.0)
        threads = [
            threading.Thread(
                target=loop.run, args=(deadline, hard_deadline, tracer)
            )
            for loop in loops
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        record["ingest_s"] = time.perf_counter() - started

        client = MonitorClient(fleet.url, retries=CLIENT_RETRIES)
        for loop in loops:
            record["problems"] += check_fleet(
                loop.name, PROTECTED, OUTCOME, WINDOW, loop.acked_rows,
                client.report(loop.name),
            )
        record.update(
            attempted=sum(loop.attempted for loop in loops),
            failed=sum(loop.failed for loop in loops),
            errors=[error for loop in loops for error in loop.errors][:10],
            retries=sum(loop.retries for loop in loops),
            acked_rows=sum(len(loop.acked_rows) for loop in loops),
            ack_ms=[value for loop in loops for value in loop.ack_ms],
            report_ms=[value for loop in loops for value in loop.report_ms],
        )
        if ladder_too:
            record["ladder"] = ladder(fleet, names[0], streams[0], work, tracer)
            record["fleet_metrics"] = client.request("GET", "/metrics.json")
        record["peak_rss_mb"] = fleet.peak_rss_mb()
        record["shutdown_s"] = fleet.stop()
    finally:
        fleet.kill()
    return record


def ladder(fleet: Fleet, name: str, stream, work: Path, tracer) -> dict:
    """Push the same batches up the stack one layer at a time.

    Each rung adds exactly one layer to the one below it, so the
    difference of adjacent rung medians is that layer's cost per batch:
    ``StreamingAuditor.observe`` → in-memory ``MonitorRegistry`` →
    + history store → + WAL fsync → + HTTP service (in process) → a
    POST straight to the shard that owns the monitor → the same POST
    through the router. Returns median milliseconds per batch.
    """
    from repro.audit.stream import StreamingAuditor
    from repro.monitor.client import MonitorClient
    from repro.monitor.registry import MonitorConfig, MonitorRegistry
    from repro.monitor.routing import shard_for
    from repro.monitor.service import MonitorService

    batches = [stream.batch(index) for index in range(LADDER_BATCHES)]
    spans: dict[str, list[float]] = {}

    def timed(span_name: str, call, *, traced: bool = True):
        started = time.perf_counter()
        if traced:
            with tracer.span(span_name):
                result = call()
        else:
            result = call()
        spans.setdefault(span_name, []).append(time.perf_counter() - started)
        return result

    auditor = StreamingAuditor(
        PROTECTED, OUTCOME, estimator=1.0,
        posterior_samples=POSTERIOR_SAMPLES, window=WINDOW,
    )
    for rows in batches:
        timed("core.streaming_observe", lambda: auditor.observe(rows))

    config = MonitorConfig.from_dict(monitor_config(name))

    def registry_rung(span_name: str, registry: MonitorRegistry) -> None:
        registry.create_from_config(config)
        for index, rows in enumerate(batches):
            timed(
                span_name,
                lambda: registry.observe(name, rows, batch_id=f"l-{index}"),
            )

    registry_rung("monitor.observe", MonitorRegistry())
    store_registry = MonitorRegistry.open(work / "ladder-store", wal_enabled=False)
    registry_rung("monitor.store", store_registry)
    wal_registry = MonitorRegistry.open(work / "ladder-wal")
    try:
        registry_rung("monitor.wal", wal_registry)
        for _ in range(LADDER_BATCHES // 6):
            timed("monitor.checkpoint", lambda: wal_registry.checkpoint_monitor(name))
            timed("monitor.report", lambda: wal_registry.report(name))
    finally:
        wal_registry.close()

    http_registry = MonitorRegistry.open(work / "ladder-http")
    service = MonitorService(http_registry, port=0).start()
    try:
        client = MonitorClient(service.url, retries=CLIENT_RETRIES)
        client.create(config.to_dict())
        for index, rows in enumerate(batches):
            body = {"rows": rows, "batch_id": f"l-{index}"}
            timed("client.encode", lambda: json.dumps(body).encode("utf-8"))
            ack = timed(
                "service.http",
                lambda: client.observe(name, rows, batch_id=f"l-{index}"),
            )
            payload = json.dumps(ack).encode("utf-8")
            timed("client.decode", lambda: json.loads(payload.decode("utf-8")))
    finally:
        service.shutdown()
        http_registry.close()

    # The last rungs run on the live fleet, on a monitor of their own
    # that lives on the same shard as ``name``.
    ladder_name = "ladder0"
    index = 0
    while shard_for(ladder_name, N_SHARDS) != shard_for(name, N_SHARDS):
        index += 1
        ladder_name = f"ladder{index}"
    routed = MonitorClient(fleet.url, retries=CLIENT_RETRIES)
    routed.create({**config.to_dict(), "name": ladder_name})
    direct = MonitorClient(
        fleet.shard_urls[shard_for(name, N_SHARDS)], retries=CLIENT_RETRIES
    )
    for index, rows in enumerate(batches):
        timed(
            "routing.direct",
            lambda: direct.observe(ladder_name, rows, batch_id=f"d-{index}"),
        )
        timed(
            "routing.routed",
            lambda: routed.observe(ladder_name, rows, batch_id=f"r-{index}"),
        )
        timed(
            "routing.routed_untraced",
            lambda: routed.observe(ladder_name, rows, batch_id=f"u-{index}"),
            traced=False,
        )
    return {key: 1e3 * statistics.median(values) for key, values in spans.items()}
