"""The repository benchmark: batch CSV audits and durable fleet ingest,
end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload serial --seed 1 --seconds 20 --trace 0

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the full record of the run (inputs, environment, every sample). Traces,
logs and records are kept under ``.perfbench/`` in the checkout.

Workloads
---------
Every workload runs both of the paper's user-facing jobs, one after the
other, so every end-to-end metric exists on every workload:

* the batch audit (``csv_serial`` / ``csv_pool2``): a seeded Adult-like
  CSV (``sex`` 2, ``race`` 5, ``native_region`` 4, ``age_band`` 5,
  outcome ``income`` 2, plus 3 columns the audit skips; Zipf-skewed
  levels, so the rarest of the 200 intersections hold a handful of
  rows; no quoted fields) audited with ``FairnessAuditor(...,
  estimator=1.0, posterior_samples=1000).audit_csv`` cold (fresh
  ``.rccol`` column cache) and then warm (cache reused), each audit on
  a new backend as one CLI invocation would;
* the monitor (``fleet_mixed``): ``repro fleet-serve --shards 2`` on a
  fresh data dir (WAL fsync per batch, ``--checkpoint-every 64``), two
  monitors (one per shard; 2x5x5 levels, alpha 1, window 50 000 rows,
  200 posterior samples, one threshold rule armed), one closed-loop
  client thread each, 1000-row ``observe`` batches with ``batch_id``,
  every 10th request a ``GET /report``.

The workloads differ in the audit backend only:

``serial``
    ``SerialBackend``: the CLI default and the single-process baseline.
    The engine's coordinator and transport do no work here, so an
    engine change should leave every number of this workload unchanged.
``pool2``
    ``ProcessPoolBackend(workers=2)`` (= ``nproc`` on the reference
    box, ``audit-stream --workers 2 --column-cache``). The pool is
    created per audit, so its spawn cost lands where a CLI user pays
    it; the engine's window, shared-memory ring and merge run only here
    and are most of a warm audit.

End-to-end metrics (tracing off)
--------------------------------
A run is ``CYCLES`` (3) cycles of one audit process and one fleet, so
every metric below pools samples from the whole run.

``setup_s``        median audit-process start to auditor and backend
                   ready, plus median fleet spawn to router banner and
                   both monitors created (the largest bound).
``cold_audit_s``   median of the cold audits (one per cycle).
``warm_audit_s``   median of the warm re-audits (at least 5 per cycle).
``acked_rows_per_s``  median over cycles of acked rows per ingest second.
``ack_p50_ms``, ``ack_p99_ms``  send-to-ack (>= 1000 acks in a run).
``report_p50_ms``  ``GET /report`` (>= 100 reports in a run).
``ok_ops_ratio``   operations that succeeded over operations attempted
                   (audits + fleet requests, after client retries); the
                   result's ``failed`` carries the count.
``peak_rss_mb``    largest peak RSS of an audit process plus its pool,
                   plus the largest summed peak RSS of fleet-serve and
                   its shards.
``shutdown_s``     median SIGTERM to a clean fleet-serve exit (final
                   checkpoints included).

The run record (the line before the result) also carries
``report_p90_ms``. It is reported with the per-layer metrics rather
than bounded: on the 2-vCPU reference VM its run-to-run spread reached
a third of its median, wider than any bound a regression gate can use.

Per-layer metrics (``--trace 1``) and what they should move
-----------------------------------------------------------
The benchmark wraps its own calls into each layer's public functions in
``repro.obs.trace`` spans (exported as Chrome-trace JSON that Perfetto
loads) and reads the counters the program keeps.

======================================  ===============================  =========
layer metric                            moves                            workload
======================================  ===============================  =========
tabular.plan_s, tabular.parse_s,        cold_audit_s (flat on warm and   both
tabular.parse_rows_per_s,               on the fleet)
tabular.colcache_build_s
tabular.colcache_open_s,                warm_audit_s                     both
tabular.colcache_decode_s,
tabular.cache_rebuilds (0 when warm)
core.count_s                            cold_audit_s, warm_audit_s       both
core.subset_sweep_s,                    warm_audit_s (largest share)     both
core.posterior_sweep_s,
core.metric_sweep_s
engine.build_s, engine.overhead_s,      cold/warm_audit_s on pool2,      pool2
engine.stage.{submit,parse_wait,        nothing on serial
decode,merge}_s, engine.chunks,
engine.ring_fallback_ratio
core.streaming_observe_ms ->            ack_p50_ms, acked_rows_per_s     both
monitor.observe_ms -> monitor.store_ms
-> monitor.wal_ms -> service.http_ms
-> routing.direct_ms ->
routing.routed_ms (the ladder);
routing.hop_ms, client.encode_ms,
client.decode_ms
monitor.checkpoint_ms                   ack_p99_ms, shutdown_s           both
monitor.report_ms, report_p90_ms        report_p50_ms                    both
wal.fsyncs_per_batch,                   ack_p50_ms, ack_p99_ms           both
wal.group_commit_records_mean,
monitor.stage.{admit,wal_append,
apply,alerts}_ms, client.retries
trace.unattributed_share,               (tracing quality)                both
trace.overhead_ratio
======================================  ===============================  =========

Correctness (:mod:`oracle`) is checked on every run before a number is
reported, and so is hygiene: no fleet process, pool worker or
``/dev/shm`` ring segment may outlive its teardown.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

CSV_ROWS = 400_000
#: Each cycle runs one audit process (set-up, a cold audit, warm
#: re-audits) and then one fleet (set-up, ingest, shutdown). Taking
#: every sample in each cycle spreads the samples of every metric over
#: the whole run, so a slow spell on a shared machine hits one cycle's
#: samples of each metric rather than all samples of one metric.
CYCLES = 3
FLEET_STREAM_BATCHES = 200  # distinct batches per monitor, then cycled
WARM_SHARE = 0.1  # of --seconds spent on warm re-audits
FLEET_SHARE = 0.75  # of --seconds spent on fleet ingest
CHILD_SECONDS = 90.0
RING_PREFIX = "repro_ring_"
WORKLOADS = ("serial", "pool2")  # named after the audit backend


def cpu_jiffies() -> list[int]:
    """The machine-wide ``cpu`` line of /proc/stat (user ... steal ...)."""
    with open("/proc/stat", encoding="ascii") as stat:
        return [int(field) for field in stat.readline().split()[1:]]


def ring_segments() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith(RING_PREFIX)}


def environment(data_dir: Path) -> dict:
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "data_dir_fs": _filesystem(data_dir),
        "flush_policy": "WAL fsync per observe batch before the ack; "
        "fleet-serve default --checkpoint-every 64; final checkpoints "
        "on SIGTERM",
    }


def _git_sha() -> str | None:
    """HEAD of the checkout's own .git, if it has one (never a parent's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _filesystem(path: Path) -> str:
    best, fstype = "", "unknown"
    resolved = str(path.resolve())
    with open("/proc/mounts", encoding="utf-8") as mounts:
        for line in mounts:
            fields = line.split()
            mount = fields[1]
            inside = resolved == mount or resolved.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, fstype = mount, fields[2]
    return fstype


def run_csv_job(csv_path: str, cache_path: Path, backend: str, env: dict,
                warm_seconds: float, trace_path: Path | None) -> dict:
    """One audit process; its set-up is timed up to its ``ready`` line."""
    argv = [
        sys.executable, str(HERE / "csv_job.py"), "--csv", csv_path,
        "--backend", backend, "--cache", str(cache_path),
        "--warm-seconds", str(warm_seconds),
    ]
    if trace_path is not None:
        argv += ["--trace", str(trace_path)]
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=env, text=True)
    try:
        if proc.stdout.readline().strip() != "ready":
            raise RuntimeError("csv_job exited before it was ready")
        setup_s = time.perf_counter() - started
        output, _ = proc.communicate(timeout=CHILD_SECONDS)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"csv_job exited with code {proc.returncode}")
    record = json.loads(output.strip().splitlines()[-1])
    record["setup_s"] = setup_s
    return record


def layer_metrics(csv_record: dict, fleet_record: dict, retries: int) -> dict:
    from probes import counter_total, histogram_mean

    ladder = fleet_record["ladder"]
    state = fleet_record["fleet_metrics"]
    stage_ms = {
        stage: 1e3 * histogram_mean(state, "repro_observe_stage_seconds", stage=stage)
        for stage in ("admit", "wal_append", "apply", "alerts")
    }
    hop = ladder["routing.routed"] - ladder["routing.direct"]
    attributed = (
        ladder["client.encode"] + ladder["client.decode"]
        + sum(stage_ms.values()) + hop
    )
    appends = counter_total(state, "repro_wal_appends_total")
    return {
        **csv_record["layers"],
        **{
            f"{key}_ms": ladder[key]
            for key in (
                "core.streaming_observe", "monitor.observe", "monitor.store",
                "monitor.wal", "service.http", "routing.direct",
                "routing.routed", "client.encode", "client.decode",
                "monitor.checkpoint", "monitor.report",
            )
        },
        "routing.hop_ms": hop,
        "wal.fsyncs_per_batch": (
            counter_total(state, "repro_wal_fsyncs_total") / appends
            if appends else 0.0
        ),
        "wal.group_commit_records_mean": histogram_mean(
            state, "repro_wal_group_commit_records"
        ),
        **{f"monitor.stage.{stage}_ms": value for stage, value in stage_ms.items()},
        "client.retries": retries,
        "trace.unattributed_share": (
            (ladder["routing.routed"] - attributed) / ladder["routing.routed"]
        ),
        "trace.overhead_ratio": (
            ladder["routing.routed"] / ladder["routing.routed_untraced"]
        ),
    }


def own_processes(out: Path) -> dict[int, str]:
    """Live processes started for this run, found by the run's private
    directory in their arguments: PID -> command line. They are stopped
    by PID."""
    from probes import process_alive

    marker = str(out).encode()
    found = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or int(entry.name) == os.getpid():
            continue
        try:
            argv = (entry / "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        if any(marker in arg for arg in argv) and process_alive(int(entry.name)):
            found[int(entry.name)] = b" ".join(argv).decode(errors="replace")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark at {SRC / 'repro'}", file=sys.stderr)
        return 2
    traced = bool(args.trace)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if traced else "end_to_end"]
    sys.path[:0] = [str(SRC), str(HERE)]
    from fleet import (
        BATCH_ROWS, MIN_ACKS, MIN_REPORTS, N_SHARDS, REPORT_EVERY, WINDOW,
        percentile, run_fleet,
    )
    from oracle import check_csv
    from repro.obs.trace import (
        NULL_TRACER, TraceSink, Tracer, read_trace_events, write_chrome_trace,
    )
    from workload import fleet_streams, write_csv

    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
        PYTHONUNBUFFERED="1",
    )
    rings_before = ring_segments()
    jiffies_before = cpu_jiffies()
    sink = TraceSink(out / "bench.trace.jsonl") if traced else None
    tracer = Tracer(sink) if sink else NULL_TRACER
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(out),
    }
    audits, fleets, problems = [], [], []
    try:
        csv_input = write_csv(str(out / "audit.csv"), CSV_ROWS, args.seed)
        streams = fleet_streams(N_SHARDS, FLEET_STREAM_BATCHES, BATCH_ROWS, args.seed)
        # The inputs live for the whole run. A full collection over them
        # takes ~0.1 s; frozen, the collector never rescans them while a
        # client thread is being timed.
        gc.collect()
        gc.freeze()
        for cycle in range(CYCLES):
            last_traced = traced and cycle == CYCLES - 1
            cycle_dir = out / f"cycle{cycle}"
            cycle_dir.mkdir()
            # Flush the previous phase's writes, so their writeback does
            # not land inside the next phase's timings.
            os.sync()
            audits.append(
                run_csv_job(
                    csv_input.path, cycle_dir / "audit.rccol", args.workload,
                    env, WARM_SHARE * args.seconds / CYCLES,
                    out / "csv.trace.jsonl" if last_traced else None,
                )
            )
            problems += check_csv(csv_input, audits[-1])
            os.sync()
            fleets.append(
                run_fleet(
                    cycle_dir, env, streams, FLEET_SHARE * args.seconds / CYCLES,
                    tracer, cycles=CYCLES, ladder_too=last_traced,
                )
            )
            problems += fleets[-1].pop("problems")
    finally:
        if sink is not None:
            sink.close()
        survivors = own_processes(out)
        for pid in survivors:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10.0
        while own_processes(out) and time.monotonic() < deadline:
            time.sleep(0.05)
        for path in out.iterdir():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)
            elif path.suffix == ".csv":
                path.unlink()

    # Time the hypervisor gave this machine's CPUs to other guests: the
    # first thing to check when a run's numbers are off.
    jiffies = [after - before for before, after in zip(jiffies_before, cpu_jiffies())]
    record["environment"]["cpu_steal_share"] = jiffies[7] / max(sum(jiffies), 1)
    if survivors:
        problems.append(f"hygiene: processes {survivors} outlived their teardown")
    leaked_rings = sorted(ring_segments() - rings_before)
    if leaked_rings:
        problems.append(f"hygiene: /dev/shm ring segments left: {leaked_rings}")
    leaked_workers = [pid for audit in audits for pid in audit["leaked_workers"]]
    if leaked_workers:
        problems.append(f"hygiene: pool workers outlived close(): {leaked_workers}")

    def pooled(records, key):
        return [value for item in records for value in item[key]]

    median = statistics.median
    ack_ms, report_ms = pooled(fleets, "ack_ms"), pooled(fleets, "report_ms")
    if len(ack_ms) < MIN_ACKS or len(report_ms) < MIN_REPORTS:
        problems.append(
            f"fleet: only {len(ack_ms)} acks and {len(report_ms)} reports "
            "before the hard deadline"
        )
    attempted = sum(1 + len(a["warm_s"]) for a in audits) + sum(
        f["attempted"] for f in fleets
    )
    failed = sum(f["failed"] for f in fleets)
    values = {
        "setup_s": median(a["setup_s"] for a in audits)
        + median(f["setup_s"] for f in fleets),
        "cold_audit_s": median(a["cold_s"] for a in audits),
        "warm_audit_s": median(pooled(audits, "warm_s")),
        "acked_rows_per_s": median(f["acked_rows"] / f["ingest_s"] for f in fleets),
        "ack_p50_ms": median(ack_ms),
        "ack_p99_ms": percentile(ack_ms, 99),
        "report_p50_ms": median(report_ms),
        "report_p90_ms": percentile(report_ms, 90),
        "ok_ops_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": max(a["peak_rss_mb"] for a in audits)
        + max(f["peak_rss_mb"] for f in fleets),
        "shutdown_s": median(f["shutdown_s"] for f in fleets),
    }
    record.update(
        inputs={
            "csv": csv_input.properties(),
            "fleet": {
                "monitors": N_SHARDS,
                "shards": N_SHARDS,
                "batch_rows": BATCH_ROWS,
                "distinct_batches_per_monitor": FLEET_STREAM_BATCHES,
                "window_rows": WINDOW,
                "report_every": REPORT_EVERY,
                "loop": "closed, one client thread per monitor",
            },
        },
        problems=problems,
        samples={
            "csv_setup_s": [a["setup_s"] for a in audits],
            "fleet_setup_s": [f["setup_s"] for f in fleets],
            "cold_audit_s": [a["cold_s"] for a in audits],
            "warm_audit_s": pooled(audits, "warm_s"),
            "shutdown_s": [f["shutdown_s"] for f in fleets],
            "acks": len(ack_ms),
            "reports": len(report_ms),
            "client_errors": pooled(fleets, "errors"),
        },
        end_to_end=values,
    )
    produced = values
    if traced:
        produced = record["per_layer"] = {
            "report_p90_ms": values["report_p90_ms"],
            **layer_metrics(
                audits[-1], fleets[-1], sum(f["retries"] for f in fleets)
            ),
        }
        write_chrome_trace(
            read_trace_events(out / "csv.trace.jsonl")
            + read_trace_events(out / "bench.trace.jsonl"),
            out / "trace.chrome.json",
        )
    missing = {entry["name"] for entry in declared} - set(produced)
    if missing:
        raise RuntimeError(f"BENCHMARK.json metrics not measured: {sorted(missing)}")
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    entry["name"]: {
                        "value": produced[entry["name"]], "unit": entry["unit"],
                    }
                    for entry in declared
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
