"""The CSV audit job, run as its own process so its memory and start-up
are the program's alone.

Usage (``PYTHONPATH`` must name the repository's ``src``)::

    python3 perfbench/csv_job.py --csv FILE --backend serial|pool2 \
        --cache NEW.rccol [--warm-seconds S] [--trace OUT]

The job prints ``ready`` once ``repro`` is imported and the auditor and
backend exist (the parent times set-up up to that line), then one JSON
line with its measurements.

Every audit is ``FairnessAuditor(..., estimator=1.0,
posterior_samples=1000).audit_csv(path, backend=..., column_cache=...)``
on a backend constructed for that audit and closed after it, as one
``audit-stream --column-cache`` invocation would: a pool's spawn cost
lands in the audit. One cold audit builds the cache at ``--cache``;
the warm audits that follow re-use it.

With ``--trace OUT`` the audits run inside spans, and the job then
drives each layer's public functions on the same file, one layer at a
time, each call inside a span named after the layer (``tabular.parse``,
``core.count``, ``engine.build``, ...). The spans go to ``OUT`` as JSON
lines; the per-layer metrics are computed from them.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import time

CHUNK_ROWS = 4096
MIN_WARM_AUDITS = 5
POSTERIOR_SAMPLES = 1000
LAYER_REPEATS = 5
WORKER_EXIT_SECONDS = 10.0


def summarize(audit) -> str:
    """A canonical text of everything the audit reports, for equality."""
    posterior = audit.posterior
    return json.dumps(
        {
            "sweep": audit.sweep.to_rows(),
            "posterior": {
                "mean": posterior.mean,
                "median": posterior.median,
                "quantiles": sorted(posterior.quantiles.items()),
                "n_samples": posterior.n_samples,
            },
            "metrics": audit.metric_sweep.to_rows(),
        },
        sort_keys=True,
    )


def reap_workers() -> list[int]:
    """Wait for the workers of closed pools to exit; return any that
    are still alive after WORKER_EXIT_SECONDS."""
    deadline = time.monotonic() + WORKER_EXIT_SECONDS
    while multiprocessing.active_children():
        if time.monotonic() >= deadline:
            return [child.pid for child in multiprocessing.active_children()]
        time.sleep(0.01)
    return []


def _file_token(path: str):
    stat = os.stat(path)
    return stat.st_size, stat.st_mtime_ns, stat.st_ino


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--csv", required=True)
    parser.add_argument("--backend", choices=("serial", "pool2"), required=True)
    parser.add_argument("--cache", required=True)
    parser.add_argument("--warm-seconds", type=float, default=1.0)
    parser.add_argument("--trace", default=None)
    args = parser.parse_args(argv)

    from repro.audit.auditor import FairnessAuditor
    from repro.engine.backends import ProcessPoolBackend, SerialBackend
    from repro.obs.trace import NULL_TRACER, TraceSink, Tracer, read_trace_events

    from probes import peak_rss_mb
    from workload import CSV_OUTCOME, CSV_PROTECTED

    protected = [name for name, _ in CSV_PROTECTED]
    outcome = CSV_OUTCOME[0]

    def new_backend(metrics=None):
        if args.backend == "serial":
            return SerialBackend()
        return ProcessPoolBackend(workers=2, metrics=metrics)

    auditor = FairnessAuditor(
        protected, outcome, estimator=1.0, posterior_samples=POSTERIOR_SAMPLES
    )
    backend = new_backend()
    print("ready", flush=True)

    sink = TraceSink(args.trace) if args.trace else None
    tracer = Tracer(sink) if sink else NULL_TRACER
    pool_peak_mb = 0.0  # largest summed worker peak of any one audit
    leaked: list[int] = []

    def audit_once(cache_path: str, kind: str):
        nonlocal backend, pool_peak_mb
        if backend is None:
            backend = new_backend()
        started = time.perf_counter()
        try:
            with tracer.span(f"audit.{kind}", backend=args.backend):
                result = auditor.audit_csv(
                    args.csv, backend=backend, column_cache=cache_path
                )
        finally:
            elapsed = time.perf_counter() - started
            workers = multiprocessing.active_children()
            pool_peak_mb = max(
                pool_peak_mb, sum(peak_rss_mb(child.pid) for child in workers)
            )
            backend.close()
            backend = None
        leaked.extend(reap_workers())
        return elapsed, summarize(result)

    if os.path.exists(args.cache):
        raise SystemExit(f"{args.cache} exists; a cold audit needs a new path")
    cold_s, summary = audit_once(args.cache, "cold")
    warm_s, summaries = [], [summary]
    rebuilds = 0
    token = _file_token(args.cache)
    warm_until = time.perf_counter() + args.warm_seconds
    while len(warm_s) < MIN_WARM_AUDITS or time.perf_counter() < warm_until:
        elapsed, summary = audit_once(args.cache, "warm")
        warm_s.append(elapsed)
        summaries.append(summary)
        rebuilds += _file_token(args.cache) != token
        token = _file_token(args.cache)

    counts_backend = new_backend()
    try:
        counts = _counts(args.csv, args.cache, protected, outcome, counts_backend)
    finally:
        counts_backend.close()
    leaked.extend(reap_workers())
    record = {
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cache_rebuilds": rebuilds,
        "distinct_summaries": sorted(set(summaries)),
        "counts": counts,
        "peak_rss_mb": peak_rss_mb() + pool_peak_mb,
    }
    if sink is not None:
        engine = _trace_layers(args, protected, outcome, new_backend, tracer)
        leaked.extend(reap_workers())
        sink.close()
        record["layers"] = _layer_metrics(
            read_trace_events(args.trace), engine, rebuilds,
            workers=1 if args.backend == "serial" else 2,
        )
    record["leaked_workers"] = leaked
    print(json.dumps(record), flush=True)
    return 0


def _counts(path, cache_path, protected, outcome, backend) -> dict:
    """The count tensor behind the audits, from one untimed warm build."""
    from repro.engine.backends import ContingencySpec, CsvSource

    source = CsvSource(
        path, columns=(*protected, outcome), column_cache=cache_path
    )
    snapshot = backend.build(
        source, ContingencySpec(tuple(protected), outcome)
    ).snapshot()
    return {
        "factor_levels": [list(levels) for levels in snapshot.factor_levels],
        "outcome_levels": list(snapshot.outcome_levels),
        "counts": snapshot.counts.astype(int).tolist(),
    }


def _trace_layers(args, protected, outcome, new_backend, tracer) -> dict:
    """Drive each CSV-path layer once (cheap ones LAYER_REPEATS times).

    Returns the engine's own counters from a private metrics registry;
    every timing is in the spans.
    """
    from repro.core.subsets import subset_sweep
    from repro.core.sweep import metric_subset_sweep, posterior_subset_sweep
    from repro.engine.backends import ContingencySpec, CsvSource
    from repro.obs.metrics import MetricsRegistry
    from repro.tabular.colcache import ColumnCache, build_column_cache
    from repro.tabular.csv_io import iter_csv_chunks

    source = CsvSource(args.csv, columns=(*protected, outcome))
    spec = ContingencySpec(tuple(protected), outcome)
    with tracer.span("tabular.plan"):
        plan = source.plan()
    accumulator = spec.new_accumulator()
    chunks = iter_csv_chunks(args.csv, CHUNK_ROWS, plan=plan)
    while True:
        with tracer.span("tabular.parse") as span:
            table = next(chunks, None)
            span.set(rows=0 if table is None else table.n_rows)
        if table is None:
            break
        with tracer.span("core.count", rows=table.n_rows):
            accumulator.update_table(table)

    cache_path = os.path.splitext(args.cache)[0] + "-layers.rccol"
    with tracer.span("tabular.colcache_build"):
        build_column_cache(args.csv, plan, cache_path)
    for _ in range(LAYER_REPEATS):
        with tracer.span("tabular.colcache_open"):
            cache = ColumnCache.open(cache_path, source_path=args.csv, plan=plan)
        try:
            with tracer.span("tabular.colcache_decode"):
                for _table in cache.chunk_tables(CHUNK_ROWS):
                    pass
        finally:
            cache.close()

    contingency = accumulator.snapshot()
    for _ in range(LAYER_REPEATS):
        with tracer.span("core.subset_sweep"):
            subset_sweep(contingency, estimator=1.0)
        with tracer.span("core.posterior_sweep"):
            posterior_subset_sweep(
                contingency, alpha=1.0, n_samples=POSTERIOR_SAMPLES, seed=0
            )
        with tracer.span("core.metric_sweep"):
            metric_subset_sweep(contingency)

    registry = MetricsRegistry()
    backend = new_backend(metrics=registry)
    try:
        with tracer.span("engine.build", backend=args.backend):
            built = backend.build(source, spec)
    finally:
        backend.close()
    if built.n_rows != accumulator.n_rows:
        raise RuntimeError(
            f"engine.build counted {built.n_rows} rows, the serial layer "
            f"pass {accumulator.n_rows}"
        )
    return registry.state_dict()


def _layer_metrics(events, engine_state, rebuilds, *, workers) -> dict:
    from probes import counter_total, histogram_sum, span_durations

    spans = span_durations(events)
    parse_s = sum(spans["tabular.parse"])
    count_s = sum(spans["core.count"])
    rows = sum(
        event["attrs"].get("rows", 0)
        for event in events
        if event["name"] == "tabular.parse"
    )
    build_s = spans["engine.build"][0]
    chunks = counter_total(engine_state, "repro_engine_chunks_total")
    fallbacks = counter_total(engine_state, "repro_engine_ring_fallback_total")
    stage = {
        name: histogram_sum(engine_state, "repro_engine_stage_seconds", stage=key)
        for name, key in {
            "submit": "submit", "parse_wait": "parse",
            "decode": "decode", "merge": "merge",
        }.items()
    }
    median = statistics.median
    return {
        "tabular.plan_s": spans["tabular.plan"][0],
        "tabular.parse_s": parse_s,
        "tabular.parse_rows_per_s": rows / parse_s,
        "tabular.colcache_build_s": spans["tabular.colcache_build"][0],
        "tabular.colcache_open_s": median(spans["tabular.colcache_open"]),
        "tabular.colcache_decode_s": median(spans["tabular.colcache_decode"]),
        "tabular.cache_rebuilds": rebuilds,
        "core.count_s": count_s,
        "core.subset_sweep_s": median(spans["core.subset_sweep"]),
        "core.posterior_sweep_s": median(spans["core.posterior_sweep"]),
        "core.metric_sweep_s": median(spans["core.metric_sweep"]),
        "engine.build_s": build_s,
        # Parse and count run on `workers` processes at once in a build.
        "engine.overhead_s": build_s - (parse_s + count_s) / workers,
        **{f"engine.stage.{name}_s": value for name, value in stage.items()},
        "engine.chunks": chunks,
        "engine.ring_fallback_ratio": fallbacks / chunks if chunks else 0.0,
    }


if __name__ == "__main__":
    sys.exit(main())
