"""Pluggable execution backends for contingency ingestion.

A fairness audit is a pure function of per-group outcome counts, and
counts form a commutative monoid under
:meth:`repro.core.streaming.StreamingContingency.merge` — so *where* the
counting runs is a deployment choice, not an algorithmic one. This
module makes that choice explicit: the same audit logic runs serially,
across a process pool, or (via :mod:`repro.engine.checkpoint`) across
machines, and every topology produces bit-identical results.

:class:`ExecutionBackend`
    The contract. Two operations cover every consumer:

    * :meth:`~ExecutionBackend.build` — the whole file as one merged
      accumulator (one-shot audits, benchmarks);
    * :meth:`~ExecutionBackend.iter_chunk_counts` — ordered per-chunk
      accumulators, for consumers that fold counts chunk by chunk and
      report progress (the CLI's per-chunk epsilon trace).

    Backends that can replay the stream *in row order* additionally
    implement :meth:`~ExecutionBackend.iter_chunk_tables` and advertise
    ``supports_ordered_rows`` — sliding windows and checkpoint resume
    need row order, which an unordered fan-out cannot provide.

:class:`SerialBackend`
    One process, one pass, ordered. The only backend that supports
    windows and resume.

:class:`ProcessPoolBackend`
    Fans spans of the source out to a persistent pool of worker
    processes and merges their counts. Three engine properties make it
    fast rather than merely parallel:

    * **Pipelined coordinator** — task submission runs a bounded
      in-flight window ahead of consumption, so the coordinator merges
      chunk *i* while workers parse chunks *i+1 … i+W*; the old
      parse↔merge barrier is gone. Results still arrive in chunk order,
      preserving the chunk-aligned epsilon-trace contract.
    * **Shared-memory transport** (:mod:`repro.engine.ipc`) — workers
      write each chunk's count tensor into a slot of a shared-memory
      ring (seq-stamped, CRC-checked) and send only a small descriptor
      through the result queue; the coordinator decodes the tensor in
      place and recycles the slot. No per-chunk pickling of counts.
    * **Columnar cache awareness** — when the :class:`CsvSource` names
      a ``.rccol`` column cache (:mod:`repro.tabular.colcache`), workers
      read their row ranges as mmap slices of pre-factorised int32
      codes instead of re-parsing CSV text.

    Correctness never leans on any of it: every transport validates
    (CRC + sequence stamps), every fallback (oversized state → result
    queue) is exact, and chunk boundaries are byte-identical to
    :class:`SerialBackend`'s.

The pool is constructed lazily and **reused across calls** on the same
backend instance; call :meth:`ProcessPoolBackend.close` (or use the
backend as a context manager) to release the worker processes.
"""

from __future__ import annotations

import logging
import os
from collections import deque
from collections.abc import Iterator, Sequence
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any

from repro.core.streaming import StreamingContingency
from repro.engine.ipc import (
    SharedCountRing,
    SlotDescriptor,
    attach_ring,
    decode_counts_state,
    encode_counts_state,
    ring_slot_size,
)
from repro.exceptions import CsvParseError, ValidationError
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.tabular.colcache import ColumnCache, ensure_column_cache
from repro.tabular.csv_io import (
    CsvPlan,
    CsvSpan,
    iter_csv_chunks,
    plan_csv_chunks,
    plan_csv_shards,
)
from repro.tabular.schema import Schema
from repro.tabular.table import Table
from repro.tabular.tokenize import iter_code_blocks, iter_code_chunks

__all__ = [
    "ChunkCounts",
    "ContingencySpec",
    "CsvSource",
    "ExecutionBackend",
    "ProcessPoolBackend",
    "SerialBackend",
    "tree_merge",
]


@dataclass(frozen=True)
class CsvSource:
    """A CSV file plus the parse options every backend must agree on.

    Frozen and picklable: the same source object parameterises the
    serial loop, pool workers, and checkpoint metadata.

    ``column_cache`` names an optional ``.rccol`` columnar binary cache
    (:mod:`repro.tabular.colcache`). When set, backends read the file's
    pre-factorised columns by mmap slice — skipping CSV parsing
    entirely on a warm cache — and (re)build the cache from the CSV
    when it is missing or stale. Results are bit-identical to parsing;
    a *corrupt* cache file fails loudly instead of being regenerated.
    """

    path: str
    chunk_rows: int = 4096
    columns: tuple[str, ...] | None = None
    schema: Schema | None = None
    header: bool = True
    column_names: tuple[str, ...] | None = None
    delimiter: str = ","
    missing_token: str = "?"
    missing_replacement: str | None = None
    skip_comment_prefix: str | None = None
    column_cache: str | None = None

    def plan(self) -> CsvPlan:
        """Resolve the header/projection once for this source."""
        return CsvPlan.from_csv(
            self.path,
            schema=self.schema,
            header=self.header,
            column_names=self.column_names,
            delimiter=self.delimiter,
            missing_token=self.missing_token,
            missing_replacement=self.missing_replacement,
            skip_comment_prefix=self.skip_comment_prefix,
            columns=self.columns,
        )

    def open_cache(self, plan: CsvPlan | None = None) -> ColumnCache | None:
        """Open (building or refreshing as needed) the column cache.

        Returns ``None`` when the source has no cache configured.
        """
        if self.column_cache is None:
            return None
        if plan is None:
            plan = self.plan()
        return ensure_column_cache(self.path, plan, self.column_cache)


@dataclass(frozen=True)
class ContingencySpec:
    """The accumulator schema workers build against (picklable)."""

    factor_names: tuple[str, ...]
    outcome_name: str
    factor_levels: tuple[tuple[Any, ...], ...] | None = None
    outcome_levels: tuple[Any, ...] | None = None

    def new_accumulator(self) -> StreamingContingency:
        return StreamingContingency(
            self.factor_names,
            self.outcome_name,
            self.factor_levels,
            self.outcome_levels,
        )


@dataclass(frozen=True)
class ChunkCounts:
    """One ordered chunk's worth of counts (0-based ``index``)."""

    index: int
    n_rows: int
    counts: StreamingContingency


def tree_merge(
    accumulators: Sequence[StreamingContingency],
) -> StreamingContingency:
    """Balanced pairwise merge, preserving order.

    Order preservation keeps dynamic level discovery deterministic
    (first-seen across the sequence), and the PR-3 merge algebra makes
    the tree shape irrelevant to the result; the balanced shape just
    keeps intermediate tensors small.
    """
    items = list(accumulators)
    if not items:
        raise ValidationError("tree_merge needs at least one accumulator")
    while len(items) > 1:
        merged = [
            left.merge(right) for left, right in zip(items[::2], items[1::2])
        ]
        if len(items) % 2:
            merged.append(items[-1])
        items = merged
    return items[0]


# ----------------------------------------------------------------------
# Worker-side task protocol
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _SpanTask:
    """One worker assignment: parse/count these spans, ship their states.

    Exactly one of two read modes is active: CSV mode (``spans`` byte
    ranges parsed under ``plan``) or cache mode (``row_ranges`` sliced
    from the mmap'd column cache at ``cache_path``). When ``ring`` is
    set, each span's encoded count state goes into its preassigned
    ``(slot, seq)`` of the shared-memory ring and only a descriptor
    returns through the queue; otherwise the raw state dict does.
    """

    path: str
    plan: CsvPlan | None
    spec: ContingencySpec
    first_index: int
    batch_rows: int = 4096
    spans: tuple[CsvSpan, ...] = ()
    cache_path: str | None = None
    cache_token: tuple[int, int] | None = None
    row_ranges: tuple[tuple[int, int], ...] = ()
    schema: Schema | None = None
    ring: tuple[str, int, int] | None = None
    slots: tuple[tuple[int, int], ...] = ()


# One validated cache mapping per worker process, keyed by (path, token)
# so a rebuilt cache file (new size/mtime) is reopened, never read stale.
_WORKER_CACHES: dict[tuple[str, tuple[int, int]], ColumnCache] = {}


def _worker_cache(path: str, token: tuple[int, int]) -> ColumnCache:
    key = (path, tuple(token))
    cache = _WORKER_CACHES.get(key)
    if cache is None:
        for stale in list(_WORKER_CACHES):
            if stale[0] == path:
                _WORKER_CACHES.pop(stale).close()
        cache = ColumnCache.open(path)
        _WORKER_CACHES[key] = cache
    return cache


def _count_csv_span(task: _SpanTask, span: CsvSpan) -> StreamingContingency:
    accumulator = task.spec.new_accumulator()
    blocks = iter_code_blocks(task.path, task.plan, span.start, span.end)
    for chunk in iter_code_chunks(blocks, task.batch_rows):
        accumulator.update_table(
            chunk.to_table(task.plan.selected_names, task.plan.schema)
        )
    if span.n_rows is not None and accumulator.n_rows != span.n_rows:
        raise CsvParseError(
            f"span parsed {accumulator.n_rows} rows but the chunk planner "
            f"counted {span.n_rows}; a quoted cell spanning lines breaks "
            "line-aligned spans — ingest the file with the serial backend"
        )
    return accumulator


def _count_cache_range(
    task: _SpanTask, start: int, stop: int
) -> StreamingContingency:
    cache = _worker_cache(task.cache_path, task.cache_token)
    accumulator = task.spec.new_accumulator()
    for batch_start in range(start, stop, task.batch_rows):
        accumulator.update_table(
            cache.table_slice(
                batch_start,
                min(batch_start + task.batch_rows, stop),
                schema=task.schema,
            )
        )
    return accumulator


def _count_task(task: _SpanTask) -> list[tuple[int, int, Any]]:
    """Worker entry point: ``(span index, n_rows, transport)`` per span.

    Module-level so it pickles under every multiprocessing start
    method. ``transport`` is a :class:`SlotDescriptor` when the state
    went through the shared-memory ring, or the raw state dict when no
    ring is attached / the state outgrew its slot. Workers never
    estimate probabilities — they only count — so the coordinator's
    estimator choice cannot skew shard results.
    """
    units: Sequence[Any] = (
        task.row_ranges if task.cache_path is not None else task.spans
    )
    ring = attach_ring(*task.ring) if task.ring is not None else None
    results: list[tuple[int, int, Any]] = []
    for offset, unit in enumerate(units):
        if task.cache_path is not None:
            accumulator = _count_cache_range(task, unit[0], unit[1])
        else:
            accumulator = _count_csv_span(task, unit)
        state = accumulator.state_dict()
        transport: Any = state
        if ring is not None:
            payload = encode_counts_state(state)
            if len(payload) <= ring.payload_capacity:
                slot, seq = task.slots[offset]
                transport = ring.write_slot(slot, seq, payload)
        results.append(
            (task.first_index + offset, accumulator.n_rows, transport)
        )
    return results


class ExecutionBackend:
    """Where contingency counting runs; see the module docstring.

    Subclasses must implement :meth:`build` and
    :meth:`iter_chunk_counts`; ordered backends also override
    :meth:`iter_chunk_tables` and set ``supports_ordered_rows``.
    """

    name: str = "backend"
    supports_ordered_rows: bool = False
    #: Trace-span emitter; NULL_TRACER keeps every span site a no-op.
    #: Assign a live :class:`repro.obs.trace.Tracer` (the CLI's
    #: ``audit-stream --trace-out`` does) to record ingest stages.
    tracer: Tracer = NULL_TRACER

    def build(
        self, source: CsvSource, spec: ContingencySpec
    ) -> StreamingContingency:
        """Count the whole source into one merged accumulator."""
        raise NotImplementedError

    def iter_chunk_counts(
        self, source: CsvSource, spec: ContingencySpec
    ) -> Iterator[ChunkCounts]:
        """Per-chunk accumulators, in chunk order.

        Chunk boundaries are the same for every backend (groups of
        ``source.chunk_rows`` data rows), so folding the results in
        order reproduces the serial ingestion exactly.
        """
        raise NotImplementedError

    def iter_chunk_tables(
        self, source: CsvSource, *, skip_rows: int = 0
    ) -> Iterator[Table]:
        """Ordered row-level chunks; only ordered backends provide this."""
        raise ValidationError(
            f"the {self.name!r} backend cannot stream rows in order; "
            "sliding windows and checkpoint resume need SerialBackend"
        )

    def close(self) -> None:
        """Release any resources held across calls (pools, mappings)."""

    def __enter__(self) -> "ExecutionBackend":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class SerialBackend(ExecutionBackend):
    """Single-process ordered ingestion (the default everywhere)."""

    name = "serial"
    supports_ordered_rows = True

    def iter_chunk_tables(
        self, source: CsvSource, *, skip_rows: int = 0
    ) -> Iterator[Table]:
        if source.column_cache is not None:
            cache = source.open_cache()
            try:
                yield from cache.chunk_tables(
                    source.chunk_rows,
                    schema=source.schema,
                    skip_rows=skip_rows,
                )
            finally:
                cache.close()
            return
        yield from iter_csv_chunks(
            source.path,
            source.chunk_rows,
            schema=source.schema,
            header=source.header,
            column_names=source.column_names,
            delimiter=source.delimiter,
            missing_token=source.missing_token,
            missing_replacement=source.missing_replacement,
            skip_comment_prefix=source.skip_comment_prefix,
            columns=source.columns,
            skip_rows=skip_rows,
        )

    def build(
        self, source: CsvSource, spec: ContingencySpec
    ) -> StreamingContingency:
        if source.column_cache is not None:
            # Warm-cache fast path: one global-level table, one gather,
            # one scatter-add — no per-chunk level narrowing. Integer
            # counts are identical to the chunked path; the canonical
            # snapshot erases the only difference (internal level order).
            cache = source.open_cache()
            try:
                if cache.n_rows == 0:
                    raise CsvParseError("no data rows found")
                return spec.new_accumulator().update_table(
                    cache.full_table(schema=source.schema)
                )
            finally:
                cache.close()
        accumulator = spec.new_accumulator()
        for table in self.iter_chunk_tables(source):
            accumulator.update_table(table)
        return accumulator

    def iter_chunk_counts(
        self, source: CsvSource, spec: ContingencySpec
    ) -> Iterator[ChunkCounts]:
        tables = self.iter_chunk_tables(source)
        with self.tracer.span("ingest", backend=self.name, path=source.path):
            index = 0
            while True:
                with self.tracer.span("parse", chunk=index):
                    table = next(tables, None)
                if table is None:
                    return
                with self.tracer.span("count", chunk=index, rows=table.n_rows):
                    accumulator = spec.new_accumulator().update_table(table)
                yield ChunkCounts(index, table.n_rows, accumulator)
                index += 1


class ProcessPoolBackend(ExecutionBackend):
    """Multi-process ingestion: shard the source, count, merge.

    ``workers`` processes each read their assignment independently —
    byte-range CSV seeks, or mmap slices of the column cache — and ship
    compact count-tensor states back over the shared-memory ring (or
    the result queue as fallback). Results are bit-identical to
    :class:`SerialBackend` because the counts are the same integers and
    the merge algebra is exact.

    Parameters
    ----------
    workers:
        Worker process count.
    pipelined:
        Overlap worker parsing with coordinator merging through a
        bounded in-flight window (default). ``False`` restores the
        PR-4 blocking coordinator — kept for benchmarking the overlap,
        not for production use.
    use_shared_memory:
        Transport count tensors through a :class:`SharedCountRing`
        (default). ``False`` ships states through the result queue
        (pickled) — again, the benchmark baseline.
    inflight_per_worker:
        In-flight window (and ring capacity) as a multiple of
        ``workers``; memory stays fixed at
        ``workers * inflight_per_worker`` encoded states regardless of
        stream length.

    The worker pool is created lazily on first use and **reused across
    calls**; :meth:`close` (or the context-manager exit) shuts it down.
    A pool broken by a killed worker is discarded and lazily replaced
    on the next call.
    """

    name = "process-pool"

    def __init__(
        self,
        workers: int,
        *,
        pipelined: bool = True,
        use_shared_memory: bool = True,
        inflight_per_worker: int = 2,
        metrics: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
    ):
        if int(workers) < 1:
            raise ValidationError(f"workers must be >= 1, got {workers}")
        if int(inflight_per_worker) < 1:
            raise ValidationError(
                f"inflight_per_worker must be >= 1, got {inflight_per_worker}"
            )
        self.workers = int(workers)
        self.pipelined = bool(pipelined)
        self.use_shared_memory = bool(use_shared_memory)
        self.inflight_per_worker = int(inflight_per_worker)
        self._pool: ProcessPoolExecutor | None = None
        self._closed = False
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # Instrument handles resolve once here; the coordinator loop
        # pays an attribute access + lock per update (see repro.obs).
        registry = metrics if metrics is not None else default_registry()
        self._metric_clock = registry.clock
        self._metric_stage_seconds = {
            stage: registry.histogram(
                "repro_engine_stage_seconds",
                "Coordinator time per pipeline stage: submit (task "
                "fan-out), parse (wait for the next worker result), "
                "decode (materialise counts from the transport), merge "
                "(fold into the running total).",
                labels={"stage": stage},
            )
            for stage in ("submit", "parse", "decode", "merge")
        }
        self._metric_inflight = registry.gauge(
            "repro_engine_inflight_window",
            "Tasks currently in flight in the pipelined coordinator "
            "window (0 when idle).",
        )
        self._metric_ring_fallback = registry.counter(
            "repro_engine_ring_fallback_total",
            "Chunk states too large for a shared-memory ring slot, "
            "shipped through the pickled result queue instead.",
        )
        self._metric_chunks = registry.counter(
            "repro_engine_chunks_total",
            "Chunks materialised by the coordinator.",
        )
        self._metric_rows = registry.counter(
            "repro_engine_rows_total",
            "Rows counted across all materialised chunks.",
        )
        self._metric_pool_leaked = registry.counter(
            "repro_pool_leaked_total",
            "ProcessPoolBackend instances reclaimed by the garbage "
            "collector with a live worker pool and no close() call.",
        )

    def __repr__(self) -> str:
        return (
            f"ProcessPoolBackend(workers={self.workers}, "
            f"pipelined={self.pipelined}, "
            f"use_shared_memory={self.use_shared_memory})"
        )

    # ------------------------------------------------------------------
    # Pool lifecycle (reused across build/iter_chunk_counts calls)
    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ValidationError(
                "this ProcessPoolBackend has been closed; construct a new "
                "one to ingest again"
            )
        pool = self._pool
        if pool is not None and getattr(pool, "_broken", False):
            self._discard_pool()
            pool = None
        if pool is None:
            pool = ProcessPoolExecutor(max_workers=self.workers)
            self._pool = pool
        return pool

    def _discard_pool(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the worker pool down; the backend cannot be used after."""
        self._discard_pool()
        self._closed = True

    def __del__(self):
        # Reclaiming a backend with a live pool works — the destructor
        # shuts the workers down — but it means a close() was skipped
        # somewhere, the same lifecycle bug ResourceWarning exists for.
        # Count it and say so instead of cleaning up silently.
        try:
            if self._pool is not None and not self._closed:
                self._metric_pool_leaked.inc()
                logging.getLogger(__name__).warning(
                    "ProcessPoolBackend(workers=%d) was garbage-collected "
                    "with a live worker pool; call close() or use the "
                    "backend as a context manager",
                    self.workers,
                )
            self._discard_pool()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass

    # ------------------------------------------------------------------
    # Coordinator internals
    # ------------------------------------------------------------------
    @property
    def _window(self) -> int:
        return max(2, self.workers * self.inflight_per_worker)

    def _new_ring(self, spec: ContingencySpec) -> SharedCountRing | None:
        if not self.use_shared_memory:
            return None
        return SharedCountRing(self._window, ring_slot_size(spec))

    @staticmethod
    def _ring_fields(
        ring: SharedCountRing | None, seq: int
    ) -> tuple[tuple[str, int, int] | None, tuple[tuple[int, int], ...]]:
        if ring is None:
            return None, ()
        return (
            (ring.name, ring.n_slots, ring.slot_size),
            ((seq % ring.n_slots, seq),),
        )

    def _materialise(
        self, ring: SharedCountRing | None, transport: Any
    ) -> StreamingContingency:
        """Decode a worker's transport into an accumulator (one copy)."""
        started = self._metric_clock()
        if isinstance(transport, SlotDescriptor):
            if ring is None:
                raise ValidationError(
                    "received a shared-memory descriptor without a ring"
                )
            view = ring.read_slot(transport)
            accumulator = StreamingContingency.from_state(
                decode_counts_state(view)
            )
            view.release()
        else:
            if ring is not None:
                # The state outgrew its ring slot and came back pickled.
                self._metric_ring_fallback.inc()
            accumulator = StreamingContingency.from_state(transport)
        self._metric_stage_seconds["decode"].observe(
            self._metric_clock() - started
        )
        self._metric_chunks.inc()
        self._metric_rows.inc(accumulator.n_rows)
        return accumulator

    def _drive(self, tasks) -> Iterator[list[tuple[int, int, Any]]]:
        """Run single-span tasks with a bounded in-flight window.

        Results come back in task (= chunk) order; up to ``_window``
        tasks are submitted ahead of consumption, so workers parse
        ahead while the coordinator merges — and because a task's ring
        slot is ``seq % n_slots``, the window bound *is* the slot
        recycling rule: seq ``s`` reuses the slot of seq ``s - W``,
        which was consumed before ``s`` could be submitted.
        """
        clock = self._metric_clock
        if self.workers == 1:
            for task in tasks:
                started = clock()
                result = _count_task(task)
                self._metric_stage_seconds["parse"].observe(clock() - started)
                yield result
            return
        pool = self._ensure_pool()
        pending: deque = deque()
        task_iter = iter(tasks)
        try:
            while True:
                submit_started = clock()
                while len(pending) < self._window:
                    task = next(task_iter, None)
                    if task is None:
                        break
                    pending.append(pool.submit(_count_task, task))
                self._metric_stage_seconds["submit"].observe(
                    clock() - submit_started
                )
                self._metric_inflight.set(len(pending))
                if not pending:
                    break
                wait_started = clock()
                result = pending.popleft().result()
                self._metric_stage_seconds["parse"].observe(
                    clock() - wait_started
                )
                yield result
        except BrokenProcessPool:
            # A worker died mid-chunk (OOM-kill, segfault, SIGKILL).
            # The pool is unusable: discard it so the next call starts
            # a fresh one, and let the caller's finally unlink the ring.
            self._discard_pool()
            raise
        finally:
            self._metric_inflight.set(0)
            for future in pending:
                future.cancel()

    def _blocking_results(self, tasks: list[_SpanTask]):
        """The PR-4 coordinator: grouped tasks, full barrier per batch."""
        if not tasks:
            return
        if len(tasks) == 1 or self.workers == 1:
            for task in tasks:
                yield _count_task(task)
            return
        pool = self._ensure_pool()
        try:
            yield from pool.map(_count_task, tasks)
        except BrokenProcessPool:
            self._discard_pool()
            raise

    # ------------------------------------------------------------------
    # Task planning
    # ------------------------------------------------------------------
    def _csv_chunk_tasks(
        self,
        source: CsvSource,
        plan: CsvPlan,
        spec: ContingencySpec,
        spans: list[CsvSpan],
        ring: SharedCountRing | None,
    ) -> Iterator[_SpanTask]:
        for seq, span in enumerate(spans):
            ring_fields, slots = self._ring_fields(ring, seq)
            yield _SpanTask(
                source.path,
                plan,
                spec,
                seq,
                source.chunk_rows,
                spans=(span,),
                ring=ring_fields,
                slots=slots,
            )

    def _cache_tasks(
        self,
        source: CsvSource,
        spec: ContingencySpec,
        cache_path: str,
        cache_token: tuple[int, int],
        ranges: list[tuple[int, int]],
        ring: SharedCountRing | None,
    ) -> Iterator[_SpanTask]:
        for seq, row_range in enumerate(ranges):
            ring_fields, slots = self._ring_fields(ring, seq)
            yield _SpanTask(
                source.path,
                None,
                spec,
                seq,
                source.chunk_rows,
                cache_path=cache_path,
                cache_token=cache_token,
                row_ranges=(row_range,),
                schema=source.schema,
                ring=ring_fields,
                slots=slots,
            )

    def _prepare_cache(
        self, source: CsvSource, plan: CsvPlan
    ) -> tuple[str, tuple[int, int], int] | None:
        """Ensure the cache is fresh; return (path, file token, n_rows)."""
        if source.column_cache is None:
            return None
        cache = source.open_cache(plan)
        try:
            n_rows = cache.n_rows
        finally:
            cache.close()
        stat = os.stat(source.column_cache)
        return source.column_cache, (stat.st_size, stat.st_mtime_ns), n_rows

    @staticmethod
    def _even_ranges(n_rows: int, n_parts: int) -> list[tuple[int, int]]:
        bounds = [n_rows * part // n_parts for part in range(n_parts + 1)]
        return [
            (start, stop)
            for start, stop in zip(bounds, bounds[1:])
            if stop > start
        ]

    @staticmethod
    def _chunk_ranges(n_rows: int, chunk_rows: int) -> list[tuple[int, int]]:
        return [
            (start, min(start + chunk_rows, n_rows))
            for start in range(0, n_rows, chunk_rows)
        ]

    # ------------------------------------------------------------------
    # The backend contract
    # ------------------------------------------------------------------
    def build(
        self, source: CsvSource, spec: ContingencySpec
    ) -> StreamingContingency:
        plan = source.plan()
        cached = self._prepare_cache(source, plan)
        ring = self._new_ring(spec) if self.pipelined else None
        try:
            if cached is not None:
                cache_path, cache_token, n_rows = cached
                if n_rows == 0:
                    raise CsvParseError("no data rows found")
                # More parts than workers so merging overlaps parsing.
                ranges = self._even_ranges(n_rows, self._window * 2)
                tasks = self._cache_tasks(
                    source, spec, cache_path, cache_token, ranges, ring
                )
            elif self.pipelined:
                spans = plan_csv_shards(
                    source.path, plan, self._window * 2
                )
                tasks = self._csv_chunk_tasks(source, plan, spec, spans, ring)
            else:
                spans = plan_csv_shards(source.path, plan, self.workers)
                tasks = [
                    _SpanTask(
                        source.path,
                        plan,
                        spec,
                        index,
                        source.chunk_rows,
                        spans=(span,),
                    )
                    for index, span in enumerate(spans)
                ]
            merged: StreamingContingency | None = None
            results = iter(
                self._drive(tasks)
                if self.pipelined
                else self._blocking_results(list(tasks))
            )
            clock = self._metric_clock
            with self.tracer.span(
                "ingest", backend=self.name, path=source.path
            ):
                while True:
                    with self.tracer.span("parse"):
                        batch = next(results, None)
                    if batch is None:
                        break
                    for _index, n_rows, transport in batch:
                        if not n_rows:
                            continue
                        with self.tracer.span(
                            "decode", chunk=_index, rows=n_rows
                        ):
                            counts = self._materialise(ring, transport)
                        merge_started = clock()
                        with self.tracer.span("merge", chunk=_index):
                            merged = (
                                counts
                                if merged is None
                                else merged.merge(counts)
                            )
                        self._metric_stage_seconds["merge"].observe(
                            clock() - merge_started
                        )
            if merged is None:
                raise CsvParseError("no data rows found")
            return merged
        finally:
            if ring is not None:
                ring.destroy()

    def iter_chunk_counts(
        self, source: CsvSource, spec: ContingencySpec
    ) -> Iterator[ChunkCounts]:
        plan = source.plan()
        cached = self._prepare_cache(source, plan)
        ring = self._new_ring(spec) if self.pipelined else None
        try:
            if cached is not None:
                cache_path, cache_token, n_rows = cached
                ranges = self._chunk_ranges(n_rows, source.chunk_rows)
                if not ranges:
                    raise CsvParseError("no data rows found")
                tasks = self._cache_tasks(
                    source, spec, cache_path, cache_token, ranges, ring
                )
            else:
                spans = plan_csv_chunks(source.path, plan, source.chunk_rows)
                if not spans:
                    raise CsvParseError("no data rows found")
                if self.pipelined:
                    tasks = self._csv_chunk_tasks(
                        source, plan, spec, spans, ring
                    )
                else:
                    tasks = self._shard_tasks(
                        source.path, plan, spec, spans, source.chunk_rows
                    )
            results = iter(
                self._drive(tasks)
                if self.pipelined
                else self._blocking_results(list(tasks))
            )
            # The "ingest" span stays on this thread's span stack while
            # the generator is suspended, so a consumer folding chunks
            # between yields (the streaming auditor's "merge" spans)
            # nests under it in the trace.
            with self.tracer.span(
                "ingest", backend=self.name, path=source.path
            ):
                while True:
                    with self.tracer.span("parse"):
                        batch = next(results, None)
                    if batch is None:
                        break
                    for index, n_rows, transport in batch:
                        with self.tracer.span(
                            "decode", chunk=index, rows=n_rows
                        ):
                            counts = self._materialise(ring, transport)
                        yield ChunkCounts(index, n_rows, counts)
        finally:
            if ring is not None:
                ring.destroy()

    def _shard_tasks(
        self,
        path: str,
        plan: CsvPlan,
        spec: ContingencySpec,
        spans: list[CsvSpan],
        batch_rows: int,
    ) -> list[_SpanTask]:
        """Contiguous, byte-balanced groups of chunk spans, one per worker."""
        total = sum(span.end - span.start for span in spans)
        n_shards = min(self.workers, len(spans))
        tasks: list[_SpanTask] = []
        cursor = 0
        consumed = 0
        for shard in range(n_shards):
            remaining_target = (total * (shard + 1)) // n_shards
            group: list[CsvSpan] = []
            first = cursor
            while cursor < len(spans) and (
                consumed < remaining_target or not group
            ):
                group.append(spans[cursor])
                consumed += spans[cursor].end - spans[cursor].start
                cursor += 1
            if group:
                tasks.append(
                    _SpanTask(
                        path,
                        plan,
                        spec,
                        first,
                        batch_rows,
                        spans=tuple(group),
                    )
                )
        # The last shard's target is the exact total, so the loop above
        # always drains every span.
        assert cursor == len(spans)
        return tasks
