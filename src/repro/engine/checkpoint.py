"""Durable on-disk checkpoints: the versioned ``.rcpk`` format.

``state_dict()`` checkpoints (PR 3) live in process memory; this module
makes them *durable* so a streaming audit can survive a crash, and so
shards counted on different machines can be merged later.

File layout (all integers little-endian)::

    offset  size  field
    0       4     magic  b"RCPK"
    4       2     format version (currently 1)
    6       4     header length in bytes
    10      4     CRC32 of the header bytes
    14      8     payload length in bytes
    22      4     CRC32 of the payload bytes
    26      ...   header: UTF-8 JSON (kind, schema, scalar state)
    ...     ...   payload: the count tensor, int64 C-order

The header carries everything except the counts — factor/outcome names,
levels, pinned flags, and (for auditor checkpoints) the sliding-window
row queue and ingestion progress — as JSON, so a checkpoint is
self-describing and inspectable with ``xxd``/``jq``. The payload is the
raw count tensor. Both regions are CRC-checked: truncation, bit rot,
or a foreign file raise :class:`repro.exceptions.CheckpointError`
instead of silently corrupting counts.

Writes are atomic: the blob goes to a temporary file in the target
directory, is fsynced, and is renamed over the destination — a reader
(or a crash) never observes a half-written checkpoint.

Long-running monitors additionally keep *generations*:
:func:`rotate_checkpoint` shifts ``audit.rcpk`` to ``audit.rcpk.1``
(... up to ``.N``) before each save, and
:func:`load_latest_auditor_state` walks the generations newest-first,
skipping any that fail validation — so even a corrupted newest file
falls back to the previous complete checkpoint instead of losing the
monitor's history.

Levels and window-row values must be JSON scalars (``str``, ``int``,
``float``, ``bool``, ``None``); anything else raises
:class:`CheckpointError` at save time. CSV-fed audits always satisfy
this (cells are strings).
"""

from __future__ import annotations

import json
import math
import os
import struct
import zlib
from collections.abc import Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.core.streaming import StreamingContingency
from repro.engine.backends import tree_merge
from repro.exceptions import CheckpointError
from repro.utils.fileio import write_atomic

__all__ = [
    "CHECKPOINT_MAGIC",
    "CHECKPOINT_SUFFIX",
    "CHECKPOINT_VERSION",
    "checkpoint_generations",
    "load_auditor_state",
    "load_checkpoint",
    "load_contingency",
    "load_latest_auditor_state",
    "merge_checkpoint_files",
    "rotate_checkpoint",
    "save_auditor_state",
    "save_contingency",
]

CHECKPOINT_MAGIC = b"RCPK"
CHECKPOINT_VERSION = 1
CHECKPOINT_SUFFIX = ".rcpk"

# magic, version, header_len, header_crc, payload_len, payload_crc
_PREAMBLE = struct.Struct("<4sHIIQI")

_SCALAR_TYPES = (str, int, float, bool, type(None))


def _require_scalars(values: Sequence[Any], what: str) -> None:
    for value in values:
        if not isinstance(value, _SCALAR_TYPES):
            raise CheckpointError(
                f"{what} {value!r} ({type(value).__name__}) is not a JSON "
                "scalar; durable checkpoints support str/int/float/bool/None"
            )
        if isinstance(value, float) and not math.isfinite(value):
            # json.dumps(allow_nan=False) would raise a bare ValueError
            # deep inside _save; keep the contract that save failures
            # are always CheckpointError.
            raise CheckpointError(
                f"{what} {value!r} is not a finite number; durable "
                "checkpoints cannot store NaN or infinity"
            )


def _contingency_header(state: dict[str, Any]) -> dict[str, Any]:
    """The JSON-safe part of a StreamingContingency state dict."""
    for levels in [*state["factor_levels"], state["outcome_levels"]]:
        _require_scalars(levels, "level")
    return {
        "factor_names": list(state["factor_names"]),
        "factor_levels": [list(levels) for levels in state["factor_levels"]],
        "factor_pinned": [bool(flag) for flag in state["factor_pinned"]],
        "outcome_name": state["outcome_name"],
        "outcome_levels": list(state["outcome_levels"]),
        "outcome_pinned": bool(state["outcome_pinned"]),
        "counts_shape": list(state["counts"].shape),
        "n_rows": int(state["n_rows"]),
    }


def _save(path: str | Path, header: dict[str, Any], counts: np.ndarray) -> None:
    payload = np.ascontiguousarray(counts, dtype="<i8").tobytes()
    header_bytes = json.dumps(
        header, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")
    blob = (
        _PREAMBLE.pack(
            CHECKPOINT_MAGIC,
            CHECKPOINT_VERSION,
            len(header_bytes),
            zlib.crc32(header_bytes),
            len(payload),
            zlib.crc32(payload),
        )
        + header_bytes
        + payload
    )
    write_atomic(path, blob)


def load_checkpoint(path: str | Path) -> tuple[dict[str, Any], np.ndarray]:
    """Read and validate a ``.rcpk`` file: (header dict, counts tensor).

    Raises :class:`CheckpointError` on a missing/foreign/truncated file,
    a version from the future, a CRC mismatch, or a malformed header.
    """
    path = Path(path)
    try:
        blob = path.read_bytes()
    except FileNotFoundError:
        raise CheckpointError(f"checkpoint {path} does not exist") from None
    except OSError as error:
        raise CheckpointError(
            f"checkpoint {path} could not be read: {error}"
        ) from None
    if len(blob) < _PREAMBLE.size:
        raise CheckpointError(
            f"checkpoint {path} is truncated ({len(blob)} bytes; a valid "
            f"file has at least {_PREAMBLE.size})"
        )
    magic, version, header_len, header_crc, payload_len, payload_crc = (
        _PREAMBLE.unpack_from(blob)
    )
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError(
            f"{path} is not a repro checkpoint (magic {magic!r})"
        )
    if version > CHECKPOINT_VERSION:
        raise CheckpointError(
            f"checkpoint {path} has format version {version}, newer than "
            f"this library's {CHECKPOINT_VERSION}; upgrade to read it"
        )
    expected = _PREAMBLE.size + header_len + payload_len
    if len(blob) != expected:
        raise CheckpointError(
            f"checkpoint {path} is truncated or padded: {len(blob)} bytes "
            f"on disk, {expected} declared"
        )
    header_bytes = blob[_PREAMBLE.size : _PREAMBLE.size + header_len]
    payload = blob[_PREAMBLE.size + header_len :]
    if zlib.crc32(header_bytes) != header_crc:
        raise CheckpointError(f"checkpoint {path} header failed its CRC check")
    if zlib.crc32(payload) != payload_crc:
        raise CheckpointError(f"checkpoint {path} payload failed its CRC check")
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CheckpointError(
            f"checkpoint {path} header is not valid JSON: {error}"
        ) from None
    shape = tuple(header.get("counts_shape", ()))
    counts = np.frombuffer(payload, dtype="<i8")
    try:
        counts = counts.reshape(shape).astype(np.int64)
    except ValueError:
        raise CheckpointError(
            f"checkpoint {path} payload holds {counts.size} cells, header "
            f"declares shape {shape}"
        ) from None
    return header, counts


def _contingency_state(header: dict[str, Any], counts: np.ndarray) -> dict:
    return {
        "factor_names": list(header["factor_names"]),
        "factor_levels": [list(levels) for levels in header["factor_levels"]],
        "factor_pinned": list(header["factor_pinned"]),
        "outcome_name": header["outcome_name"],
        "outcome_levels": list(header["outcome_levels"]),
        "outcome_pinned": header["outcome_pinned"],
        "counts": counts,
        "n_rows": header["n_rows"],
    }


def save_contingency(
    path: str | Path, accumulator: StreamingContingency
) -> None:
    """Persist a bare accumulator (a shard's counts) as ``kind=contingency``."""
    state = accumulator.state_dict()
    header = {"kind": "contingency", **_contingency_header(state)}
    _save(path, header, state["counts"])


def load_contingency(path: str | Path) -> StreamingContingency:
    """Load a checkpoint's counts as an accumulator.

    Accepts both kinds — an auditor checkpoint contributes its
    accumulator — so shard outputs of either flavour can feed
    :func:`merge_checkpoint_files`. A *windowed* auditor checkpoint is
    refused: its accumulator counts only the final window's rows
    (evicted rows were retracted), so merging it would silently violate
    the promise that a merged audit equals one pass over all the
    shards' rows.
    """
    header, counts = load_checkpoint(path)
    if header.get("kind") == "auditor" and header.get("window") is not None:
        raise CheckpointError(
            f"checkpoint {path} comes from a windowed audit (window="
            f"{header['window']}): it holds only the last window's counts, "
            "not the whole stream's, so it cannot contribute to a merge"
        )
    try:
        return StreamingContingency.from_state(
            _contingency_state(header, counts)
        )
    except KeyError as error:
        raise CheckpointError(
            f"checkpoint {path} header is missing field {error.args[0]!r}"
        ) from None


def save_auditor_state(
    path: str | Path,
    state: dict[str, Any],
    progress: dict[str, Any] | None = None,
) -> None:
    """Persist :meth:`StreamingAuditor.state_dict` output as ``kind=auditor``.

    ``progress`` carries ingestion bookkeeping (chunks ingested, source
    columns) that belongs to the *stream* rather than the auditor; it
    round-trips through :func:`load_auditor_state` untouched. The
    header also persists ``applied_seq`` — the auditor's write-ahead-log
    apply cursor — so a restart replays exactly the WAL suffix past this
    checkpoint (files from before the cursor existed load as 0).
    """
    accumulator = state["accumulator"]
    for row in state["window_rows"]:
        _require_scalars(row, "window row value")
    header = {
        "kind": "auditor",
        "schema_version": state["schema_version"],
        "window": state["window"],
        "window_rows": [list(row) for row in state["window_rows"]],
        "rows_seen": int(state["rows_seen"]),
        "applied_seq": int(state.get("applied_seq", 0)),
        "protected": list(state["protected"]),
        "outcome": state["outcome"],
        "progress": dict(progress or {}),
        **_contingency_header(accumulator),
    }
    _save(path, header, accumulator["counts"])


def load_auditor_state(
    path: str | Path,
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Load an auditor checkpoint: (state dict for ``restore``, progress)."""
    header, counts = load_checkpoint(path)
    if header.get("kind") != "auditor":
        raise CheckpointError(
            f"checkpoint {path} holds {header.get('kind')!r} state, not "
            "auditor state; use load_contingency / merge-checkpoints"
        )
    try:
        state = {
            "schema_version": header["schema_version"],
            "accumulator": _contingency_state(header, counts),
            "window": header["window"],
            "window_rows": [tuple(row) for row in header["window_rows"]],
            "rows_seen": header["rows_seen"],
            "applied_seq": int(header.get("applied_seq", 0)),
            "protected": list(header["protected"]),
            "outcome": header["outcome"],
        }
    except KeyError as error:
        raise CheckpointError(
            f"checkpoint {path} header is missing field {error.args[0]!r}"
        ) from None
    return state, dict(header.get("progress", {}))


def _generation_path(path: Path, generation: int) -> Path:
    """``audit.rcpk`` for generation 0, ``audit.rcpk.N`` for older ones."""
    return path if generation == 0 else path.with_name(f"{path.name}.{generation}")


def checkpoint_generations(path: str | Path, keep: int | None = None) -> list[Path]:
    """Existing checkpoint generations, newest first.

    Generation 0 is ``path`` itself; generation N is ``path.N``. Only
    paths that exist are returned, so a caller can probe candidates in
    recency order. ``keep`` bounds the probe (``None`` scans until the
    first gap past the newest generation).
    """
    path = Path(path)
    found: list[Path] = []
    generation = 0
    while keep is None or generation <= keep:
        candidate = _generation_path(path, generation)
        if candidate.exists():
            found.append(candidate)
        elif generation > 0:
            # Generations are written contiguously; the first missing
            # older slot ends the chain (gen 0 may be mid-rotation).
            break
        generation += 1
    return found


def rotate_checkpoint(path: str | Path, keep: int = 2) -> None:
    """Shift checkpoint generations before writing a fresh ``path``.

    ``path`` becomes ``path.1``, ``path.1`` becomes ``path.2``, and so
    on up to ``path.keep``; anything older is dropped. Every shift is a
    single atomic :func:`os.replace` within the directory, so a crash
    mid-rotation never destroys data — at worst two adjacent slots
    briefly hold the same generation, and readers that walk
    :func:`checkpoint_generations` newest-first still find a valid file.

    With ``keep=0`` this only unlinks older generations (no history is
    retained) — the pre-rotation behaviour of a bare ``save``.
    """
    path = Path(path)
    if keep < 0:
        raise CheckpointError(f"keep must be >= 0 generations, got {keep}")
    # Drop everything at or past the retention horizon (including
    # stragglers from a run that used a larger ``keep``).
    generation = max(keep, 1)
    while True:
        stale = _generation_path(path, generation)
        if stale.exists():
            stale.unlink()
        elif generation > keep:
            break
        generation += 1
    # Shift survivors oldest-first so each os.replace lands in a free slot.
    for generation in range(keep - 1, -1, -1):
        source = _generation_path(path, generation)
        if source.exists():
            os.replace(source, _generation_path(path, generation + 1))


def load_latest_auditor_state(
    path: str | Path, keep: int | None = None
) -> tuple[dict[str, Any], dict[str, Any], Path]:
    """Load the newest *valid* auditor checkpoint generation.

    Walks ``path``, ``path.1``, ... newest-first and returns
    ``(state, progress, source_path)`` from the first generation that
    passes the full ``.rcpk`` validation — so a torn or bit-rotted
    write of the newest generation falls back to the previous one
    instead of aborting the resume. Raises :class:`CheckpointError`
    (carrying every generation's failure) when no generation loads.
    """
    path = Path(path)
    candidates = checkpoint_generations(path, keep)
    if not candidates:
        raise CheckpointError(
            f"checkpoint {path} does not exist (no generations found)"
        )
    failures: list[str] = []
    for candidate in candidates:
        try:
            state, progress = load_auditor_state(candidate)
        except CheckpointError as error:
            failures.append(f"{candidate.name}: {error}")
            continue
        return state, progress, candidate
    raise CheckpointError(
        f"no valid checkpoint generation of {path}: " + "; ".join(failures)
    )


def merge_checkpoint_files(
    paths: Sequence[str | Path],
) -> StreamingContingency:
    """Tree-merge the counts of shard checkpoints from any machines.

    The merge algebra is associative and commutative, so the audit of
    the merged accumulator is bit-identical to auditing the union of
    the shards' rows in one pass — schema mismatches between shards
    (different factor or outcome names) raise
    :class:`repro.exceptions.SchemaError` from the merge itself.
    """
    if not paths:
        raise CheckpointError("merge needs at least one checkpoint file")
    return tree_merge([load_contingency(path) for path in paths])
