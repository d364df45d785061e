"""Vectorised CSV tokenizer: line-aligned byte blocks to code blocks.

Every row-by-row consumer of a CSV's data region — the ``.rccol`` build
(:func:`repro.tabular.colcache.build_column_cache`), the chunk iterator
(:func:`repro.tabular.csv_io.iter_csv_chunks`) and the pool's span
workers (:mod:`repro.engine.backends`) — reads it through
:func:`iter_code_blocks`. A :class:`CodeBlock` holds, for each selected
column, its distinct cell strings (sorted) and one int32 code per row:
the representation the count path and the column cache already use.

Fast path
---------
The data region is read in 1 MiB blocks cut at line ends and viewed
with :func:`numpy.frombuffer`. Per block, all in NumPy:

* newline, delimiter and padding positions come from ``flatnonzero``;
  ``searchsorted`` over them against the line bounds gives each line's
  field count and whether anything but delimiters and padding is in it;
* blank lines (only delimiters and whitespace) and comment lines are
  dropped, exactly the rows :meth:`CsvPlan.iter_data_rows` skips;
* the width check runs on the rest; a ragged row raises the same
  :class:`CsvParseError` text and row number as the row path, after the
  rows before it were yielded;
* each selected field's raw bytes are packed, zero-padded, into a
  fixed-width key — one ``uint64`` when the column's longest field fits
  in 8 bytes — and looked up with ``searchsorted`` in that column's
  sorted table of keys seen so far; unseen keys join it via
  :func:`numpy.unique`;
* only unseen keys are decoded, ``str.strip()``-ed and mapped through
  missing-token replacement, so strip semantics stay Python's.

Factorisation is exact, not hashed: a key *is* the field's bytes (no
NUL byte reaches the fast path, so zero padding is unambiguous), hence
two fields share a code exactly when their bytes are equal.

Fallback rule
-------------
The fast path accepts only printable ASCII plus ``\\t``, ``\\r\\n`` and
``\\n``. From the first block holding anything else — a quote byte,
non-ASCII, a lone ``\\r``, another control byte, or a selected field
longer than :data:`MAX_KEY_BYTES` — the ``csv.reader`` row stream takes
over from that block's first byte to the end of the input, continuing
the row numbering. A block boundary after fast-path bytes is a record
boundary, so the fallback parses exactly the rows the row path would;
multi-line quoted fields, for instance, keep working. Files whose
delimiter is neither a tab nor a printable ASCII byte other than the
quote take the fallback from the start.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
# np.unique imports numpy.ma on its first call. Load it with this module
# so the first cold parse does not pay that import inside the audit.
import numpy.ma  # noqa: F401

from repro.exceptions import CsvParseError
from repro.tabular.column import Column
from repro.tabular.table import Table

__all__ = [
    "BLOCK_BYTES",
    "MAX_KEY_BYTES",
    "CodeBlock",
    "iter_code_blocks",
    "iter_code_chunks",
    "iter_data_line_ends",
]

#: Bytes read per block (blocks are then cut back to the last line end).
BLOCK_BYTES = 1 << 20
#: Longest selected field the fast path packs into a key.
MAX_KEY_BYTES = 64
#: Rows per code block on the ``csv.reader`` fallback.
FALLBACK_BATCH_ROWS = 65536

_LF, _CR, _TAB, _SPACE, _QUOTE = 0x0A, 0x0D, 0x09, 0x20, 0x22


@dataclass(frozen=True)
class CodeBlock:
    """Rows of the selected columns, factorised per column.

    ``levels[i]`` is the sorted tuple of distinct cell strings of the
    i-th selected column, every one present in the rows; ``codes[i]``
    holds one integer index into it per row (int32 from the fast path).
    Sorted, present levels are exactly what :meth:`Column.categorical`
    infers for the same rows.
    """

    n_rows: int
    levels: tuple[tuple[str, ...], ...]
    codes: tuple[np.ndarray, ...]

    def slice(self, start: int, stop: int) -> "CodeBlock":
        """Rows ``[start, stop)``, levels narrowed to those present."""
        levels: list[tuple[str, ...]] = []
        codes: list[np.ndarray] = []
        for table, column in zip(self.levels, self.codes):
            column = column[start:stop]
            present = np.bincount(column, minlength=len(table)) > 0
            if present.all():
                levels.append(table)
                codes.append(column)
                continue
            remap = np.cumsum(present, dtype=np.int32) - 1
            levels.append(
                tuple(level for level, keep in zip(table, present) if keep)
            )
            codes.append(remap[column])
        return CodeBlock(stop - start, tuple(levels), tuple(codes))

    @classmethod
    def concat(cls, blocks: Sequence["CodeBlock"]) -> "CodeBlock":
        """Blocks stacked row-wise over the union of their levels."""
        if len(blocks) == 1:
            return blocks[0]
        levels: list[tuple[str, ...]] = []
        codes: list[np.ndarray] = []
        for position in range(len(blocks[0].levels)):
            tables = [block.levels[position] for block in blocks]
            union = sorted(set().union(*tables))
            index = {level: code for code, level in enumerate(union)}
            remapped = [
                np.array([index[level] for level in table], dtype=np.int32)[
                    block.codes[position]
                ]
                for table, block in zip(tables, blocks)
            ]
            levels.append(tuple(union))
            codes.append(np.concatenate(remapped))
        n_rows = sum(block.n_rows for block in blocks)
        return cls(n_rows, tuple(levels), tuple(codes))

    def to_table(self, names: Sequence[str], schema=None) -> Table:
        """The rows as a chunk :class:`Table`.

        Schema-covered columns are decoded to their strings and rebuilt
        through the schema's own parser; the rest stay categorical.
        """
        columns: list[Column] = []
        for name, table, codes in zip(names, self.levels, self.codes):
            if schema is not None and name in schema:
                decoded = np.array(table, dtype=object)[codes].tolist()
                columns.append(schema.field(name).build_column(decoded))
            else:
                columns.append(Column.from_codes(name, codes, table))
        return Table(columns)


def _rows_block(rows: Sequence[Sequence[str]], n_columns: int) -> CodeBlock:
    """Factorise already-projected row lists (the fallback's unit)."""
    columns = [
        Column.categorical("", [row[position] for row in rows])
        for position in range(n_columns)
    ]
    return CodeBlock(
        len(rows),
        tuple(column.levels for column in columns),
        tuple(column.codes for column in columns),
    )


# ----------------------------------------------------------------------
# Block reading
# ----------------------------------------------------------------------
def _iter_blocks(
    path: str | Path, start: int, end: int | None
) -> Iterator[tuple[int, bytes]]:
    """``(offset, bytes)`` blocks of ``[start, end)``, cut at line ends.

    Each block but the last ends with ``\\n``; a line longer than a
    block grows the block until its end is found.
    """
    with Path(path).open("rb") as handle:
        handle.seek(start)
        remaining = None if end is None else end - start
        offset = start
        pieces: list[bytes] = []  # the unfinished line so far
        while True:
            want = BLOCK_BYTES if remaining is None else min(BLOCK_BYTES, remaining)
            chunk = handle.read(want) if want > 0 else b""
            if not chunk:
                if pieces:
                    yield offset, b"".join(pieces)
                return
            if remaining is not None:
                remaining -= len(chunk)
            cut = chunk.rfind(b"\n") + 1
            if cut == 0:
                pieces.append(chunk)
                continue
            pieces.append(chunk[:cut])
            data = b"".join(pieces)
            yield offset, data
            offset += len(data)
            pieces = [chunk[cut:]] if cut < len(chunk) else []


def _iter_lines(path: str | Path, start: int, end: int) -> Iterator[str]:
    """Decoded ``\\n``-terminated lines of ``[start, end)``.

    Splitting on ``\\n`` is byte-safe in UTF-8 (no multi-byte sequence
    contains ``0x0A``), so lines decode independently.
    """
    for _offset, data in _iter_blocks(path, start, end):
        lines = data.split(b"\n")
        last = lines.pop()
        for line in lines:
            yield line.decode("utf-8") + "\n"
        if last:
            yield last.decode("utf-8")


@contextmanager
def parse_errors(path: str | Path) -> Iterator[None]:
    """Re-raise ``csv.Error`` and undecodable bytes as :class:`CsvParseError`."""
    try:
        yield
    except csv.Error as error:
        raise CsvParseError(f"malformed CSV in {path}: {error}") from None
    except UnicodeDecodeError as error:
        raise CsvParseError(f"{path} is not valid UTF-8: {error}") from None


@contextmanager
def _raw_rows(
    path: str | Path, start: int, end: int | None, delimiter: str
) -> Iterator[Iterator[list[str]]]:
    """A ``csv.reader`` over ``[start, end)``: to EOF (``end=None``)
    through a universal-newline text stream, or within a span over its
    lines split on ``\\n`` only."""
    if end is not None:
        yield csv.reader(_iter_lines(path, start, end), delimiter=delimiter)
        return
    with Path(path).open("rb") as binary:
        binary.seek(start)
        text = io.TextIOWrapper(binary, encoding="utf-8", newline="")
        yield csv.reader(text, delimiter=delimiter)


def _fallback_blocks(
    path: str | Path, plan, start: int, end: int | None, first_row_number: int
) -> Iterator[CodeBlock]:
    """The ``csv.reader`` row path from ``start``, as code blocks.

    Rows parsed before a parse error are yielded before it is raised,
    as the fast path does.
    """
    width = len(plan.selected)
    buffer: list[list[str]] = []
    with _raw_rows(path, start, end, plan.delimiter) as reader:
        try:
            with parse_errors(path):
                for row in plan.iter_data_rows(
                    reader, first_row_number=first_row_number
                ):
                    buffer.append(row)
                    if len(buffer) == FALLBACK_BATCH_ROWS:
                        yield _rows_block(buffer, width)
                        buffer = []
        except CsvParseError:
            if buffer:
                yield _rows_block(buffer, width)
            raise
    if buffer:
        yield _rows_block(buffer, width)


# ----------------------------------------------------------------------
# The vectorised fast path
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Lines:
    """One block's line layout (all offsets block-relative)."""

    arr: np.ndarray
    starts: np.ndarray  # line start
    stops: np.ndarray  # line content end: before "\n" or "\r\n"
    delims: np.ndarray  # delimiter positions
    first_delim: np.ndarray  # index into delims of each line's first
    n_fields: np.ndarray
    keep: np.ndarray  # data line (not blank, not a comment)


def _fast_delimiter(delimiter: str) -> int | None:
    """The delimiter byte, or ``None`` when the fast path cannot split on it."""
    if delimiter == "\t" or (len(delimiter) == 1 and " " <= delimiter <= "~"):
        return None if delimiter == '"' else ord(delimiter)
    return None


def _split_lines(
    data: bytes, delimiter: int, comment: bytes | None
) -> _Lines | None:
    """Classify a block's lines; ``None`` when it needs the fallback."""
    arr = np.frombuffer(data, dtype=np.uint8)
    if arr.max() > 0x7E or (arr == _QUOTE).any():
        return None
    newlines = np.flatnonzero(arr == _LF)
    returns = np.flatnonzero(arr == _CR)
    controls = newlines.size + returns.size + np.count_nonzero(arr == _TAB)
    if np.count_nonzero(arr < 0x20) != controls:
        return None
    if returns.size and (
        returns[-1] + 1 >= arr.size or not (arr[returns + 1] == _LF).all()
    ):
        return None  # a lone "\r" is a record break only csv.reader knows
    ends = newlines if arr[-1] == _LF else np.append(newlines, arr.size)
    starts = np.append(0, ends[:-1] + 1)
    stops = ends - (arr[np.maximum(ends - 1, 0)] == _CR) * (ends > starts)
    delims = np.flatnonzero(arr == delimiter)
    first_delim = np.searchsorted(delims, starts)
    n_fields = np.searchsorted(delims, stops) - first_delim + 1
    # Blank: every byte before the line end is a delimiter or padding.
    padding = _padding(arr, delimiter)
    blanks = np.flatnonzero(padding)
    n_blank = np.searchsorted(blanks, stops) - np.searchsorted(blanks, starts)
    keep = stops - starts > n_fields - 1 + n_blank
    if comment:
        keep &= ~_comment_lines(
            arr, padding, starts, stops, delims, first_delim, comment
        )
    return _Lines(arr, starts, stops, delims, first_delim, n_fields, keep)


def _padding(arr: np.ndarray, delimiter: int) -> np.ndarray:
    """Whitespace inside lines that ``str.strip`` removes from a field:
    spaces and tabs, unless one of them is the delimiter."""
    if delimiter == _TAB:
        return arr == _SPACE
    if delimiter == _SPACE:
        return arr == _TAB
    return (arr == _SPACE) | (arr == _TAB)


def _comment_lines(
    arr, padding, starts, stops, delims, first_delim, prefix: bytes
) -> np.ndarray:
    """Lines whose stripped first field starts with ``prefix``."""
    field_end = np.minimum(stops, np.append(delims, arr.size)[first_delim])
    solid = np.flatnonzero(~padding & (arr != _CR) & (arr != _LF))
    first = np.append(solid, arr.size)[np.searchsorted(solid, starts)]
    last = np.append(-1, solid)[np.searchsorted(solid, field_end)]
    match = first + len(prefix) - 1 <= last
    for offset, byte in enumerate(prefix):
        candidates = np.flatnonzero(match)
        match[candidates] = arr[first[candidates] + offset] == byte
    return match


# Low-byte masks: _WORD_MASKS[k] keeps the first k bytes of a "<u8" word.
_WORD_MASKS = np.array([(1 << (8 * k)) - 1 for k in range(9)], dtype="<u8")


def _pack(
    words: np.ndarray, starts: np.ndarray, lengths: np.ndarray
) -> np.ndarray | None:
    """Each field's bytes as one zero-padded key (``None``: too long).

    ``words`` is the block viewed as overlapping little-endian 8-byte
    words, one starting at every byte. A column whose fields fit in 8
    bytes gets ``"<u8"`` keys; a wider one ``S{8m}`` keys of ``m``
    words, laid out in byte order.
    """
    longest = int(lengths.max())
    if longest > MAX_KEY_BYTES:
        return None
    n_words = max(1, -(-longest // 8))
    packed = np.empty((starts.size, n_words), dtype="<u8")
    for word in range(n_words):
        taken = np.clip(lengths - 8 * word, 0, 8)
        packed[:, word] = words[starts + 8 * word] & _WORD_MASKS[taken]
    if n_words == 1:
        return packed[:, 0]
    return packed.view(f"S{8 * n_words}")[:, 0]


def _as_bytes(keys: np.ndarray, width: int) -> np.ndarray:
    """Keys as zero-padded ``S{width}`` strings (same bytes, same equality)."""
    if keys.dtype.kind == "u":
        keys = keys.view("S8")
    return keys.astype(f"S{width}")


class _KeyTable:
    """One column's distinct raw keys seen so far, sorted, and their cells.

    Later blocks mostly repeat earlier values, so a block's keys are
    looked up with ``searchsorted`` and only keys never seen before are
    sorted, decoded, stripped and missing-token mapped.
    """

    #: Past this many distinct keys the table restarts (a high-cardinality
    #: column would otherwise re-sort an ever-growing table per block).
    LIMIT = 1 << 16

    def __init__(self, plan):
        self._plan = plan
        self._reset()

    def _reset(self) -> None:
        self.keys = np.empty(0, dtype="<u8")
        self.cells: list[str] = []

    def _cell(self, raw: bytes) -> str:
        cell = raw.decode("ascii").strip()
        plan = self._plan
        if plan.missing_replacement is not None and cell == plan.missing_token:
            return plan.missing_replacement
        return cell

    def _reorder(self, keys: np.ndarray, cells: list[str]) -> None:
        order = np.argsort(keys, kind="stable")
        self.keys = keys[order]
        self.cells = [cells[index] for index in order.tolist()]

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Each key's index in :attr:`keys`, adding unseen keys first."""
        if self.keys.size > self.LIMIT:
            self._reset()
        width = max(keys.itemsize, self.keys.itemsize)
        if width > 8:
            keys = _as_bytes(keys, width)
            if self.keys.dtype != keys.dtype:
                self._reorder(_as_bytes(self.keys, width), self.cells)
        if self.keys.size:
            index = np.searchsorted(self.keys, keys)
            np.minimum(index, self.keys.size - 1, out=index)
            unseen = keys[self.keys[index] != keys]
        else:
            unseen = keys
        if unseen.size:
            fresh = np.unique(unseen)
            raw = (fresh.view("S8") if fresh.dtype.kind == "u" else fresh).tolist()
            self._reorder(
                np.concatenate([self.keys, fresh]),
                self.cells + [self._cell(value) for value in raw],
            )
            index = np.searchsorted(self.keys, keys)
        return index

    def factorise(self, keys: np.ndarray) -> tuple[tuple[str, ...], np.ndarray]:
        """Sorted distinct cells of ``keys`` and an int32 code per key."""
        index = self.lookup(keys)
        present = np.flatnonzero(np.bincount(index, minlength=self.keys.size))
        cells = [self.cells[key] for key in present.tolist()]
        table = sorted(set(cells))
        codes = {cell: code for code, cell in enumerate(table)}
        lut = np.zeros(self.keys.size, dtype=np.int32)
        lut[present] = [codes[cell] for cell in cells]
        return tuple(table), lut[index]


def _tokenize_block(
    data: bytes,
    plan,
    tables: list[_KeyTable],
    delimiter: int,
    comment: bytes | None,
    first_row_number: int,
) -> tuple[CodeBlock, CsvParseError | None] | None:
    """One block's code block (plus a deferred width error), or ``None``."""
    lines = _split_lines(data, delimiter, comment)
    if lines is None:
        return None
    rows = np.flatnonzero(lines.keep)
    width = len(plan.names)
    error = None
    ragged = np.flatnonzero(lines.n_fields[rows] != width)
    if ragged.size:
        bad = int(ragged[0])
        error = CsvParseError(
            f"row {first_row_number + bad} has "
            f"{int(lines.n_fields[rows[bad]])} cells, expected {width}"
        )
        rows = rows[:bad]
    if not rows.size:
        empty = np.empty(0, dtype=np.int32)
        block = CodeBlock(0, ((),) * len(tables), (empty,) * len(tables))
        return block, error
    # Overlapping 8-byte words at every offset; the zero tail keeps the
    # words of fields near the block end in bounds.
    padded = data + bytes(MAX_KEY_BYTES + 8)
    words = np.ndarray(
        (len(data) + MAX_KEY_BYTES + 1,), dtype="<u8", buffer=padded, strides=(1,)
    )
    first = lines.first_delim[rows]
    keys = []
    for index in plan.selected:
        if index == 0:
            starts = lines.starts[rows]
        else:
            starts = lines.delims[first + index - 1] + 1
        if index == width - 1:
            stops = lines.stops[rows]
        else:
            stops = lines.delims[first + index]
        column = _pack(words, starts, stops - starts)
        if column is None:
            return None
        keys.append(column)
    factorised = [table.factorise(column) for table, column in zip(tables, keys)]
    levels = tuple(table for table, _ in factorised)
    codes = tuple(column for _, column in factorised)
    return CodeBlock(int(rows.size), levels, codes), error


def _comment_bytes(plan) -> bytes | None:
    prefix = plan.skip_comment_prefix
    return prefix.encode("utf-8") if prefix else None


def iter_code_blocks(
    path: str | Path, plan, start: int, end: int | None = None
) -> Iterator[CodeBlock]:
    """The data rows of ``[start, end)`` under ``plan``, as code blocks.

    ``end=None`` reads to EOF and is the serial stream: its fallback is
    a universal-newline ``csv.reader`` exactly like the row path's.
    With ``end`` the range is a line-aligned span (what the span workers
    read), numbered from row 1 and parsed line by line on fallback.
    """
    delimiter = _fast_delimiter(plan.delimiter)
    comment = _comment_bytes(plan)
    rows = 0
    if delimiter is not None:
        tables = [_KeyTable(plan) for _ in plan.selected]
        for offset, data in _iter_blocks(path, start, end):
            result = _tokenize_block(
                data, plan, tables, delimiter, comment, rows + 1
            )
            if result is None:
                yield from _fallback_blocks(path, plan, offset, end, rows + 1)
                return
            block, error = result
            rows += block.n_rows
            if block.n_rows:
                yield block
            if error is not None:
                raise error
        return
    yield from _fallback_blocks(path, plan, start, end, 1)


def iter_code_chunks(
    blocks: Iterable[CodeBlock], chunk_rows: int, skip_rows: int = 0
) -> Iterator[CodeBlock]:
    """Re-slice code blocks into chunks of exactly ``chunk_rows`` rows
    (the last may be shorter), after skipping ``skip_rows`` rows.

    Each chunk's levels are narrowed to those present in it, so a chunk
    equals the one built from the same rows by the row path.
    """
    pending: list[CodeBlock] = []
    held = 0
    for block in blocks:
        start = min(skip_rows, block.n_rows)
        skip_rows -= start
        while block.n_rows - start >= chunk_rows - held:
            stop = start + chunk_rows - held
            pending.append(block.slice(start, stop))
            yield CodeBlock.concat(pending)
            pending, held, start = [], 0, stop
        if start < block.n_rows:
            pending.append(block.slice(start, block.n_rows))
            held += block.n_rows - start
    if pending:
        yield CodeBlock.concat(pending)


def iter_data_line_ends(
    path: str | Path, plan, start: int, end: int | None = None
) -> Iterator[np.ndarray]:
    """Absolute end offsets of the data lines in ``[start, end)``.

    A data line is one the parser yields a row for
    (:meth:`CsvPlan.is_data_row`): not blank (only delimiters and
    whitespace) and not a comment. ``csv.reader`` keeps every printable
    ASCII byte other than the quote and the delimiter in some cell, so a
    line holding such a byte (a space aside) is data unless it also
    holds the comment prefix's first byte. Every other line is
    classified by parsing it alone with ``csv.reader``. Lines are
    physical: a quoted field spanning lines is counted once per line,
    which the span workers' row-count check reports.
    """
    delimiter = plan.delimiter.encode("utf-8")
    comment = _comment_bytes(plan)
    for offset, data in _iter_blocks(path, start, end):
        arr = np.frombuffer(data, dtype=np.uint8)
        stops = np.flatnonzero(arr == _LF) + 1
        if not stops.size or stops[-1] != arr.size:
            stops = np.append(stops, arr.size)
        starts = np.append(0, stops[:-1])
        solid = (arr > _SPACE) & (arr < 0x7F) & (arr != _QUOTE)
        if len(delimiter) == 1:
            solid &= arr != delimiter[0]
        keep = np.logical_or.reduceat(solid, starts)
        parse = ~keep
        if comment:
            parse |= np.logical_or.reduceat(arr == comment[0], starts)
        for line in np.flatnonzero(parse).tolist():
            with parse_errors(path):
                text = data[starts[line] : stops[line]].decode("utf-8")
                raw_row = next(csv.reader([text], delimiter=plan.delimiter), [])
            keep[line] = plan.is_data_row(raw_row)
        yield offset + stops[keep]
