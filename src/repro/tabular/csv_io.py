"""CSV reading and writing.

The reader understands the UCI Adult file conventions: comma separation
with optional surrounding whitespace, ``?`` for missing values, trailing
``.`` on labels in the test split, and a possible junk first line
(``|1x3 Cross validator``).

Streaming and sharding
----------------------
:func:`iter_csv_chunks` streams a file in bounded-memory chunks; it is
built on :class:`CsvPlan`, which resolves the header, the projection,
and the byte offset where data begins *once* so that serial readers,
resumed readers, and independent shard workers all parse identically.
:func:`plan_csv_shards` (even byte-range splits) and
:func:`plan_csv_chunks` (chunk-aligned splits from one line scan)
produce :class:`CsvSpan` byte ranges that workers can open, seek, and
parse without any coordination — the substrate of
:mod:`repro.engine.backends`.

The data region is tokenised by :mod:`repro.tabular.tokenize`: 1 MiB
blocks of printable ASCII are split, classified and factorised in
NumPy, and from the first block holding anything else (a quote,
non-ASCII, a lone ``\r``, a field too long to pack) the ``csv.reader``
row path (:meth:`CsvPlan.iter_data_rows`) takes over to the end. Both
paths yield the same rows, so the chunks, the column cache and the
chunk planner's row counts do not depend on which one ran. Malformed
input (``csv.Error``, bytes that are not UTF-8) raises
:class:`CsvParseError`. A leading UTF-8 byte-order mark is not part of
the first column name.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.exceptions import CsvParseError
from repro.tabular.column import Column
from repro.tabular.schema import Schema
from repro.tabular.table import Table
from repro.tabular.tokenize import (
    iter_code_blocks,
    iter_code_chunks,
    iter_data_line_ends,
    parse_errors,
)

_BOM = "\ufeff"

__all__ = [
    "CsvPlan",
    "CsvSpan",
    "read_csv",
    "write_csv",
    "read_csv_text",
    "iter_csv_chunks",
    "plan_csv_chunks",
    "plan_csv_shards",
]


def _is_data_row(raw_row: Sequence[str], comment_prefix: str | None) -> bool:
    """Whether a raw csv row is data: not blank (every cell empty after
    stripping) and not a comment (first cell, stripped, starts with
    ``comment_prefix``). Every reader applies this rule; the tokenizer's
    vectorised forms of it are tested against it."""
    if not "".join(raw_row).strip():  # every cell is whitespace
        return False
    return not (comment_prefix and raw_row[0].strip().startswith(comment_prefix))


def read_csv(
    path: str | Path,
    *,
    schema: Schema | None = None,
    header: bool = True,
    column_names: Sequence[str] | None = None,
    delimiter: str = ",",
    missing_token: str = "?",
    missing_replacement: str | None = None,
    skip_comment_prefix: str | None = None,
) -> Table:
    """Read a CSV file into a :class:`Table`.

    Parameters
    ----------
    schema:
        When provided, columns are parsed to the declared kinds; otherwise
        kinds are inferred (numeric-looking columns become numeric).
    header:
        Whether the first (non-comment) line holds column names. When
        false, ``column_names`` must be given (or a schema supplies names).
    missing_token / missing_replacement:
        Cells equal to ``missing_token`` (after stripping) are replaced by
        ``missing_replacement``. The default ``None`` replacement keeps the
        token itself, which matches how the paper's case study treats the
        Adult dataset (``?`` is just another category).
    """
    text = Path(path).read_text(encoding="utf-8")
    return read_csv_text(
        text,
        schema=schema,
        header=header,
        column_names=column_names,
        delimiter=delimiter,
        missing_token=missing_token,
        missing_replacement=missing_replacement,
        skip_comment_prefix=skip_comment_prefix,
    )


def read_csv_text(
    text: str,
    *,
    schema: Schema | None = None,
    header: bool = True,
    column_names: Sequence[str] | None = None,
    delimiter: str = ",",
    missing_token: str = "?",
    missing_replacement: str | None = None,
    skip_comment_prefix: str | None = None,
) -> Table:
    """Parse CSV content from a string; see :func:`read_csv`."""
    reader = csv.reader(io.StringIO(text.removeprefix(_BOM)), delimiter=delimiter)
    rows: list[list[str]] = []
    for raw_row in reader:
        if _is_data_row(raw_row, skip_comment_prefix):
            rows.append([cell.strip() for cell in raw_row])
    if not rows:
        raise CsvParseError("no data rows found")

    if header:
        names = rows[0]
        body = rows[1:]
    else:
        if column_names is not None:
            names = list(column_names)
        elif schema is not None:
            names = schema.names
        else:
            raise CsvParseError(
                "header=False requires column_names or a schema to supply names"
            )
        body = rows
    if not body:
        raise CsvParseError("CSV contains a header but no data rows")
    width = len(names)
    for line_number, row in enumerate(body, start=1):
        if len(row) != width:
            raise CsvParseError(
                f"row {line_number} has {len(row)} cells, expected {width}"
            )

    if missing_replacement is not None:
        body = [
            [missing_replacement if cell == missing_token else cell for cell in row]
            for row in body
        ]

    columns: list[Column] = []
    for index, name in enumerate(names):
        raw_values = [row[index] for row in body]
        if schema is not None and name in schema:
            columns.append(schema.field(name).build_column(raw_values))
        else:
            columns.append(_infer_column(name, raw_values))
    return Table(columns)


@dataclass(frozen=True)
class CsvPlan:
    """Resolved header, projection, and parse options for one CSV file.

    Built once (:meth:`from_csv`) and shared by every path that reads
    the file — the serial chunk iterator, resumed readers, and shard
    workers on other processes or machines — so all of them agree on
    column names, the projection, duplicate-name rejection, and the
    byte offset at which data begins. The plan is a plain picklable
    dataclass: it travels to pool workers inside their task.
    """

    names: tuple[str, ...]
    selected: tuple[int, ...]
    data_offset: int
    delimiter: str = ","
    missing_token: str = "?"
    missing_replacement: str | None = None
    skip_comment_prefix: str | None = None
    schema: Schema | None = None

    @classmethod
    def from_csv(
        cls,
        path: str | Path,
        *,
        schema: Schema | None = None,
        header: bool = True,
        column_names: Sequence[str] | None = None,
        delimiter: str = ",",
        missing_token: str = "?",
        missing_replacement: str | None = None,
        skip_comment_prefix: str | None = None,
        columns: Sequence[str] | None = None,
    ) -> "CsvPlan":
        """Resolve the header and projection by reading the file prologue.

        Only a leading UTF-8 byte-order mark, the leading blank/comment
        lines and (when ``header=True``) the header line are read;
        ``data_offset`` is the byte offset of the first data line, so
        any reader can ``seek`` straight to it.
        Duplicate header names raise :class:`CsvParseError` here — at
        plan time — rather than surfacing (or being silently masked by
        the projection) on the first parsed chunk.
        """
        names: list[str] | None = None
        if not header:
            if column_names is not None:
                names = list(column_names)
            elif schema is not None:
                names = schema.names
            else:
                raise CsvParseError(
                    "header=False requires column_names or a schema to "
                    "supply names"
                )
        with Path(path).open("rb") as handle:
            if handle.read(3) != _BOM.encode("utf-8"):
                handle.seek(0)
            offset = handle.tell()
            while True:
                line = handle.readline()
                if not line:
                    raise CsvParseError("no data rows found")
                with parse_errors(path):
                    cells = next(
                        csv.reader([line.decode("utf-8")], delimiter=delimiter),
                        [],
                    )
                if not _is_data_row(cells, skip_comment_prefix):
                    offset = handle.tell()
                    continue
                if names is None:  # this line is the header
                    names = [cell.strip() for cell in cells]
                    offset = handle.tell()
                # else: this line is the first data row; offset already
                # points at its start.
                break
        duplicates = sorted(
            {name for name in names if names.count(name) > 1}
        )
        if duplicates:
            raise CsvParseError(
                f"duplicate column names {duplicates} in header {names}"
            )
        return cls(
            names=tuple(names),
            selected=tuple(_select_indices(list(names), columns)),
            data_offset=offset,
            delimiter=delimiter,
            missing_token=missing_token,
            missing_replacement=missing_replacement,
            skip_comment_prefix=skip_comment_prefix,
            schema=schema,
        )

    @property
    def selected_names(self) -> tuple[str, ...]:
        """Projected column names, in projection order."""
        return tuple(self.names[index] for index in self.selected)

    def is_data_row(self, raw_row: Sequence[str]) -> bool:
        """Whether a raw csv row is data under this plan; see
        :func:`_is_data_row`."""
        return _is_data_row(raw_row, self.skip_comment_prefix)

    def iter_data_rows(
        self,
        reader: Iterable[list[str]],
        *,
        first_row_number: int = 1,
    ) -> Iterator[list[str]]:
        """Parse raw csv rows: skip blanks/comments, strip, validate
        width, project, and apply missing-token replacement.

        This is the row path the tokenizer falls back to; see
        :mod:`repro.tabular.tokenize`.
        """
        width = len(self.names)
        selected = self.selected
        prefix = self.skip_comment_prefix
        number = first_row_number - 1
        for raw_row in reader:
            if not _is_data_row(raw_row, prefix):
                continue
            number += 1
            if len(raw_row) != width:
                raise CsvParseError(
                    f"row {number} has {len(raw_row)} cells, expected {width}"
                )
            # Projection pushdown: unselected cells are dropped unstripped,
            # so buffers never hold more than chunk_rows x len(selected).
            row = [raw_row[index].strip() for index in selected]
            if self.missing_replacement is not None:
                row = [
                    self.missing_replacement
                    if cell == self.missing_token
                    else cell
                    for cell in row
                ]
            yield row

    def to_column_cache(
        self, source_path: str | Path, cache_path: str | Path
    ) -> Path:
        """Parse ``source_path`` once and write a ``.rccol`` column cache.

        The cache packs every selected column as a factorised level
        table plus an int32 code array (see
        :mod:`repro.tabular.colcache`); re-audits of the same source
        then skip CSV parsing entirely via :meth:`from_column_cache`.
        """
        from repro.tabular.colcache import build_column_cache

        return build_column_cache(source_path, self, cache_path)

    def from_column_cache(
        self,
        cache_path: str | Path,
        *,
        source_path: str | Path | None = None,
    ):
        """Open a ``.rccol`` cache built for this plan's parse options.

        Validates the cache's magic/version/CRCs and its recorded parse
        options against this plan; with ``source_path`` the source
        fingerprint (size, mtime, prologue bytes) is re-verified too.
        Any mismatch raises :class:`repro.exceptions.CacheError` — a
        stale cache is never read silently.
        """
        from repro.tabular.colcache import ColumnCache

        return ColumnCache.open(
            cache_path, source_path=source_path, plan=self
        )


@dataclass(frozen=True)
class CsvSpan:
    """A byte range of a CSV file's data region, aligned to line starts.

    ``n_rows`` is the number of data lines the planner counted inside
    the span (known for chunk-aligned spans from :func:`plan_csv_chunks`,
    ``None`` for the pure byte splits of :func:`plan_csv_shards`).
    """

    start: int
    end: int
    n_rows: int | None = None


def iter_csv_chunks(
    path: str | Path,
    chunk_rows: int = 4096,
    *,
    schema: Schema | None = None,
    header: bool = True,
    column_names: Sequence[str] | None = None,
    delimiter: str = ",",
    missing_token: str = "?",
    missing_replacement: str | None = None,
    skip_comment_prefix: str | None = None,
    columns: Sequence[str] | None = None,
    plan: CsvPlan | None = None,
    skip_rows: int = 0,
):
    """Stream a CSV file as a sequence of :class:`Table` chunks.

    The file is read incrementally — at most ``chunk_rows`` data rows are
    materialised at a time — which is what lets the streaming audit
    subsystem (:class:`repro.audit.stream.StreamingAuditor`, the CLI's
    ``audit-stream``) ingest files far larger than memory.

    Columns covered by ``schema`` are parsed to their declared kinds;
    all other columns come out *categorical* (dictionary-encoded
    strings). Whole-file kind inference is deliberately not attempted:
    a chunk cannot see the rest of the file, and per-chunk inference
    could flip a column's kind between chunks. ``columns`` restricts
    each chunk to the named columns (a projection pushdown — unneeded
    cells are dropped during parsing).

    Header and projection resolution happen once, in a :class:`CsvPlan`
    (pass ``plan`` to reuse one that was already built — the remaining
    keyword options are then ignored). ``skip_rows`` skips that many
    already-ingested data rows before the first chunk, which is how
    checkpoint resume re-enters a stream; with ``skip_rows > 0`` an
    exhausted stream is *not* an error.

    Cell stripping and ``missing_token`` handling match
    :func:`read_csv`. Raises :class:`CsvParseError` on ragged rows, on
    malformed CSV, on unknown ``columns`` names, and — like
    :func:`read_csv` — when the file contains no data rows (after the
    generator is exhausted).
    """
    if chunk_rows < 1:
        raise CsvParseError(f"chunk_rows must be >= 1, got {chunk_rows}")
    if skip_rows < 0:
        raise CsvParseError(f"skip_rows must be >= 0, got {skip_rows}")
    if plan is None:
        plan = CsvPlan.from_csv(
            path,
            schema=schema,
            header=header,
            column_names=column_names,
            delimiter=delimiter,
            missing_token=missing_token,
            missing_replacement=missing_replacement,
            skip_comment_prefix=skip_comment_prefix,
            columns=columns,
        )
    yielded = False
    blocks = iter_code_blocks(path, plan, plan.data_offset)
    for chunk in iter_code_chunks(blocks, chunk_rows, skip_rows):
        yield chunk.to_table(plan.selected_names, plan.schema)
        yielded = True
    if not yielded and skip_rows == 0:
        raise CsvParseError("no data rows found")


def plan_csv_shards(
    path: str | Path, plan: CsvPlan, n_shards: int
) -> list[CsvSpan]:
    """Split the data region into ``<= n_shards`` even byte-range spans.

    Cut points are placed at even byte fractions and advanced to the
    next line start, so every span begins and ends on a line boundary
    and the spans partition the data region exactly. No line is ever
    read twice and no scan of the whole file is needed — planning costs
    ``n_shards`` seeks. Workers tokenise their span
    (:func:`repro.tabular.tokenize.iter_code_blocks`), opening the file
    independently (the spans can even be shipped to different machines
    alongside the plan).

    Line alignment assumes cells contain no embedded newlines (the CSV
    dialect this library reads and writes).
    """
    if n_shards < 1:
        raise CsvParseError(f"n_shards must be >= 1, got {n_shards}")
    size = Path(path).stat().st_size
    start = plan.data_offset
    if start >= size:
        return []
    boundaries = [start]
    with Path(path).open("rb") as handle:
        for index in range(1, n_shards):
            cut = start + (size - start) * index // n_shards
            handle.seek(cut)
            handle.readline()  # finish the line the cut landed in
            boundaries.append(min(handle.tell(), size))
    boundaries.append(size)
    return [
        CsvSpan(span_start, span_end)
        for span_start, span_end in zip(boundaries, boundaries[1:])
        if span_end > span_start
    ]


def plan_csv_chunks(
    path: str | Path, plan: CsvPlan, chunk_rows: int
) -> list[CsvSpan]:
    """Chunk-aligned spans: one span per ``chunk_rows`` data lines.

    One line scan records the byte offset of every chunk boundary, so
    shard workers can parse *the same chunks* the serial reader would
    produce — which is what makes a multi-process ``audit-stream``
    trace byte-identical to the serial one. Lines are classified by the
    tokenizer's rule (:func:`repro.tabular.tokenize.iter_data_line_ends`),
    the parser's own: blank lines — only delimiters and whitespace, like
    ``,,`` — and comments are not data. Each span carries its counted
    ``n_rows``; workers verify the parsed row count against it and fail
    loudly on a disagreement (a quoted cell spanning lines).
    """
    if chunk_rows < 1:
        raise CsvParseError(f"chunk_rows must be >= 1, got {chunk_rows}")
    spans: list[CsvSpan] = []
    start = plan.data_offset
    pending = 0
    for ends in iter_data_line_ends(path, plan, plan.data_offset):
        cuts = ends[chunk_rows - pending - 1 :: chunk_rows]
        for cut in cuts.tolist():
            spans.append(CsvSpan(start, cut, chunk_rows))
            start = cut
        pending = (pending + len(ends)) % chunk_rows
    if pending:
        spans.append(CsvSpan(start, Path(path).stat().st_size, pending))
    return spans


def _select_indices(
    names: list[str], columns: Sequence[str] | None
) -> list[int]:
    if columns is None:
        return list(range(len(names)))
    positions = {name: index for index, name in enumerate(names)}
    missing = [name for name in columns if name not in positions]
    if missing:
        raise CsvParseError(f"unknown columns {missing}; file has {names}")
    return [positions[name] for name in columns]


def _infer_column(name: str, raw_values: list[str]) -> Column:
    """Infer numeric vs categorical from raw string cells."""
    try:
        numbers = [float(value) for value in raw_values]
    except ValueError:
        return Column.categorical(name, raw_values)
    return Column.numeric(name, numbers)


def write_csv(table: Table, path: str | Path, *, delimiter: str = ",") -> None:
    """Write a table to CSV with a header row."""
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, delimiter=delimiter)
        writer.writerow(table.column_names)
        decoded = [column.to_list() for column in table.columns]
        for row_index in range(table.n_rows):
            writer.writerow(
                [_format_cell(values[row_index]) for values in decoded]
            )


def _format_cell(value: Any) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)
