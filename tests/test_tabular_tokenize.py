"""Differential tests for the vectorised CSV tokenizer.

The reference is the ``csv.reader`` row path called directly: a
universal-newline text stream from the plan's data offset, through
:meth:`CsvPlan.iter_data_rows`, into chunk tables built with
:meth:`Column.categorical` (or the schema). On random CSVs — quotes,
a quoted multi-line field, CRLF, blank, whitespace-only and ``,,``
lines, comments, missing tokens, tab/space padding, non-ASCII levels,
ragged rows, and blocks small enough that rows straddle them — the
tokenizer path must give the same chunk tables (levels, codes, kinds),
a byte-identical ``.rccol``, and the same :class:`CsvParseError`
messages. The colcache round-trip property compares two paths that both
tokenise, so this file is the independent check.
"""

from __future__ import annotations

import csv
import io
import time

import numpy as np
import pytest

import repro.tabular.colcache as colcache
import repro.tabular.tokenize as tokenize
from repro.exceptions import CsvParseError, SchemaError
from repro.tabular.colcache import build_column_cache
from repro.tabular.column import Column
from repro.tabular.csv_io import CsvPlan, iter_csv_chunks, plan_csv_chunks
from repro.tabular.schema import Field, Schema
from repro.tabular.table import Table
from repro.tabular.tokenize import CodeBlock

try:
    from hypothesis import HealthCheck, given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


# ----------------------------------------------------------------------
# The reference: csv.reader rows, called directly
# ----------------------------------------------------------------------
def reference_rows(path, plan):
    with open(path, "rb") as binary:
        binary.seek(plan.data_offset)
        handle = io.TextIOWrapper(binary, encoding="utf-8", newline="")
        yield from plan.iter_data_rows(csv.reader(handle, delimiter=plan.delimiter))


def reference_table(plan, rows):
    columns = []
    for position, name in enumerate(plan.selected_names):
        values = [row[position] for row in rows]
        if plan.schema is not None and name in plan.schema:
            columns.append(plan.schema.field(name).build_column(values))
        else:
            columns.append(Column.categorical(name, values))
    return Table(columns)


def reference_chunks(path, plan, chunk_rows):
    buffer = []
    for row in reference_rows(path, plan):
        buffer.append(row)
        if len(buffer) == chunk_rows:
            yield reference_table(plan, buffer)
            buffer = []
    if buffer:
        yield reference_table(plan, buffer)


def reference_blocks(path, plan, start):
    """Row-path code blocks: what ``build_column_cache`` consumed before
    the tokenizer (65536-row chunks factorised by Column.categorical)."""
    assert start == plan.data_offset
    for table in reference_chunks(path, plan, 65536):
        yield CodeBlock(
            table.n_rows,
            tuple(column.levels for column in table.columns),
            tuple(column.codes for column in table.columns),
        )


def collect(chunks):
    """Chunk tables up to the first parse (or schema) error, and its text."""
    tables = []
    try:
        for table in chunks:
            tables.append(table)
    except (CsvParseError, SchemaError) as error:
        return tables, f"{type(error).__name__}: {error}"
    return tables, None


def cache_bytes(path, plan, cache_path, monkeypatch, *, reference=False):
    """The ``.rccol`` bytes (or the parse error's text) of a build, either
    tokenised or fed by the row path."""
    with monkeypatch.context() as patch:
        if reference:
            patch.setattr(colcache, "iter_code_blocks", reference_blocks)
        try:
            build_column_cache(path, plan, cache_path)
        except CsvParseError as error:
            return None, str(error)
    return cache_path.read_bytes(), None


def assert_same_tables(mine, theirs):
    assert len(mine) == len(theirs)
    for left, right in zip(mine, theirs):
        assert left.column_names == right.column_names
        assert left.to_dict() == right.to_dict()
        for name in left.column_names:
            a, b = left.column(name), right.column(name)
            assert a.kind == b.kind
            if a.kind == "categorical":
                assert a.levels == b.levels
                assert np.array_equal(a.codes, b.codes)


def assert_paths_agree(path, plan, chunk_rows, tmp_path, monkeypatch):
    ours, our_error = collect(iter_csv_chunks(path, chunk_rows, plan=plan))
    theirs, their_error = collect(reference_chunks(path, plan, chunk_rows))
    if their_error is None and not theirs:
        their_error = "CsvParseError: no data rows found"
    assert our_error == their_error
    assert_same_tables(ours, theirs)
    if their_error is None and b'"two\nlines"' not in path.read_bytes():
        # Without a quoted cell spanning lines, the chunk planner's spans
        # hold exactly the serial chunks, and span workers agree.
        spans = plan_csv_chunks(path, plan, chunk_rows)
        assert [span.n_rows for span in spans] == [t.n_rows for t in theirs]
        for span in spans:
            blocks = tokenize.iter_code_blocks(path, plan, span.start, span.end)
            assert sum(block.n_rows for block in blocks) == span.n_rows

    built = cache_bytes(path, plan, tmp_path / "tokenized.rccol", monkeypatch)
    expected = cache_bytes(
        path, plan, tmp_path / "reference.rccol", monkeypatch, reference=True
    )
    assert built == expected


# ----------------------------------------------------------------------
# Hand-picked files
# ----------------------------------------------------------------------
@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(tokenize, "BLOCK_BYTES", 32)


class TestFastPathAndFallback:
    def test_plain_file_is_identical(self, tmp_path, monkeypatch):
        path = tmp_path / "plain.csv"
        path.write_text(
            "g,r,y\n"
            + "".join(f"g{i % 3}, r{i % 5} ,y{i % 2}\n" for i in range(300))
        )
        plan = CsvPlan.from_csv(path)
        assert_paths_agree(path, plan, 64, tmp_path, monkeypatch)

    def test_quoted_multiline_field_after_the_first_block(
        self, tmp_path, monkeypatch, small_blocks
    ):
        # The first blocks take the fast path; the quote switches the
        # rest of the file to csv.reader, which joins the two lines.
        body = "".join(f"a{i % 2},x,1\n" for i in range(20))
        path = tmp_path / "quoted.csv"
        path.write_text(f'g,r,y\n{body}b,"two\nlines",0\nc,"q,uoted",1\na,x,1\n')
        plan = CsvPlan.from_csv(path)
        chunks = list(iter_csv_chunks(path, 1000, plan=plan))
        assert chunks[0].n_rows == 23
        assert "two\nlines" in chunks[0].column("r").levels
        assert "q,uoted" in chunks[0].column("r").levels
        assert_paths_agree(path, plan, 7, tmp_path, monkeypatch)

    def test_ragged_row_error_matches_row_path(
        self, tmp_path, monkeypatch, small_blocks
    ):
        path = tmp_path / "ragged.csv"
        lines = [f"a,x,{i % 2}" for i in range(30)]
        lines[17] = "a,x"
        lines.insert(5, ",,")
        path.write_text("g,r,y\n" + "\n".join(lines) + "\n")
        plan = CsvPlan.from_csv(path)
        with pytest.raises(CsvParseError, match="row 18 has 2 cells, expected 3"):
            list(iter_csv_chunks(path, 4, plan=plan))
        assert_paths_agree(path, plan, 4, tmp_path, monkeypatch)

    def test_long_fields_fall_back_exactly(self, tmp_path, monkeypatch):
        long_value = "v" * (tokenize.MAX_KEY_BYTES + 1)
        path = tmp_path / "long.csv"
        path.write_text(
            "g,r,y\n" + "".join(f"a,{long_value[: 5 + i]},1\n" for i in range(80))
        )
        plan = CsvPlan.from_csv(path)
        assert_paths_agree(path, plan, 16, tmp_path, monkeypatch)

    def test_wide_keys_share_a_code_only_when_bytes_match(
        self, tmp_path, monkeypatch
    ):
        # Same 8-byte prefix, different tails and lengths: exact keys.
        values = [
            "Asian-Pac-Islander", "Asian-Pac-Islandex", "Asian-Pa", "Asian-Pac"
        ]
        path = tmp_path / "wide.csv"
        path.write_text(
            "g,r,y\n" + "".join(f"a,{values[i % 4]},1\n" for i in range(40))
        )
        plan = CsvPlan.from_csv(path)
        (chunk,) = list(iter_csv_chunks(path, 100, plan=plan))
        assert chunk.column("r").levels == tuple(sorted(values))
        assert_paths_agree(path, plan, 9, tmp_path, monkeypatch)

    def test_key_width_changes_between_blocks(
        self, tmp_path, monkeypatch, small_blocks
    ):
        rows = ["a,b,1"] * 10 + ["a,bbbbbbbbbbbb,1"] * 5 + ["a,b,0", "a,c,1"] * 5
        path = tmp_path / "widths.csv"
        path.write_text("g,r,y\n" + "\n".join(rows) + "\n")
        plan = CsvPlan.from_csv(path)
        assert_paths_agree(path, plan, 3, tmp_path, monkeypatch)

    def test_planner_counts_the_rows_the_parser_yields(
        self, tmp_path, small_blocks
    ):
        path = tmp_path / "planner.csv"
        path.write_bytes(
            b"g,r,y\r\n#note,,\r\na,x,1\r\n , ,\t\r\n\r\nb,z,0\r\n,,\r\n"
            b"c,x,1\r\n   #x\r\nd,x,0"
        )
        plan = CsvPlan.from_csv(path, skip_comment_prefix="#")
        spans = plan_csv_chunks(path, plan, 3)
        assert [span.n_rows for span in spans] == [3, 1]
        tables = list(iter_csv_chunks(path, 3, plan=plan))
        assert [table.n_rows for table in tables] == [3, 1]


# ----------------------------------------------------------------------
# The differential property
# ----------------------------------------------------------------------
LEVELS = [
    "a", "b", "Male", "Female", "Asian-Pac-Islander", "?", "", "x y",
    "United-States-of-America", "l" * 70, "é", "naïve", "日本",
]
QUOTED = [
    '"a,b"', '"say ""hi"""', '"two\nlines"', '"?"', '" padded "', '""', '" "',
]
PADDING = ["", " ", "  ", "\t", " \t"]
NUMBERS = ["1", "2.5", "-3", "1e3", "0"]

if HAVE_HYPOTHESIS:

    @st.composite
    def csv_files(draw):
        delimiter = draw(st.sampled_from([",", ",", ";", "|", "\t", " "]))
        padding = [pad for pad in PADDING if delimiter not in pad] or [""]
        n_columns = draw(st.integers(min_value=1, max_value=4))
        names = [f"c{index}" for index in range(n_columns)]
        comment = draw(st.sampled_from([None, "#", "//", "# "]))
        missing = draw(st.sampled_from([None, "MISSING", "a"]))
        numeric = draw(st.booleans())
        plain = draw(st.booleans())  # mostly fast-path files
        levels = draw(
            st.lists(
                st.sampled_from(LEVELS[:9] if plain else LEVELS + QUOTED),
                min_size=1, max_size=6, unique=True,
            )
        )

        def cell(index):
            pool = NUMBERS if numeric and index == 0 else levels
            value = draw(st.sampled_from(pool))
            pad = st.sampled_from(padding)
            return draw(pad) + value + draw(pad)

        lines = []
        for _ in range(draw(st.integers(min_value=0, max_value=40))):
            kinds = ["row"] * 8 + ["blank", "spaces", "delims", "comment", "ragged"]
            kind = draw(st.sampled_from(kinds + ([] if plain else ["quoted"])))
            if kind == "row":
                lines.append(delimiter.join(cell(i) for i in range(n_columns)))
            elif kind == "blank":
                lines.append("")
            elif kind == "spaces":
                # Non-ASCII whitespace: only the parser knows it is blank.
                unicode_spaces = ["\u00a0", "\u3000 "]
                lines.append(draw(st.sampled_from(padding + unicode_spaces)))
            elif kind == "delims":
                repeat = draw(st.integers(min_value=1, max_value=5))
                lines.append(delimiter * repeat)
            elif kind == "comment":
                pad = draw(st.sampled_from(padding))
                lines.append(pad + (comment or "#") + "c,d")
            elif kind == "quoted":  # blank once the quotes are parsed
                repeat = draw(st.integers(min_value=1, max_value=2))
                lines.append(delimiter.join(['""', '" "'][:repeat]))
            else:
                width = draw(st.sampled_from([n_columns - 1, n_columns + 1]))
                lines.append(delimiter.join(cell(0) for _ in range(max(width, 0))))
        header = delimiter.join(draw(st.sampled_from(padding)) + n for n in names)
        endings = [
            draw(st.sampled_from(["\n", "\r\n"])) for _ in range(len(lines) + 1)
        ]
        text = header + "".join(e + line for e, line in zip(endings, lines))
        if draw(st.booleans()):
            text += endings[-1]
        if draw(st.booleans()):
            text = "\ufeff" + text
        columns = draw(
            st.lists(
                st.sampled_from(names),
                min_size=1, max_size=n_columns, unique=True,
            )
        )
        return {
            "text": text,
            "delimiter": delimiter,
            "comment": comment,
            "missing": missing,
            "schema": Schema([Field("c0", "numeric")]) if numeric else None,
            "columns": columns,
            "chunk_rows": draw(st.integers(min_value=1, max_value=12)),
            "block_bytes": draw(st.sampled_from([8, 24, 64, 1 << 20])),
        }

    class TestDifferentialProperty:
        @settings(
            max_examples=150,
            deadline=None,
            suppress_health_check=[HealthCheck.function_scoped_fixture],
        )
        @given(spec=csv_files())
        def test_tokenizer_matches_the_row_path(
            self, spec, tmp_path_factory, monkeypatch
        ):
            tmp_path = tmp_path_factory.mktemp("tokenize")
            path = tmp_path / "random.csv"
            path.write_bytes(spec["text"].encode("utf-8"))
            plan = CsvPlan.from_csv(
                path,
                schema=spec["schema"],
                delimiter=spec["delimiter"],
                missing_replacement=spec["missing"],
                skip_comment_prefix=spec["comment"],
                columns=spec["columns"],
            )
            with monkeypatch.context() as patch:
                patch.setattr(tokenize, "BLOCK_BYTES", spec["block_bytes"])
                assert_paths_agree(
                    path, plan, spec["chunk_rows"], tmp_path, monkeypatch
                )


# ----------------------------------------------------------------------
# Perf guard
# ----------------------------------------------------------------------
@pytest.mark.perf
def test_tokenizer_cache_build_beats_the_row_path(tmp_path, monkeypatch):
    """The tokenizer cache build is >= 2x the csv.reader row path at
    200k rows (about 6.5x on a 2-vCPU container); a de-vectorised
    tokenizer fails here."""
    rng = np.random.default_rng(12)
    columns = [
        np.array(["Female", "Male"])[rng.integers(2, size=200_000)],
        np.array(["White", "Black", "Asian-Pac-Islander", "Other"])[
            rng.integers(4, size=200_000)
        ],
        rng.integers(17, 90, size=200_000).astype(str),
        np.array(["<=50K", ">50K"])[rng.integers(2, size=200_000)],
    ]
    path = tmp_path / "census.csv"
    with path.open("w", encoding="utf-8") as handle:
        handle.write("sex,race,age,income\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*columns))
    plan = CsvPlan.from_csv(path, columns=["sex", "race", "income"])

    def timed(reference):
        started = time.perf_counter()
        blob = cache_bytes(
            path, plan, tmp_path / "guard.rccol", monkeypatch, reference=reference
        )
        return time.perf_counter() - started, blob

    row_seconds, expected = timed(True)
    token_seconds, built = min(timed(False), timed(False), key=lambda r: r[0])
    assert built == expected
    speedup = row_seconds / token_seconds
    assert speedup >= 2.0, (
        f"tokenizer cache build only {speedup:.2f}x the row path "
        f"({token_seconds:.3f}s vs {row_seconds:.3f}s)"
    )
