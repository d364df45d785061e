"""Tests for the ``.rccol`` columnar binary cache.

Two properties carry the whole feature. **Round-trip bit-identity**:
codes and level tables read back from the mmap'd cache must equal what
parsing the CSV directly produces — per chunk, not just in aggregate —
for plain categorical columns, schema-typed columns, and chunks that
see only a subset of the file's levels. **Loud staleness**: a cache
that no longer describes its source (append, rewrite, header edit) or
that failed validation (truncation, bit rot, foreign bytes) raises
:class:`CacheError`; it is never silently read, and only *stale* (not
corrupt) caches are ever rebuilt.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.exceptions import CacheError, CsvParseError
from repro.tabular.colcache import (
    COLCACHE_MAGIC,
    COLCACHE_VERSION,
    ColumnCache,
    build_column_cache,
    ensure_column_cache,
)
from repro.tabular.csv_io import CsvPlan, iter_csv_chunks, read_csv
from repro.tabular.schema import Field, Schema

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


def write_csv(path, rows, header="gender,race,hired"):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(",".join(str(cell) for cell in row) + "\n")
    return path


def small_rows(n=257, seed=9):
    rng = np.random.default_rng(seed)
    return [
        (f"g{rng.integers(3)}", f"r{rng.integers(4)}", f"y{rng.integers(2)}")
        for _ in range(n)
    ]


@pytest.fixture
def cached(tmp_path):
    """A written CSV, its plan, and a freshly built cache path."""
    csv_path = write_csv(tmp_path / "data.csv", small_rows())
    plan = CsvPlan.from_csv(csv_path)
    cache_path = tmp_path / "data.rccol"
    build_column_cache(csv_path, plan, cache_path)
    return csv_path, plan, cache_path


class TestRoundTrip:
    def test_codes_and_levels_match_direct_parse(self, cached):
        csv_path, plan, cache_path = cached
        table = read_csv(csv_path)
        with ColumnCache.open(
            cache_path, source_path=csv_path, plan=plan
        ) as cache:
            assert cache.n_rows == table.n_rows
            assert cache.column_names == plan.selected_names
            for name in cache.column_names:
                parsed = table.column(name)
                assert cache.levels(name) == parsed.levels
                assert np.array_equal(cache.codes(name), parsed.codes)

    def test_chunk_tables_are_bitwise_equal_to_parsed_chunks(self, cached):
        csv_path, plan, cache_path = cached
        parsed = list(iter_csv_chunks(csv_path, 64, plan=plan))
        with ColumnCache.open(cache_path) as cache:
            rebuilt = list(cache.chunk_tables(64))
        assert len(rebuilt) == len(parsed)
        for left, right in zip(parsed, rebuilt):
            assert left.to_dict() == right.to_dict()
            for name in left.column_names:
                # Same level tables AND the same integer codes, not
                # merely the same decoded values: the streaming layer
                # grows axes in level order, so order must match too.
                assert left.column(name).levels == right.column(name).levels
                assert np.array_equal(
                    left.column(name).codes, right.column(name).codes
                )

    def test_unseen_levels_are_narrowed_per_chunk(self, tmp_path):
        # 'g2' appears only in the last chunk; earlier chunk tables must
        # not mention it, exactly like the parse path.
        rows = [("g0", "r0", "y0")] * 100 + [("g2", "r1", "y1")] * 4
        csv_path = write_csv(tmp_path / "tail.csv", rows)
        plan = CsvPlan.from_csv(csv_path)
        cache_path = tmp_path / "tail.rccol"
        build_column_cache(csv_path, plan, cache_path)
        with ColumnCache.open(cache_path) as cache:
            chunks = list(cache.chunk_tables(100))
        assert chunks[0].column("gender").levels == ("g0",)
        assert chunks[1].column("gender").levels == ("g2",)
        parsed = list(iter_csv_chunks(csv_path, 100, plan=plan))
        for left, right in zip(parsed, chunks):
            assert left.to_dict() == right.to_dict()

    def test_schema_typed_columns_round_trip(self, tmp_path):
        rows = [
            ("a", "1.5", "true"),
            ("b", "2.0", "false"),
            ("a", "1.5", "true"),
            ("c", "-3.25", "false"),
        ]
        csv_path = write_csv(tmp_path / "typed.csv", rows, header="k,x,flag")
        schema = Schema([Field("x", "numeric"), Field("flag", "boolean")])
        plan = CsvPlan.from_csv(csv_path, schema=schema)
        cache_path = tmp_path / "typed.rccol"
        build_column_cache(csv_path, plan, cache_path)
        parsed = list(iter_csv_chunks(csv_path, 3, plan=plan))
        with ColumnCache.open(cache_path, plan=plan) as cache:
            rebuilt = list(cache.chunk_tables(3, schema=schema))
        for left, right in zip(parsed, rebuilt):
            assert left.to_dict() == right.to_dict()
            assert [c.kind for c in left.columns] == [
                c.kind for c in right.columns
            ]

    def test_projection_is_respected(self, tmp_path):
        csv_path = write_csv(tmp_path / "proj.csv", small_rows(50))
        plan = CsvPlan.from_csv(csv_path, columns=["race", "hired"])
        cache_path = tmp_path / "proj.rccol"
        build_column_cache(csv_path, plan, cache_path)
        with ColumnCache.open(cache_path, plan=plan) as cache:
            assert cache.column_names == ("race", "hired")

    def test_full_table_matches_whole_file(self, cached):
        csv_path, plan, cache_path = cached
        table = read_csv(csv_path)
        with ColumnCache.open(cache_path) as cache:
            full = cache.full_table()
        assert full.to_dict() == table.to_dict()


if HAVE_HYPOTHESIS:

    @st.composite
    def csv_matrix(draw):
        """Rows over small alphabets, plus an optional numeric column."""
        n_rows = draw(st.integers(min_value=1, max_value=120))
        alphabet_a = draw(
            st.lists(
                st.text(
                    alphabet="abcXYZ 0189_.;|", min_size=0, max_size=6
                ).map(str.strip),
                min_size=1,
                max_size=8,
                unique=True,
            )
        )
        numbers = ["0", "1.5", "-2.25", "1e3", "7", "-0.5"]
        rows = [
            (
                draw(st.sampled_from(alphabet_a)),
                draw(st.sampled_from(numbers)),
                draw(st.sampled_from(["y", "n"])),
            )
            for _ in range(n_rows)
        ]
        chunk_rows = draw(st.integers(min_value=1, max_value=n_rows + 3))
        use_schema = draw(st.booleans())
        return rows, chunk_rows, use_schema

    class TestRoundTripProperty:
        @settings(max_examples=40, deadline=None)
        @given(data=csv_matrix())
        def test_cache_chunks_equal_parsed_chunks(self, data, tmp_path_factory):
            rows, chunk_rows, use_schema = data
            tmp_path = tmp_path_factory.mktemp("colcache")
            csv_path = write_csv(tmp_path / "prop.csv", rows, header="k,x,y")
            schema = (
                Schema([Field("x", "numeric")]) if use_schema else None
            )
            plan = CsvPlan.from_csv(csv_path, schema=schema)
            cache_path = tmp_path / "prop.rccol"
            build_column_cache(csv_path, plan, cache_path)
            parsed = list(iter_csv_chunks(csv_path, chunk_rows, plan=plan))
            with ColumnCache.open(
                cache_path, source_path=csv_path, plan=plan
            ) as cache:
                rebuilt = list(
                    cache.chunk_tables(chunk_rows, schema=schema)
                )
            assert len(rebuilt) == len(parsed)
            for left, right in zip(parsed, rebuilt):
                assert left.to_dict() == right.to_dict()
                for name in left.column_names:
                    assert (
                        left.column(name).kind == right.column(name).kind
                    )
                    if left.column(name).kind != "categorical":
                        continue
                    assert (
                        left.column(name).levels == right.column(name).levels
                    )
                    assert np.array_equal(
                        left.column(name).codes, right.column(name).codes
                    )


class TestCorruptionMatrix:
    def test_missing_cache(self, tmp_path):
        with pytest.raises(CacheError, match="does not exist") as excinfo:
            ColumnCache.open(tmp_path / "ghost.rccol")
        assert excinfo.value.reason == "missing"

    def test_truncated_preamble(self, tmp_path):
        path = tmp_path / "tiny.rccol"
        path.write_bytes(b"RC")
        with pytest.raises(CacheError, match="truncated") as excinfo:
            ColumnCache.open(path)
        assert excinfo.value.reason == "truncated"

    def test_truncated_payload(self, cached):
        _, _, cache_path = cached
        blob = cache_path.read_bytes()
        cache_path.write_bytes(blob[:-10])
        with pytest.raises(CacheError, match="truncated") as excinfo:
            ColumnCache.open(cache_path)
        assert excinfo.value.reason == "truncated"

    def test_bad_magic(self, cached):
        _, _, cache_path = cached
        blob = bytearray(cache_path.read_bytes())
        blob[:4] = b"ZZZZ"
        cache_path.write_bytes(bytes(blob))
        with pytest.raises(CacheError, match="not a column cache") as excinfo:
            ColumnCache.open(cache_path)
        assert excinfo.value.reason == "magic"

    def test_future_version(self, cached):
        _, _, cache_path = cached
        blob = bytearray(cache_path.read_bytes())
        blob[4] = COLCACHE_VERSION + 1
        cache_path.write_bytes(bytes(blob))
        with pytest.raises(CacheError, match="format version") as excinfo:
            ColumnCache.open(cache_path)
        assert excinfo.value.reason == "version"

    def test_header_bit_flip(self, cached):
        _, _, cache_path = cached
        blob = bytearray(cache_path.read_bytes())
        blob[30] ^= 0x40
        cache_path.write_bytes(bytes(blob))
        with pytest.raises(CacheError, match="CRC") as excinfo:
            ColumnCache.open(cache_path)
        assert excinfo.value.reason == "crc"

    def test_payload_bit_flip(self, cached):
        _, _, cache_path = cached
        blob = bytearray(cache_path.read_bytes())
        blob[-3] ^= 0x01
        cache_path.write_bytes(bytes(blob))
        with pytest.raises(CacheError, match="CRC") as excinfo:
            ColumnCache.open(cache_path)
        assert excinfo.value.reason == "crc"

    def test_stale_after_source_append(self, cached):
        csv_path, plan, cache_path = cached
        with open(csv_path, "a", encoding="utf-8") as handle:
            handle.write("g9,r9,y1\n")
        with pytest.raises(CacheError, match="stale") as excinfo:
            ColumnCache.open(cache_path, source_path=csv_path)
        assert excinfo.value.reason == "stale"
        # Without the source path the file itself still validates: the
        # staleness check is against the live source, not the bytes.
        ColumnCache.open(cache_path).close()

    def test_stale_after_header_edit_same_size(self, cached):
        csv_path, plan, cache_path = cached
        import os

        blob = csv_path.read_bytes()
        stat = csv_path.stat()
        csv_path.write_bytes(b"GENDER" + blob[6:])
        # Restore size+mtime so only the prologue CRC can catch it.
        os.utime(csv_path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        with pytest.raises(CacheError, match="stale"):
            ColumnCache.open(cache_path, source_path=csv_path)

    def test_plan_mismatch(self, cached):
        csv_path, _, cache_path = cached
        other = CsvPlan.from_csv(csv_path, columns=["hired"])
        with pytest.raises(CacheError, match="parse options") as excinfo:
            ColumnCache.open(cache_path, plan=other)
        assert excinfo.value.reason == "plan"

    def test_source_deleted(self, cached):
        csv_path, _, cache_path = cached
        csv_path.unlink()
        with pytest.raises(CacheError, match="no longer exists") as excinfo:
            ColumnCache.open(cache_path, source_path=csv_path)
        assert excinfo.value.reason == "stale"


class TestEnsure:
    def test_builds_when_missing(self, tmp_path):
        csv_path = write_csv(tmp_path / "fresh.csv", small_rows(40))
        plan = CsvPlan.from_csv(csv_path)
        cache_path = tmp_path / "fresh.rccol"
        with ensure_column_cache(csv_path, plan, cache_path) as cache:
            assert cache.n_rows == 40
        assert cache_path.exists()

    def test_rebuilds_when_stale_and_audits_fresh_rows(self, cached):
        csv_path, plan, cache_path = cached
        with open(csv_path, "a", encoding="utf-8") as handle:
            handle.write("gNEW,rNEW,y1\n")
        with ensure_column_cache(csv_path, plan, cache_path) as cache:
            assert cache.n_rows == 258
            assert "gNEW" in cache.levels("gender")

    def test_refuses_to_rebuild_over_corruption(self, cached):
        csv_path, plan, cache_path = cached
        blob = bytearray(cache_path.read_bytes())
        blob[-3] ^= 0x01
        cache_path.write_bytes(bytes(blob))
        with pytest.raises(CacheError) as excinfo:
            ensure_column_cache(csv_path, plan, cache_path)
        assert excinfo.value.reason == "crc"

    def test_reuses_valid_cache_without_rewriting(self, cached):
        csv_path, plan, cache_path = cached
        before = cache_path.stat().st_mtime_ns
        with ensure_column_cache(csv_path, plan, cache_path) as cache:
            assert cache.n_rows == 257
        assert cache_path.stat().st_mtime_ns == before


    def test_failed_write_leaves_no_temporary_file(
        self, tmp_path, monkeypatch
    ):
        csv_path = write_csv(tmp_path / "data.csv", small_rows(40))
        plan = CsvPlan.from_csv(csv_path)
        cache_path = tmp_path / "data.rccol"

        def refuse(*_args):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            build_column_cache(csv_path, plan, cache_path)
        assert not cache_path.exists()
        assert list(tmp_path.glob("*.tmp*")) == []


class TestPlanHelpers:
    def test_plan_to_and_from_column_cache(self, tmp_path):
        csv_path = write_csv(tmp_path / "via.csv", small_rows(30))
        plan = CsvPlan.from_csv(csv_path, columns=["gender", "hired"])
        cache_path = plan.to_column_cache(csv_path, tmp_path / "via.rccol")
        with plan.from_column_cache(cache_path, source_path=csv_path) as cache:
            assert cache.column_names == ("gender", "hired")
            assert cache.n_rows == 30

    def test_empty_cache_chunk_tables_raise_like_csv(self, tmp_path):
        csv_path = write_csv(tmp_path / "short.csv", small_rows(5))
        plan = CsvPlan.from_csv(csv_path)
        cache_path = tmp_path / "short.rccol"
        build_column_cache(csv_path, plan, cache_path)
        with ColumnCache.open(cache_path) as cache:
            with pytest.raises(CsvParseError, match="chunk_rows"):
                list(cache.chunk_tables(0))
            # skip past the end is not an error, matching iter_csv_chunks
            assert list(cache.chunk_tables(4, skip_rows=100)) == []
