"""Tests for repro.tabular.csv_io."""

import pytest

from repro.exceptions import CsvParseError, SchemaError
from repro.tabular.csv_io import read_csv, read_csv_text, write_csv
from repro.tabular.schema import Field, Schema
from repro.tabular.table import Table


class TestReadCsvText:
    def test_header_and_inference(self):
        table = read_csv_text("a,b\n1,x\n2,y\n")
        assert table.column("a").kind == "numeric"
        assert table.column("b").to_list() == ["x", "y"]

    def test_whitespace_stripped(self):
        table = read_csv_text("a, b\n 1 , x \n")
        assert table.column_names == ["a", "b"]
        assert table.column("b").to_list() == ["x"]

    def test_no_header_with_names(self):
        table = read_csv_text("1,x\n", header=False, column_names=["n", "c"])
        assert table.column("n").values.tolist() == [1.0]

    def test_no_header_without_names_rejected(self):
        with pytest.raises(CsvParseError):
            read_csv_text("1,2\n", header=False)

    def test_schema_parsing(self):
        schema = Schema(
            [Field("n", "numeric"), Field("c", "categorical", levels=("x", "y"))]
        )
        table = read_csv_text("n,c\n3,y\n", schema=schema)
        assert table.column("c").levels == ("x", "y")

    def test_schema_violation(self):
        schema = Schema([Field("n", "numeric")])
        with pytest.raises(SchemaError):
            read_csv_text("n\nabc\n", schema=schema)

    def test_ragged_row_rejected(self):
        with pytest.raises(CsvParseError, match="cells"):
            read_csv_text("a,b\n1\n")

    def test_empty_rejected(self):
        with pytest.raises(CsvParseError):
            read_csv_text("\n\n")

    def test_header_only_rejected(self):
        with pytest.raises(CsvParseError, match="no data rows"):
            read_csv_text("a,b\n")

    def test_comment_lines_skipped(self):
        table = read_csv_text(
            "|comment\na\n1\n", skip_comment_prefix="|"
        )
        assert table.column("a").values.tolist() == [1.0]

    def test_missing_token_replacement(self):
        table = read_csv_text(
            "c\n?\nx\n", missing_token="?", missing_replacement="Unknown"
        )
        assert table.column("c").to_list() == ["Unknown", "x"]

    def test_missing_token_kept_by_default(self):
        table = read_csv_text("c\n?\nx\n")
        assert "?" in table.column("c").to_list()

    def test_blank_lines_ignored(self):
        table = read_csv_text("a\n\n1\n\n2\n")
        assert table.n_rows == 2


class TestRoundtrip:
    def test_write_then_read(self, tmp_path, numeric_table):
        path = tmp_path / "data.csv"
        write_csv(numeric_table, path)
        back = read_csv(path)
        assert back.to_dict() == numeric_table.to_dict()

    def test_integral_floats_written_as_ints(self, tmp_path):
        table = Table.from_dict({"x": [1.0, 2.5]})
        path = tmp_path / "data.csv"
        write_csv(table, path)
        content = path.read_text()
        assert "1\n" in content.replace("\r", "")
        assert "2.5" in content

    def test_adult_style_file(self, tmp_path):
        path = tmp_path / "adult.data"
        path.write_text(
            "39, State-gov, 77516, Bachelors, 13, <=50K\n"
            "50, ?, 83311, HS-grad, 9, >50K.\n"
        )
        table = read_csv(
            path,
            header=False,
            column_names=["age", "workclass", "fnlwgt", "edu", "edu_num", "income"],
        )
        assert table.n_rows == 2
        assert table.column("age").values.tolist() == [39.0, 50.0]
        assert "?" in table.column("workclass").to_list()


class TestIterCsvChunks:
    @pytest.fixture
    def csv_path(self, tmp_path):
        path = tmp_path / "stream.csv"
        lines = ["g,r,y"]
        for index in range(25):
            lines.append(f"g{index % 2},r{index % 3},y{index % 2}")
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_chunks_cover_all_rows_in_order(self, csv_path):
        from repro.tabular.csv_io import iter_csv_chunks

        chunks = list(iter_csv_chunks(csv_path, chunk_rows=10))
        assert [chunk.n_rows for chunk in chunks] == [10, 10, 5]
        streamed = [
            row
            for chunk in chunks
            for row in zip(*(chunk.column(n).to_list() for n in ["g", "r", "y"]))
        ]
        table = read_csv(csv_path)
        assert streamed == list(
            zip(*(table.column(n).to_list() for n in ["g", "r", "y"]))
        )

    def test_columns_projection(self, csv_path):
        from repro.tabular.csv_io import iter_csv_chunks

        chunk = next(iter(iter_csv_chunks(csv_path, chunk_rows=5, columns=["y", "g"])))
        assert chunk.column_names == ["y", "g"]

    def test_unknown_column_rejected(self, csv_path):
        from repro.tabular.csv_io import iter_csv_chunks

        with pytest.raises(CsvParseError):
            next(iter(iter_csv_chunks(csv_path, columns=["ghost"])))

    def test_all_columns_categorical_without_schema(self, tmp_path):
        from repro.tabular.csv_io import iter_csv_chunks

        path = tmp_path / "mixed.csv"
        path.write_text("age,label\n1,a\n2,b\n")
        chunk = next(iter(iter_csv_chunks(path)))
        assert chunk.column("age").kind == "categorical"

    def test_schema_controls_kinds(self, tmp_path):
        from repro.tabular.csv_io import iter_csv_chunks

        path = tmp_path / "mixed.csv"
        path.write_text("age,label\n1,a\n2,b\n")
        schema = Schema([Field("age", "numeric")])
        chunk = next(iter(iter_csv_chunks(path, schema=schema)))
        assert chunk.column("age").kind == "numeric"
        assert chunk.column("label").kind == "categorical"

    def test_empty_file_raises_after_exhaustion(self, tmp_path):
        from repro.tabular.csv_io import iter_csv_chunks

        path = tmp_path / "empty.csv"
        path.write_text("g,r,y\n")
        with pytest.raises(CsvParseError):
            list(iter_csv_chunks(path))

    def test_ragged_row_rejected(self, tmp_path):
        from repro.tabular.csv_io import iter_csv_chunks

        path = tmp_path / "ragged.csv"
        path.write_text("g,y\na,1\nb\n")
        with pytest.raises(CsvParseError):
            list(iter_csv_chunks(path))

    def test_bad_chunk_rows_rejected(self, csv_path):
        from repro.tabular.csv_io import iter_csv_chunks

        with pytest.raises(CsvParseError):
            list(iter_csv_chunks(csv_path, chunk_rows=0))


class TestByteOrderMark:
    """An Excel-style UTF-8 BOM is an encoding marker, not header text."""

    BOM = "\ufeff".encode("utf-8")

    @pytest.fixture
    def bom_path(self, tmp_path):
        path = tmp_path / "excel.csv"
        path.write_bytes(self.BOM + b"g,r,y\r\na,x,1\r\nb,z,0\r\na,z,1\r\n")
        return path

    def test_read_csv_text_strips_bom(self):
        table = read_csv_text("\ufeffg,y\na,1\n")
        assert table.column_names == ["g", "y"]

    def test_plan_names_and_byte_offset(self, bom_path):
        from repro.tabular.csv_io import CsvPlan

        plan = CsvPlan.from_csv(bom_path, columns=["g", "y"])
        assert plan.names == ("g", "r", "y")
        assert plan.data_offset == len(self.BOM) + len(b"g,r,y\r\n")

    def test_headerless_bom_is_not_data(self, tmp_path):
        from repro.tabular.csv_io import CsvPlan, iter_csv_chunks

        path = tmp_path / "bare.csv"
        path.write_bytes(self.BOM + b"a,1\nb,0\n")
        plan = CsvPlan.from_csv(path, header=False, column_names=["g", "y"])
        assert plan.data_offset == len(self.BOM)
        (chunk,) = list(iter_csv_chunks(path, plan=plan))
        assert chunk.column("g").levels == ("a", "b")

    def test_chunks_and_column_cache(self, bom_path, tmp_path):
        from repro.tabular.colcache import ColumnCache, build_column_cache
        from repro.tabular.csv_io import CsvPlan, iter_csv_chunks

        (chunk,) = list(iter_csv_chunks(bom_path, columns=["g", "y"]))
        assert chunk.column("g").to_list() == ["a", "b", "a"]
        plan = CsvPlan.from_csv(bom_path, columns=["g", "y"])
        cache_path = build_column_cache(bom_path, plan, tmp_path / "excel.rccol")
        with ColumnCache.open(cache_path, source_path=bom_path, plan=plan) as cache:
            assert cache.column_names == ("g", "y")
            assert cache.levels("g") == ("a", "b")
            assert cache.codes("g").tolist() == [0, 1, 0]
