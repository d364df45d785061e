"""Tests for the CLI and the markdown report renderer."""

import io

import pytest

from repro.audit.auditor import FairnessAuditor
from repro.audit.report import (
    markdown_report,
    render_classifier_report,
    render_dataset_report,
)
from repro.cli import main
from repro.tabular.csv_io import write_csv
from repro.tabular.table import Table


@pytest.fixture
def csv_file(tmp_path, hiring_table):
    path = tmp_path / "hiring.csv"
    write_csv(hiring_table, path)
    return str(path)


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestCliAudit:
    def test_plain_audit(self, csv_file):
        code, output = run_cli(
            ["audit", csv_file, "--protected", "gender,race", "--outcome", "hired"]
        )
        assert code == 0
        assert "epsilon" in output.lower()
        assert "gender, race" in output

    def test_smoothed_audit(self, csv_file):
        code, output = run_cli(
            [
                "audit", csv_file,
                "--protected", "gender,race",
                "--outcome", "hired",
                "--alpha", "1.0",
            ]
        )
        assert code == 0
        assert "Dirichlet" in output

    def test_markdown_audit(self, csv_file):
        code, output = run_cli(
            [
                "audit", csv_file,
                "--protected", "gender,race",
                "--outcome", "hired",
                "--markdown",
            ]
        )
        assert code == 0
        assert output.startswith("# Differential fairness report")
        assert "| protected attributes |" in output
        assert "Related-work baselines" in output

    def test_posterior_samples(self, csv_file):
        code, output = run_cli(
            [
                "audit", csv_file,
                "--protected", "gender",
                "--outcome", "hired",
                "--posterior-samples", "25",
            ]
        )
        assert code == 0
        assert "posterior epsilon" in output

    def test_missing_file(self):
        code, _ = run_cli(
            ["audit", "/nonexistent.csv", "--protected", "a", "--outcome", "b"]
        )
        assert code == 1

    def test_unknown_column(self, csv_file):
        code, _ = run_cli(
            ["audit", csv_file, "--protected", "ghost", "--outcome", "hired"]
        )
        assert code == 1

    def test_empty_protected(self, csv_file):
        code, _ = run_cli(
            ["audit", csv_file, "--protected", " , ", "--outcome", "hired"]
        )
        assert code == 2


class TestCliAuditStream:
    def test_stream_matches_one_shot_final_report(self, csv_file):
        """Cumulative audit-stream ends on the same report as plain audit."""
        _, one_shot = run_cli(
            ["audit", csv_file, "--protected", "gender,race", "--outcome", "hired"]
        )
        code, streamed = run_cli(
            [
                "audit-stream", csv_file,
                "--protected", "gender,race",
                "--outcome", "hired",
                "--chunk-rows", "5",
            ]
        )
        assert code == 0
        assert streamed.endswith(one_shot)
        assert streamed.startswith("chunk 1:")

    def test_windowed_trace(self, csv_file):
        code, output = run_cli(
            [
                "audit-stream", csv_file,
                "--protected", "gender",
                "--outcome", "hired",
                "--chunk-rows", "4",
                "--window", "8",
            ]
        )
        assert code == 0
        assert "(window 8/8)" in output

    def test_cumulative_trace_labels_total(self, csv_file):
        code, output = run_cli(
            [
                "audit-stream", csv_file,
                "--protected", "gender",
                "--outcome", "hired",
                "--chunk-rows", "7",
            ]
        )
        assert code == 0
        assert "(total 7)" in output
        assert "(total 14)" in output

    def test_markdown_report(self, csv_file):
        code, output = run_cli(
            [
                "audit-stream", csv_file,
                "--protected", "gender,race",
                "--outcome", "hired",
                "--window", "10",
                "--markdown",
            ]
        )
        assert code == 0
        assert "# Differential fairness report (last 10 rows)" in output

    def test_missing_file(self):
        code, _ = run_cli(
            ["audit-stream", "/nonexistent.csv", "--protected", "a", "--outcome", "b"]
        )
        assert code == 1

    def test_unknown_column(self, csv_file):
        code, _ = run_cli(
            ["audit-stream", csv_file, "--protected", "ghost", "--outcome", "hired"]
        )
        assert code == 1

    def test_empty_protected(self, csv_file):
        code, _ = run_cli(
            ["audit-stream", csv_file, "--protected", " , ", "--outcome", "hired"]
        )
        assert code == 2

    def test_lone_carriage_return_header_is_a_typed_error(self, tmp_path, capsys):
        path = tmp_path / "cr.csv"
        path.write_bytes(b"g,r,y\ra,x,1\r")
        code, _ = run_cli(
            ["audit-stream", str(path), "--protected", "g", "--outcome", "y"]
        )
        assert code == 1
        error = capsys.readouterr().err
        assert error.startswith("error: malformed CSV")
        assert "Traceback" not in error

    def test_lone_carriage_return_in_data_on_the_pool(self, tmp_path, capsys):
        # Serial ingestion reads "\r" as a row break, as csv.reader does;
        # the pool's line-aligned span workers cannot, and say so.
        path = tmp_path / "cr.csv"
        path.write_bytes(b"g,r,y\na,x,1\rb,z,0\n")
        base = ["audit-stream", str(path), "--protected", "g", "--outcome", "y"]
        code, output = run_cli(base)
        assert code == 0
        assert "(total 2)" in output
        code, _ = run_cli([*base, "--workers", "2"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: malformed CSV")

    def test_negative_window(self, csv_file):
        code, _ = run_cli(
            [
                "audit-stream", csv_file,
                "--protected", "gender",
                "--outcome", "hired",
                "--window", "-1",
            ]
        )
        assert code == 2


class TestStreamFlagValidation:
    """--workers/--window (and checkpoint flag) combinations are rejected
    up front with a message naming the flags, not by a deep engine error."""

    BASE = ["--protected", "gender", "--outcome", "hired"]

    @pytest.mark.parametrize(
        "ordering",
        [
            ["--workers", "2", "--window", "8"],
            ["--window", "8", "--workers", "2"],
        ],
        ids=["workers-first", "window-first"],
    )
    def test_workers_with_window_rejected_in_both_orders(
        self, csv_file, ordering, capsys
    ):
        code, output = run_cli(["audit-stream", csv_file, *self.BASE, *ordering])
        assert code == 2  # usage error, not the engine's exit code 1
        assert output == ""  # nothing ran: rejected before ingestion
        error = capsys.readouterr().err
        assert "--workers" in error and "--window" in error
        assert "row order" in error

    def test_workers_alone_and_window_alone_still_work(self, csv_file):
        for flags in (["--workers", "1", "--window", "8"], ["--workers", "1"]):
            code, _ = run_cli(["audit-stream", csv_file, *self.BASE, *flags])
            assert code == 0

    def test_checkpoint_keep_requires_checkpoint(self, csv_file, capsys):
        code, _ = run_cli(
            ["audit-stream", csv_file, *self.BASE, "--checkpoint-keep", "2"]
        )
        assert code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_negative_checkpoint_keep_rejected(self, csv_file, tmp_path, capsys):
        code, _ = run_cli(
            [
                "audit-stream", csv_file, *self.BASE,
                "--checkpoint", str(tmp_path / "a.rcpk"),
                "--checkpoint-keep", "-1",
            ]
        )
        assert code == 2
        assert "--checkpoint-keep" in capsys.readouterr().err

    def test_checkpoint_keep_writes_generations(self, csv_file, tmp_path):
        path = tmp_path / "a.rcpk"
        code, _ = run_cli(
            [
                "audit-stream", csv_file, *self.BASE,
                "--chunk-rows", "4",
                "--checkpoint", str(path),
                "--checkpoint-keep", "2",
            ]
        )
        assert code == 0
        assert path.exists()
        assert path.with_name("a.rcpk.1").exists()
        assert path.with_name("a.rcpk.2").exists()


class TestCliExamples:
    def test_worked_example(self):
        code, output = run_cli(["worked-example"])
        assert code == 0
        assert "2.337" in output

    def test_simpsons(self):
        code, output = run_cli(["simpsons"])
        assert code == 0
        assert "3.0220" in output

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestReports:
    def test_dataset_report_structure(self, hiring_table):
        auditor = FairnessAuditor(["gender", "race"], "hired")
        audit = auditor.audit_dataset(hiring_table)
        report = render_dataset_report(
            audit, dataset_name="hiring", n_rows=hiring_table.n_rows
        )
        assert "# Differential fairness report" in report
        assert "hiring" in report
        assert "Theorem 3.2" in report
        assert "Equation 4" in report
        assert "binding comparison" in report

    def test_dataset_report_with_posterior(self, hiring_table):
        auditor = FairnessAuditor(
            ["gender", "race"], "hired", posterior_samples=20, seed=0
        )
        report = render_dataset_report(auditor.audit_dataset(hiring_table))
        assert "posterior epsilon" in report

    def test_classifier_report(self, hiring_table):
        import numpy as np

        from repro.learn.logistic_regression import LogisticRegression
        from repro.learn.preprocessing import TableVectorizer

        vectorizer = TableVectorizer(
            categorical=["gender", "race"], numeric=[]
        ).fit(hiring_table)
        model = LogisticRegression().fit(
            vectorizer.transform(hiring_table),
            hiring_table.column("hired").to_list(),
        )
        auditor = FairnessAuditor(["gender", "race"], "hired", estimator=1.0)
        audit = auditor.audit_classifier(
            model, hiring_table, vectorizer=vectorizer
        )
        report = render_classifier_report(audit)
        assert "bias amplification" in report
        assert "error rate" in report

    def test_markdown_report_one_call(self, hiring_table):
        report = markdown_report(
            hiring_table,
            protected=["gender", "race"],
            outcome="hired",
            dataset_name="hiring",
        )
        assert "demographic parity" in report
        assert "80% rule" in report
