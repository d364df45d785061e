"""The correctness oracle, checked before any number is reported.

CSV: the expected count tensor is ``np.bincount`` over the generator's
own codes, laid out in the canonical (sorted) level order every
snapshot uses. Epsilon for every attribute subset is recomputed here
from those counts with the smoothed estimator (Eq. 7), independently of
the program's kernels; and every audit the job ran (cold, warm, serial
or pool) must report exactly what ``audit_contingency`` reports for the
expected counts, posterior summary included.

Fleet: each monitor's ``/report`` epsilon must equal ``dataset_edf``
over the last ``window`` acknowledged rows, and ``rows_seen`` the
number of acknowledged rows.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from workload import CSV_OUTCOME, CSV_PROTECTED

ALPHA = 1.0
REL_TOLERANCE = 1e-9


def expected_counts(csv_input) -> tuple[list[list[str]], list[str], np.ndarray]:
    """Levels (sorted) and the count tensor, from the generator's codes."""
    shape = [len(levels) for _, levels in CSV_PROTECTED] + [len(CSV_OUTCOME[1])]
    flat = np.ravel_multi_index((*csv_input.codes, csv_input.outcome), shape)
    counts = np.bincount(flat, minlength=int(np.prod(shape))).reshape(shape)
    all_levels = [levels for _, levels in CSV_PROTECTED] + [CSV_OUTCOME[1]]
    for axis, levels in enumerate(all_levels):
        order = sorted(range(len(levels)), key=lambda code: levels[code])
        counts = np.take(counts, order, axis=axis)
    sorted_levels = [sorted(levels) for levels in all_levels]
    return sorted_levels[:-1], sorted_levels[-1], counts


def smoothed_epsilon(counts: np.ndarray) -> float:
    """Eq. 7 epsilon of a ``(..., outcome)`` count tensor, from scratch.

    Groups with no rows are excluded (``P(s) = 0``).
    """
    matrix = counts.reshape(-1, counts.shape[-1]).astype(np.float64)
    sizes = matrix.sum(axis=1)
    populated = matrix[sizes > 0]
    probabilities = (populated + ALPHA) / (
        populated.sum(axis=1, keepdims=True) + ALPHA * matrix.shape[1]
    )
    logs = np.log(probabilities)
    if logs.shape[0] < 2:
        return 0.0
    return float(np.max(logs.max(axis=0) - logs.min(axis=0)))


def check_csv(csv_input, job: dict) -> list[str]:
    """Every mismatch between the CSV job's outputs and the oracle."""
    from repro.audit.auditor import FairnessAuditor
    from repro.tabular.crosstab import ContingencyTable

    from csv_job import POSTERIOR_SAMPLES, summarize

    problems = []
    factor_levels, outcome_levels, counts = expected_counts(csv_input)
    got = job["counts"]
    if got["factor_levels"] != factor_levels or got["outcome_levels"] != outcome_levels:
        problems.append("csv: snapshot levels differ from the generator's")
    elif not np.array_equal(np.asarray(got["counts"]), counts):
        problems.append("csv: count tensor differs from np.bincount of the codes")

    names = [name for name, _ in CSV_PROTECTED]
    expected = FairnessAuditor(
        names, CSV_OUTCOME[0], estimator=ALPHA,
        posterior_samples=POSTERIOR_SAMPLES,
    ).audit_contingency(
        ContingencyTable(
            counts, names, factor_levels, CSV_OUTCOME[0], outcome_levels
        )
    )
    if job["distinct_summaries"] != [summarize(expected)]:
        problems.append(
            f"csv: {len(job['distinct_summaries'])} distinct audit result(s); "
            "expected every audit to equal audit_contingency of the "
            "oracle counts"
        )
    for size in range(1, len(names) + 1):
        for axes in itertools.combinations(range(len(names)), size):
            dropped = tuple(a for a in range(len(names)) if a not in axes)
            want = smoothed_epsilon(counts.sum(axis=dropped) if dropped else counts)
            have = expected.sweep.epsilon([names[a] for a in axes])
            if not math.isclose(have, want, rel_tol=REL_TOLERANCE):
                problems.append(
                    f"csv: epsilon of {[names[a] for a in axes]} is {have}, "
                    f"the oracle says {want}"
                )
    return problems


def check_fleet(monitor: str, protected, outcome, window: int, acked_rows, report) -> list[str]:
    """The fleet oracle for one monitor (its rows in ack order)."""
    from repro.core.empirical import dataset_edf
    from repro.tabular.table import Table

    problems = []
    if report["rows_seen"] != len(acked_rows):
        problems.append(
            f"fleet: {monitor} rows_seen {report['rows_seen']} != "
            f"{len(acked_rows)} acked rows"
        )
    window_rows = acked_rows[-window:]
    want = dataset_edf(
        Table.from_rows([*protected, outcome], window_rows),
        protected=list(protected),
        outcome=outcome,
        estimator=ALPHA,
    ).epsilon
    if report["epsilon"] != want:
        problems.append(
            f"fleet: {monitor} epsilon {report['epsilon']!r} != dataset_edf "
            f"{want!r} over its last {len(window_rows)} acked rows"
        )
    return problems
