"""Seeded inputs for the benchmark: the audit CSV and the fleet batch streams.

Everything here is a pure function of the seed: the same seed gives a
byte-identical CSV and the same batch streams, in the same order. The
generator keeps its own integer codes next to the text it writes, so the
correctness oracle (:mod:`perfbench.oracle`) counts with ``np.bincount``
over those codes and never reads the program's output to build its
expectation.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

#: Zipf exponent of every level distribution. It leaves the rarest of the
#: 200 audited intersections with a handful of rows (two or three at the
#: benchmark's 400k rows, about six at 1M), the regime in which smoothing
#: and the posterior matter (PAPER.md).
ZIPF_EXPONENT = 2.0

# --- the audit CSV -----------------------------------------------------
CSV_PROTECTED = (
    ("sex", ("Female", "Male")),
    ("race", ("Amer-Indian", "Asian-Pac", "Black", "Other", "White")),
    ("native_region", ("Asia", "Europe", "LatAm", "NorthAm")),
    ("age_band", ("17-25", "26-35", "36-45", "46-60", "61-90")),
)
CSV_OUTCOME = ("income", ("<=50K", ">50K"))
OCCUPATIONS = (
    "Adm-clerical", "Armed-Forces", "Craft-repair", "Exec-managerial",
    "Farming-fishing", "Handlers-cleaners", "Machine-op-inspct",
    "Other-service", "Priv-house-serv", "Prof-specialty",
    "Protective-serv", "Sales", "Tech-support", "Transport-moving",
)
#: Header order: audited and non-audited columns interleave, so the
#: parser's projection has to skip cells on both sides.
CSV_HEADER = (
    "age", "sex", "race", "hours_per_week", "native_region",
    "occupation", "age_band", "income",
)

# --- the fleet streams ---------------------------------------------------
FLEET_PROTECTED = (
    ("s", ("s0", "s1")),
    ("r", ("r0", "r1", "r2", "r3", "r4")),
    ("a", ("a0", "a1", "a2", "a3", "a4")),
)
FLEET_OUTCOME = ("y", ("n", "p"))


def zipf_probabilities(n_levels: int, exponent: float = ZIPF_EXPONENT):
    weights = 1.0 / np.arange(1, n_levels + 1, dtype=np.float64) ** exponent
    return weights / weights.sum()


def _draw_codes(rng, n_rows: int, attributes) -> list[np.ndarray]:
    """One Zipf-skewed code column per attribute, with a seeded level
    permutation so the common level is not always the first name."""
    codes = []
    for _name, levels in attributes:
        rank_to_level = rng.permutation(len(levels))
        ranks = rng.choice(
            len(levels), size=n_rows, p=zipf_probabilities(len(levels))
        )
        codes.append(rank_to_level[ranks].astype(np.int64))
    return codes


def _draw_outcome(rng, codes: list[np.ndarray], n_rows: int) -> np.ndarray:
    """A group-dependent positive rate, so epsilon is finite and nonzero."""
    logit = -1.2 + sum(
        (column % 3 - 1) * (0.35 + 0.1 * axis)
        for axis, column in enumerate(codes)
    )
    rate = 1.0 / (1.0 + np.exp(-logit))
    return (rng.random(n_rows) < rate).astype(np.int64)


@dataclass(frozen=True)
class CsvInput:
    """The audit CSV plus the generator's own codes for the oracle."""

    path: str
    n_rows: int
    codes: tuple[np.ndarray, ...]  # one per protected attribute
    outcome: np.ndarray

    def properties(self) -> dict:
        shape = tuple(len(levels) for _, levels in CSV_PROTECTED)
        groups = np.ravel_multi_index(self.codes, shape)
        sizes = np.bincount(groups, minlength=int(np.prod(shape)))
        return {
            "rows": self.n_rows,
            "columns": len(CSV_HEADER),
            "levels": {name: len(levels) for name, levels in CSV_PROTECTED},
            "outcome_levels": len(CSV_OUTCOME[1]),
            "intersections": int(np.prod(shape)),
            "zipf_exponent": ZIPF_EXPONENT,
            "smallest_intersection_rows": int(sizes.min()),
            "quoted_field_share": 0.0,
        }


def write_csv(path: str, n_rows: int, seed: int) -> CsvInput:
    """Write the Adult-like CSV; no field is quoted.

    The file is fsynced before returning: the first cold audit fsyncs
    its column cache, and on a journalling file system that would
    otherwise also flush this file's dirty pages inside the timing.
    """
    rng = np.random.default_rng([seed, 1])
    codes = _draw_codes(rng, n_rows, CSV_PROTECTED)
    outcome = _draw_outcome(rng, codes, n_rows)
    age = rng.integers(17, 91, size=n_rows)
    hours = rng.integers(1, 100, size=n_rows)
    occupation = rng.integers(0, len(OCCUPATIONS), size=n_rows)

    def text(levels, column):
        return np.asarray(levels, dtype=object)[column].tolist()

    protected = {
        name: text(levels, column)
        for (name, levels), column in zip(CSV_PROTECTED, codes)
    }
    cells = {
        "age": age.astype(str).tolist(),
        "hours_per_week": hours.astype(str).tolist(),
        "occupation": text(OCCUPATIONS, occupation),
        CSV_OUTCOME[0]: text(CSV_OUTCOME[1], outcome),
        **protected,
    }
    lines = map(",".join, zip(*(cells[name] for name in CSV_HEADER)))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(CSV_HEADER) + "\n")
        handle.write("\n".join(lines))
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    return CsvInput(path, n_rows, tuple(codes), outcome)


@dataclass(frozen=True)
class FleetStream:
    """One monitor's batches, as the JSON-ready rows a client sends."""

    rows: list[list[str]]  # every row of every batch, in send order
    batch_rows: int

    def batch(self, index: int) -> list[list[str]]:
        start = (index % self.n_batches) * self.batch_rows
        return self.rows[start:start + self.batch_rows]

    @property
    def n_batches(self) -> int:
        return len(self.rows) // self.batch_rows


def fleet_streams(
    n_monitors: int, n_batches: int, batch_rows: int, seed: int
) -> list[FleetStream]:
    """Per-monitor batch streams (``n_batches`` distinct batches each).

    A client that sends more than ``n_batches`` batches cycles through
    them again; every batch still gets its own ``batch_id``, so each
    send is a fresh row set to the service.
    """
    streams = []
    for monitor in range(n_monitors):
        rng = np.random.default_rng([seed, 2, monitor])
        n_rows = n_batches * batch_rows
        codes = _draw_codes(rng, n_rows, FLEET_PROTECTED)
        outcome = _draw_outcome(rng, codes, n_rows)
        columns = [
            np.asarray(levels, dtype=object)[column].tolist()
            for (_, levels), column in zip(FLEET_PROTECTED, codes)
        ]
        columns.append(
            np.asarray(FLEET_OUTCOME[1], dtype=object)[outcome].tolist()
        )
        streams.append(
            FleetStream([list(row) for row in zip(*columns)], batch_rows)
        )
    return streams
