"""Streaming contingency accumulation: the paper's counts, incrementally.

Every differential fairness measurement in this library is a function of
the per-group outcome counts ``N_{y, s}`` (Equations 6 and 7), which makes
the whole framework naturally *incremental*: rows can be counted in as
they arrive, counted out as they leave a sliding window, and partial
counts from independent shards can be added together. This module provides
the accumulator that makes those deployments first-class:

:class:`StreamingContingency`
    A mutable count tensor over the full intersection of the protected
    attributes with four core operations:

    * ``update(rows)`` — count rows in (O(k) for k rows);
    * ``retract(rows)`` — count rows out, for sliding windows (an exact
      inverse: integer counts make retraction lossless);
    * ``merge(other)`` — combine two accumulators; associative and
      commutative, so any shard/reduce tree over a partitioned stream
      produces the same counts as one sequential pass;
    * ``snapshot()`` — freeze the current counts into a
      :class:`repro.tabular.crosstab.ContingencyTable` in *canonical*
      (declaration or sorted) level order, so every existing kernel —
      :func:`repro.core.empirical.edf_from_contingency`,
      :func:`repro.core.sweep.sweep_results`,
      :func:`repro.core.sweep.posterior_subset_sweep` — applies unchanged,
      bit-identically to the one-shot
      :meth:`ContingencyTable.from_table` path on the same rows.

    Checkpointing is ``state_dict()`` / :meth:`from_state` — one array
    copy, cheap enough to take per ingestion batch.

Level handling
--------------
Axes may be *pinned* (levels declared up front; unseen values raise, as
:meth:`Column.categorical` does with explicit levels) or *dynamic*
(levels discovered from the data; the tensor grows as new levels appear).
Dynamic axes store levels in first-seen order internally but
:meth:`snapshot` reorders them with the same canonical sort
:class:`repro.tabular.column.Column` uses for inferred categoricals, so
two accumulators that saw the same multiset of rows in different orders —
or through different merge trees — produce bitwise-equal snapshots.

Dirty-cell tracking
-------------------
The accumulator records which intersectional group cells changed since
the last :meth:`drain_dirty` call, and bumps :attr:`schema_version`
whenever an axis grows. :class:`repro.audit.stream.StreamingAuditor`
uses this to keep a probability matrix current at O(touched cells) per
update instead of re-estimating every group.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from typing import Any

import numpy as np

from repro.exceptions import SchemaError, ValidationError
from repro.tabular.column import CATEGORICAL
from repro.tabular.crosstab import ContingencyTable
from repro.tabular.table import Table

__all__ = ["StreamingContingency", "canonical_level_order"]


def canonical_level_order(levels: Sequence[Any]) -> list[Any]:
    """Sort levels exactly as :meth:`Column.categorical` infers them.

    Dynamic accumulators store levels in first-seen order (which depends
    on arrival order); snapshots canonicalise with this ordering so the
    count tensor matches :meth:`ContingencyTable.from_table` on a table
    whose categorical levels were inferred from the same values.
    """
    return sorted(levels, key=lambda item: (str(type(item)), str(item)))


class _Axis:
    """One categorical axis: levels, code lookup, pinned flag."""

    __slots__ = ("name", "levels", "codes", "pinned")

    def __init__(self, name: str, levels: Sequence[Any] | None):
        self.name = name
        self.pinned = levels is not None
        self.levels: list[Any] = list(levels) if levels is not None else []
        self.codes: dict[Any, int] = {
            level: code for code, level in enumerate(self.levels)
        }
        if len(self.codes) != len(self.levels):
            raise ValidationError(
                f"axis {name!r}: duplicate levels in {self.levels}"
            )

    def __len__(self) -> int:
        return len(self.levels)

    def add_level(self, value: Any) -> int:
        if self.pinned:
            raise ValidationError(
                f"{value!r} is not a level of pinned axis {self.name!r}; "
                f"levels are {self.levels}"
            )
        code = len(self.levels)
        self.levels.append(value)
        self.codes[value] = code
        return code

    def snapshot_order(self) -> list[int]:
        """Positions of the canonical level order in the current layout."""
        if self.pinned:
            return list(range(len(self.levels)))
        return [self.codes[level] for level in canonical_level_order(self.levels)]


class StreamingContingency:
    """Mergeable, retractable counts over factors x outcome.

    Parameters
    ----------
    factor_names:
        The protected attribute axes, in declaration order.
    outcome_name:
        The outcome axis name.
    factor_levels / outcome_levels:
        Optional pinned level lists. A pinned axis keeps its declared
        order in snapshots and rejects unseen values; an omitted (dynamic)
        axis discovers levels from the data and snapshots them in
        canonical sorted order.
    """

    def __init__(
        self,
        factor_names: Sequence[str],
        outcome_name: str,
        factor_levels: Sequence[Sequence[Any]] | None = None,
        outcome_levels: Sequence[Any] | None = None,
    ):
        factor_names = list(factor_names)
        if not factor_names:
            raise ValidationError("at least one factor axis is required")
        if len(set(factor_names)) != len(factor_names):
            raise ValidationError(f"duplicate factor names: {factor_names}")
        if outcome_name in factor_names:
            raise ValidationError(
                f"outcome {outcome_name!r} cannot also be a factor"
            )
        if factor_levels is not None and len(factor_levels) != len(factor_names):
            raise ValidationError(
                "factor_levels must list one level sequence per factor"
            )
        self._factors = [
            _Axis(name, None if factor_levels is None else factor_levels[axis])
            for axis, name in enumerate(factor_names)
        ]
        self._outcome = _Axis(outcome_name, outcome_levels)
        self._counts = np.zeros(self._shape(), dtype=np.int64)
        self._n_rows = 0
        self._dirty: set[tuple[int, ...]] = set()
        self._schema_version = 0

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def factor_names(self) -> list[str]:
        return [axis.name for axis in self._factors]

    @property
    def outcome_name(self) -> str:
        return self._outcome.name

    @property
    def factor_levels(self) -> list[tuple[Any, ...]]:
        """Current levels per factor, in internal (first-seen) order."""
        return [tuple(axis.levels) for axis in self._factors]

    @property
    def outcome_levels(self) -> tuple[Any, ...]:
        return tuple(self._outcome.levels)

    @property
    def n_rows(self) -> int:
        """Rows currently counted in (updates minus retractions)."""
        return self._n_rows

    @property
    def counts(self) -> np.ndarray:
        """Read-only view of the count tensor in internal level order."""
        view = self._counts.view()
        view.setflags(write=False)
        return view

    @property
    def group_shape(self) -> tuple[int, ...]:
        return tuple(len(axis) for axis in self._factors)

    @property
    def schema_version(self) -> int:
        """Bumped whenever an axis grows (caches keyed on layout must drop)."""
        return self._schema_version

    def total(self) -> int:
        return int(self._counts.sum())

    def __repr__(self) -> str:
        factors = " x ".join(self.factor_names)
        return (
            f"StreamingContingency({factors} x {self.outcome_name}, "
            f"shape={self._counts.shape}, rows={self._n_rows})"
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _shape(self) -> tuple[int, ...]:
        return tuple(len(axis) for axis in self._factors) + (len(self._outcome),)

    def _axes(self) -> list[_Axis]:
        return [*self._factors, self._outcome]

    def _grow_axis(self, position: int, new_levels: int) -> None:
        pad = [(0, 0)] * self._counts.ndim
        pad[position] = (0, new_levels)
        self._counts = np.pad(self._counts, pad)
        self._schema_version += 1

    def _transpose_rows(
        self, rows: list[tuple[Any, ...]]
    ) -> list[tuple[Any, ...]]:
        """Rows as per-axis value columns, validating a uniform width."""
        width = len(self._factors) + 1
        try:
            columns = list(zip(*rows, strict=True))
        except ValueError:
            raise ValidationError(
                "all rows must have the same number of cells"
            ) from None
        if len(columns) != width:
            raise ValidationError(
                f"rows must have {width} cells each "
                f"({self.factor_names} + {self.outcome_name!r}), got "
                f"{len(columns)}"
            )
        return columns

    def _flat_indices(
        self, rows: list[tuple[Any, ...]], grow: bool
    ) -> np.ndarray:
        """Flat tensor index per row, growing dynamic axes when allowed.

        Works column-at-a-time (one transpose, then per-axis dictionary
        lookups in a fused comprehension) so a batch of k rows costs O(k)
        with small constants, not k slow per-row inner loops.
        """
        columns = self._transpose_rows(rows)
        if grow:
            for position, axis in enumerate(self._axes()):
                before = len(axis)
                # dict.fromkeys dedups in C while preserving first-seen
                # order, keeping dynamic level discovery deterministic.
                for value in dict.fromkeys(columns[position]):
                    if value not in axis.codes:
                        axis.add_level(value)
                if len(axis) > before:
                    self._grow_axis(position, len(axis) - before)
        shape = self._counts.shape
        flat = np.zeros(len(rows), dtype=np.int64)
        for position, axis in enumerate(self._axes()):
            codes = axis.codes
            try:
                axis_codes = np.fromiter(
                    (codes[value] for value in columns[position]),
                    dtype=np.int64,
                    count=len(rows),
                )
            except KeyError as error:
                raise ValidationError(
                    f"{error.args[0]!r} is not a level of axis {axis.name!r}"
                ) from None
            flat *= shape[position]
            flat += axis_codes
        return flat

    def _mark_dirty(self, flat: np.ndarray) -> None:
        self._mark_groups_dirty(np.unique(flat // len(self._outcome)))

    def _mark_groups_dirty(self, group_flat: np.ndarray) -> None:
        cells = np.unravel_index(group_flat, self.group_shape)
        self._dirty.update(zip(*(axis.tolist() for axis in cells)))

    def update(self, rows: Iterable[Sequence[Any]]) -> "StreamingContingency":
        """Count rows in. Each row is ``(*factor values, outcome value)``.

        Cost is O(k) dictionary lookups plus a scatter-add touching only
        the k cells involved; dynamic axes grow (once per batch) when new
        levels appear.
        """
        rows = [tuple(row) for row in rows]
        if not rows:
            return self
        flat = self._flat_indices(rows, grow=True)
        np.add.at(self._counts.reshape(-1), flat, 1)
        self._n_rows += len(rows)
        self._mark_dirty(flat)
        return self

    def retract(self, rows: Iterable[Sequence[Any]]) -> "StreamingContingency":
        """Count rows out (sliding-window eviction); inverse of :meth:`update`.

        Raises :class:`ValidationError` if any row was never counted in
        (a cell would go negative) or names an unseen level.
        """
        rows = [tuple(row) for row in rows]
        if not rows:
            return self
        flat = self._flat_indices(rows, grow=False)
        cells, removals = np.unique(flat, return_counts=True)
        counts = self._counts.reshape(-1)
        if np.any(counts[cells] < removals):
            raise ValidationError(
                "retract would make a count negative: some rows were never "
                "counted in"
            )
        np.subtract.at(counts, cells, removals)
        self._n_rows -= len(rows)
        self._mark_dirty(flat)
        return self

    # ------------------------------------------------------------------
    # Table fast paths (vectorised: per-level lookups, not per-row)
    # ------------------------------------------------------------------
    def _table_flat_indices(
        self, table: Table, grow: bool
    ) -> np.ndarray:
        columns = [table.column(name) for name in self.factor_names]
        columns.append(table.column(self.outcome_name))
        for column in columns:
            if column.kind != CATEGORICAL:
                raise SchemaError(
                    f"column {column.name!r} must be categorical for "
                    "streaming ingestion"
                )
        if grow:
            for position, (axis, column) in enumerate(
                zip(self._axes(), columns)
            ):
                before = len(axis)
                for level in column.levels:
                    if level not in axis.codes:
                        axis.add_level(level)
                if len(axis) > before:
                    self._grow_axis(position, len(axis) - before)
        shape = self._counts.shape
        flat = np.zeros(table.n_rows, dtype=np.int64)
        for position, (axis, column) in enumerate(zip(self._axes(), columns)):
            try:
                lut = np.array(
                    [axis.codes[level] for level in column.levels],
                    dtype=np.int64,
                )
            except KeyError as error:
                raise ValidationError(
                    f"{error.args[0]!r} is not a level of axis {axis.name!r}"
                ) from None
            flat *= shape[position]
            flat += lut[column.codes]
        return flat

    def update_table(self, table: Table) -> "StreamingContingency":
        """Vectorised :meth:`update` from a table's categorical columns.

        Level-code translation happens once per level, not per row, so a
        chunk of k rows costs one integer gather plus one `bincount` tally.
        """
        if table.n_rows == 0:
            return self
        flat = self._table_flat_indices(table, grow=True)
        counts = self._counts.reshape(-1)
        # One dense tally: it also names the dirty groups without sorting.
        hits = np.bincount(flat, minlength=counts.size)
        counts += hits
        touched = hits.reshape(-1, len(self._outcome)).any(axis=1)
        self._mark_groups_dirty(np.flatnonzero(touched))
        self._n_rows += table.n_rows
        return self

    def retract_table(self, table: Table) -> "StreamingContingency":
        """Vectorised :meth:`retract` from a table's categorical columns."""
        if table.n_rows == 0:
            return self
        flat = self._table_flat_indices(table, grow=False)
        cells, removals = np.unique(flat, return_counts=True)
        counts = self._counts.reshape(-1)
        if np.any(counts[cells] < removals):
            raise ValidationError(
                "retract would make a count negative: some rows were never "
                "counted in"
            )
        np.subtract.at(counts, cells, removals)
        self._n_rows -= table.n_rows
        self._mark_dirty(flat)
        return self

    # ------------------------------------------------------------------
    # Merging (sharded ingestion)
    # ------------------------------------------------------------------
    def merge(self, other: "StreamingContingency") -> "StreamingContingency":
        """A new accumulator holding ``self + other``.

        Associative and commutative: level unions are taken axis-by-axis,
        and because :meth:`snapshot` canonicalises dynamic level order,
        any merge tree over the same shards yields bitwise-identical
        snapshots. Pinned axes must agree exactly on both sides; an axis
        is pinned in the result only when pinned in both inputs.
        """
        if self.factor_names != other.factor_names:
            raise SchemaError(
                f"cannot merge: factor names differ "
                f"({self.factor_names} vs {other.factor_names})"
            )
        if self.outcome_name != other.outcome_name:
            raise SchemaError(
                f"cannot merge: outcome names differ "
                f"({self.outcome_name!r} vs {other.outcome_name!r})"
            )
        merged_axes: list[_Axis] = []
        for mine, theirs in zip(self._axes(), other._axes()):
            if mine.pinned and theirs.pinned and mine.levels != theirs.levels:
                raise SchemaError(
                    f"cannot merge: pinned levels of axis {mine.name!r} "
                    f"differ ({mine.levels} vs {theirs.levels})"
                )
            union = list(mine.levels)
            seen = set(mine.codes)
            for level in theirs.levels:
                if level not in seen:
                    seen.add(level)
                    union.append(level)
            axis = _Axis(mine.name, union)
            axis.pinned = mine.pinned and theirs.pinned
            merged_axes.append(axis)

        result = StreamingContingency.__new__(StreamingContingency)
        result._factors = merged_axes[:-1]
        result._outcome = merged_axes[-1]
        result._counts = np.zeros(result._shape(), dtype=np.int64)
        result._n_rows = self._n_rows + other._n_rows
        result._dirty = set()
        result._schema_version = 0
        for source in (self, other):
            if source._counts.size == 0:
                continue
            placement = tuple(
                np.array(
                    [axis.codes[level] for level in source_axis.levels],
                    dtype=np.int64,
                )
                for axis, source_axis in zip(merged_axes, source._axes())
            )
            result._counts[np.ix_(*placement)] += source._counts
        return result

    # ------------------------------------------------------------------
    # Snapshots and checkpoints
    # ------------------------------------------------------------------
    def snapshot(self) -> ContingencyTable:
        """The current counts as an immutable :class:`ContingencyTable`.

        Dynamic axes are reordered to canonical (sorted) level order, so
        the result is bit-identical to
        ``ContingencyTable.from_table(Table.from_rows(...), ...)`` on the
        multiset of currently-counted rows — integer counts permute
        exactly. Pinned axes keep their declared order. O(cells).
        """
        orders = [axis.snapshot_order() for axis in self._axes()]
        tensor = self._counts
        for position, order in enumerate(orders):
            if order != list(range(len(order))):
                tensor = np.take(tensor, order, axis=position)
        factor_orders = orders[:-1]
        return ContingencyTable(
            tensor.astype(np.float64),
            self.factor_names,
            [
                [axis.levels[code] for code in order]
                for axis, order in zip(self._factors, factor_orders)
            ],
            self.outcome_name,
            tuple(self._outcome.levels[code] for code in orders[-1]),
        )

    def state_dict(self) -> dict[str, Any]:
        """A self-contained checkpoint (one array copy; cheap)."""
        return {
            "factor_names": self.factor_names,
            "factor_levels": [list(axis.levels) for axis in self._factors],
            "factor_pinned": [axis.pinned for axis in self._factors],
            "outcome_name": self.outcome_name,
            "outcome_levels": list(self._outcome.levels),
            "outcome_pinned": self._outcome.pinned,
            "counts": self._counts.copy(),
            "n_rows": self._n_rows,
        }

    @classmethod
    def from_state(cls, state: dict[str, Any]) -> "StreamingContingency":
        """Rebuild an accumulator from :meth:`state_dict` output."""
        result = cls.__new__(cls)
        result._factors = [
            _Axis(name, levels)
            for name, levels in zip(state["factor_names"], state["factor_levels"])
        ]
        for axis, pinned in zip(result._factors, state["factor_pinned"]):
            axis.pinned = bool(pinned)
        result._outcome = _Axis(state["outcome_name"], state["outcome_levels"])
        result._outcome.pinned = bool(state["outcome_pinned"])
        counts = np.asarray(state["counts"], dtype=np.int64).copy()
        if counts.shape != result._shape():
            raise ValidationError(
                f"checkpoint counts shape {counts.shape} does not match "
                f"levels {result._shape()}"
            )
        if np.any(counts < 0):
            raise ValidationError("checkpoint counts must be non-negative")
        result._counts = counts
        result._n_rows = int(state["n_rows"])
        result._dirty = set()
        result._schema_version = 0
        return result

    def copy(self) -> "StreamingContingency":
        """An independent copy (fresh dirty set and schema version)."""
        return StreamingContingency.from_state(self.state_dict())

    # ------------------------------------------------------------------
    # Dirty-cell tracking
    # ------------------------------------------------------------------
    def drain_dirty(self) -> list[tuple[int, ...]]:
        """Group cells (internal-order code tuples) touched since last drain."""
        dirty = sorted(self._dirty)
        self._dirty.clear()
        return dirty
