"""Readers for the benchmark's own spans, the program's counters, and
``/proc`` (process liveness and peak memory)."""

from __future__ import annotations

from collections import defaultdict


def span_durations(events) -> dict[str, list[float]]:
    """Span durations in seconds, grouped by span name, in emit order."""
    durations: dict[str, list[float]] = defaultdict(list)
    for event in events:
        if event.get("ts") is not None:
            durations[event["name"]].append(float(event["dur"]))
    return durations


def family_series(state: dict, family: str) -> list[dict]:
    """The series of one family in a ``MetricsRegistry.state_dict()``."""
    entry = state.get("families", {}).get(family)
    return [] if entry is None else entry["series"]


def counter_total(state: dict, family: str) -> float:
    return float(sum(series["value"] for series in family_series(state, family)))


def _matching(state: dict, family: str, labels: dict) -> list[dict]:
    return [
        series
        for series in family_series(state, family)
        if all(series["labels"].get(key) == value for key, value in labels.items())
    ]


def histogram_mean(state: dict, family: str, **labels) -> float:
    """Mean observation of the matching histogram series (0 when empty)."""
    series = _matching(state, family, labels)
    count = sum(entry["count"] for entry in series)
    return sum(entry["sum"] for entry in series) / count if count else 0.0


def histogram_sum(state: dict, family: str, **labels) -> float:
    return float(sum(entry["sum"] for entry in _matching(state, family, labels)))


def process_alive(pid: int) -> bool:
    """Whether ``pid`` is a live (not zombie) process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of one live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")
