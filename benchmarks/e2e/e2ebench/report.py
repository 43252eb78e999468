"""Metric tables, the host fingerprint and the machine-readable result line."""

from __future__ import annotations

import json
import os
import platform
import sqlite3
import statistics
from dataclasses import dataclass
from typing import Any, Iterable

from . import REPO_ROOT


@dataclass
class Metric:
    name: str
    value: float
    unit: str
    #: How the value was obtained: statistic, sample counts, quartiles.
    note: str = ""


def quartiles(values: Iterable[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3 if values else (0.0, 0.0, 0.0)
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Iterable[float]) -> str:
    q1, _, q3 = quartiles(values)
    return f"[q1 {q1:.6g}, q3 {q3:.6g}]"


def relative_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's steadiness test)."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def _commit() -> str:
    """The checked-out commit, read from ``.git`` directly; a bare checkout has none."""
    head = REPO_ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref = (REPO_ROOT / ".git" / ref[5:]).read_text().strip()
        return ref[:12]
    except OSError:
        return "unknown"


def fingerprint() -> dict[str, Any]:
    """What the numbers were measured on; printed by every run."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "commit": _commit(),
    }


def print_metrics(title: str, metrics: list[Metric]) -> None:
    print(title)
    width = max(len(metric.name) for metric in metrics)
    for metric in metrics:
        print(f"  {metric.name:<{width}}  {metric.value:>14.6g} {metric.unit:<7} {metric.note}")


def result_line(metrics: list[Metric], attempted: int, failed: int) -> str:
    """The last line of standard output: the contract's one JSON object."""
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {m.name: {"value": m.value, "unit": m.unit} for m in metrics},
        }
    )
