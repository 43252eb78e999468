"""Smoke test of the end-to-end benchmark: output schema and determinism, no timing.

Runs every workload at ``--quick`` sizes (TFACC scale 0.25, one round, 50
operations per segment) through the same ``measure`` the command line calls,
so an API drift in ``src/`` breaks a test here and not a later benchmark run.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
_spec = importlib.util.spec_from_file_location("e2e_run", HERE / "run.py")
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

CONTRACT = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@functools.lru_cache(maxsize=None)
def result(workload: str, seed: int, trace: bool, repeat: int = 0) -> dict:
    """One quick run, parsed from the line the command prints last."""
    outcome = run.measure(workload, seed, seconds=0.0, trace=trace, quick=True)
    return json.loads(outcome["line"])


def _check_schema(parsed: dict, declared: list[dict]) -> None:
    assert set(parsed) == {"correct", "attempted", "failed", "metrics"}
    assert parsed["correct"] is True and parsed["failed"] == 0
    assert parsed["attempted"] >= 1
    assert list(parsed["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        measured = parsed["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert measured["unit"] == metric["unit"] and measured["unit"]
        assert math.isfinite(measured["value"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_timed_run_reports_every_end_to_end_metric(workload):
    parsed = result(workload, 1, False)
    _check_schema(parsed, CONTRACT["end_to_end"])
    assert all(metric["value"] > 0 for metric in parsed["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    parsed = result(workload, 1, True)
    _check_schema(parsed, CONTRACT["per_layer"])
    on_path = workload == "serve_sharded"
    assert (parsed["metrics"]["sharding.run_us"]["value"] > 0) == on_path
    assert (parsed["metrics"]["service.write_time_fraction"]["value"] > 0) == (
        workload == "write_mix"
    )

    spans = [json.loads(line) for line in (HERE / "out" / "trace.jsonl").read_text().splitlines()]
    assert {"request", "execution.execute", "storage.fetch"} <= {span["name"] for span in spans}
    # Self time is a span minus its children, which only means something if
    # every child lies inside its parent and siblings do not overlap.
    last_child_end: dict[int, float] = {}
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is not None:
            parent = spans[span["parent"]]
            assert parent["request_id"] == span["request_id"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
            assert span["start"] >= last_child_end.get(span["parent"], parent["start"])
            last_child_end[span["parent"]] = span["end"]


def test_the_seed_orders_the_requests_and_leaves_the_work_alone():
    first = result("serve_mem", 1, False)["metrics"]["tuples_per_request"]["value"]
    again = result("serve_mem", 1, False, repeat=1)["metrics"]["tuples_per_request"]["value"]
    assert first == again
    # Every seed asks for the same reads in another order, on every tier.
    for workload, seed in (("serve_mem", 2), ("serve_sqlite", 1), ("serve_sharded", 1)):
        assert result(workload, seed, False)["metrics"]["tuples_per_request"]["value"] == first
    assert result("write_mix", 1, False)["metrics"]["tuples_per_request"] == (
        result("write_mix", 2, False)["metrics"]["tuples_per_request"])

    def order(seed: int) -> list[tuple]:
        generated = run.inputs.generate("serve_mem", seed, quick=True)
        return [(read.template.query.name, read.date, read.force) for read in generated.light]

    assert order(1) == order(1)
    assert order(1) != order(2) and sorted(order(1)) == sorted(order(2))
