"""A/A self-check: the same code, measured twice, must agree within its own bounds.

Per workload, two sets of runs are interleaved (A B B A A B ...), run *i* of
both sets on seed *i*, each run a fresh process exactly as the driver starts
it.  For every end-to-end metric the report gives both set medians, their
relative gap, each set's quartile spread as a share of its median, and the
bound from ``BENCHMARK.json``.  A gap or a spread beyond the bound fails the
check: a metric that cannot tell two runs of one program apart cannot judge
a change either.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from . import BENCH_DIR, OUT_DIR
from .report import relative_spread


def one_run(workload: str, seed: int, seconds: float) -> dict:
    """Start ``run.py`` as the driver would and parse its last line."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command)} exited {done.returncode}:\n{done.stdout[-2000:]}"
                         f"\n{done.stderr[-2000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(spec: dict, workloads: list[str] | None, runs: int, seconds: float) -> int:
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    failures = 0
    raw: dict[str, dict[str, list[dict]]] = {}
    for workload in workloads:
        sets: dict[str, list[dict]] = {"A": [], "B": []}
        for index in range(runs):
            for label in ("AB", "BA")[index % 2]:
                result = one_run(workload, index + 1, seconds)
                if not result["correct"]:
                    raise SystemExit(f"{workload} seed {index + 1}: {result['failed']} failed")
                sets[label].append(result["metrics"])
        raw[workload] = sets
        print(f"\n{workload}: 2 x {runs} runs, seeds 1..{runs}, {seconds:g} s each")
        print(f"  {'metric':<22}{'median A':>12}{'median B':>12}{'gap':>8}"
              f"{'spread A':>10}{'spread B':>10}{'bound':>7}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [run[name]["value"] for run in sets["A"]]
            b = [run[name]["value"] for run in sets["B"]]
            median_a, median_b = statistics.median(a), statistics.median(b)
            gap = abs(median_b - median_a) / median_a
            spreads = relative_spread(a), relative_spread(b)
            # Set-up time is judged on its medians only, as the driver does.
            unsteady = name != "setup_s" and max(spreads) > bound
            verdict = "FAIL gap" if gap > bound else "FAIL spread" if unsteady else ""
            failures += bool(verdict)
            print(f"  {name:<22}{median_a:>12.5g}{median_b:>12.5g}{gap:>8.3f}"
                  f"{spreads[0]:>10.3f}{spreads[1]:>10.3f}{bound:>7.2f}  {verdict}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "selfcheck.json").write_text(json.dumps(raw, indent=1))
    print(f"\n{failures} metric(s) outside their bounds" if failures else "\nall within bounds")
    return 1 if failures else 0
