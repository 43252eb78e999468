#!/usr/bin/env python3
"""The repo's benchmark: one workload, one seed, every metric by name.

    python benchmarks/e2e/run.py --workload serve_mem --seed 1
    python benchmarks/e2e/run.py --workload serve_sqlite --seed 1 --trace
    python benchmarks/e2e/run.py --selfcheck

The last line of standard output is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``): the end-to-end metrics of
``BENCHMARK.json`` for a timed run, its per-layer metrics with ``--trace``.
The exit code is non-zero when any operation failed or any answer differed
from the oracle.  See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent.parent
if not (_ROOT / "src" / "repro").is_dir():
    sys.exit(f"{__file__}: no program to measure: {_ROOT / 'src' / 'repro'} is missing")
for _path in (_ROOT / "src", Path(__file__).resolve().parent):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from e2ebench import contract, inputs, layers, report, rounds, selfcheck, tiers  # noqa: E402


def measure(workload: str, seed: int, seconds: float, trace: bool, quick: bool = False) -> dict:
    """Run one workload and return the result object the last line prints."""
    generated = inputs.generate(workload, seed, quick)
    # The harness's own copies of the data (rows in hand, the oracle's store)
    # must not weigh on the collections the program under test triggers.
    gc.freeze()
    try:
        return _measure(generated, seconds, trace, quick)
    finally:
        gc.unfreeze()


def _measure(generated: inputs.Inputs, seconds: float, trace: bool, quick: bool) -> dict:
    workload, seed = generated.workload, generated.seed
    print(f"workload {workload}  seed {seed}  {'traced' if trace else 'timed'} run"
          f"{'  (quick sizes)' if quick else ''}")
    print(f"  host {report.fingerprint()}")
    print(f"  load model: closed loop, 1 generator thread, windows "
          f"{rounds.LIGHT_WINDOW}/{rounds.SATURATED_WINDOW}, QueryService(workers={tiers.WORKERS}) / "
          f"ShardedQueryService(shards={tiers.SHARDS}, shard_workers={tiers.SHARD_WORKERS}), "
          f"simulated: false, sqlite flush: {tiers.SQLITE_FLUSH_POLICY}")
    print(f"  inputs: TFACC scale {generated.sizes.scale:g} "
          f"({sum(len(rows) for rows in generated.rows.values())} tuples, generated in "
          f"{generated.datagen_s:.2f} s), round = {generated.sizes.light} light + "
          f"{generated.sizes.saturated} saturated operations, oracle pass {generated.oracle_s:.2f} s")
    if trace:
        metrics, tally = layers.run(generated, quick)
        title = f"per-layer metrics (traced, serial; spans in {layers.TRACE_FILE})"
    else:
        metrics, tally, detail = rounds.run(generated, seconds, quick)
        title = (f"end-to-end metrics ({detail['rounds']} measured rounds, "
                 f"{detail['measured_wall_s']:.1f} s; set-up phases {detail['setup_phases_s']})")
    report.print_metrics(title, metrics)
    for reason in tally.reasons:
        print(f"  FAILED: {reason}")
    print(f"operations attempted {tally.attempted}, failed {tally.failed}")
    return {"line": report.result_line(metrics, tally.attempted, tally.failed),
            "failed": tally.failed}


def main(argv: list[str] | None = None) -> int:
    spec = contract()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long the measured rounds last (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?", const=1, default=0,
                        help="1: the traced run (per-layer metrics, trace.jsonl)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test sizes: scale 0.25, one round, 50 operations")
    parser.add_argument("--selfcheck", action="store_true",
                        help="A/A: two interleaved sets of runs must agree within the bounds")
    parser.add_argument("--runs", type=int, default=5, help="runs per set for --selfcheck")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck.main(spec, [args.workload] if args.workload else None, args.runs,
                              args.seconds)
    if args.workload is None:
        parser.error("--workload is required")
    outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    print(outcome["line"])
    return 1 if outcome["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
