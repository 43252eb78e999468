"""The end-to-end + per-layer serving benchmark (see ``benchmarks/e2e/README.md``).

``inputs``  seeded data, request lists, write batches and the oracle's answers;
``tiers``   set-up and tear-down of the serving tier each workload measures;
``rounds``  the timed run: warm round, measured rounds, the nine end-to-end metrics;
``layers``  the traced run: spans, ``trace.jsonl`` and the per-layer metrics;
``report``  metric tables, the host fingerprint and the result line;
``selfcheck`` the A/A mode that holds the benchmark to its own bounds.
"""

import json
from pathlib import Path

#: ``benchmarks/e2e`` — everything the benchmark reads or writes lives under it,
#: except ``BENCHMARK.json`` and the program under test in ``src/``.
BENCH_DIR = Path(__file__).resolve().parent.parent
REPO_ROOT = BENCH_DIR.parent.parent
#: Scratch space (SQLite files, ``trace.jsonl``); listed in ``.gitignore``.
OUT_DIR = BENCH_DIR / "out"


def contract() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds are fixed."""
    return json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
