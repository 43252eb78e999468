"""Set-up and tear-down of the serving tier each workload measures.

Set-up is the ``setup_s`` end-to-end metric: generated rows in hand ->
backend loaded, indexes built, service (or shard processes) up, the three
templates prepared + verified and their first answers returned.  Every
backend is the real one at the library's defaults: nothing injects latency,
CPU cost or faults.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

from repro.service import QueryService
from repro.sharding import ShardedQueryService, ShardMap
from repro.storage import SQLiteBackend, as_backend
from repro.workloads import tfacc_schema

from . import OUT_DIR
from .inputs import Inputs, Read, load_database

#: Which tier a workload serves through; ``write_mix`` is the in-process tier
#: again, used differently.
TIER_OF = {
    "serve_mem": "memory",
    "serve_sqlite": "sqlite",
    "serve_sharded": "sharded",
    "write_mix": "memory",
}
#: The library defaults the load model is sized to (``nproc`` = 2).
WORKERS = 2
SHARDS = 2
SHARD_WORKERS = 1
#: What a file-backed ``SQLiteBackend`` sets on each connection by default.
SQLITE_FLUSH_POLICY = "journal_mode=WAL, synchronous=NORMAL"


class WrongAnswer(Exception):
    """A served answer differs from the oracle's, or broke its certificate."""


def check(result: Any, read: Read) -> int:
    """Hold one served answer to the oracle; returns its ``tuples_accessed``."""
    stats = result.stats
    if stats.plan_bound is not None and stats.tuples_accessed > stats.plan_bound:
        raise WrongAnswer(
            f"{read.template.query.name}({read.date}, {read.force}) accessed "
            f"{stats.tuples_accessed} tuples, certificate {stats.plan_bound}"
        )
    if result.as_set != read.expected:
        raise WrongAnswer(
            f"{read.template.query.name}({read.date}, {read.force}) returned "
            f"{len(result.rows)} rows, oracle expects {len(read.expected)}"
        )
    return stats.tuples_accessed


def submit(service: Any, read: Read) -> Any:
    return service.submit(read.template, **read.binding)


@dataclass
class Tier:
    """A serving tier that is up and has answered, with what set-up cost."""

    kind: str
    service: Any
    #: The parent-side store: what the service reads in-process, or what the
    #: shard processes were sliced from.
    backend: Any
    #: Seconds per set-up phase: ``load``, ``build_indexes``, ``start``, ``first_answers``.
    phases: dict[str, float]
    _scratch: str | None = field(default=None, repr=False)

    @property
    def setup_s(self) -> float:
        return sum(self.phases.values())

    def close(self) -> None:
        self.service.close()
        if self.kind == "sqlite":
            self.backend.close()
        if self._scratch is not None:
            shutil.rmtree(self._scratch, ignore_errors=True)


def build_backend(kind: str, inputs: Inputs) -> tuple[Any, str | None]:
    """Generated rows -> a loaded store of ``kind`` (indexes not yet built)."""
    if kind != "sqlite":
        return as_backend(load_database(inputs.rows)), None
    OUT_DIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="sqlite-", dir=OUT_DIR)
    backend = SQLiteBackend(tfacc_schema(), path=f"{scratch}/tfacc.db")
    for relation, rows in inputs.rows.items():
        backend.populate(relation, rows)
    return backend, scratch


def start_service(
    backend: Any, inputs: Inputs, sharded: bool = False, workers: int = WORKERS
) -> Any:
    """The in-process service over ``backend``, or shard processes sliced from it."""
    if sharded:
        shard_map = ShardMap.for_template(inputs.templates[0], inputs.access, SHARDS)
        return ShardedQueryService(
            backend, inputs.access, shard_map=shard_map, shard_workers=SHARD_WORKERS
        )
    return QueryService(backend, inputs.access, workers=workers)


def set_up(inputs: Inputs) -> Tier:
    """Bring the workload's tier up from generated rows; every phase is timed."""
    kind = TIER_OF[inputs.workload]
    marks = [time.perf_counter()]
    backend, scratch = build_backend(kind, inputs)
    marks.append(time.perf_counter())
    if kind != "sharded":  # shard processes index their own slices
        backend.build_indexes(inputs.access)
    marks.append(time.perf_counter())
    service = start_service(backend, inputs, sharded=kind == "sharded")
    marks.append(time.perf_counter())
    tier = Tier(kind, service, backend, {}, scratch)
    try:
        for probe in inputs.probes:
            check(submit(service, probe).result(), probe)
    except BaseException:
        tier.close()
        raise
    marks.append(time.perf_counter())
    names = ("load", "build_indexes", "start", "first_answers")
    tier.phases = {name: marks[i + 1] - marks[i] for i, name in enumerate(names)}
    return tier
