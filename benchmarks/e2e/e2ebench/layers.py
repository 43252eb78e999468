"""The traced run: spans around the calls into each layer, and the per-layer metrics.

Serial (one request in flight) over the first ``TRACED_OPERATIONS`` of the
request list.  Spans ``{id, name, start, end, parent, request_id}`` are kept
in memory and written to ``out/trace.jsonl`` at the end.  Layers are measured
from outside, by timing calls into their public functions:

* a tier pass: ``request`` -> ``service.run`` -> ``service.submit`` (``sharding.run``
  -> ``sharding.submit`` on the process tier), and ``service.apply_writes`` for
  the interleaved writes of ``write_mix``;
* a direct pass on the workload's store: ``execution.execute`` -> ``storage.fetch``,
  the latter recorded by a :class:`~repro.storage.WrapperBackend` subclass;
* loops over the public entry points of the remaining layers.

A layer's self time is its span minus the part its children cover.  No
end-to-end metric is taken from this run; a layer the workload's tier never
calls reports 0 for its metrics.
"""

from __future__ import annotations

import gc
import json
import pickle
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.ebcheck import ebcheck
from repro.execution import BoundedEngine, BoundedExecutor, compile_plan
from repro.planning.qplan import qplan
from repro.sharding import resolve_route
from repro.sharding.messages import BatchDone, ExecuteBatch, RequestDone, ShardRequest
from repro.storage import WrapperBackend

from . import OUT_DIR, contract
from .inputs import (
    COLD_SHAPES,
    Inputs,
    Read,
    Write,
    WriteChain,
    cold_template,
    load_database,
    unbounded_template,
)
from .report import Metric
from .rounds import SATURATED_WINDOW, Tally, drive, verify
from .tiers import Tier, WrongAnswer, check, set_up, start_service, submit

TRACED_OPERATIONS = 500
TRACE_FILE = OUT_DIR / "trace.jsonl"
#: Requests sampled by the per-call loops (binding, routing, pickling, probing).
SAMPLED = 200
#: Repetitions of the expensive calls (write batches, cold compilations).
REPEATS = 5


class Tracer:
    """Spans in memory: ``[name, start, end, parent, request_id]``, id = position."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        #: The open span storage calls are caused by (the run is serial).
        self.current: int | None = None

    def start(self, name: str, request_id: str, parent: int | None = None) -> int:
        self.spans.append([name, time.perf_counter(), None, parent, request_id])
        return len(self.spans) - 1

    def stop(self, span: int) -> None:
        self.spans[span][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        return [end - start for span, start, end, _, _ in self.spans if span == name]

    def self_times(self) -> list[float]:
        """Per span: its duration minus the part its children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with open(path, "w") as out:
            for index, (name, start, end, parent, request_id) in enumerate(self.spans):
                out.write(json.dumps({"id": index, "name": name, "start": start, "end": end,
                                      "parent": parent, "request_id": request_id}) + "\n")


class _TracedView:
    """A constraint view whose every fetch is a ``storage.fetch`` span with counts."""

    def __init__(self, view: Any, backend: "TracingBackend") -> None:
        self._view = view
        self._backend = backend

    def __getattr__(self, name: str) -> Any:  # constraint, relation, key, value
        return getattr(self._view, name)

    def fetch_many(self, x_values: Iterable) -> list:
        keys = list(x_values)
        rows = self._backend.traced(lambda: self._view.fetch_many(keys))
        self._backend.keys += len(keys)
        self._backend.rows += len(rows)
        return rows

    def fetch(self, x_value) -> list:
        return self.fetch_many([x_value])

    def contains(self, x_value) -> bool:
        return self._backend.traced(lambda: self._view.contains(x_value))


class TracingBackend(WrapperBackend):
    """Times and counts every ``fetch`` / ``scan`` the execution layer issues."""

    def __init__(self, source: Any, tracer: Tracer) -> None:
        super().__init__(source)
        self.tracer = tracer
        self.keys = 0
        self.rows = 0

    def traced(self, call: Callable[[], Any]) -> Any:
        tracer = self.tracer
        span = tracer.start("storage.fetch", tracer.spans[tracer.current][4], tracer.current)
        try:
            return call()
        finally:
            tracer.stop(span)

    def scan(self, relation: str) -> list:
        return self.traced(lambda: self.inner.scan(relation))

    def wrap_view(self, view: Any) -> Any:
        return _TracedView(view, self)


def _median_of(call: Callable[[Any], Any], items: Iterable) -> float:
    """Median seconds of ``call(item)`` over ``items``."""
    seconds = []
    for item in items:
        started = time.perf_counter()
        call(item)
        seconds.append(time.perf_counter() - started)
    return statistics.median(seconds)


def _traced_pass(service: Any, ops: list, chain: WriteChain, tally: Tally,
                 tracer: Tracer, tier_span: str, tag: str) -> tuple[float, list]:
    """One operation at a time through the tier, a span at each boundary.

    Returns (wall seconds, [(read, result)]); the untraced counterpart is
    :func:`~e2ebench.rounds.drive` with a window of 1.
    """
    results = []
    tally.attempted += len(ops)
    began = time.perf_counter()
    for index, op in enumerate(ops):
        request_id = f"{tag}/{index}"
        first = len(tracer.spans)
        request = tracer.start("request", request_id)
        try:
            if isinstance(op, Write):
                batch = chain.batch(op.rows)
                span = tracer.start("service.apply_writes", request_id, request)
                service.apply_writes(batch)
                tracer.stop(span)
            else:
                run = tracer.start(tier_span, request_id, request)
                admit = tracer.start(tier_span.replace(".run", ".submit"), request_id, run)
                future = submit(service, op)
                tracer.stop(admit)
                result = future.result()
                tracer.stop(run)
                results.append((op, result))
        except Exception as error:
            tally.fail(f"traced operation failed: {error!r}")
            for span in range(first, len(tracer.spans)):
                if tracer.spans[span][2] is None:
                    tracer.stop(span)
        tracer.stop(request)
    return time.perf_counter() - began, results


def _serial_seconds(service: Any, ops: list, chain: WriteChain, tally: Tally) -> float:
    """The same operations one at a time with no spans; answers checked."""
    return verify(drive(service, ops, 1, chain, tally), tally).wall


def _cold_first_request_ms(service: Any, inputs: Inputs, first_serial: int, tally: Tally) -> float:
    reads = inputs.cold_reads(first_serial)
    segment = verify(drive(service, reads, 1, WriteChain(), tally), tally)
    return 1e3 * statistics.median(segment.latencies) if segment.latencies else 0.0


@dataclass
class _Run:
    """What the per-layer measurements of one traced run share."""

    inputs: Inputs
    tier: Tier
    tally: Tally
    tracer: Tracer
    #: The write chain of the tier's store: every layer that writes continues it.
    chain: WriteChain
    ops: list
    reads: list[Read]
    #: How often the expensive calls (write batches, cold compilations) repeat.
    repeats: int

    @property
    def sampled(self) -> list[Read]:
        return self.reads[:SAMPLED]

    @property
    def store(self) -> Any:
        """The store the layers below the tier are measured on."""
        return self.tier.backend


def _tier_pass(run: _Run, tier_span: str) -> tuple[dict[str, float], list]:
    """Warm, untraced and traced serial passes through the workload's tier."""
    service, inputs = run.tier.service, run.inputs
    _serial_seconds(service, run.ops, run.chain, run.tally)
    gc.collect()
    untraced_wall = _serial_seconds(service, run.ops, run.chain, run.tally)
    gc.collect()
    traced_wall, served = _traced_pass(
        service, run.ops, run.chain, run.tally, run.tracer, tier_span, "tier")
    service.apply_writes(run.chain.batch([]))  # write_mix: back to the stored rows
    tuples = bound = 0
    for read, result in served:
        try:
            tuples += check(result, read)
        except WrongAnswer as error:
            run.tally.fail(str(error))
        bound += result.stats.plan_bound or 0
    caches = service.engine.cache_info()
    return {
        "service.write_time_fraction":
            sum(run.tracer.durations("service.apply_writes")) / traced_wall,
        "trace.overhead_fraction": (traced_wall - untraced_wall) / untraced_wall,
        "planning.bound_total": bound / max(len(served), 1),
        "planning.certificate_tightness": tuples / max(bound, 1),
        "execution.prepared_cache_hit_rate": caches["prepared"].hit_rate,
        "execution.plan_cache_hit_rate": caches["plan"].hit_rate,
        "storage.load_s": run.tier.phases["load"],
        "storage.build_indexes_s": run.tier.phases["build_indexes"],
        "workloads.datagen_s": inputs.datagen_s,
    }, served


_SHARDING = ("run_us", "overhead_us", "spawn_s", "register_ms", "route_us", "shard_imbalance",
             "request_pickle_us", "request_bytes", "result_pickle_us", "result_bytes")


def _sharding(run: _Run, served: list) -> dict[str, float]:
    """What the process tier adds over an in-process service on the unsharded copy."""
    inputs, router, tracer = run.inputs, run.tier.service, run.tracer
    cold_sharded_ms = _cold_first_request_ms(router, inputs, 0, run.tally)
    started = time.perf_counter()
    run.store.build_indexes(inputs.access)  # the shards built their own; the parent has none
    build_indexes_s = time.perf_counter() - started
    with start_service(run.store, inputs) as inprocess:
        _serial_seconds(inprocess, run.ops, run.chain, run.tally)
        _traced_pass(inprocess, run.ops, run.chain, run.tally, tracer, "service.run", "inprocess")
        cold_inprocess_ms = _cold_first_request_ms(inprocess, inputs, COLD_SHAPES, run.tally)
    sharded_us = 1e6 * statistics.median(tracer.durations("sharding.run"))
    service_us = 1e6 * statistics.median(tracer.durations("service.run"))
    shard_map = router.shard_map
    plans = {t: router.engine.prepare_query(t).prepared for t in inputs.templates}
    routes = {t: resolve_route(plan, shard_map) for t, plan in plans.items()}
    routed = list(router.stats(shard_timeout=None)["routed"].values())
    values = {
        "storage.build_indexes_s": build_indexes_s,
        "sharding.run_us": sharded_us,
        "sharding.overhead_us": sharded_us - service_us,
        "sharding.spawn_s": run.tier.phases["start"],
        "sharding.register_ms": cold_sharded_ms - cold_inprocess_ms,
        "sharding.route_us": 1e6 * _median_of(
            lambda read: routes[read.template].shard_for(
                shard_map, plans[read.template].bind_values(read.binding)),
            run.sampled),
        "sharding.shard_imbalance": max(routed) / statistics.mean(routed),
    }
    messages = {
        "request": [ExecuteBatch((ShardRequest(i, 0, read.binding, None, None),))
                    for i, read in enumerate(run.sampled)],
        "result": [BatchDone((RequestDone(i, result),))
                   for i, (_, result) in enumerate(served[:SAMPLED])],
    }
    for name, envelopes in messages.items():
        values[f"sharding.{name}_pickle_us"] = 1e6 * _median_of(
            lambda envelope: pickle.loads(pickle.dumps(envelope)), envelopes)
        values[f"sharding.{name}_bytes"] = statistics.mean(
            len(pickle.dumps(envelope)) for envelope in envelopes)
    return values


def _service_saturated(run: _Run) -> dict[str, float]:
    """Batching and worker scaling: a saturated pass at one and at two workers."""
    saturated = run.inputs.saturated[:1000]
    rps = {}
    for workers in (1, 2):
        with start_service(run.store, run.inputs, workers=workers) as service:
            verify(drive(service, run.inputs.probes, 1, run.chain, run.tally), run.tally)
            gc.collect()
            segment = verify(
                drive(service, saturated, SATURATED_WINDOW, run.chain, run.tally), run.tally)
            rps[workers] = segment.correct / segment.wall
            stats = service.stats()
    run.store.apply_writes(run.chain.batch([]))
    return {
        "service.scaling_2w": rps[2] / rps[1],
        "service.mean_batch": stats["completed"] / max(stats["batches"], 1),
        "service.largest_batch": stats["largest_batch"],
        "service.retries": stats["execution"]["retries"],
        "service.shed": segment.refused,
    }


def _direct_pass(run: _Run) -> dict[str, float]:
    """``execution.execute`` -> ``storage.fetch`` on the store, no tier in between."""
    tracer, store, access = run.tracer, run.store, run.inputs.access
    engine = BoundedEngine(access)
    traced_store = TracingBackend(store, tracer)
    prepared = {t: engine.prepare_query(t) for t in run.inputs.templates}
    for query in prepared.values():
        query.warm(traced_store)
    for read in run.reads:  # warm: this thread's SQLite connection has read nothing yet
        prepared[read.template].execute(store, **read.binding)
    for index, read in enumerate(run.reads):
        tracer.current = tracer.start("execution.execute", f"direct/{index}")
        prepared[read.template].execute(traced_store, **read.binding)
        tracer.stop(tracer.current)
    executes = tracer.durations("execution.execute")
    fetches = tracer.durations("storage.fetch")
    own = tracer.self_times()
    oracle_path = BoundedExecutor()

    def enter_view(_: int) -> None:
        with store.read_view():
            pass

    return {
        "execution.execute_us": 1e6 * statistics.median(executes),
        "execution.self_us": 1e6 * statistics.median(
            own[i] for i, span in enumerate(tracer.spans) if span[0] == "execution.execute"),
        "execution.interpreted_us": 1e6 * _median_of(
            lambda read: oracle_path.execute_interpreted(
                prepared[read.template].prepared.plan, store,
                params=prepared[read.template].prepared.bind_values(read.binding)),
            run.sampled),
        "storage.fetch_us": 1e6 * statistics.median(fetches),
        "storage.fetch_calls_per_request": len(fetches) / len(run.reads),
        "storage.keys_per_fetch": traced_store.keys / len(fetches),
        "storage.rows_per_fetch": traced_store.rows / len(fetches),
        "storage.busy_fraction": sum(fetches) / sum(executes),
        "storage.read_view_us": 1e6 * _median_of(enter_view, range(SAMPLED)),
        "spc.bind_us": 1e6 * _median_of(
            lambda read: read.template.bind(**read.binding), run.sampled),
    }


def _compile_time(run: _Run) -> dict[str, float]:
    """EBCheck, QPlan, prepare, verify and compile on shapes nobody has compiled."""
    access, repeats = run.inputs.access, run.repeats
    shapes = [cold_template(1000 + k) for k in range(repeats * 2)]
    symbolic = [shape.bind_symbolic()[0] for shape in shapes]
    rejected = unbounded_template().bind_symbolic()[0]
    plain, verifying = BoundedEngine(access), BoundedEngine(access)
    prepare_ms = 1e3 * _median_of(
        lambda shape: plain.prepare_query(shape, verify=False), shapes[:repeats])
    return {
        "core.ebcheck_ms": 1e3 * _median_of(lambda query: ebcheck(query, access), symbolic),
        "core.ebcheck_negative_ms": 1e3 * _median_of(
            lambda _: ebcheck(rejected, access), range(repeats)),
        "planning.qplan_ms": 1e3 * _median_of(lambda query: qplan(query, access), symbolic),
        "execution.prepare_ms": prepare_ms,
        "analysis.verify_ms": 1e3 * _median_of(
            lambda shape: verifying.prepare_query(shape, verify=True), shapes[repeats:]
        ) - prepare_ms,
        "execution.compile_ms": 1e3 * _median_of(
            lambda shape: compile_plan(plain.prepare_query(shape, verify=False).prepared.plan),
            shapes[:repeats]),
    }


def _write_paths(run: _Run) -> dict[str, float]:
    """The storage and relational write and index paths, on rows no read reaches."""
    access = run.inputs.access
    batches = [run.inputs.tail[k % len(run.inputs.tail)].rows for k in range(run.repeats)]
    storage_ms = 1e3 * _median_of(
        lambda rows: run.store.apply_writes(run.chain.batch(rows)), batches)
    run.store.apply_writes(run.chain.batch([]))

    database = load_database(run.inputs.rows)
    started = time.perf_counter()
    by_relation: dict[str, list] = {}
    for constraint in access:
        by_relation.setdefault(constraint.relation, []).append(
            (constraint.x, list(constraint.fetch_attributes)))
    for relation, specs in by_relation.items():
        database.build_indexes(relation, specs)
    index_build_s = time.perf_counter() - started
    anchor = next(c for c in access
                  if c.relation == "accident" and set(c.x) == {"date", "police_force"})
    index = database.find_index("accident", anchor.x, list(anchor.fetch_attributes))
    live: list[tuple] = []

    def write_directly(rows: list[tuple]) -> None:
        database.apply_writes(inserts={"vehicle": rows}, deletes={"vehicle": live})
        live[:] = rows

    return {
        "storage.apply_writes_ms": storage_ms,
        "relational.index_build_s": index_build_s,
        "relational.probe_us": 1e6 * _median_of(
            lambda read: index.probe(tuple(
                {"date": read.date, "police_force": read.force}[name] for name in anchor.x)),
            run.sampled),
        "relational.apply_writes_ms": 1e3 * _median_of(write_directly, batches),
    }


def run(inputs: Inputs, quick: bool) -> tuple[list[Metric], Tally]:
    """The traced run of one workload: returns every per-layer metric."""
    ops = (inputs.light + inputs.saturated)[:TRACED_OPERATIONS]
    traced = _Run(
        inputs=inputs, tier=set_up(inputs), tally=Tally(), tracer=Tracer(), chain=WriteChain(),
        ops=ops, reads=[op for op in ops if isinstance(op, Read)], repeats=2 if quick else REPEATS,
    )
    tracer = traced.tracer
    sharded = traced.tier.kind == "sharded"
    try:
        values, served = _tier_pass(traced, "sharding.run" if sharded else "service.run")
        # A layer the workload's tier never calls did no work: its metrics are 0.
        values.update({f"sharding.{name}": 0.0 for name in _SHARDING})
        if sharded:
            values.update(_sharding(traced, served))
        values.update(_service_saturated(traced))
        values.update(_direct_pass(traced))
        values.update(_compile_time(traced))
        values.update(_write_paths(traced))
    finally:
        traced.tier.close()
    values["service.run_us"] = 1e6 * statistics.median(tracer.durations("service.run"))
    values["service.submit_us"] = 1e6 * statistics.median(tracer.durations("service.submit"))
    values["service.overhead_us"] = values["service.run_us"] - values["execution.execute_us"]
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(TRACE_FILE)

    declared = {metric["name"]: metric["unit"] for metric in contract()["per_layer"]}
    if set(declared) != set(values):
        raise SystemExit(f"per-layer metrics differ from BENCHMARK.json: "
                         f"{sorted(set(declared) ^ set(values))}")
    return [Metric(name, float(values[name]), unit) for name, unit in declared.items()], traced.tally
