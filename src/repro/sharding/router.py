"""The sharded serving front-end: route, admit, dispatch, merge.

:class:`ShardedQueryService` is the process tier of the serving stack.  At
construction it slices the source data under a :class:`~repro.sharding.
partition.ShardMap` (partitioned relations bucketed by stable hash,
everything else replicated) and forks one shard worker process per bucket,
each running :func:`~repro.sharding.worker.shard_main` — a full
:class:`~repro.service.QueryService` over its slice.  At serving time the
router does, in order and **before any IPC**:

1. **routing analysis** — first use of a template resolves its
   :class:`~repro.sharding.partition.Route` (or raises a typed
   :class:`~repro.errors.ShardRoutingError`) and its
   :class:`~repro.analysis.bound.PlanCertificate`;
2. **certificate-based admission control** — the paper's a-priori Σ Mᵢ bound
   prices the request now: if the routed shard's in-flight certified bound
   would exceed ``max_inflight_bound``, the request is shed with
   :class:`~repro.errors.ServiceOverloadedError` without a byte crossing the
   pipe (cross-process round-trips are the expensive resource; the bound
   makes refusing them free);
3. **batched dispatch** — admitted requests ride per-shard FIFO outboxes; a
   sender thread coalesces consecutive requests into one
   :class:`~repro.sharding.messages.ExecuteBatch` envelope, amortizing the
   IPC round-trip;
4. **merge** — receiver threads resolve futures from
   :class:`~repro.sharding.messages.BatchDone` outcomes (results, or typed
   errors pickled back), accumulate execution stats across shards, and
   convert a dead pipe into :class:`~repro.errors.ShardCrashedError` on
   every in-flight request of that shard.

``stats()`` and ``describe()`` merge router counters with each live shard's
own service stats (an RPC with a timeout, so a wedged shard cannot wedge
monitoring); ``close()`` drains, ships ``Shutdown``, joins the worker
processes, and terminates stragglers so no orphan processes outlive the
router.
"""

from __future__ import annotations

import itertools
import multiprocessing
import queue
import threading
import time
from typing import Any, Callable, Iterable, Mapping

from ..access.schema import AccessSchema
from ..errors import (
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeout,
    ShardCrashedError,
)
from ..execution.engine import BoundedEngine
from ..execution.metrics import ExecutionResult, StatsAccumulator
from ..execution.prepared import PreparedQuery
from ..service.requests import ServiceFuture
from ..service.resilience import DegradedResult, ResiliencePolicy
from ..spc.parameters import ParameterizedQuery
from ..storage.base import StorageBackend, as_backend
from ..storage.writes import WriteBatch, as_write_batch
from .messages import (
    ApplyWrites,
    BatchDone,
    ExecuteBatch,
    RegisterTemplate,
    ShardFatal,
    ShardRequest,
    Shutdown,
    StatsReply,
    StatsRequest,
    WritesApplied,
)
from .partition import Route, ShardMap, resolve_route
from .worker import ShardConfig, shard_main

#: Default bound on pending (admitted, unresolved) requests per shard.
DEFAULT_MAX_PENDING = 1024
#: Default cap on requests coalesced into one ExecuteBatch envelope.
DEFAULT_MAX_BATCH = 16
#: Seconds a shard gets to exit after Shutdown before it is terminated.
_JOIN_TIMEOUT = 10.0

#: Sentinel distinguishing "argument omitted — use the service default" from
#: an explicit ``None`` (same convention as :class:`~repro.service.QueryService`).
_UNSET: Any = object()

#: Sender-thread stop sentinel (enqueued after the Shutdown envelope).
_STOP: Any = object()


class _Control:
    """A non-request outbox item: one control envelope to forward as-is."""

    __slots__ = ("message",)

    def __init__(self, message: Any) -> None:
        self.message = message


class _OutRequest:
    """One admitted request waiting in a shard outbox."""

    __slots__ = (
        "request_id",
        "template_id",
        "params",
        "deadline_at",
        "budget",
    )

    def __init__(
        self,
        request_id: int,
        template_id: int,
        params: Mapping[str, Any],
        deadline_at: float | None,
        budget: int | None,
    ) -> None:
        self.request_id = request_id
        self.template_id = template_id
        self.params = params
        self.deadline_at = deadline_at
        self.budget = budget


class _TemplateEntry:
    """Router-side knowledge about one template: plan, route, certified bound."""

    __slots__ = ("template_id", "template", "prepared", "route", "bound")

    def __init__(
        self,
        template_id: int,
        template: ParameterizedQuery,
        prepared: PreparedQuery,
        route: Route,
        bound: int,
    ) -> None:
        self.template_id = template_id
        self.template = template
        self.prepared = prepared
        self.route = route
        self.bound = bound


class _Pending:
    """One in-flight request's bookkeeping on the router side."""

    __slots__ = ("future", "shard", "bound")

    def __init__(self, future: ServiceFuture, shard: int, bound: int) -> None:
        self.future = future
        self.shard = shard
        self.bound = bound


class _ShardHandle:
    """The router's view of one shard worker: process, pipe, outbox, threads."""

    __slots__ = (
        "index",
        "process",
        "conn",
        "outbox",
        "sender",
        "receiver",
        "dead",
        "registered",
        "inflight_bound",
        "pending",
        "routed",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        self.process: Any = None
        self.conn: Any = None
        self.outbox: "queue.SimpleQueue[Any]" = queue.SimpleQueue()
        self.sender: threading.Thread | None = None
        self.receiver: threading.Thread | None = None
        self.dead = False
        #: Template ids already introduced to this shard.
        self.registered: set[int] = set()
        #: Sum of certified bounds of this shard's in-flight requests.
        self.inflight_bound = 0
        #: In-flight request count.
        self.pending = 0
        #: Lifetime requests routed here.
        self.routed = 0


class ShardedQueryService:
    """A multi-process sharded serving front-end (router + N shard workers).

    Parameters
    ----------
    source:
        Where the data lives: a workload, a database, or any storage backend
        exposing the uncounted :meth:`~repro.storage.base.StorageBackend.dump`
        export.  The router slices it once at construction; the shard
        children own their slices from then on.
    access_schema:
        The access schema to serve under (picked up from a workload source).
    shard_map:
        The placement scheme.  ``None``: replicate everything over ``shards``
        buckets (spread routing only).
    shards:
        Shard-process count when ``shard_map`` is ``None``; otherwise the
        map's ``num_shards`` wins.
    shard_workers:
        Worker *threads* inside each shard child (the thread tier composes
        under the process tier — useful when per-request cost is I/O-bound).
    max_pending:
        Per-shard cap on in-flight requests; beyond it submissions shed with
        :class:`~repro.errors.ServiceOverloadedError`.
    max_inflight_bound:
        Per-shard cap on the *sum of certified access bounds* in flight —
        the certificate-based admission control.  ``None``: unlimited.
    default_deadline / default_budget:
        Request defaults, as in :class:`~repro.service.QueryService`.
    max_batch:
        Cap on requests coalesced into one IPC envelope.
    resilience:
        Optional :class:`~repro.service.resilience.ResiliencePolicy`, shipped
        to **every shard child** — retries and circuit breakers run next to
        the data, per shard.
    wrap:
        Optional backend decorator applied inside each child (e.g.
        :class:`~repro.storage.cpuwork.CpuCostInjectingBackend` for honest
        load tests).  Under the ``spawn`` start method it must be a
        module-level callable.
    backend_kind:
        Storage substrate of each shard child: ``"memory"`` or ``"sqlite"``.
    start_method:
        :mod:`multiprocessing` start method (``None``: ``fork`` where
        available, else the platform default).

    Example
    -------
    ::

        shard_map = ShardMap.for_template(template, access_schema, num_shards=4)
        with ShardedQueryService(db, access_schema, shard_map=shard_map) as service:
            result = service.run(template, date="2019-03-07", force=21)
    """

    def __init__(
        self,
        source: Any,
        access_schema: AccessSchema | None = None,
        *,
        shard_map: ShardMap | None = None,
        shards: int = 2,
        shard_workers: int = 1,
        max_pending: int = DEFAULT_MAX_PENDING,
        max_inflight_bound: int | None = None,
        default_deadline: float | None = None,
        default_budget: int | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        resilience: ResiliencePolicy | None = None,
        wrap: Callable[[StorageBackend], StorageBackend] | None = None,
        backend_kind: str = "memory",
        start_method: str | None = None,
        engine: BoundedEngine | None = None,
    ) -> None:
        if shard_workers < 1:
            raise ServiceError(
                f"shard worker count must be positive, got {shard_workers}"
            )
        if max_batch < 1:
            raise ServiceError(f"max_batch must be positive, got {max_batch}")
        backend, resolved_schema = self._resolve_source(source, access_schema)
        if engine is not None:
            self.engine = engine
        else:
            if resolved_schema is None:
                raise ServiceError(
                    "ShardedQueryService needs an access schema: pass "
                    "access_schema=, an engine=, or a Workload source"
                )
            self.engine = BoundedEngine(resolved_schema)
        self.shard_map = shard_map if shard_map is not None else ShardMap(shards)
        self.shards = self.shard_map.num_shards
        self.shard_workers = shard_workers
        self.max_pending = max_pending
        self.max_inflight_bound = max_inflight_bound
        self.default_deadline = default_deadline
        self.default_budget = default_budget
        self.max_batch = max_batch

        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._intake_serial = itertools.count()
        self._template_serial = itertools.count()
        self._stats_serial = itertools.count()
        self._templates: dict[Any, _TemplateEntry] = {}
        self._pending: dict[int, _Pending] = {}
        self._stats_waiters: dict[int, tuple[threading.Event, list]] = {}
        self._write_serial = itertools.count()
        #: serial -> (event, outcome box, shard index); swept on shard death.
        self._write_waiters: dict[int, tuple[threading.Event, list, int]] = {}
        self._write_batches = 0
        self._rows_written = 0
        self._execution_stats = StatsAccumulator()
        self._submitted = 0
        self._completed = 0
        self._timeouts = 0
        self._failures = 0
        self._degraded = 0
        self._shed_by_bound = 0
        self._certified_bound_completed = 0
        self._closed = False
        self._shutdown = False

        # Fork the shard children *before* starting any router thread:
        # a forked child inherits only the forking thread, and must never
        # inherit a lock some other thread holds mid-operation.
        context = multiprocessing.get_context(
            start_method
            if start_method is not None
            else ("fork" if "fork" in multiprocessing.get_all_start_methods() else None)
        )
        slices = self._slice(backend)
        schema = backend.schema
        #: Kept for the write path: slicing a batch's partitioned relations
        #: needs each relation's attribute names for the partition key.
        self._db_schema = schema
        access = self.engine.access_schema
        self._handles = [_ShardHandle(index) for index in range(self.shards)]
        for handle in self._handles:
            parent_conn, child_conn = context.Pipe(duplex=True)
            config = ShardConfig(
                shard=handle.index,
                access_schema=access,
                db_schema=schema,
                relations=slices[handle.index],
                backend_kind=backend_kind,
                workers=shard_workers,
                max_batch=max_batch,
                resilience=resilience,
                wrap=wrap,
            )
            process = context.Process(
                target=shard_main,
                args=(config, child_conn),
                name=f"repro-shard-{handle.index}",
                daemon=True,
            )
            process.start()
            child_conn.close()
            handle.process = process
            handle.conn = parent_conn
        for handle in self._handles:
            handle.sender = threading.Thread(
                target=self._sender_loop,
                args=(handle,),
                name=f"repro-shard-sender-{handle.index}",
                daemon=True,
            )
            handle.receiver = threading.Thread(
                target=self._receiver_loop,
                args=(handle,),
                name=f"repro-shard-receiver-{handle.index}",
                daemon=True,
            )
            handle.sender.start()
            handle.receiver.start()

    @staticmethod
    def _resolve_source(
        source: Any, access_schema: AccessSchema | None
    ) -> tuple[StorageBackend, AccessSchema | None]:
        """Resolve ``source`` into a backend, picking up a workload's schema."""
        workload_schema = getattr(source, "access_schema", None)
        to_backend = getattr(source, "to_backend", None)
        if workload_schema is not None and to_backend is not None:
            return as_backend(to_backend("memory")), access_schema or workload_schema
        return as_backend(source), access_schema

    def _slice(self, backend: StorageBackend) -> list[dict[str, list]]:
        """Per-shard relation slices: partition buckets + shared replicas.

        Uses the uncounted :meth:`~repro.storage.base.StorageBackend.dump`
        export — slicing is data movement, not query answering, so the access
        counter stays untouched.  Replicated relations share one row list
        across all slices (copy-on-write under ``fork``).
        """
        slices: list[dict[str, list]] = [{} for _ in range(self.shards)]
        schema = backend.schema
        for relation in backend.relation_names():
            rows = backend.dump(relation)
            if self.shard_map.is_partitioned(relation):
                buckets = self.shard_map.slice_rows(
                    schema.relation(relation).attribute_names, relation, rows
                )
                for shard, bucket in enumerate(buckets):
                    slices[shard][relation] = bucket
            else:
                for shard in range(self.shards):
                    slices[shard][relation] = rows
        return slices

    # -- submission --------------------------------------------------------------------

    def submit(
        self,
        template: ParameterizedQuery,
        *,
        deadline: float | None = _UNSET,
        budget: int | None = _UNSET,
        **params: Any,
    ) -> ServiceFuture:
        """Route and admit one request; returns immediately with its future.

        Admission happens entirely router-side, before any IPC: template
        registration resolves the route and the plan certificate (typed
        errors — :class:`~repro.errors.ShardRoutingError`,
        :class:`~repro.errors.PlanVerificationError` — raise synchronously),
        parameter binding validates names and equated slots, and the routed
        shard's certificate budget and pending cap decide shed-or-admit.

        Raises
        ------
        ~repro.errors.ServiceClosedError
            When the service has been closed.
        ~repro.errors.ServiceOverloadedError
            When the routed shard's pending cap or certified in-flight bound
            would be exceeded (load shedding, priced by the certificate).
        ~repro.errors.ShardCrashedError
            When the routed shard's worker process has died.

        Thread-safe.
        """
        return self._admit(template, params, deadline, budget)

    def submit_many(
        self,
        template: ParameterizedQuery,
        bindings: Iterable[Mapping[str, Any]],
        *,
        deadline: float | None = _UNSET,
        budget: int | None = _UNSET,
    ) -> list[ServiceFuture]:
        """Admit a batch of bindings; one future per binding, in order."""
        return [
            self._admit(template, dict(binding), deadline, budget)
            for binding in bindings
        ]

    def run(
        self,
        template: ParameterizedQuery,
        *,
        deadline: float | None = _UNSET,
        budget: int | None = _UNSET,
        **params: Any,
    ) -> ExecutionResult:
        """Synchronous convenience: :meth:`submit` and wait for the answer."""
        return self.submit(
            template, deadline=deadline, budget=budget, **params
        ).result()

    def run_many(
        self,
        template: ParameterizedQuery,
        bindings: Iterable[Mapping[str, Any]],
        *,
        deadline: float | None = _UNSET,
        budget: int | None = _UNSET,
    ) -> list[ExecutionResult]:
        """Submit a batch and wait for every answer, in binding order."""
        futures = self.submit_many(template, bindings, deadline=deadline, budget=budget)
        return [future.result() for future in futures]

    # -- the write path ----------------------------------------------------------------

    def apply_writes(
        self,
        batch: WriteBatch | None = None,
        *,
        inserts: Mapping[str, Iterable[Any]] | None = None,
        deletes: Mapping[str, Iterable[Any]] | None = None,
        timeout: float = 30.0,
    ) -> dict[str, tuple[int, int]]:
        """Commit one write batch across the shard fleet, synchronously.

        The router slices the batch the same way it sliced the data at
        construction — rows of a partitioned relation go only to the shard
        their partition key hashes to; rows of a replicated relation fan out
        to every shard — and ships each shard its slice as an
        :class:`~repro.sharding.messages.ApplyWrites` envelope on the same
        FIFO outbox as queries, so per shard a write is ordered exactly
        between the requests admitted before and after it.  Each shard child
        commits its slice through its own service (atomic version bump,
        incremental index maintenance, stale-answer invalidation next to the
        data).  The router's own engine holds only templates, routes and
        certificates — analysis of the query and the access schema — so a
        write leaves it as it is.

        Returns the merged logical per-relation ``(inserted, deleted)``
        counts: summed across shards for partitioned relations, the per-shard
        count (they are identical replicas) for replicated ones.

        Raises
        ------
        ~repro.errors.ShardCrashedError
            When a routed shard died before acknowledging; surviving shards
            have still committed their slices (each slice is atomic locally;
            there is no cross-shard transaction).
        ~repro.errors.ServiceTimeout
            When a shard does not acknowledge within ``timeout`` seconds.
        """
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed; no writes accepted")
        resolved = as_write_batch(batch, inserts=inserts, deletes=deletes)
        if not resolved:
            return {}
        shard_batches = self._shard_batches(resolved)
        waiters: list[tuple[_ShardHandle, int, threading.Event, list]] = []
        failures: list[BaseException] = []
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is closed; no writes accepted")
            for handle, shard_batch in zip(self._handles, shard_batches):
                if shard_batch is None:
                    continue
                if handle.dead:
                    failures.append(
                        ShardCrashedError(
                            f"shard {handle.index} worker process is dead; its "
                            f"slice of the write batch was not applied",
                            shard=handle.index,
                        )
                    )
                    continue
                serial = next(self._write_serial)
                event: threading.Event = threading.Event()
                box: list = []
                self._write_waiters[serial] = (event, box, handle.index)
                handle.outbox.put(_Control(ApplyWrites(serial, shard_batch)))
                waiters.append((handle, serial, event, box))
        merged: dict[str, tuple[int, int]] = {}
        deadline_at = time.monotonic() + timeout
        for handle, serial, event, box in waiters:
            remaining = max(0.0, deadline_at - time.monotonic())
            if not event.wait(remaining):
                with self._lock:
                    self._write_waiters.pop(serial, None)
                failures.append(
                    ServiceTimeout(
                        f"shard {handle.index} did not acknowledge write batch "
                        f"#{serial} within {timeout}s",
                        limit=timeout,
                    )
                )
                continue
            outcome = box[0]
            if isinstance(outcome, BaseException):
                failures.append(outcome)
                continue
            for relation, (inserted, deleted) in outcome.items():
                if self.shard_map.is_partitioned(relation):
                    old = merged.get(relation, (0, 0))
                    merged[relation] = (old[0] + inserted, old[1] + deleted)
                else:
                    # Replicas apply identical slices; keep the largest ack so
                    # one straggler/crash cannot under-report the logical count.
                    old = merged.get(relation, (0, 0))
                    merged[relation] = (max(old[0], inserted), max(old[1], deleted))
        with self._lock:
            self._write_batches += 1
            self._rows_written += sum(
                inserted + deleted for inserted, deleted in merged.values()
            )
        if failures:
            raise failures[0]
        return merged

    def _shard_batches(self, batch: WriteBatch) -> list[WriteBatch | None]:
        """Slice one batch into per-shard batches (``None``: nothing for it).

        Partitioned relations bucket by the stable hash of the partition key
        (the same :meth:`~repro.sharding.partition.ShardMap.slice_rows` that
        placed the data, so writes land where reads route); replicated
        relations fan out whole.  Unknown relations raise router-side, before
        any IPC.
        """
        shard_inserts: list[dict[str, tuple]] = [{} for _ in range(self.shards)]
        shard_deletes: list[dict[str, tuple]] = [{} for _ in range(self.shards)]
        for rows_by_relation, per_shard in (
            (batch.inserts, shard_inserts),
            (batch.deletes, shard_deletes),
        ):
            for relation, rows in rows_by_relation.items():
                attributes = self._db_schema.relation(relation).attribute_names
                if self.shard_map.is_partitioned(relation):
                    buckets = self.shard_map.slice_rows(attributes, relation, rows)
                    for shard, bucket in enumerate(buckets):
                        if bucket:
                            per_shard[shard][relation] = tuple(bucket)
                else:
                    for shard in range(self.shards):
                        per_shard[shard][relation] = rows
        return [
            WriteBatch(inserts=inserts, deletes=deletes) if inserts or deletes else None
            for inserts, deletes in zip(shard_inserts, shard_deletes)
        ]

    def _admit(
        self,
        template: ParameterizedQuery,
        params: Mapping[str, Any],
        deadline: float | None,
        budget: int | None,
    ) -> ServiceFuture:
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "service is closed; no new requests admitted"
                )
        entry = self._template_entry(template)
        # Binding validation is router-side and synchronous: unknown/missing
        # parameter names and contradictory equated slots reject here, and
        # the bound slot values drive the routing hash.
        slot_values = entry.prepared.prepared.bind_values(params)
        shard = entry.route.shard_for(self.shard_map, slot_values)
        if deadline is _UNSET:
            deadline = self.default_deadline
        if budget is _UNSET:
            budget = self.default_budget
        handle = self._handles[shard]
        with self._lock:
            if self._closed:
                raise ServiceClosedError(
                    "service is closed; no new requests admitted"
                )
            if handle.dead:
                raise ShardCrashedError(
                    f"shard {shard} worker process has died; requests routed "
                    f"to it are refused (exit code "
                    f"{handle.process.exitcode!r})",
                    shard=shard,
                )
            if handle.pending >= self.max_pending:
                raise ServiceOverloadedError(
                    f"shard {shard} has {handle.pending} requests in flight "
                    f"(max_pending={self.max_pending}); request rejected — "
                    f"retry with backoff or raise max_pending"
                )
            if (
                self.max_inflight_bound is not None
                and handle.inflight_bound + entry.bound > self.max_inflight_bound
            ):
                self._shed_by_bound += 1
                raise ServiceOverloadedError(
                    f"shard {shard} certified access bound in flight "
                    f"({handle.inflight_bound}) + this request's certificate "
                    f"({entry.bound}) exceeds max_inflight_bound="
                    f"{self.max_inflight_bound}; request shed before dispatch"
                )
            request_id = next(self._intake_serial)
            future = ServiceFuture(request_id)
            self._pending[request_id] = _Pending(future, shard, entry.bound)
            handle.pending += 1
            handle.inflight_bound += entry.bound
            handle.routed += 1
            self._submitted += 1
            if entry.template_id not in handle.registered:
                handle.registered.add(entry.template_id)
                handle.outbox.put(
                    _Control(RegisterTemplate(entry.template_id, entry.template))
                )
            handle.outbox.put(
                _OutRequest(
                    request_id=request_id,
                    template_id=entry.template_id,
                    params=dict(params),
                    deadline_at=(
                        None if deadline is None else time.monotonic() + deadline
                    ),
                    budget=budget,
                )
            )
        return future

    def _template_entry(self, template: ParameterizedQuery) -> _TemplateEntry:
        """The router's entry for ``template``, resolving route + certificate once.

        Preparation runs through the router's own engine (cached by plan
        key), the verifier attaches the :class:`~repro.analysis.bound.
        PlanCertificate`, and the routing analysis proves the template safe
        under the shard map — all before the first request is dispatched.
        """
        key = template.plan_key()
        with self._lock:
            entry = self._templates.get(key)
        if entry is not None:
            return entry
        prepared = self.engine.prepare_query(template)
        route = resolve_route(prepared.prepared, self.shard_map)
        certificate = prepared.certificate
        bound = (
            certificate.total_bound
            if certificate is not None and certificate.total_bound is not None
            else prepared.total_bound
        )
        with self._lock:
            entry = self._templates.get(key)
            if entry is None:
                entry = _TemplateEntry(
                    template_id=next(self._template_serial),
                    template=template,
                    prepared=prepared,
                    route=route,
                    bound=bound,
                )
                self._templates[key] = entry
        return entry

    # -- sender / receiver threads -------------------------------------------------------

    def _sender_loop(self, handle: _ShardHandle) -> None:
        """Drain the shard outbox, coalescing request runs into batches."""
        while True:
            item = handle.outbox.get()
            if item is _STOP:
                return
            batch = [item]
            while len(batch) < self.max_batch:
                try:
                    extra = handle.outbox.get_nowait()
                except queue.Empty:
                    break
                if extra is _STOP:
                    self._flush(handle, batch)
                    return
                batch.append(extra)
            self._flush(handle, batch)

    def _flush(self, handle: _ShardHandle, items: list[Any]) -> None:
        """Send one outbox drain: runs of requests become ExecuteBatch envelopes."""
        run: list[ShardRequest] = []
        for item in items:
            if isinstance(item, _OutRequest):
                prepared = self._prepare_send(handle, item)
                if prepared is not None:
                    run.append(prepared)
                continue
            if run:
                self._send(handle, ExecuteBatch(tuple(run)))
                run = []
            self._send(handle, item.message)
        if run:
            self._send(handle, ExecuteBatch(tuple(run)))

    def _prepare_send(
        self, handle: _ShardHandle, item: _OutRequest
    ) -> ShardRequest | None:
        """Convert an outbox request to its wire form, or expire it in place.

        Deadlines cross the boundary as *remaining seconds* (monotonic clocks
        are per-process); a request already past its deadline resolves to
        :class:`~repro.errors.ServiceTimeout` here, without paying the IPC.
        A request bound for a dead shard resolves to
        :class:`~repro.errors.ShardCrashedError`.
        """
        if handle.dead:
            self._resolve(
                item.request_id,
                error=ShardCrashedError(
                    f"shard {handle.index} worker process died before request "
                    f"#{item.request_id} was dispatched",
                    shard=handle.index,
                ),
            )
            return None
        remaining = None
        if item.deadline_at is not None:
            remaining = item.deadline_at - time.monotonic()
            if remaining <= 0:
                self._resolve(
                    item.request_id,
                    error=ServiceTimeout(
                        f"request #{item.request_id} expired in the router "
                        f"outbox before dispatch",
                        deadline=item.deadline_at,
                    ),
                )
                return None
        return ShardRequest(
            request_id=item.request_id,
            template_id=item.template_id,
            params=item.params,
            deadline_seconds=remaining,
            budget=item.budget,
        )

    def _send(self, handle: _ShardHandle, envelope: Any) -> None:
        """One pipe send; a broken pipe marks the shard dead."""
        if handle.dead and not isinstance(envelope, Shutdown):
            return
        try:
            handle.conn.send(envelope)
        except (OSError, ValueError, BrokenPipeError) as error:
            self._shard_died(handle, error)

    def _receiver_loop(self, handle: _ShardHandle) -> None:
        """Resolve futures from shard replies; a dead pipe fails the in-flight."""
        while True:
            try:
                message = handle.conn.recv()
            except (EOFError, OSError) as error:
                self._shard_died(handle, error)
                return
            if isinstance(message, BatchDone):
                for outcome in message.outcomes:
                    self._resolve(
                        outcome.request_id,
                        result=outcome.result,
                        error=outcome.error,
                    )
            elif isinstance(message, WritesApplied):
                self._deliver_write_ack(message)
            elif isinstance(message, StatsReply):
                self._deliver_stats(message)
            elif isinstance(message, ShardFatal):
                self._shard_died(handle, message.error)
                return

    def _resolve(
        self,
        request_id: int,
        result: Any | None = None,
        error: BaseException | None = None,
    ) -> None:
        """Finish one request: release its admission charge, settle its future."""
        with self._idle:
            pending = self._pending.pop(request_id, None)
            if pending is None:
                return  # already failed by a shard-death sweep
            handle = self._handles[pending.shard]
            handle.pending -= 1
            handle.inflight_bound -= pending.bound
            if error is not None:
                if isinstance(error, ServiceTimeout):
                    self._timeouts += 1
                else:
                    self._failures += 1
            elif isinstance(result, DegradedResult):
                self._degraded += 1
            else:
                self._completed += 1
                self._certified_bound_completed += pending.bound
            if not self._pending:
                self._idle.notify_all()
        if error is not None:
            pending.future._fail(error)
        else:
            if isinstance(result, ExecutionResult):
                self._execution_stats.merge(result.stats)
            pending.future._resolve(result)

    def _shard_died(self, handle: _ShardHandle, error: Any = None) -> None:
        """Mark a shard dead and fail everything in flight on it, typed."""
        with self._idle:
            if handle.dead:
                return
            handle.dead = True
            expected = self._shutdown
            victims = [
                request_id
                for request_id, pending in self._pending.items()
                if pending.shard == handle.index
            ]
            # Fail write acks waiting on this shard now, typed — a crashed
            # shard must never leave apply_writes hanging until its timeout.
            doomed_writes = [
                serial
                for serial, (_, _, shard) in self._write_waiters.items()
                if shard == handle.index
            ]
            for serial in doomed_writes:
                event, box, _shard = self._write_waiters.pop(serial)
                box.append(
                    ShardCrashedError(
                        f"shard {handle.index} worker process died before "
                        f"acknowledging write batch #{serial}; its slice may "
                        f"not have been applied",
                        shard=handle.index,
                    )
                )
                event.set()
            self._idle.notify_all()
        if expected and not victims:
            return
        cause = f": {error!r}" if error is not None else ""
        for request_id in victims:
            self._resolve(
                request_id,
                error=ShardCrashedError(
                    f"shard {handle.index} worker process died with request "
                    f"#{request_id} in flight{cause}",
                    shard=handle.index,
                ),
            )

    def _deliver_write_ack(self, reply: WritesApplied) -> None:
        """Wake the apply_writes caller waiting on this serial's outcome."""
        with self._lock:
            waiter = self._write_waiters.pop(reply.serial, None)
        if waiter is not None:
            event, box, _shard = waiter
            box.append(
                reply.error if reply.error is not None else dict(reply.counts or {})
            )
            event.set()

    def _deliver_stats(self, reply: StatsReply) -> None:
        with self._lock:
            waiter = self._stats_waiters.pop(reply.serial, None)
        if waiter is not None:
            event, box = waiter
            box.append(dict(reply.stats))
            event.set()

    # -- lifecycle ---------------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop the service and reap every shard worker process.

        With ``drain=True`` (default) in-flight requests are served first;
        with ``drain=False`` they fail immediately with
        :class:`~repro.errors.ServiceClosedError`.  Then every shard gets a
        ``Shutdown`` envelope, its process is joined, and a straggler is
        terminated — after ``close()`` returns no shard process is alive, so
        a router can never leak orphans.  Idempotent; thread-safe.
        """
        with self._idle:
            already = self._shutdown
            self._closed = True
            self._shutdown = True
        if already:
            return
        if drain:
            with self._idle:
                while self._pending and not all(h.dead for h in self._handles):
                    self._idle.wait(timeout=0.05)
        else:
            with self._idle:
                victims = list(self._pending)
            for request_id in victims:
                self._resolve(
                    request_id,
                    error=ServiceClosedError("service closed before execution"),
                )
        for handle in self._handles:
            handle.outbox.put(_Control(Shutdown(drain)))
            handle.outbox.put(_STOP)
        for handle in self._handles:
            if handle.sender is not None:
                handle.sender.join()
        for handle in self._handles:
            process = handle.process
            process.join(timeout=_JOIN_TIMEOUT)
            if process.is_alive():
                process.terminate()
                process.join(timeout=_JOIN_TIMEOUT)
            try:
                handle.conn.close()
            except OSError:
                pass  # already closed by the receiver's EOF path
        for handle in self._handles:
            if handle.receiver is not None:
                handle.receiver.join(timeout=_JOIN_TIMEOUT)

    def __enter__(self) -> "ShardedQueryService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- monitoring --------------------------------------------------------------------

    def stats(self, shard_timeout: float | None = 2.0) -> dict[str, Any]:
        """Merged router + per-shard counters.

        Router-side: admission counters, routing spread, in-flight certified
        bounds, and the aggregate execution stats of every merged result
        (``execution.tuples_accessed`` is the cross-shard total charge).
        Per-shard: each live worker's own ``QueryService.stats()`` snapshot,
        fetched over the pipe with ``shard_timeout`` seconds patience
        (``shard_timeout=None`` skips the RPC).  Thread-safe.
        """
        with self._lock:
            snapshot: dict[str, Any] = {
                "shards": self.shards,
                "shard_workers": self.shard_workers,
                "submitted": self._submitted,
                "completed": self._completed,
                "timeouts": self._timeouts,
                "failures": self._failures,
                "degraded": self._degraded,
                "pending": len(self._pending),
                "write_batches": self._write_batches,
                "rows_written": self._rows_written,
                "shed_by_bound": self._shed_by_bound,
                "certified_bound_completed": self._certified_bound_completed,
                "routed": {
                    handle.index: handle.routed for handle in self._handles
                },
                "inflight_bound": {
                    handle.index: handle.inflight_bound for handle in self._handles
                },
            }
        snapshot["execution"] = self._execution_stats.summary()
        if shard_timeout is not None:
            snapshot["per_shard"] = self.shard_stats(timeout=shard_timeout)
        return snapshot

    def shard_stats(self, timeout: float = 2.0) -> dict[int, dict[str, Any]]:
        """Each shard worker's own stats snapshot, over the pipe.

        A dead shard reports ``{"alive": False}``; a shard that cannot answer
        within ``timeout`` seconds (e.g. wedged behind a long batch) reports
        ``{"alive": True, "timeout": True}`` — monitoring never wedges with
        it.
        """
        waiters: list[tuple[_ShardHandle, threading.Event, list]] = []
        with self._lock:
            shutdown = self._shutdown
        for handle in self._handles:
            if handle.dead or shutdown:
                continue
            event: threading.Event = threading.Event()
            box: list = []
            serial = next(self._stats_serial)
            with self._lock:
                self._stats_waiters[serial] = (event, box)
            handle.outbox.put(_Control(StatsRequest(serial)))
            waiters.append((handle, event, box))
        report: dict[int, dict[str, Any]] = {}
        for handle in self._handles:
            if handle.dead or shutdown:
                report[handle.index] = {"alive": False}
        deadline = time.monotonic() + timeout
        for handle, event, box in waiters:
            remaining = max(0.0, deadline - time.monotonic())
            if event.wait(remaining) and box:
                stats = box[0]
                stats["alive"] = True
                report[handle.index] = stats
            elif handle.dead:
                report[handle.index] = {"alive": False}
            else:
                report[handle.index] = {"alive": True, "timeout": True}
        return report

    def describe(self) -> str:
        """Human-readable merged service report (router + every shard)."""
        stats = self.stats()
        execution = stats["execution"]
        lines = [
            f"ShardedQueryService: {stats['shards']} shard processes x "
            f"{stats['shard_workers']} workers, "
            f"{stats['submitted']} submitted, {stats['completed']} completed, "
            f"{stats['timeouts']} timeouts, {stats['failures']} failures, "
            f"{stats['pending']} pending",
            f"  admission: {stats['shed_by_bound']} shed by certified bound; "
            f"completed certificates sum to "
            f"{stats['certified_bound_completed']} tuples",
            f"  tuples accessed: {execution['tuples_accessed']} "
            f"over {execution['requests']} executions (all shards)",
        ]
        routed = stats["routed"]
        per_shard = stats.get("per_shard", {})
        for index in sorted(routed):
            shard_info = per_shard.get(index, {})
            if not shard_info.get("alive", True):
                lines.append(f"  shard {index}: DEAD ({routed[index]} routed)")
                continue
            shard_execution = shard_info.get("execution", {})
            lines.append(
                f"  shard {index}: {routed[index]} routed, "
                f"{shard_info.get('completed', '?')} completed, "
                f"{shard_execution.get('tuples_accessed', '?')} tuples accessed, "
                f"{shard_info.get('batches', '?')} micro-batches"
            )
        return "\n".join(lines)

    def __repr__(self) -> str:
        with self._lock:
            served = self._completed
            submitted = self._submitted
            closed = self._closed
        return (
            f"ShardedQueryService({self.shards} shards, "
            f"{served}/{submitted} served"
            f"{', closed' if closed else ''})"
        )
