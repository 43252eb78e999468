"""The concurrent query service: a thread-safe, multi-worker serving front-end.

The ROADMAP's north star is a system that serves heavy traffic, and the
engine alone is a library, not a server: callers must thread requests through
``prepare_query`` / ``execute`` themselves, and nothing arbitrates between
concurrent callers.  :class:`QueryService` is that missing layer:

* **admission control** — a bounded queue; a full queue rejects at
  submission time (:class:`~repro.errors.ServiceOverloadedError`) instead of
  growing without bound;
* **per-request deadline and access budget** — carried as
  :class:`~repro.execution.metrics.ExecutionLimits` and enforced by the
  compiled runtime *between* fetch steps, so an expired request resolves to
  a typed :class:`~repro.errors.ServiceTimeout`, never a half-built row set,
  and the access counter never exceeds the budget;
* **micro-batching** — a worker taking a request also drains every queued
  request bound from the same template, resolving the compiled plan once for
  the whole batch;
* **a worker pool** — N threads sharing one engine (whose caches are
  lock-guarded), one executor (whose prepare path is serialized), and one
  backend (SQLite stores pool a connection per worker thread).

The paper's contract is what makes this shape work: every request's cost is
bounded a priori by its plan, so a fixed worker pool over an admission queue
yields predictable capacity — ``workers / (per-request bound x per-tuple
cost)`` requests per second, independent of ``|D|``.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Iterable, Mapping

from ..access.schema import AccessSchema
from ..errors import (
    DeadlineExceededError,
    ServiceClosedError,
    ServiceError,
    ServiceOverloadedError,
    ServiceTimeout,
    StorageUnavailableError,
    TransientStorageError,
)
from ..execution.cache import LRUCache
from ..execution.engine import BoundedEngine
from ..execution.metrics import ExecutionLimits, ExecutionResult, StatsAccumulator
from ..execution.prepared import PreparedQuery
from ..spc.parameters import ParameterizedQuery
from ..storage.base import StorageBackend, as_backend
from ..storage.writes import WriteBatch, as_write_batch
from .queue import AdmissionQueue
from .requests import ServiceFuture, ServiceRequest
from .resilience import BreakerBoard, DegradedResult, ResiliencePolicy

#: Default bound on pending (admitted, unserved) requests.
DEFAULT_MAX_PENDING = 1024
#: Default cap on how many same-template requests one worker takes at once.
DEFAULT_MAX_BATCH = 16

#: Sentinel distinguishing "argument omitted — use the service default" from
#: an explicit ``None`` ("no deadline / no budget for this request").
_UNSET: Any = object()


class QueryService:
    """A multi-worker, thread-safe serving front-end over the bounded engine.

    Parameters
    ----------
    source:
        Where the data lives: a :class:`~repro.workloads.base.Workload` (its
        access schema is used and its default-scale instance is generated), a
        :class:`~repro.relational.database.Database`, or any
        :class:`~repro.storage.base.StorageBackend` (e.g. a
        :class:`~repro.storage.sqlite.SQLiteBackend` for out-of-core serving).
    access_schema:
        The access schema to serve under.  Required unless ``source`` is a
        workload (which carries one) or ``engine`` is given.
    workers:
        Worker-thread count.  Workers overlap storage waits (SQLite releases
        the GIL during statement execution; remote stores wait on I/O), so
        throughput scales with workers until the Python-side cost saturates
        a core.
    max_pending:
        Admission-queue capacity; offers beyond it raise
        :class:`~repro.errors.ServiceOverloadedError`.
    default_deadline:
        Seconds each request may spend queued + executing before it resolves
        to :class:`~repro.errors.ServiceTimeout` (``None``: no deadline).
    default_budget:
        Per-request tuple-access budget (``None``: the plan's own bound).
    max_batch:
        Micro-batch cap: how many same-template requests one worker serves
        per queue take.
    resilience:
        Optional :class:`~repro.service.resilience.ResiliencePolicy`: retries
        for transient storage faults (charge-safe — a retried attempt's
        counter charges are rolled back, so measured accesses stay within the
        plan's Σ Mᵢ bound), per-relation circuit breakers, and opt-in graceful
        degradation (stale or partial answers as
        :class:`~repro.service.resilience.DegradedResult`).  ``None``
        (default): every storage fault surfaces as its typed error.

    Thread safety: every public method may be called from any thread.

    Example
    -------
    >>> from repro.relational import Database
    >>> from repro.spc import ParameterizedQuery
    >>> from repro.workloads import query_q1, social_access_schema, social_schema
    >>> db = Database(social_schema())
    >>> db.extend("in_album", [("p1", "a0")])
    >>> db.extend("friends", [("u0", "u1")])
    >>> db.extend("tagging", [("p1", "u1", "u0")])
    >>> q1 = query_q1()
    >>> template = ParameterizedQuery(
    ...     q1, {"album": q1.ref("ia", "album_id"), "user": q1.ref("f", "user_id")})
    >>> with QueryService(db, social_access_schema(), workers=2) as service:
    ...     future = service.submit(template, album="a0", user="u0")
    ...     future.result().tuples
    [('p1',)]
    """

    def __init__(
        self,
        source: Any,
        access_schema: AccessSchema | None = None,
        *,
        workers: int = 2,
        max_pending: int = DEFAULT_MAX_PENDING,
        default_deadline: float | None = None,
        default_budget: int | None = None,
        max_batch: int = DEFAULT_MAX_BATCH,
        engine: BoundedEngine | None = None,
        resilience: ResiliencePolicy | None = None,
    ) -> None:
        if workers < 1:
            raise ServiceError(f"worker count must be positive, got {workers}")
        if max_batch < 1:
            raise ServiceError(f"max_batch must be positive, got {max_batch}")
        self.backend, resolved_schema = self._resolve_source(source, access_schema)
        if engine is not None:
            self.engine = engine
        else:
            if resolved_schema is None:
                raise ServiceError(
                    "QueryService needs an access schema: pass access_schema=, "
                    "an engine=, or a Workload source"
                )
            self.engine = BoundedEngine(resolved_schema)
        self.workers = workers
        self.default_deadline = default_deadline
        self.default_budget = default_budget
        self.max_batch = max_batch
        self._queue = AdmissionQueue(max_pending)
        self._execution_stats = StatsAccumulator()
        self._stats_lock = threading.Lock()
        #: Atomic request serials; rejected submissions leave gaps, so a
        #: serial is a label, never an admitted-count.
        self._intake_serial = itertools.count()
        self._submitted = 0
        self._completed = 0
        self._timeouts = 0
        self._failures = 0
        self._batches = 0
        self._largest_batch = 0
        self._degraded = 0
        self._write_batches = 0
        self._rows_written = 0
        self._closed = False
        self.resilience = resilience
        self._breakers = (
            BreakerBoard(resilience.breaker)
            if resilience is not None and resilience.breaker is not None
            else None
        )
        degradation = resilience.degradation if resilience is not None else None
        self._stale_cache = (
            LRUCache(degradation.cache_size, name="stale-answers")
            if degradation is not None and degradation.serve_stale
            else None
        )
        #: Set by ``close(drain=False)``: wakes workers out of retry-backoff
        #: sleeps immediately, so closing never waits out a backoff window.
        self._interrupt = threading.Event()
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                name=f"repro-service-worker-{worker}",
                daemon=True,
            )
            for worker in range(workers)
        ]
        for thread in self._threads:
            thread.start()

    @staticmethod
    def _resolve_source(
        source: Any, access_schema: AccessSchema | None
    ) -> tuple[StorageBackend, AccessSchema | None]:
        """Turn ``source`` into a backend, picking up a workload's access schema."""
        workload_schema = getattr(source, "access_schema", None)
        to_backend = getattr(source, "to_backend", None)
        if workload_schema is not None and to_backend is not None:
            # A Workload: generate its default-scale instance in memory.
            return as_backend(to_backend("memory")), access_schema or workload_schema
        return as_backend(source), access_schema

    # -- submission ------------------------------------------------------------------

    def submit(
        self,
        template: ParameterizedQuery,
        *,
        deadline: float | None = _UNSET,
        budget: int | None = _UNSET,
        **params: Any,
    ) -> ServiceFuture:
        """Admit one request; returns immediately with its future.

        Parameters
        ----------
        template:
            The parameterized query to bind.  Unknown or missing parameter
            names are rejected synchronously with
            :class:`~repro.errors.QueryError` (admission-time validation).
        deadline:
            Seconds from now before the request times out.  Omitted: the
            service default applies; an explicit ``None`` disables the
            deadline for this request.
        budget:
            Tuple-access budget for this request.  Omitted: the service
            default; explicit ``None``: no budget.
        params:
            One value per template parameter.

        Returns
        -------
        ServiceFuture
            Resolves to the :class:`~repro.execution.metrics.ExecutionResult`
            or to a typed error — :class:`~repro.errors.ServiceTimeout`,
            :class:`~repro.errors.BudgetExceededError`, ...

        Raises
        ------
        ~repro.errors.ServiceClosedError
            When the service has been closed.
        ~repro.errors.ServiceOverloadedError
            When the admission queue is full (load shedding).

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
        """Admit a batch of bindings of one template; one future per binding.

        Enqueued back-to-back, the batch is the ideal micro-batching shape:
        workers will drain same-template runs of it in single queue takes.
        Thread-safe.
        """
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

    def _admit(
        self,
        template: ParameterizedQuery,
        params: Mapping[str, Any],
        deadline: float | None,
        budget: int | None,
    ) -> ServiceFuture:
        template.check_names(params)
        if deadline is _UNSET:
            deadline = self.default_deadline
        if budget is _UNSET:
            budget = self.default_budget
        with self._stats_lock:
            if self._closed:
                raise ServiceClosedError(
                    "service is closed; no new requests admitted"
                )
            # Count the admission *before* the offer, under the same lock as
            # the closed check: a worker can serve the request (bumping
            # ``completed``) before this thread would otherwise get around
            # to counting it, letting monitors observe completed > submitted.
            self._submitted += 1
        index = next(self._intake_serial)
        request = ServiceRequest(
            index=index,
            template=template,
            params=params,
            plan_key=template.plan_key(),
            deadline_at=None if deadline is None else time.monotonic() + deadline,
            budget=budget,
            future=ServiceFuture(index),
        )
        if not self._queue.offer(request):
            # Roll the pre-count back so ``submitted`` still means
            # *admitted*: submitted ==
            #     completed + timeouts + failures + degraded + pending.
            with self._stats_lock:
                self._submitted -= 1
                closed = self._closed
            if closed:
                raise ServiceClosedError("service is closed; no new requests admitted")
            raise ServiceOverloadedError(
                f"admission queue full ({self._queue.capacity} pending requests); "
                f"request rejected — retry with backoff or raise max_pending"
            )
        return request.future

    # -- the write path ----------------------------------------------------------------

    def apply_writes(
        self,
        batch: WriteBatch | None = None,
        *,
        inserts: Mapping[str, Iterable[Any]] | None = None,
        deletes: Mapping[str, Iterable[Any]] | None = None,
    ) -> dict[str, tuple[int, int]]:
        """Commit one atomic write batch; the engine's compilations survive it.

        The batch commits through the backend (one ``data_version`` bump; on
        the in-memory store O(|batch| x indexes on the written relations)).
        What a write invalidates is what holds *data*: the executor's index
        snapshot is version-stamped and re-bound on the next request (only
        the written relations' views), and the graceful-degradation
        stale-answer cache drops its entries over the touched relations.
        What it does not touch is analysis — plans, negative EBCheck
        verdicts, prepared templates and their certificates depend on the
        query and the access schema only.  In-flight requests are unaffected
        — each one reads the consistent version it bound
        (``details["data_version"]``).

        Returns the backend's per-relation ``(inserted, deleted)`` counts.
        Thread-safe; may be called concurrently with query traffic.
        """
        with self._stats_lock:
            if self._closed:
                raise ServiceClosedError("service is closed; no writes accepted")
        resolved = as_write_batch(batch, inserts=inserts, deletes=deletes)
        if not resolved:
            return {}
        counts = self.backend.apply_writes(resolved)
        if counts:
            self._committed(counts, sum(i + d for i, d in counts.values()))
        return counts

    def insert(self, relation: str, rows: Iterable[Any]) -> int:
        """Insert ``rows`` into ``relation`` as one batch; returns the count."""
        counts = self.apply_writes(inserts={relation: [tuple(row) for row in rows]})
        return counts.get(relation, (0, 0))[0]

    def delete(self, relation: str, rows_or_predicate: Any) -> int:
        """Delete rows (every stored copy) by explicit list or predicate.

        A callable predicate is evaluated by the backend under its write
        exclusion, so no row can slip between the match and the removal.
        Returns the number of rows removed.
        """
        with self._stats_lock:
            if self._closed:
                raise ServiceClosedError("service is closed; no writes accepted")
        if callable(rows_or_predicate):
            removed = self.backend.delete(relation, rows_or_predicate)
            if removed:
                self._committed((relation,), removed)
            return removed
        counts = self.apply_writes(
            deletes={relation: [tuple(row) for row in rows_or_predicate]}
        )
        return counts.get(relation, (0, 0))[1]

    def _committed(self, relations: Iterable[str], rows: int) -> None:
        """After a commit: drop stale answers over ``relations``, count the batch."""
        if self._stale_cache is not None:
            self._stale_cache.invalidate(relations)
        with self._stats_lock:
            self._write_batches += 1
            self._rows_written += rows

    # -- the worker loop ---------------------------------------------------------------

    def _worker_loop(self) -> None:
        while True:
            batch = self._queue.take(self.max_batch)
            if batch is None:
                return
            self._serve_batch(batch)

    def _serve_batch(self, batch: list[ServiceRequest]) -> None:
        with self._stats_lock:
            self._batches += 1
            self._largest_batch = max(self._largest_batch, len(batch))
        try:
            prepared = self.engine.prepare_query(batch[0].template)
            prepared.warm(self.backend)
        except BaseException as error:  # compilation failed: fail the whole batch
            for request in batch:
                self._resolve_error(request, error)
            return
        # The plan's relations, in fetch-step order (breaker admission checks).
        relations = tuple(
            dict.fromkeys(
                step.constraint.relation for step in prepared.prepared.plan.steps
            )
        )
        for request in batch:
            self._serve_request(prepared, relations, request)

    def _serve_request(
        self,
        prepared: PreparedQuery,
        relations: tuple[str, ...],
        request: ServiceRequest,
    ) -> None:
        """Serve one request: breaker admission, charge-safe retries, degradation."""
        if request.expired():
            elapsed = time.monotonic() - request.submitted_at
            self._resolve_error(
                request,
                ServiceTimeout(
                    f"request #{request.index} expired while queued "
                    f"(waited {elapsed:.3f}s)",
                    deadline=request.deadline_at,
                    plan_key=request.plan_key,
                    elapsed=elapsed,
                    limit=self._deadline_limit(request),
                ),
            )
            return
        limits = None
        if request.deadline_at is not None or request.budget is not None:
            limits = ExecutionLimits(deadline=request.deadline_at, budget=request.budget)
        retry = self.resilience.retry if self.resilience is not None else None
        attempts_allowed = (
            retry.attempts_for(prepared.total_bound) if retry is not None else 1
        )
        counter = self.backend.counter
        # Charge-safe retry bracket: a failed attempt's counter charges are
        # rolled back to this snapshot before the re-run, so the measured
        # ``tuples_accessed`` is that of exactly one clean execution — within
        # the certificate's Σ Mᵢ no matter how many attempts were needed.
        mark = counter.snapshot()
        attempt = 0
        delay: float | None = None
        while True:
            attempt += 1
            if self._breakers is not None:
                blocked = self._breakers.first_open(relations)
                if blocked is not None:
                    self._degrade_or_fail(
                        request,
                        StorageUnavailableError(
                            f"circuit breaker for relation {blocked!r} is open; "
                            f"request #{request.index} refused without touching "
                            f"storage (probe again after the reset timeout)",
                            relation=blocked,
                            operation="admission",
                        ),
                    )
                    return
            try:
                result = prepared.serve(self.backend, request.params, limits)
            except DeadlineExceededError as error:
                elapsed = time.monotonic() - request.submitted_at
                self._resolve_error(
                    request,
                    ServiceTimeout(
                        f"request #{request.index} timed out mid-execution: {error}",
                        deadline=request.deadline_at,
                        plan_key=request.plan_key,
                        elapsed=elapsed,
                        limit=self._deadline_limit(request),
                        step=error.step,
                    ),
                )
                return
            except TransientStorageError as error:
                counter.restore(mark)
                self._note_failure(error.relation)
                if retry is not None and attempt < attempts_allowed:
                    delay = retry.next_delay(delay)
                    if self._backoff(request, delay):
                        continue
                    return  # request was resolved inside _backoff
                self._degrade_or_fail(request, error)
                return
            except StorageUnavailableError as error:
                counter.restore(mark)
                self._note_failure(error.relation)
                self._degrade_or_fail(request, error)
                return
            except BaseException as error:
                self._resolve_error(request, error)
                return
            else:
                if self._breakers is not None:
                    self._breakers.record_success(relations)
                self._remember(request, result, relations)
                self._execution_stats.merge(result.stats)
                with self._stats_lock:
                    self._completed += 1
                request.future._resolve(result)
                return

    def _deadline_limit(self, request: ServiceRequest) -> float | None:
        """The request's end-to-end deadline window in seconds, if any."""
        if request.deadline_at is None:
            return None
        return request.deadline_at - request.submitted_at

    def _backoff(self, request: ServiceRequest, delay: float) -> bool:
        """Sleep one retry backoff; ``False`` means the request was resolved.

        The sleep is interruptible: ``close(drain=False)`` sets the interrupt
        event and the request fails over to
        :class:`~repro.errors.ServiceClosedError` immediately instead of
        waiting the backoff out.  A backoff that cannot finish before the
        request's deadline is not slept at all — the request times out now.
        """
        now = time.monotonic()
        if request.deadline_at is not None and now + delay > request.deadline_at:
            elapsed = now - request.submitted_at
            self._resolve_error(
                request,
                ServiceTimeout(
                    f"request #{request.index} abandoned during retry backoff: "
                    f"waiting {delay:.3f}s more would pass the deadline",
                    deadline=request.deadline_at,
                    plan_key=request.plan_key,
                    elapsed=elapsed,
                    limit=self._deadline_limit(request),
                ),
            )
            return False
        self._execution_stats.record_retry()
        if self._interrupt.wait(delay):
            self._resolve_error(
                request,
                ServiceClosedError(
                    f"service closed while request #{request.index} waited in "
                    f"retry backoff"
                ),
            )
            return False
        return True

    def _note_failure(self, relation: str | None) -> None:
        """Feed one storage failure to the relation's breaker, if any."""
        if self._breakers is None or relation is None:
            return
        if self._breakers.record_failure(relation):
            self._execution_stats.record_breaker_trip()

    def _stale_key(self, request: ServiceRequest) -> Any:
        """The stale-answer cache key of a binding, or ``None`` if unhashable."""
        try:
            key = (request.plan_key, tuple(sorted(request.params.items())))
            hash(key)
        except TypeError:
            return None
        return key

    def _remember(
        self,
        request: ServiceRequest,
        result: ExecutionResult,
        relations: tuple[str, ...] = (),
    ) -> None:
        """Cache a fresh answer for graceful degradation of later failures.

        The entry is tagged with the plan's relations, so a later write to
        any of them drops it — degraded answers are stale by *policy* (TTL),
        never because a write silently outdated them.
        """
        if self._stale_cache is None:
            return
        key = self._stale_key(request)
        if key is not None:
            self._stale_cache.put(key, (result, time.monotonic()), relations=relations)

    def _degrade_or_fail(self, request: ServiceRequest, error: BaseException) -> None:
        """Resolve a given-up request: degraded answer if policy allows, else error."""
        degradation = (
            self.resilience.degradation if self.resilience is not None else None
        )
        if degradation is not None:
            degraded = self._degraded_answer(request, error, degradation)
            if degraded is not None:
                self._execution_stats.record_degraded()
                with self._stats_lock:
                    self._degraded += 1
                request.future._resolve(degraded)
                return
        self._resolve_error(request, error)

    def _degraded_answer(
        self, request: ServiceRequest, error: BaseException, policy: Any
    ) -> DegradedResult | None:
        """The degraded answer for a failed request, or ``None`` to fail typed."""
        failed_relation = getattr(error, "relation", None)
        failed_step = getattr(error, "step", None)
        if self._stale_cache is not None:
            key = self._stale_key(request)
            entry = self._stale_cache.get(key) if key is not None else None
            if entry is not None:
                result, stored_at = entry
                age = time.monotonic() - stored_at
                if policy.stale_ttl is None or age <= policy.stale_ttl:
                    return DegradedResult(
                        kind="stale",
                        result=result,
                        staleness=age,
                        failed_relation=failed_relation,
                        failed_step=failed_step,
                        cause=error,
                    )
        if policy.partial:
            return DegradedResult(
                kind="partial",
                failed_relation=failed_relation,
                failed_step=failed_step,
                cause=error,
            )
        return None

    def _resolve_error(self, request: ServiceRequest, error: BaseException) -> None:
        with self._stats_lock:
            if isinstance(error, ServiceTimeout):
                self._timeouts += 1
            else:
                self._failures += 1
        request.future._fail(error)

    # -- lifecycle ---------------------------------------------------------------------

    def close(self, drain: bool = True) -> None:
        """Stop the service.

        With ``drain=True`` (default) already-admitted requests are served
        before the workers exit; with ``drain=False`` pending requests are
        failed immediately with :class:`~repro.errors.ServiceClosedError`,
        and workers sleeping in a retry backoff are woken at once (their
        in-flight requests also fail with ``ServiceClosedError``), so the
        close never waits out a backoff window.  Idempotent; thread-safe.
        """
        with self._stats_lock:
            self._closed = True
        if not drain:
            self._interrupt.set()
            for request in self._queue.drain():
                self._resolve_error(
                    request, ServiceClosedError("service closed before execution")
                )
        self._queue.close()
        for thread in self._threads:
            thread.join()

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # -- monitoring --------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """A consistent snapshot of the service's counters.

        Combines admission counters (submitted / completed / timeouts /
        failures / pending), micro-batching counters (batches served, the
        largest batch), and the aggregate execution stats of every served
        request.  Thread-safe.
        """
        with self._stats_lock:
            snapshot = {
                "workers": self.workers,
                "submitted": self._submitted,
                "completed": self._completed,
                "timeouts": self._timeouts,
                "failures": self._failures,
                "degraded": self._degraded,
                "batches": self._batches,
                "largest_batch": self._largest_batch,
                "write_batches": self._write_batches,
                "rows_written": self._rows_written,
                "closed": self._closed,
            }
        snapshot["pending"] = len(self._queue)
        snapshot["execution"] = self._execution_stats.summary()
        if self._breakers is not None:
            snapshot["breakers"] = self._breakers.states()
        return snapshot

    def describe(self) -> str:
        """Human-readable one-stop service report (stats + engine caches)."""
        stats = self.stats()
        execution = stats["execution"]
        lines = [
            f"QueryService: {stats['workers']} workers, "
            f"{stats['submitted']} submitted, {stats['completed']} completed, "
            f"{stats['timeouts']} timeouts, {stats['failures']} failures, "
            f"{stats['pending']} pending",
            f"  micro-batches: {stats['batches']} "
            f"(largest {stats['largest_batch']})",
            f"  tuples accessed: {execution['tuples_accessed']} "
            f"over {execution['requests']} executions",
        ]
        if self.resilience is not None:
            lines.append(
                f"  resilience: {execution['retries']} retries, "
                f"{execution['breaker_trips']} breaker trips, "
                f"{stats['degraded']} degraded answers"
            )
            for relation, state in sorted(stats.get("breakers", {}).items()):
                if state != "closed":
                    lines.append(f"    breaker[{relation}]: {state}")
        for name, info in self.engine.cache_info().items():
            lines.append(f"  {name}: {info.describe()}")
        return "\n".join(lines)

    def __repr__(self) -> str:
        stats = self.stats()
        return (
            f"QueryService({stats['workers']} workers, "
            f"{stats['completed']}/{stats['submitted']} served"
            f"{', closed' if stats['closed'] else ''})"
        )
