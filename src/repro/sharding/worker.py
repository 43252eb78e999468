"""The shard worker process: a full query service over one slice of the data.

Each shard child built by the router runs :func:`shard_main`: it materializes
its slice into a fresh storage backend (its partitioned relations' bucket
plus full replicas of everything else), stands up its **own**
:class:`~repro.service.QueryService` — own :class:`~repro.execution.engine.
BoundedEngine` with own compiled-plan/EBCheck caches, own worker threads,
own :class:`~repro.service.resilience.ResiliencePolicy` (retries, breakers)
— and serves :class:`~repro.sharding.messages.ExecuteBatch` envelopes off the
router pipe until told to shut down.  Because the engine, the caches, the
GIL and the storage substrate are all per-process, N shards execute N plans
truly concurrently — the scaling the thread tier cannot reach on CPU-bound
work.

Everything sent back is pickle-safe: results are
:class:`~repro.execution.metrics.ExecutionResult` values, errors are the
typed taxonomy (round-trip-safe via ``ReproError.__reduce__``), and anything
exotic is downgraded to a :class:`~repro.errors.ShardError` carrying its repr
rather than poisoning the pipe.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Sequence

from ..access.schema import AccessSchema
from ..errors import ShardError
from ..relational.database import Database
from ..relational.schema import DatabaseSchema
from ..service import QueryService
from ..service.resilience import ResiliencePolicy
from ..storage.base import StorageBackend, as_backend
from .messages import (
    ApplyWrites,
    BatchDone,
    ExecuteBatch,
    RegisterTemplate,
    RequestDone,
    ShardFatal,
    Shutdown,
    StatsReply,
    StatsRequest,
    WritesApplied,
)

Row = tuple[Any, ...]


@dataclass(frozen=True)
class ShardConfig:
    """Everything one shard child needs to build its service.

    Shipped through the :func:`multiprocessing` start method (inherited
    wholesale under ``fork``; pickled under ``spawn`` — ``wrap`` must then be
    a module-level callable).  ``relations`` maps every relation name to the
    rows this shard stores: the partition bucket for partitioned relations, a
    full replica otherwise.
    """

    shard: int
    access_schema: AccessSchema
    db_schema: DatabaseSchema
    relations: Mapping[str, Sequence[Row]]
    backend_kind: str = "memory"
    workers: int = 1
    max_batch: int = 16
    resilience: ResiliencePolicy | None = None
    #: Optional backend decorator applied last (e.g. latency or CPU-cost
    #: injection for honest load tests), ``backend -> backend``.
    wrap: Callable[[StorageBackend], StorageBackend] | None = field(default=None)


def build_shard_backend(config: ShardConfig) -> StorageBackend:
    """Materialize the shard's slice into a fresh backend (uncounted loads)."""
    database = Database(config.db_schema)
    for relation, rows in config.relations.items():
        database.extend(relation, rows)
    if config.backend_kind == "sqlite":
        from ..storage.sqlite import SQLiteBackend

        backend: StorageBackend = SQLiteBackend.from_database(database)
    else:
        backend = as_backend(database)
    if config.wrap is not None:
        backend = config.wrap(backend)
    return backend


def portable_error(error: BaseException, shard: int) -> BaseException:
    """``error`` if it survives a pickle round-trip, else a typed stand-in.

    The router must always receive *some* typed outcome; an exotic
    unpicklable exception is downgraded to a :class:`~repro.errors.ShardError`
    carrying the shard index and the original repr.
    """
    try:
        pickle.loads(pickle.dumps(error))
    except BaseException as reason:
        return ShardError(
            f"shard {shard}: unpicklable {type(error).__name__} "
            f"({error!r}); pickling failed with: {reason!r}",
            shard=shard,
        )
    return error


def shard_main(config: ShardConfig, conn: Any) -> None:
    """The shard child's entry point: serve the router pipe until shutdown.

    The dispatch loop is single-threaded (the service's worker threads do
    the execution); envelopes are answered in arrival order, so a stats
    request queued behind a long batch waits for it — the router's stats RPC
    carries a timeout for exactly that reason.
    """
    service = QueryService(
        build_shard_backend(config),
        config.access_schema,
        workers=config.workers,
        max_batch=config.max_batch,
        resilience=config.resilience,
    )
    #: template_id -> ParameterizedQuery, or the registration-time error to
    #: replay for every request that references the id.
    templates: dict[int, Any] = {}
    drain = True
    try:
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                # Router side vanished; nothing to drain for.
                drain = False
                return
            if isinstance(message, Shutdown):
                drain = message.drain
                return
            if isinstance(message, RegisterTemplate):
                _register(service, templates, config.shard, message)
            elif isinstance(message, ExecuteBatch):
                conn.send(_serve_batch(service, templates, config.shard, message))
            elif isinstance(message, ApplyWrites):
                conn.send(_apply_writes(service, config.shard, message))
            elif isinstance(message, StatsRequest):
                stats = dict(service.stats())
                stats["templates"] = sum(
                    not isinstance(entry, BaseException)
                    for entry in templates.values()
                )
                conn.send(StatsReply(message.serial, stats))
    except BaseException as error:
        # The dispatch loop itself died (a pipe protocol bug, an OOM, ...):
        # tell the router before going down so it can fail in-flight
        # requests with a typed ShardCrashedError instead of a silent EOF.
        try:
            conn.send(ShardFatal(portable_error(error, config.shard)))
        except (OSError, ValueError):
            pass  # pipe already gone; the EOF tells the router instead
        raise
    finally:
        service.close(drain=drain)
        conn.close()


def _register(
    service: QueryService, templates: dict, shard: int, message: RegisterTemplate
) -> None:
    """Prepare + warm one template; remember the typed error on failure."""
    try:
        prepared = service.engine.prepare_query(message.template)
        prepared.warm(service.backend)
    except BaseException as error:
        templates[message.template_id] = portable_error(error, shard)
    else:
        templates[message.template_id] = message.template


def _apply_writes(
    service: QueryService, shard: int, message: ApplyWrites
) -> WritesApplied:
    """Commit one shard-slice write batch through the shard's own service.

    The service path does the whole live-update dance locally: the backend
    commits the batch atomically (one ``data_version`` bump, incremental
    index maintenance) and the shard's stale-answer cache is invalidated
    for exactly the touched relations; its compiled templates survive.
    Failures travel back typed; the batch either committed (counts) or did
    not (error) — never half.
    """
    try:
        counts = service.apply_writes(message.batch)
    except BaseException as error:
        return WritesApplied(message.serial, error=portable_error(error, shard))
    return WritesApplied(message.serial, counts=counts)


def _serve_batch(
    service: QueryService, templates: dict, shard: int, batch: ExecuteBatch
) -> BatchDone:
    """Submit every request of a batch, then collect outcomes in order."""
    futures: list[Any] = []
    for request in batch.requests:
        entry = templates.get(request.template_id)
        if entry is None:
            futures.append(
                ShardError(
                    f"shard {shard}: request #{request.request_id} references "
                    f"unregistered template id {request.template_id} "
                    f"(router protocol bug)",
                    shard=shard,
                )
            )
            continue
        if isinstance(entry, BaseException):
            futures.append(entry)
            continue
        try:
            futures.append(
                service.submit(
                    entry,
                    deadline=request.deadline_seconds,
                    budget=request.budget,
                    **request.params,
                )
            )
        except BaseException as error:
            futures.append(portable_error(error, shard))
    outcomes = []
    for request, future in zip(batch.requests, futures):
        if isinstance(future, BaseException):
            outcomes.append(RequestDone(request.request_id, error=future))
            continue
        try:
            result = future.result()
        except BaseException as error:
            outcomes.append(
                RequestDone(request.request_id, error=portable_error(error, shard))
            )
        else:
            outcomes.append(RequestDone(request.request_id, result=result))
    return BatchDone(tuple(outcomes))
