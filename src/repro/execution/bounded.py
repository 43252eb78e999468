"""evalDQ: executing bounded plans by fetching only a bounded ``D_Q``.

The executor realizes Section 5's evaluation strategy: follow the plan's fetch
steps (each a bounded probe sequence through an access-constraint index),
assemble the per-occurrence partial relations ``T_j``, then evaluate the query
over those small row sets only — joins, constant filters and the final
projection never touch the underlying database again.

All data access is charged to the storage backend's access counter through
the constraint indexes, so ``ExecutionStats.tuples_accessed`` is exactly the
``|D_Q|`` the paper reports in Figure 5.  The executor is storage-agnostic:
every entry point accepts a :class:`~repro.relational.database.Database` or
any :class:`~repro.storage.base.StorageBackend` (e.g. the SQLite backend for
out-of-core execution), and only touches data through the backend's
constraint-fetch views.
"""

from __future__ import annotations

import threading
import time
import weakref
from typing import Any, Mapping, Sequence

from ..access.indexes import AccessIndexes, ConstraintView, build_access_indexes
from ..access.schema import AccessSchema
from ..errors import ExecutionError
from ..relational.algebra import RowSet, hash_join, product, project
from ..spc.atoms import AttrEq, AttrRef, ConstEq
from ..spc.parameters import ParamToken
from ..spc.query import SPCQuery
from ..planning.plan import BoundedPlan, ColumnSource, ConstSource, FetchStep, ParamSource
from ..storage.base import StorageBackend, as_backend
from .compiled import _param_value, compiled_for
from .metrics import ExecutionLimits, ExecutionResult, ExecutionStats

#: Max distinct access-schema objects remembered as "already prepared" per
#: backend; keeps the strong references in the memo bounded.
_SCHEMA_MEMO_CAP = 64


class BoundedExecutor:
    """Executes :class:`~repro.planning.plan.BoundedPlan` objects against storage.

    Plans are lowered once into :class:`~repro.execution.compiled.CompiledPlan`
    programs (cached on the plan) and executed through those; the original
    tuple-at-a-time interpretation survives as :meth:`execute_interpreted` for
    differential testing and benchmarking.  ``source`` arguments accept a
    :class:`~repro.relational.database.Database` or any
    :class:`~repro.storage.base.StorageBackend`.

    Thread safety: one executor may serve every worker of a
    :class:`~repro.service.QueryService`.  :meth:`prepare` runs under an
    internal lock (index construction mutates the per-backend caches), and
    :meth:`execute` is safe for concurrent calls once prepared — compiled
    programs are immutable and access accounting is per-thread.

    Parameters
    ----------
    enforce_bounds:
        When true (default), a probe returning more distinct values than its
        constraint allows raises — the database does not satisfy the access
        schema and the plan's bound promise cannot be kept.
    """

    def __init__(self, enforce_bounds: bool = True) -> None:
        self.enforce_bounds = enforce_bounds
        #: Guards the prepare() caches below; execution never takes it.
        self._prepare_lock = threading.RLock()
        # Weak keys: an entry dies with its backend, so a collected backend
        # can never hand its (recycled) identity to a new object and serve it
        # stale indexes, and a long-lived executor never accumulates entries
        # for backends that are gone.  (A Database keeps a strong reference
        # to its memoized backend, so database-keyed callers get the same
        # cache behavior as before the storage seam.)
        self._index_cache: "weakref.WeakKeyDictionary[StorageBackend, AccessIndexes]" = (
            weakref.WeakKeyDictionary()
        )
        # Access-schema objects already fully prepared, per backend.  Values
        # hold strong references to the schemas, so the ``id()`` keys can
        # never be recycled while an entry is alive; this makes the serving
        # hot path's prepare() an O(1) lookup instead of a per-request scan
        # over every constraint of the schema.
        self._prepared_schemas: "weakref.WeakKeyDictionary[StorageBackend, dict[int, tuple[AccessSchema, int]]]" = (
            weakref.WeakKeyDictionary()
        )

    # -- preparation -------------------------------------------------------------------

    def prepare(self, source: Any, access_schema: AccessSchema) -> AccessIndexes:
        """Build (and cache per backend) the constraint indexes of ``access_schema``.

        Index construction is the backend's native bulk path (shared-scan
        hash indexes in memory, ``CREATE INDEX`` on SQLite) and idempotent:
        re-preparing an already-seen schema object is a dictionary lookup.
        Thread-safe: the whole check-and-build sequence holds the executor's
        prepare lock, so concurrent workers racing on a cold backend build
        its indexes exactly once and share the result.
        """
        backend = as_backend(source)
        with self._prepare_lock:
            return self._prepare_locked(backend, access_schema)

    def _prepare_locked(
        self, backend: StorageBackend, access_schema: AccessSchema
    ) -> AccessIndexes:
        cached = self._index_cache.get(backend)
        fresh = cached is not None and cached.data_version == backend.data_version
        seen = self._prepared_schemas.get(backend)
        if seen is not None and fresh:
            entry = seen.get(id(access_schema))
            # The cardinality fingerprint guards against in-place mutation:
            # AccessSchema.add()/extend() grow the constraint list, so a
            # schema that gained constraints since it was memoized re-takes
            # the full path and builds the missing indexes.
            if entry is not None and entry[1] == len(access_schema):
                return cached
        if not fresh:
            # First preparation, or the backend committed a write since the
            # cached AccessIndexes were bound: bind a new collection over
            # everything prepared so far.  The backend hands back the views
            # it still holds for relations the write did not touch, so only
            # the written relations' views are rebuilt, and the schema memo
            # stays valid.  The rebind follows the backend's seqlock protocol
            # so a write batch committing mid-build can never pair new index
            # data with an old version stamp (or vice versa): observe an even
            # write epoch, read the version, build, and retry if the epoch
            # moved.
            bound = [view.constraint for view in cached or ()]
            wanted = dict.fromkeys([*bound, *access_schema])
            while True:
                epoch = backend.write_epoch
                if epoch % 2:
                    continue  # a commit is in progress; re-observe
                version = backend.data_version
                cached = build_access_indexes(backend, wanted, self.enforce_bounds)
                if backend.write_epoch == epoch:
                    break
            cached.data_version = version
            self._index_cache[backend] = cached
        else:
            missing = AccessSchema(
                constraint
                for constraint in access_schema
                if constraint.relation in backend.schema and constraint not in cached
            )
            if len(missing):
                extra = build_access_indexes(backend, missing, self.enforce_bounds)
                for index in extra:
                    cached.add(index)
        if seen is None:
            seen = {}
            self._prepared_schemas[backend] = seen
        elif id(access_schema) not in seen and len(seen) >= _SCHEMA_MEMO_CAP:
            # FIFO eviction: the memo only short-circuits re-preparation, so
            # dropping an entry costs one re-scan, never correctness — and the
            # strong references to schema objects stay bounded.
            seen.pop(next(iter(seen)))
        seen[id(access_schema)] = (access_schema, len(access_schema))
        return cached

    def backend_kinds(self) -> tuple[str, ...]:
        """Kinds of the storage backends this executor has prepared (sorted)."""
        with self._prepare_lock:
            return tuple(sorted({backend.kind for backend in self._index_cache.keys()}))

    # -- plan execution -----------------------------------------------------------------

    def execute(
        self,
        plan: BoundedPlan,
        source: Any,
        indexes: AccessIndexes | None = None,
        params: Mapping[str, Any] | None = None,
        limits: ExecutionLimits | None = None,
    ) -> ExecutionResult:
        """Run ``plan`` against ``source`` and return the answer with its cost.

        The plan is executed through its compiled program (lowered once and
        cached on the plan); ``params`` supplies values for the named
        parameter slots of a prepared plan (slot name -> value); plans without
        slots ignore it.  ``limits`` (optional) carries a per-request deadline
        and access budget, enforced between fetch steps by the compiled
        runtime.  Thread-safe once prepared (see the class docstring).
        """
        if indexes is None:
            indexes = self.prepare(source, plan.access_schema)
        return compiled_for(plan).execute(source, indexes, params, limits)

    def execute_interpreted(
        self,
        plan: BoundedPlan,
        source: Any,
        indexes: AccessIndexes | None = None,
        params: Mapping[str, Any] | None = None,
    ) -> ExecutionResult:
        """Run ``plan`` tuple-at-a-time, re-resolving plan structure per request.

        This is the pre-compilation executor, kept as the differential-testing
        oracle for :class:`~repro.execution.compiled.CompiledPlan` and as the
        baseline the execution microbenchmark measures against.
        """
        query = plan.query
        backend = as_backend(source)
        if indexes is None:
            indexes = self.prepare(backend, plan.access_schema)

        started = time.perf_counter()
        before = backend.counter.snapshot()

        fetched: list[RowSet] = []
        step_sizes: list[int] = []
        with backend.read_view() as view_version:
            if view_version is None:
                view_version = getattr(indexes, "data_version", 0)
            for step in plan.steps:
                rowset = self._execute_step(step, fetched, indexes, params)
                fetched.append(rowset)
                step_sizes.append(len(rowset))

        answer = self._assemble(query, plan, fetched, params)

        elapsed = time.perf_counter() - started
        delta = backend.counter.since(before)
        stats = ExecutionStats.from_snapshot(
            strategy="bounded",
            delta=delta,
            elapsed_seconds=elapsed,
            result_rows=len(answer),
            plan_bound=plan.total_bound,
            backend=backend.kind,
        )
        return ExecutionResult(
            rows=answer,
            stats=stats,
            details={"step_sizes": step_sizes, "data_version": view_version},
        )

    # -- fetch steps -------------------------------------------------------------------------

    def _execute_step(
        self,
        step: FetchStep,
        fetched: Sequence[RowSet],
        indexes: AccessIndexes,
        params: Mapping[str, Any] | None = None,
    ) -> RowSet:
        index = self._constraint_index(step, indexes)
        key_order = index.key  # canonical X order of the constraint
        candidates = self._candidate_keys(step, key_order, fetched, params)
        rows = index.fetch_many(candidates)
        return RowSet(step.outputs, rows)

    def _constraint_index(self, step: FetchStep, indexes: AccessIndexes) -> "ConstraintView":
        if step.constraint not in indexes:
            raise ExecutionError(
                f"no index available for constraint {step.constraint}; call prepare() "
                f"with the plan's access schema first"
            )
        return indexes.for_constraint(step.constraint)

    def _candidate_keys(
        self,
        step: FetchStep,
        key_order: Sequence[str],
        fetched: Sequence[RowSet],
        params: Mapping[str, Any] | None = None,
    ) -> list[tuple[Any, ...]]:
        """Enumerate candidate ``X``-values for a fetch step.

        Key attributes bound to columns of the same earlier step vary jointly
        (their values are taken from the same fetched rows); attributes bound
        to different steps or to constants combine by Cartesian product.

        Probe order is deterministic — insertion order of the plan's sources
        and of the fetched rows — with all dedup done through ordered dicts,
        so keys of mixed (even mutually incomparable) types execute fine.
        """
        if not key_order:
            return [()]

        # Group key attributes by their source so joint values stay joint.
        constant_values: dict[str, Any] = {}
        by_step: dict[int, list[str]] = {}
        for attribute in key_order:
            source = step.key_sources[attribute]
            if isinstance(source, ConstSource):
                constant_values[attribute] = source.value
            elif isinstance(source, ParamSource):
                constant_values[attribute] = self._param_value(source.name, params)
            elif isinstance(source, ColumnSource):
                by_step.setdefault(source.step, []).append(attribute)
            else:  # pragma: no cover - defensive
                raise ExecutionError(f"unknown value source {source!r}")

        # Start from a single empty assignment and extend it per source group.
        assignments: list[dict[str, Any]] = [dict(constant_values)]
        for source_step, attributes in by_step.items():
            rowset = fetched[source_step]
            columns = [step.key_sources[a].column for a in attributes]  # type: ignore[union-attr]
            positions = [rowset.position(c) for c in columns]
            joint_values = dict.fromkeys(
                tuple(row[p] for p in positions) for row in rowset.rows
            )
            extended: list[dict[str, Any]] = []
            for assignment in assignments:
                for values in joint_values:
                    candidate = dict(assignment)
                    candidate.update(zip(attributes, values))
                    extended.append(candidate)
            assignments = extended

        return list(
            dict.fromkeys(
                tuple(assignment[a] for a in key_order) for assignment in assignments
            )
        )

    #: Shared with the compiled runtime so both paths raise the identical
    #: diagnostic for an unbound slot (the differential-oracle contract).
    _param_value = staticmethod(_param_value)

    # -- assembling the answer -----------------------------------------------------------------

    def _assemble(
        self,
        query: SPCQuery,
        plan: BoundedPlan,
        fetched: Sequence[RowSet],
        params: Mapping[str, Any] | None = None,
    ) -> RowSet:
        # Per-occurrence row sets: the covering step's output projected onto the
        # occurrence's parameters, with per-occurrence conditions applied.
        per_atom: dict[int, RowSet | None] = {}
        witnesses_ok = True
        for atom_index in range(query.num_atoms):
            needed = sorted(query.atom_parameters(atom_index))
            covering = fetched[plan.covering[atom_index]]
            if not needed:
                # Parameter-less occurrence: only its non-emptiness matters.
                if not covering.rows:
                    witnesses_ok = False
                per_atom[atom_index] = None
                continue
            rowset = project(covering, needed, distinct=True)
            rowset = self._apply_local_conditions(query, atom_index, rowset, params)
            per_atom[atom_index] = rowset

        if not witnesses_ok:
            return RowSet(tuple(query.output), [])

        joined = self._join_atoms(query, per_atom)
        output_columns = tuple(query.output)
        return project(joined, output_columns, distinct=True)

    def _apply_local_conditions(
        self,
        query: SPCQuery,
        atom_index: int,
        rowset: RowSet,
        params: Mapping[str, Any] | None = None,
    ) -> RowSet:
        """Apply constant and same-occurrence equality conditions to one row set."""
        rows = rowset.rows
        header = rowset.header
        for condition in query.conditions:
            if isinstance(condition, ConstEq):
                if condition.ref.atom != atom_index or condition.ref not in header:
                    continue
                position = rowset.position(condition.ref)
                value = condition.value
                if isinstance(value, ParamToken):
                    value = self._param_value(value.name, params)
                rows = [row for row in rows if row[position] == value]
            elif isinstance(condition, AttrEq):
                left, right = condition.left, condition.right
                if left.atom != atom_index or right.atom != atom_index:
                    continue
                if left not in header or right not in header:
                    continue
                left_pos, right_pos = rowset.position(left), rowset.position(right)
                rows = [row for row in rows if row[left_pos] == row[right_pos]]
        return RowSet(header, rows)

    def _join_atoms(self, query: SPCQuery, per_atom: dict[int, RowSet | None]) -> RowSet:
        """Join the per-occurrence row sets on the cross-occurrence equalities."""
        cross_conditions = [
            condition
            for condition in query.conditions
            if isinstance(condition, AttrEq) and condition.left.atom != condition.right.atom
        ]

        accumulated: RowSet | None = None
        included: set[int] = set()
        for atom_index in range(query.num_atoms):
            rowset = per_atom[atom_index]
            if rowset is None:
                continue
            if accumulated is None:
                accumulated = rowset
                included.add(atom_index)
                continue
            pairs: list[tuple[AttrRef, AttrRef]] = []
            for condition in cross_conditions:
                left, right = condition.left, condition.right
                if left.atom in included and right.atom == atom_index:
                    if left in accumulated.header and right in rowset.header:
                        pairs.append((left, right))
                elif right.atom in included and left.atom == atom_index:
                    if right in accumulated.header and left in rowset.header:
                        pairs.append((right, left))
            accumulated = hash_join(accumulated, rowset, pairs) if pairs else product(accumulated, rowset)
            included.add(atom_index)

        if accumulated is None:
            # Every occurrence was a parameter-less witness; the query is
            # Boolean and satisfied (witnesses were checked by the caller).
            return RowSet((), [()])

        # Late cross-occurrence conditions between occurrences joined earlier
        # through other paths (e.g. a triangle of equalities) are applied as
        # residual filters.
        for condition in cross_conditions:
            left, right = condition.left, condition.right
            if left in accumulated.header and right in accumulated.header:
                left_pos = accumulated.position(left)
                right_pos = accumulated.position(right)
                accumulated = RowSet(
                    accumulated.header,
                    [row for row in accumulated.rows if row[left_pos] == row[right_pos]],
                )
        return accumulated


def eval_dq(
    plan: BoundedPlan,
    source: Any,
    enforce_bounds: bool = True,
) -> ExecutionResult:
    """Convenience wrapper: execute a bounded plan with a fresh executor.

    This is the paper's ``evalDQ``: fetch ``D_Q`` following the plan, then
    evaluate the query over ``D_Q`` only.  ``source`` is a database or any
    storage backend.
    """
    executor = BoundedExecutor(enforce_bounds=enforce_bounds)
    return executor.execute(plan, source)
