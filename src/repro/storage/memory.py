"""In-memory storage backend: the original substrate behind the protocol.

:class:`InMemoryBackend` wraps a :class:`~repro.relational.database.Database`
— its relations, its :class:`~repro.relational.indexes.IndexCatalog` and its
shared :class:`~repro.relational.statistics.AccessCounter` — behind the
:class:`~repro.storage.base.StorageBackend` protocol with zero behavior
change: scans charge exactly as :meth:`Relation.scan` always did, constraint
fetches run through the same shared-scan-built
:class:`~repro.relational.indexes.HashIndex` buckets with the same
per-candidate probe charging, and index construction remains one pass per
relation no matter how many constraints it backs.

Executors never construct this class directly; ``Database.backend`` memoizes
one instance per database and ``as_backend`` resolves it.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..access.constraint import AccessConstraint
from ..access.indexes import AccessIndexes, ConstraintIndex
from ..relational.statistics import AccessCounter
from .base import Row, StorageBackend
from .writes import WriteBatch

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..relational.database import Database
    from ..relational.schema import DatabaseSchema


class InMemoryBackend(StorageBackend):
    """The in-memory ``Database`` substrate viewed through the storage protocol."""

    kind = "memory"

    def __init__(self, database: "Database") -> None:
        self.database = database
        #: (constraint, enforce_bound) -> ConstraintIndex view, so repeated
        #: protocol-level fetches reuse one view per constraint.  Each view is
        #: stamped with its relation's version at build time; a write batch
        #: discards exactly the views of the relations it touched (the hash
        #: indexes they wrap are snapshots) and leaves the rest bound.
        self._views: dict[tuple[AccessConstraint, bool], ConstraintIndex] = {}
        self._view_stamps: dict[tuple[AccessConstraint, bool], int] = {}
        self._views_version = database.data_version

    # -- metadata ------------------------------------------------------------------

    @property
    def schema(self) -> "DatabaseSchema":  # type: ignore[override]
        return self.database.schema

    @property
    def counter(self) -> AccessCounter:  # type: ignore[override]
        return self.database.counter

    def relation_names(self) -> tuple[str, ...]:
        return tuple(relation.name for relation in self.database)

    def cardinality(self, relation: str) -> int:
        return len(self.database.relation(relation))

    @property
    def data_version(self) -> int:  # type: ignore[override]
        return self.database.data_version

    @property
    def write_epoch(self) -> int:  # type: ignore[override]
        return self.database.write_epoch

    def relation_version(self, relation: str) -> int:
        return self.database.relation_version(relation)

    def populate(self, relation: str, rows: Iterable[Sequence[Any]]) -> None:
        """Bulk-append tuples through the database's mutation path.

        ``Database.extend`` commits one write batch: the relation's hash
        indexes are incrementally maintained and ``data_version`` bumps, so
        this backend's views and the executor's prepared index caches pick up
        the new data on next use instead of silently serving pre-populate
        data — the divergence-from-SQLite failure mode.
        """
        self.database.extend(relation, rows)

    # -- writes --------------------------------------------------------------------

    def apply_writes(self, batch: "WriteBatch") -> dict[str, tuple[int, int]]:
        """Apply one batch through :meth:`Database.apply_writes` (atomic commit).

        The database validates everything first, stages a copy-on-write
        successor of each index on a written relation — O(|batch| x indexes
        on those relations), no stored row outside the touched buckets is
        visited — and publishes rows, indexes and the single ``data_version``
        bump together; executions that already bound the superseded index
        snapshots keep reading their consistent pre-write version.
        """
        return self.database.apply_writes(inserts=batch.inserts, deletes=batch.deletes)

    def delete(
        self,
        relation: str,
        rows_or_predicate: "Iterable[Sequence[Any]] | Callable[[Row], bool]",
    ) -> int:
        """Delete by rows or predicate; predicates evaluate under the write lock."""
        return self.database.delete(relation, rows_or_predicate)

    def dump(self, relation: str) -> list[Row]:
        """All tuples, uncounted — delegates to ``Relation.tuples``."""
        return self.database.relation(relation).tuples()

    # -- counted access paths ------------------------------------------------------

    def scan(self, relation: str) -> list[Row]:
        return list(self.database.relation(relation).scan())

    def fetch(
        self,
        constraint: AccessConstraint,
        x_values: Iterable[Sequence[Any]],
        enforce_bound: bool = True,
    ) -> list[Row]:
        return self._view(constraint, enforce_bound).fetch_many(x_values)

    def contains(self, constraint: AccessConstraint, x_value: Sequence[Any]) -> bool:
        return self._view(constraint, True).contains(x_value)

    def _check_views_fresh(self) -> None:
        """Discard exactly the views of relations written since they were built.

        The seam is version-stamped twice over: the cheap global
        ``data_version`` check short-circuits the no-write case, and on a
        mismatch each view's per-relation stamp decides individually — a
        write to one relation leaves every other relation's views bound.
        """
        version = self.database.data_version
        if self._views_version == version:
            return
        stale = [
            key
            for key, stamp in self._view_stamps.items()
            if self.database.relation_version(key[0].relation) != stamp
        ]
        for key in stale:
            del self._views[key]
            del self._view_stamps[key]
        self._views_version = version

    def _view(self, constraint: AccessConstraint, enforce_bound: bool) -> ConstraintIndex:
        self._check_views_fresh()
        view = self._views.get((constraint, enforce_bound))
        if view is None:
            indexes = self.build_indexes([constraint], enforce_bounds=enforce_bound)
            view = indexes.for_constraint(constraint)
        return view

    # -- indexes -------------------------------------------------------------------

    def build_indexes(
        self,
        constraints: Iterable[AccessConstraint],
        enforce_bounds: bool = True,
    ) -> AccessIndexes:
        """One hash index per constraint, built shared-scan per relation.

        Views this backend still holds fresh (no write to their relation
        since they were bound) are handed back as they are; only the others
        are bound anew, so re-preparing after a write batch costs the
        written relations' constraints, not the schema's.  New views are
        grouped by relation and all of a relation's bucket maps are filled
        in one pass over its tuples
        (:meth:`~repro.relational.database.Database.build_indexes`), so a
        schema with many constraints per relation costs one scan per relation
        rather than one per constraint.  Already-built hash indexes are
        reused from the database's catalog.
        """
        self._check_views_fresh()
        indexes = AccessIndexes()
        unbound: dict[str, list[AccessConstraint]] = {}
        for constraint in constraints:
            if constraint.relation not in self.database.schema:
                continue
            view = self._views.get((constraint, enforce_bounds))
            if view is None:
                unbound.setdefault(constraint.relation, []).append(constraint)
            else:
                indexes.add(view)
        for relation_name, relation_constraints in unbound.items():
            specs = [
                (constraint.x, list(constraint.fetch_attributes))
                for constraint in relation_constraints
            ]
            # Stamp first: a commit landing between the two reads then leaves
            # a new snapshot under an old stamp (discarded next time), never
            # an old snapshot under a new one (served forever).
            stamp = self.database.relation_version(relation_name)
            hash_indexes = self.database.build_indexes(relation_name, specs)
            for constraint, hash_index in zip(relation_constraints, hash_indexes):
                view = ConstraintIndex(constraint, hash_index, enforce_bound=enforce_bounds)
                self._views[(constraint, enforce_bounds)] = view
                self._view_stamps[(constraint, enforce_bounds)] = stamp
                indexes.add(view)
        return indexes

    def __repr__(self) -> str:
        return f"InMemoryBackend({self.database!r})"
