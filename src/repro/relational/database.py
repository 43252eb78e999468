"""Database instances: named relations plus an access counter and index catalog.

A :class:`Database` is the paper's instance ``D`` of a relational schema
``R``.  It owns the single :class:`~repro.relational.statistics.AccessCounter`
that all scans and index probes charge, so one query execution produces one
coherent access count regardless of how many relations it touches.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import SchemaError, UnknownRelationError
from .indexes import HashIndex, IndexCatalog
from .relation import Relation
from .schema import DatabaseSchema, RelationSchema
from .statistics import AccessCounter, AccessSnapshot

Row = tuple[Any, ...]


class Database:
    """An instance of a :class:`~repro.relational.schema.DatabaseSchema`."""

    __slots__ = (
        "schema",
        "_relations",
        "counter",
        "indexes",
        "_backend",
        "_data_version",
        "_relation_versions",
        "_write_epoch",
        "_write_lock",
        "__weakref__",
    )

    def __init__(self, schema: DatabaseSchema) -> None:
        self.schema = schema
        self.counter = AccessCounter()
        self.indexes = IndexCatalog()
        self._backend = None
        # Version counters are seqlock-published: bumped under the writer
        # lock, read lock-free by monitors and result stamping (readers
        # observe a committed value whenever ``write_epoch`` is even).
        self._data_version = 0  # guarded-by: self._write_lock, writes
        # guarded-by: self._write_lock, writes
        self._relation_versions: dict[str, int] = {}
        self._write_epoch = 0  # seqlock: self._write_lock
        self._write_lock = threading.RLock()
        self._relations: dict[str, Relation] = {}
        for relation_schema in schema:
            relation = Relation(relation_schema, counter=self.counter)
            relation.attach_counter(self.counter)
            self._relations[relation_schema.name] = relation

    # -- construction --------------------------------------------------------------

    @classmethod
    def from_relations(cls, relations: Iterable[Relation]) -> "Database":
        """Build a database (and schema) from already-populated relations.

        Raises :class:`~repro.errors.SchemaError` when two relations share a
        name — silently keeping one of them would drop data.
        """
        relations = list(relations)
        by_name: dict[str, int] = {}
        for position, relation in enumerate(relations):
            first = by_name.setdefault(relation.name, position)
            if first != position:
                raise SchemaError(
                    f"Database.from_relations received duplicate relation name "
                    f"{relation.name!r} (positions {first} and {position}); merge "
                    f"the relations or rename one before building the database"
                )
        schema = DatabaseSchema(r.schema for r in relations)
        database = cls(schema)
        for relation in relations:
            database._relations[relation.name] = relation
            relation.attach_counter(database.counter)
        return database

    @classmethod
    def from_dict(
        cls,
        schema: DatabaseSchema,
        data: Mapping[str, Iterable[Sequence[Any]]],
    ) -> "Database":
        """Build a database from ``{relation_name: [tuple, ...]}``."""
        database = cls(schema)
        for name, rows in data.items():
            database.extend(name, rows)
        return database

    # -- relation access -----------------------------------------------------------

    def relation(self, name: str) -> Relation:
        """The relation named ``name``."""
        try:
            return self._relations[name]
        except KeyError:
            raise UnknownRelationError(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def relations(self) -> tuple[Relation, ...]:
        return tuple(self._relations.values())

    @property
    def total_tuples(self) -> int:
        """Total number of tuples across all relations (the paper's ``|D|``)."""
        return sum(len(r) for r in self._relations.values())

    def __repr__(self) -> str:
        return f"Database({len(self._relations)} relations, {self.total_tuples} tuples)"

    # -- mutation ------------------------------------------------------------------

    @property
    def data_version(self) -> int:
        """Monotonic counter bumped once per committed write batch.

        Index caches (the backend's views, the executor's prepared
        :class:`~repro.access.indexes.AccessIndexes`) fingerprint themselves
        with this value, so data loaded *after* index construction is seen by
        later fetches instead of being silently invisible.  Mutating a
        :class:`Relation` directly (bypassing the database) does not bump it.
        """
        return self._data_version

    @property
    def write_epoch(self) -> int:
        """Seqlock word for lock-free consistent reads of the index catalog.

        Even while no write batch is committing, odd while one is.  A reader
        that (1) observes an even epoch, (2) reads ``data_version`` and binds
        indexes from the catalog, then (3) observes the *same* epoch, has a
        snapshot consistent with that version; otherwise it must retry.
        """
        return self._write_epoch

    def relation_version(self, name: str) -> int:
        """Monotonic per-relation write counter (0 until first write).

        Lets caches scope their invalidation to the relations a write batch
        actually touched instead of discarding everything on any change.
        """
        return self._relation_versions.get(name, 0)

    def apply_writes(
        self,
        inserts: Mapping[str, Iterable[Sequence[Any]]] | None = None,
        deletes: Mapping[str, Iterable[Sequence[Any]]] | None = None,
    ) -> dict[str, tuple[int, int]]:
        """Atomically apply one batch of inserts and row-deletes.

        Every row of every relation is validated before anything is applied
        (all-or-nothing at the batch level); per relation, deletes land before
        inserts.  The batch is *staged* first — victims located through the
        relation's position map, each index on a written relation succeeded by
        its copy-on-write :meth:`~repro.relational.indexes.HashIndex.derived`
        copy — and only then published: relation rows, catalog entries and
        versions change together inside the seqlock window, so a failure
        while staging leaves the store at the old version, and the superseded
        index snapshots stay valid for in-flight executions that already
        bound them.  The batch commits with a single ``data_version`` bump —
        the linearization point every version-stamped reader observes.

        Cost: O(|batch| x indexes on the written relations).  The stored rows
        visited are those of the buckets the batch touches, never the
        relation; beyond them a commit takes pointer-level copies of the
        relation's row list and of one bucket map per distinct index key.

        Returns ``{relation: (inserted, deleted)}`` counts for the relations
        the batch changed.  Deletes remove every stored copy of each given
        row (``DELETE WHERE`` multiset semantics); absent rows delete zero
        copies and do not count as a change.
        """
        with self._write_lock:
            staged: list[tuple[str, Relation, list[Row], list[Row]]] = []
            names = dict.fromkeys(list(deletes or ()) + list(inserts or ()))
            for name in names:
                relation = self.relation(name)
                ins = [relation._validated(row) for row in (inserts or {}).get(name, ())]
                removed = relation.copies((deletes or {}).get(name, ()))
                if ins or removed:
                    staged.append((name, relation, ins, removed))
            if not staged:
                return {}
            # Index maintenance runs only once the whole batch has validated,
            # and still touches nothing a reader can see.
            successors = [
                self.indexes.derived(name, inserted=ins, deleted=removed)
                for name, _relation, ins, removed in staged
            ]
            counts: dict[str, tuple[int, int]] = {}
            self._write_epoch += 1  # odd: commit in progress
            try:
                for (name, relation, ins, removed), indexes in zip(staged, successors):
                    relation.delete_rows(removed)
                    relation.extend(ins)
                    self.indexes.publish(indexes)
                    self._relation_versions[name] = self.relation_version(name) + 1
                    counts[name] = (len(ins), len(removed))
                self._data_version += 1
            finally:
                self._write_epoch += 1  # even: committed
            return counts

    def insert(self, relation_name: str, row: Sequence[Any]) -> None:
        """Insert a tuple (a one-row write batch; indexes maintained in place).

        Prefer :meth:`extend` or :meth:`apply_writes` for bulk loads — each
        call commits one version.
        """
        self.apply_writes(inserts={relation_name: [row]})

    def extend(self, relation_name: str, rows: Iterable[Sequence[Any]]) -> None:
        """Insert several tuples into one relation as one committed batch."""
        self.apply_writes(inserts={relation_name: rows})

    def delete(
        self,
        relation_name: str,
        rows_or_predicate: Iterable[Sequence[Any]] | Callable[[Row], bool],
    ) -> int:
        """Delete by explicit rows or by predicate; returns tuples removed.

        A callable argument is evaluated as ``DELETE WHERE predicate(row)``
        against the current tuples; an iterable names the exact rows to
        remove (every stored copy of each).  Both forms commit through
        :meth:`apply_writes`, so indexes are maintained incrementally and the
        change is one version bump.
        """
        with self._write_lock:
            if callable(rows_or_predicate):
                relation = self.relation(relation_name)
                targets = [row for row in relation.tuples() if rows_or_predicate(row)]
            else:
                targets = [tuple(row) for row in rows_or_predicate]
            counts = self.apply_writes(deletes={relation_name: targets})
            return counts.get(relation_name, (0, 0))[1]

    # -- indexing ------------------------------------------------------------------

    def build_index(
        self,
        relation_name: str,
        key: Sequence[str],
        value: Sequence[str] | None = None,
    ) -> HashIndex:
        """Build (or reuse) a hash index on ``relation_name`` keyed by ``key``.

        The returned index charges its probes to this database's counter.
        """
        return self.build_indexes(relation_name, [(key, value)])[0]

    def build_indexes(
        self,
        relation_name: str,
        specs: Sequence[tuple[Sequence[str], Sequence[str] | None]],
    ) -> list[HashIndex]:
        """Build (or reuse) several indexes on one relation with a single scan.

        ``specs`` is a sequence of ``(key, value)`` pairs as accepted by
        :meth:`build_index`.  Specs already present in the catalog are reused;
        the missing ones are constructed together via
        :meth:`~repro.relational.indexes.HashIndex.build_shared`, so the
        relation is scanned once no matter how many indexes it backs, and
        every index on one key — built now or earlier — shares one bucket map.
        """
        relation = self.relation(relation_name)
        resolved: list[HashIndex | None] = []
        #: Canonical missing spec -> positions in ``specs`` awaiting it, so a
        #: spec requested twice is built once and fanned out to all positions.
        missing: dict[tuple[tuple[str, ...], tuple[str, ...] | None], list[int]] = {}
        for position, (key, value) in enumerate(specs):
            existing = self.indexes.find(relation_name, key, value)
            resolved.append(existing)
            if existing is None:
                canonical = (tuple(key), tuple(value) if value is not None else None)
                missing.setdefault(canonical, []).append(position)
        if missing:
            # Under the writer lock: an index scanned from pre-commit rows
            # must not reach the catalog after that commit's successors did.
            with self._write_lock:
                built = HashIndex.build_shared(
                    relation,
                    list(missing),
                    counter=self.counter,
                    existing=self.indexes.indexes_for(relation_name),
                )
                for positions, index in zip(missing.values(), built):
                    registered = self.indexes.add(index)
                    for position in positions:
                        resolved[position] = registered
        unresolved = [position for position, index in enumerate(resolved) if index is None]
        if unresolved:  # pragma: no cover - defensive
            raise SchemaError(
                f"build_indexes left specs {unresolved} of {relation_name!r} unresolved; "
                f"result would misalign with the requested specs"
            )
        return resolved  # type: ignore[return-value]

    def find_index(
        self, relation_name: str, key: Sequence[str], value: Sequence[str] | None = None
    ) -> HashIndex | None:
        """Look up a previously built index, or ``None``."""
        return self.indexes.find(relation_name, key, value)

    # -- storage seam --------------------------------------------------------------

    @property
    def backend(self):
        """This database viewed as a storage backend (memoized).

        Executors accept databases and backends interchangeably; the memoized
        instance keeps the executor-side weak caches (constraint indexes,
        prepared schemas) keyed by one stable object per database.
        """
        backend = self._backend
        if backend is None:
            from ..storage.memory import InMemoryBackend  # local: storage builds on this module

            backend = self._backend = InMemoryBackend(self)
        return backend

    def as_storage_backend(self):
        """Protocol hook shared with :class:`~repro.storage.base.StorageBackend`."""
        return self.backend

    # -- accounting ----------------------------------------------------------------

    def reset_counter(self) -> None:
        """Zero the shared access counter."""
        self.counter.reset()

    def access_snapshot(self) -> AccessSnapshot:
        """Snapshot of the shared counter (for differencing around a query)."""
        return self.counter.snapshot()

    def accesses_since(self, snapshot: AccessSnapshot) -> AccessSnapshot:
        """Counter deltas accumulated since ``snapshot``."""
        return self.counter.since(snapshot)

    # -- scaling -------------------------------------------------------------------

    def scaled_copy(self, fraction: float, seed: int = 0) -> "Database":
        """A new database containing roughly ``fraction`` of each relation.

        Used by the Figure 5(a)/(e)/(i) experiments, which evaluate the same
        queries on 2^-5 ... 1 scalings of a dataset.  Selection is a
        deterministic stride-based subsample so repeated calls are stable; it
        keeps the first tuples of each relation, which preserves referential
        clustering produced by the generators.
        """
        if not 0 < fraction <= 1:
            raise SchemaError(f"fraction must be in (0, 1], got {fraction}")
        copy = Database(self.schema)
        for relation in self:
            keep = max(1, int(len(relation) * fraction)) if len(relation) else 0
            copy.relation(relation.name).extend(relation.tuples()[:keep])
        return copy

    def summary(self) -> str:
        """Human-readable per-relation cardinality summary."""
        lines = [f"Database: {self.total_tuples} tuples in {len(self._relations)} relations"]
        for relation in self:
            lines.append(f"  {relation.name}: {len(relation)} tuples")
        return "\n".join(lines)
