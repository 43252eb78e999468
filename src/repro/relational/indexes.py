"""Hash indices over relations.

An access constraint ``X -> (Y, N)`` is "a combination of a cardinality
constraint and an index": given an ``X``-value it must be possible to retrieve
the at most ``N`` corresponding ``Y``-values with a cost measured in ``N``,
not in ``|D|``.  :class:`HashIndex` provides that retrieval primitive: an
in-memory hash map from ``X``-values to the tuples carrying them, returning
projections on demand.

The index charges the tuples it returns to the relation's access counter via
:meth:`HashIndex.probe`, so bounded plans are charged exactly for what they
fetch (the paper's ``|D_Q|``).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Iterable, Sequence

from .algebra import row_extractor
from .relation import Relation
from .statistics import AccessCounter

Row = tuple[Any, ...]
Buckets = dict[Row, list[Row]]


class HashIndex:
    """A hash index on a set of key attributes of a relation.

    Parameters
    ----------
    relation:
        The indexed relation.
    key:
        Attribute names forming the lookup key ``X``.  An empty key is
        allowed and is how bounded-domain access constraints (empty ``X``)
        are served: the index then keeps no row buckets at all, only the
        distinct ``value``-projections of the relation with the number of
        stored rows carrying each (see *Cost model*).
    value:
        Attribute names to return per match.  When omitted, probes return
        whole tuples (the ``X -> (R, N)`` case of the paper).
    buckets:
        A prebuilt bucket map to share instead of scanning the relation.
        Every index on one ``(relation, key)`` holds the *same* map object
        whatever its value projection; :meth:`build_shared`,
        :meth:`derived` and the database's catalog pass it along.

    Cost model
    ----------
    An index is an immutable snapshot; a write batch produces a successor
    through :meth:`derived` at a cost measured in the batch, never in
    ``|relation|``: the rows of the touched buckets are the only stored rows
    it visits.  A keyed index additionally takes one pointer-level copy of
    its bucket map (shared by all indexes on that key, so taken once per
    key) and of its probe memo; an empty-key index updates one counter per
    written row and re-lists its at most ``N`` distinct projections.
    """

    __slots__ = (
        "relation",
        "key",
        "value",
        "_key_positions",
        "_value_positions",
        "_project",
        "_buckets",
        "_projected",
        "_copies",
        "_counter",
    )

    def __init__(
        self,
        relation: Relation,
        key: Sequence[str],
        value: Sequence[str] | None = None,
        counter: AccessCounter | None = None,
        buckets: Buckets | None = None,
    ) -> None:
        schema = relation.schema
        self.relation = relation
        self.key = tuple(key)
        self.value = tuple(value) if value is not None else schema.attribute_names
        self._key_positions = schema.positions(self.key)
        self._value_positions = schema.positions(self.value)
        self._project = row_extractor(self._value_positions)
        self._counter = counter if counter is not None else relation._counter
        # Distinct value-projections per key, materialized lazily on first
        # probe of each key (the paper's "projection of R on X ∪ Y indexed on
        # X"); entries share the staleness contract of the buckets themselves.
        # The in-place memoization in probe_shared is a deliberate benign
        # race: concurrent probes of one key compute identical values, and
        # the single dict store publishes one of them atomically (GIL).
        # guarded-by: none — idempotent memo, racing writers agree
        self._projected: dict[Row, list[Row]] = {}
        #: Empty-key indexes only: distinct projection -> stored rows carrying
        #: it.  The keys, in order, are the ``()`` entry of ``_projected``.
        self._copies: dict[Row, int] | None = None
        if buckets is None:
            buckets = {}
            rows = relation.tuples()
            if self.key:
                extract = row_extractor(self._key_positions)
                for row in rows:
                    buckets.setdefault(extract(row), []).append(row)
            else:
                self._count(rows)
        self._buckets = buckets  # published-snapshot

    def _count(self, rows: Iterable[Row]) -> None:
        """Empty key: take the distinct projections of ``rows`` with multiplicity."""
        self._copies = dict(Counter(map(self._project, rows)))
        if self._copies:
            self._projected[()] = list(self._copies)

    @classmethod
    def build_shared(
        cls,
        relation: Relation,
        specs: Sequence[tuple[Sequence[str], Sequence[str] | None]],
        counter: AccessCounter | None = None,
        existing: Iterable["HashIndex"] = (),
    ) -> list["HashIndex"]:
        """Build several indexes over ``relation`` with a single scan.

        ``specs`` is a sequence of ``(key, value)`` attribute-name pairs, one
        per requested index.  One bucket map is filled per *distinct* key —
        specs that differ only in their value projection share it, as do the
        ``existing`` indexes already built on the relation — in one pass over
        the relation's tuples, so building ``k`` indexes costs one scan
        instead of ``k``.  Empty-key specs fill no map; each counts its own
        distinct projections.
        """
        schema = relation.schema
        maps: dict[tuple[str, ...], Buckets] = {
            index.key: index._buckets for index in existing
        }
        missing = [
            key for key in dict.fromkeys(tuple(key) for key, _ in specs) if key not in maps
        ]
        for key in missing:
            maps[key] = {}
        rows = relation.tuples() if specs else []
        per_index = [
            (row_extractor(schema.positions(key)), maps[key]) for key in missing if key
        ]
        if per_index:
            for row in rows:
                for extract, buckets in per_index:
                    buckets.setdefault(extract(row), []).append(row)
        indexes = []
        for key, value in specs:
            index = cls(relation, key, value, counter=counter, buckets=maps[tuple(key)])
            if not index.key:
                index._count(rows)
            indexes.append(index)
        return indexes

    def derived(
        self,
        inserted: Iterable[Sequence[Any]] = (),
        deleted: Iterable[Sequence[Any]] = (),
        sibling: "HashIndex | None" = None,
    ) -> "HashIndex":
        """A new index equal to this one after applying a write batch (copy-on-write).

        ``deleted`` lists the stored tuples the batch removed, one entry per
        removed copy (what :meth:`Relation.delete_rows` returns).  Only the
        buckets whose key value appears in ``inserted`` or ``deleted`` are
        rebuilt, each from that bucket alone; every untouched bucket (and its
        memoized distinct projection) is shared with this index by reference.
        ``sibling`` is an already-derived successor of another index on the
        same ``(relation, key)``: its bucket map is shared instead of derived
        again.  ``self`` is not modified, so an in-flight execution that
        already bound this index keeps reading the pre-write snapshot — this
        is the MVCC-lite seam the live write path builds on.
        """
        inserted_rows = [tuple(row) for row in inserted]
        deleted_rows = [tuple(row) for row in deleted]
        if self._copies is not None:
            successor = self._successor(self._buckets)
            copies = self._copies.copy()
            for projected in map(self._project, deleted_rows):
                remaining = copies.get(projected, 0) - 1
                if remaining > 0:
                    copies[projected] = remaining
                else:
                    copies.pop(projected, None)
            for projected in map(self._project, inserted_rows):
                copies[projected] = copies.get(projected, 0) + 1
            successor._copies = copies
            if copies:
                successor._projected[()] = list(copies)
            return successor
        extract = row_extractor(self._key_positions)
        added: Buckets = {}
        for row in inserted_rows:
            added.setdefault(extract(row), []).append(row)
        touched = set(added)
        touched.update(map(extract, deleted_rows))
        if sibling is not None:
            buckets = sibling._buckets
        else:
            buckets = self._buckets.copy()
            doomed = set(deleted_rows)
            for key in touched:
                rows = [row for row in buckets.get(key, ()) if row not in doomed]
                rows += added.get(key, ())
                if rows:
                    buckets[key] = rows
                else:
                    buckets.pop(key, None)
        successor = self._successor(buckets)
        # One atomic copy: reader threads memoize into ``_projected`` while
        # this runs, so it is never iterated in place.
        memo = self._projected.copy()
        for key in touched:
            memo.pop(key, None)
        successor._projected = memo
        return successor

    def _successor(self, buckets: Buckets) -> "HashIndex":
        return HashIndex(
            self.relation, self.key, self.value, counter=self._counter, buckets=buckets
        )

    # -- metadata -----------------------------------------------------------------

    @property
    def distinct_keys(self) -> int:
        """Number of distinct key values present in the relation."""
        if self._copies is not None:
            return 1 if self._copies else 0
        return len(self._buckets)

    @property
    def max_bucket_size(self) -> int:
        """Largest number of tuples sharing one key value (0 when empty).

        For an index backing an access constraint ``X -> (Y, N)`` this is a
        lower bound certificate: the data satisfies the constraint only if the
        number of *distinct* ``Y``-values per bucket is at most ``N``.
        """
        if self._copies is not None:
            return sum(self._copies.values())
        return max(map(len, self._buckets.values()), default=0)

    def attach_counter(self, counter: AccessCounter | None) -> None:
        self._counter = counter

    # -- probes -------------------------------------------------------------------

    def probe(self, key_value: Sequence[Any]) -> list[tuple[Any, ...]]:
        """Return the ``value``-projections of tuples matching ``key_value`` (counted).

        Matches are deduplicated on the value projection, reflecting the
        paper's semantics where the index returns the at most ``N`` *distinct*
        ``Y``-values for an ``X``-value.  The distinct projection per key is
        materialized once and reused by later probes of the same key.
        """
        return list(self.probe_shared(tuple(key_value)))

    def probe_shared(self, key_value: tuple[Any, ...]) -> list[tuple[Any, ...]]:
        """Like :meth:`probe`, but returns the internal cached projection list.

        The hot fetch path uses this to skip one list copy per probe; callers
        MUST treat the result as read-only.  ``key_value`` must already be a
        tuple.
        """
        cached = self._projected.get(key_value)
        if cached is None:
            rows = self._buckets.get(key_value)
            if rows is None:
                # Misses are NOT memoized: request-driven probes can carry
                # unboundedly many distinct absent keys, and caching them
                # would grow _projected without limit.  Hits are bounded by
                # the relation's distinct key count.  The empty list is fresh
                # per call so no two callers can share (and corrupt) it.
                cached = []
            else:
                cached = list(dict.fromkeys(map(self._project, rows)))
                self._projected[key_value] = cached
        if self._counter is not None:
            self._counter.record_probe(len(cached))
        return cached

    def probe_full(self, key_value: Sequence[Any]) -> list[tuple[Any, ...]]:
        """Return full matching tuples without value-projection dedup (counted).

        An empty-key index keeps no rows of its own: its one bucket is the
        relation, read as it is now rather than as of this snapshot.
        """
        if self._copies is not None:
            rows = self.relation.tuples()
        else:
            rows = self._buckets.get(tuple(key_value), [])
        if self._counter is not None:
            self._counter.record_probe(len(rows))
        return list(rows)

    def contains_key(self, key_value: Sequence[Any]) -> bool:
        """Membership test on the key, charged as a single-tuple probe."""
        if self._copies is not None:
            present = bool(self._copies)
        else:
            present = tuple(key_value) in self._buckets
        if self._counter is not None:
            self._counter.record_probe(1 if present else 0)
        return present

    def probe_many(self, key_values: Iterable[Sequence[Any]]) -> list[tuple[Any, ...]]:
        """Probe several key values and concatenate the (distinct) results.

        Candidate keys are deduplicated first (insertion-ordered), so a key
        appearing twice is probed — and charged to the access counter — once.
        """
        results: dict[tuple[Any, ...], None] = {}
        for key_value in dict.fromkeys(map(tuple, key_values)):
            for projected in self.probe(key_value):
                results[projected] = None
        return list(results)

    def __repr__(self) -> str:
        return (
            f"HashIndex({self.relation.name}: {','.join(self.key)} -> "
            f"{','.join(self.value)}, {self.distinct_keys} keys)"
        )


Spec = tuple[str, tuple[str, ...], tuple[str, ...]]


class IndexCatalog:
    """All indices built over the relations of one database.

    The catalog is keyed by ``(relation, key attributes, value attributes)``;
    all entries on one ``(relation, key)`` share a single bucket map.  A
    write batch never edits an entry: :meth:`derived` stages copy-on-write
    successors and :meth:`publish` swaps them in with one atomic update.
    """

    __slots__ = ("_indexes",)

    def __init__(self) -> None:
        self._indexes: dict[Spec, HashIndex] = {}

    def add(self, index: HashIndex) -> HashIndex:
        """Register ``index`` and return it (idempotent on identical specs)."""
        spec = (index.relation.name, index.key, index.value)
        self._indexes.setdefault(spec, index)
        return self._indexes[spec]

    def find(
        self, relation: str, key: Sequence[str], value: Sequence[str] | None = None
    ) -> HashIndex | None:
        """Look up an index by exact key (and value projection when given).

        With ``value=None`` any index on the key is acceptable and the one
        with the widest value projection is preferred.
        """
        key = tuple(key)
        if value is not None:
            return self._indexes.get((relation, key, tuple(value)))
        best: HashIndex | None = None
        for (rel_name, idx_key, _idx_value), index in self._indexes.items():
            if rel_name == relation and idx_key == key:
                if best is None or len(index.value) > len(best.value):
                    best = index
        return best

    def indexes_for(self, relation: str) -> list[HashIndex]:
        """All indices built on ``relation``."""
        return [idx for (rel, _k, _v), idx in self._indexes.items() if rel == relation]

    def derived(
        self,
        relation: str,
        inserted: Sequence[Row] = (),
        deleted: Sequence[Row] = (),
    ) -> dict[Spec, HashIndex]:
        """Stage the successor of every index on ``relation`` for a write batch.

        Pure: nothing registered changes until :meth:`publish`.  Each index
        is succeeded by its :meth:`HashIndex.derived` copy — the first index
        on a key derives the shared bucket map (touched buckets only, never
        the whole relation), the others on that key adopt it — so a batch
        costs O(|batch| x indexes on the relation), and the superseded
        objects stay valid for executions that already bound them.
        """
        staged: dict[Spec, HashIndex] = {}
        first_on_key: dict[tuple[str, ...], HashIndex] = {}
        for spec, index in list(self._indexes.items()):
            if spec[0] != relation:
                continue
            successor = index.derived(inserted, deleted, first_on_key.get(index.key))
            first_on_key.setdefault(index.key, successor)
            staged[spec] = successor
        return staged

    def publish(self, staged: dict[Spec, HashIndex]) -> None:
        """Replace the staged entries' predecessors (one atomic dict update)."""
        self._indexes.update(staged)

    def __len__(self) -> int:
        return len(self._indexes)

    def __iter__(self):
        return iter(self._indexes.values())
