"""In-memory relations (tables).

A :class:`Relation` stores tuples as plain Python tuples aligned with its
:class:`~repro.relational.schema.RelationSchema`.  Workload generators build
them once; the live write path mutates them only through the batch methods
(:meth:`Relation.extend`, :meth:`Relation.delete_rows`,
:meth:`Relation.delete_where`), which validate every row first and then
publish the change with a single atomic list operation — a reader holding the
previous row list (or an index bucket snapshot built from it) never observes a
half-applied batch.  :meth:`Relation.delete_rows` costs the rows it removes,
not the relation: victims are found through a row -> positions map built on
the first delete and kept up by every later write.

Relations expose *counted* and *uncounted* access paths.  The counted paths
(:meth:`Relation.scan`) report the tuples they touch to an
:class:`~repro.relational.statistics.AccessCounter` when one is attached via
the owning :class:`~repro.relational.database.Database`; the uncounted paths
(:meth:`Relation.tuples`, iteration) are for test assertions and index builds,
which the paper does not charge to query evaluation.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from ..errors import ArityError, SchemaError
from .schema import RelationSchema
from .statistics import AccessCounter, RelationStatistics


class Relation:
    """A named, schema-conforming multiset of tuples."""

    __slots__ = ("schema", "_rows", "_counter", "_positions")

    def __init__(
        self,
        schema: RelationSchema,
        rows: Iterable[Sequence[Any]] = (),
        counter: AccessCounter | None = None,
    ) -> None:
        self.schema = schema
        self._rows: list[tuple[Any, ...]] = []
        self._counter = counter
        #: row -> its offsets in ``_rows``; ``None`` until a delete needs it.
        self._positions: dict[tuple[Any, ...], list[int]] | None = None
        for row in rows:
            self.insert(row)

    # -- construction -------------------------------------------------------------

    @classmethod
    def from_dicts(
        cls, schema: RelationSchema, records: Iterable[Mapping[str, Any]]
    ) -> "Relation":
        """Build a relation from ``{attribute: value}`` mappings."""
        relation = cls(schema)
        for record in records:
            relation.insert_dict(record)
        return relation

    def insert(self, row: Sequence[Any]) -> None:
        """Append a tuple given in schema attribute order."""
        values = self._validated(row)
        if self._positions is not None:
            self._positions.setdefault(values, []).append(len(self._rows))
        self._rows.append(values)

    def _validated(self, row: Sequence[Any]) -> tuple[Any, ...]:
        """``row`` as a tuple, or :class:`~repro.errors.ArityError`."""
        values = tuple(row)
        if len(values) != self.schema.arity:
            raise ArityError(
                f"relation {self.schema.name!r} expects arity {self.schema.arity}, "
                f"got tuple of length {len(values)}"
            )
        return values

    def insert_dict(self, record: Mapping[str, Any]) -> None:
        """Append a tuple given as an ``{attribute: value}`` mapping."""
        missing = [a for a in self.schema.attribute_names if a not in record]
        if missing:
            raise SchemaError(
                f"record for {self.schema.name!r} is missing attributes: {missing}"
            )
        self.insert(tuple(record[a] for a in self.schema.attribute_names))

    def extend(self, rows: Iterable[Sequence[Any]]) -> None:
        """Append many tuples, all-or-nothing.

        Every row is arity-validated before any is appended, and the batch is
        published with one ``list.extend`` — concurrent readers see either
        none or all of it.
        """
        validated = [self._validated(row) for row in rows]
        if validated:
            if self._positions is not None:
                for position, row in enumerate(validated, start=len(self._rows)):
                    self._positions.setdefault(row, []).append(position)
            self._rows.extend(validated)

    def delete_where(
        self, predicate: Callable[[tuple[Any, ...]], bool]
    ) -> list[tuple[Any, ...]]:
        """Remove every tuple satisfying ``predicate``; return the removed tuples.

        The surviving rows are published with a single list rebind, so a
        concurrent reader sees either the old multiset or the new one — never
        a partially filtered state.
        """
        kept: list[tuple[Any, ...]] = []
        removed: list[tuple[Any, ...]] = []
        for row in self._rows:
            (removed if predicate(row) else kept).append(row)
        if removed:
            self._positions = None
            self._rows = kept
        return removed

    def copies(self, rows: Iterable[Sequence[Any]]) -> list[tuple[Any, ...]]:
        """Every stored copy of each given tuple, found without a scan.

        What :meth:`delete_rows` would remove: a target stored k times
        appears k times however often it is named.  Each target is
        arity-validated.
        """
        targets = dict.fromkeys(map(self._validated, rows))
        if not targets:
            return []
        positions = self._row_positions()
        return [row for row in targets for _ in positions.get(row, ())]

    def delete_rows(self, rows: Iterable[Sequence[Any]]) -> list[tuple[Any, ...]]:
        """Remove every copy of each given tuple; return the removed tuples.

        Matches SQL ``DELETE WHERE`` semantics on a multiset: a target row
        appearing k times in the relation is removed k times regardless of how
        often it appears in ``rows``.  Each target is arity-validated.

        No stored row is scanned: each victim's slot is refilled with the
        relation's last row (so a delete reorders the survivors) on a private
        copy of the row list, which is then published with a single rebind.
        """
        removed = self.copies(rows)
        if not removed:
            return []
        positions = self._row_positions()
        kept = self._rows.copy()
        victims = sorted(
            (slot for row in dict.fromkeys(removed) for slot in positions.pop(row)),
            reverse=True,
        )
        for slot in victims:  # highest first: the last row is never a pending victim
            last = kept.pop()
            if slot < len(kept):
                kept[slot] = last
                slots = positions[last]
                slots[slots.index(len(kept))] = slot
        self._rows = kept
        return removed

    def _row_positions(self) -> dict[tuple[Any, ...], list[int]]:
        positions = self._positions
        if positions is None:
            positions = {}
            for position, row in enumerate(self._rows):
                positions.setdefault(row, []).append(position)
            self._positions = positions
        return positions

    # -- inspection (uncounted) ----------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def cardinality(self) -> int:
        """Number of tuples."""
        return len(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(self._rows)

    def tuples(self) -> list[tuple[Any, ...]]:
        """All tuples, without charging the access counter."""
        return list(self._rows)

    def row_dict(self, row: Sequence[Any]) -> dict[str, Any]:
        """Convert a positional tuple to an ``{attribute: value}`` mapping."""
        return dict(zip(self.schema.attribute_names, row))

    def __contains__(self, row: Sequence[Any]) -> bool:
        return tuple(row) in self._rows

    def __repr__(self) -> str:
        return f"Relation({self.schema.name}, {len(self._rows)} tuples)"

    # -- counted access paths ------------------------------------------------------

    def attach_counter(self, counter: AccessCounter | None) -> None:
        """Attach (or detach) the access counter charged by counted scans."""
        self._counter = counter

    def scan(self) -> Iterator[tuple[Any, ...]]:
        """Iterate over every tuple, charging a full scan to the counter.

        This is the access path a conventional engine uses when no suitable
        index exists; its cost grows linearly with the relation size.
        """
        if self._counter is not None:
            self._counter.record_scan(len(self._rows))
        return iter(list(self._rows))

    def scan_filter(
        self, predicate: Callable[[tuple[Any, ...]], bool]
    ) -> list[tuple[Any, ...]]:
        """Full scan returning only tuples satisfying ``predicate`` (counted)."""
        if self._counter is not None:
            self._counter.record_scan(len(self._rows))
        return [row for row in self._rows if predicate(row)]

    # -- derived values -------------------------------------------------------------

    def project_values(self, attributes: Sequence[str]) -> list[tuple[Any, ...]]:
        """Positional projection of every tuple onto ``attributes`` (uncounted)."""
        positions = self.schema.positions(attributes)
        return [tuple(row[p] for p in positions) for row in self._rows]

    def distinct_values(self, attributes: Sequence[str]) -> set[tuple[Any, ...]]:
        """Distinct combinations of ``attributes`` across the relation (uncounted)."""
        positions = self.schema.positions(attributes)
        return {tuple(row[p] for p in positions) for row in self._rows}

    def statistics(self) -> RelationStatistics:
        """Cardinality plus per-attribute distinct counts."""
        stats = RelationStatistics(cardinality=len(self._rows))
        for attribute in self.schema.attribute_names:
            position = self.schema.position(attribute)
            stats.distinct_counts[attribute] = len({row[position] for row in self._rows})
        return stats

    def sample(self, limit: int) -> list[tuple[Any, ...]]:
        """The first ``limit`` tuples (deterministic; used for previews)."""
        return self._rows[:limit]

    def group_cardinality(self, on: Sequence[str], of: Sequence[str]) -> int:
        """Maximum number of distinct ``of``-values per ``on``-value.

        This is exactly the ``N`` of a candidate access constraint
        ``on -> (of, N)``; constraint discovery uses it directly.
        Returns 0 for an empty relation.
        """
        on_positions = self.schema.positions(on)
        of_positions = self.schema.positions(of)
        groups: dict[tuple[Any, ...], set[tuple[Any, ...]]] = {}
        for row in self._rows:
            key = tuple(row[p] for p in on_positions)
            groups.setdefault(key, set()).add(tuple(row[p] for p in of_positions))
        if not groups:
            return 0
        return max(len(values) for values in groups.values())
