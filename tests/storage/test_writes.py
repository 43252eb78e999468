"""Unit tests for the live write path: batches, versions, incremental indexes.

The layers under test, bottom-up:

* :class:`~repro.storage.writes.WriteBatch` — the atomic, picklable unit;
* ``Relation.delete_where`` / ``delete_rows`` and the all-or-nothing
  ``extend`` publish semantics;
* :meth:`HashIndex.derived` — copy-on-write incremental maintenance that
  never mutates the superseded snapshot;
* the write cost model, counted not clocked: the stored rows one
  ``apply_writes`` visits do not grow with the relation, and every index on
  one ``(relation, key)`` shares a single bucket map;
* :meth:`Database.apply_writes` — one version bump per committed batch, the
  seqlock write epoch, per-relation versions, validate-then-publish;
* both backends' ``insert`` / ``delete`` / ``apply_writes`` / ``read_view``,
  including the memoized-backend seam regression (a write after
  ``as_backend()`` must be visible) and WAL configuration on file-backed
  SQLite stores;
* :class:`~repro.util.rwlock.ReadWriteLock` — shared/exclusive semantics and
  writer preference.
"""

from __future__ import annotations

import pickle
import sqlite3
import threading
import time

import pytest

from repro.access.constraint import AccessConstraint
from repro.errors import ApiMisuseError, ArityError, SchemaError
from repro.relational import Database
from repro.relational.indexes import HashIndex
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.storage import SQLiteBackend, WriteBatch, as_backend, as_write_batch
from repro.util import ReadWriteLock


def _schema() -> DatabaseSchema:
    return DatabaseSchema(
        [
            RelationSchema("friends", ["user_id", "friend_id"]),
            RelationSchema("tags", ["photo_id", "user_id"]),
        ]
    )


def _db() -> Database:
    db = Database(_schema())
    db.extend("friends", [("u0", "u1"), ("u0", "u2"), ("u1", "u2")])
    db.extend("tags", [("p0", "u0"), ("p1", "u1")])
    return db


# -- WriteBatch ---------------------------------------------------------------------


class TestWriteBatch:
    def test_normalizes_and_orders_relations(self):
        batch = WriteBatch(
            inserts={"friends": [("u2", "u3")], "tags": [("p2", "u2")]},
            deletes={"tags": [("p0", "u0")]},
        )
        # Deletes first, then inserts, deduplicated in insertion order.
        assert batch.relations == ("tags", "friends")
        assert batch.total_rows == 3
        assert bool(batch)

    def test_empty_batch_is_falsy(self):
        assert not WriteBatch()
        assert WriteBatch(inserts={"friends": []}).relations == ()

    def test_restricted_to(self):
        batch = WriteBatch(
            inserts={"friends": [("a", "b")], "tags": [("p", "u")]},
        )
        only = batch.restricted_to(["tags"])
        assert only.relations == ("tags",)
        assert only.inserts["tags"] == (("p", "u"),)

    def test_pickle_round_trip(self):
        batch = WriteBatch(
            inserts={"friends": [("a", "b")]}, deletes={"tags": [("p", "u")]}
        )
        clone = pickle.loads(pickle.dumps(batch))
        assert clone.inserts == batch.inserts
        assert clone.deletes == batch.deletes
        assert clone.relations == batch.relations

    def test_as_write_batch_rejects_both_forms(self):
        batch = WriteBatch(inserts={"friends": [("a", "b")]})
        with pytest.raises(ApiMisuseError):
            as_write_batch(batch, inserts={"tags": [("p", "u")]})
        assert as_write_batch(batch) is batch
        built = as_write_batch(None, inserts={"friends": [("a", "b")]})
        assert built.relations == ("friends",)


# -- Relation publish semantics ------------------------------------------------------


class TestRelationWrites:
    def test_extend_is_all_or_nothing(self):
        db = _db()
        relation = db.relation("friends")
        before = relation.tuples()
        with pytest.raises(ArityError):
            relation.extend([("u5", "u6"), ("bad",)])
        assert relation.tuples() == before

    def test_delete_rows_removes_every_copy(self):
        db = Database(_schema())
        db.extend("friends", [("a", "b"), ("a", "b"), ("c", "d")])
        removed = db.relation("friends").delete_rows([("a", "b")])
        assert removed == [("a", "b"), ("a", "b")]
        assert db.relation("friends").tuples() == [("c", "d")]

    def test_delete_where_returns_removed(self):
        db = _db()
        removed = db.relation("friends").delete_where(lambda row: row[0] == "u0")
        assert sorted(removed) == [("u0", "u1"), ("u0", "u2")]
        assert db.relation("friends").tuples() == [("u1", "u2")]


# -- HashIndex copy-on-write ---------------------------------------------------------


class TestDerivedIndex:
    def _index(self, db: Database) -> HashIndex:
        return db.build_indexes("friends", [(("user_id",), ["friend_id"])])[0]

    def test_old_snapshot_survives_derivation(self):
        db = _db()
        index = self._index(db)
        derived = index.derived(inserted=[("u0", "u9")], deleted=[("u0", "u1")])
        # The superseded snapshot still answers with the pre-write rows.
        assert sorted(index.probe(("u0",))) == [("u1",), ("u2",)]
        assert sorted(derived.probe(("u0",))) == [("u2",), ("u9",)]

    def test_untouched_buckets_are_shared(self):
        db = _db()
        index = self._index(db)
        derived = index.derived(inserted=[("u0", "u9")])
        # Copy-on-write: only the touched bucket is rebuilt.
        assert derived._buckets[("u1",)] is index._buckets[("u1",)]
        assert derived._buckets[("u0",)] is not index._buckets[("u0",)]

    def test_catalog_maintains_find_without_rescan(self):
        db = _db()
        self._index(db)
        counter = db.counter
        before_scans = counter.scans
        db.apply_writes(inserts={"friends": [("u0", "u9")]})
        found = db.indexes.find("friends", ("user_id",), ("friend_id",))
        assert found is not None
        assert sorted(found.probe_shared(("u0",))) == [("u1",), ("u2",), ("u9",)]
        # Incremental maintenance: the write triggered no relation scan.
        assert counter.scans == before_scans


# -- the cost of a write: counted, not clocked -----------------------------------------


class _Cell:
    """A stored value that counts every hash and comparison made of it.

    Hashing or comparing a stored row (or a key or projection cut from it)
    hashes or compares its cells, so ``touches`` counts visits of stored
    rows.  Pointer-level copies of the containers holding them do not.
    """

    __slots__ = ("value",)
    touches = 0

    def __init__(self, value) -> None:
        self.value = value

    def __hash__(self) -> int:
        _Cell.touches += 1
        return hash(self.value)

    def __eq__(self, other) -> bool:
        _Cell.touches += 1
        return isinstance(other, _Cell) and self.value == other.value


_ITEM_SPECS = {
    "keyed": [(("item_id",), ["group"]), (("item_id",), ["size"])],
    "empty-key": [((), ["group"]), ((), ["size"])],
}


def _items(cardinality: int, index_kinds) -> Database:
    """``cardinality`` rows, two per ``item_id``, seven groups, three sizes."""
    schema = DatabaseSchema([RelationSchema("items", ["item_id", "group", "size"])])
    db = Database(schema)
    db.extend(
        "items",
        [
            (_Cell(f"i{n // 2}"), _Cell(f"g{n % 7}"), _Cell(n % 3))
            for n in range(cardinality)
        ],
    )
    db.build_indexes("items", [spec for kind in index_kinds for spec in _ITEM_SPECS[kind]])
    # Warm the relation's position map: built once, on the first delete.
    db.apply_writes(inserts={"items": [(_Cell("warm"), _Cell("g0"), _Cell(0))]})
    db.apply_writes(deletes={"items": [(_Cell("warm"), _Cell("g0"), _Cell(0))]})
    return db


def _visits(db: Database, **batch) -> int:
    before = _Cell.touches
    db.apply_writes(**batch)
    return _Cell.touches - before


class TestWriteCostModel:
    BASE = 200

    @pytest.mark.parametrize(
        "index_kinds, operation",
        [
            (("keyed",), "insert"),
            (("empty-key",), "insert"),
            (("keyed", "empty-key"), "delete"),
        ],
    )
    def test_rows_visited_do_not_grow_with_the_relation(self, index_kinds, operation):
        counts = []
        for scale in (1, 8):
            db = _items(self.BASE * scale, index_kinds)
            if operation == "insert":
                batch = {
                    "inserts": {
                        "items": [
                            (_Cell("i0"), _Cell("g1"), _Cell(2)),  # an existing bucket
                            (_Cell("new"), _Cell("g9"), _Cell(9)),  # a new one
                        ]
                    }
                }
            else:
                batch = {"deletes": {"items": db.relation("items").tuples()[10:12]}}
            counts.append(_visits(db, **batch))
            assert len(db.relation("items")) == self.BASE * scale + (
                2 if operation == "insert" else -2
            )
        assert counts[0] > 0  # the instrument is live: the batch itself is hashed
        assert counts[0] == counts[1]

    def test_indexes_on_one_key_share_one_bucket_map(self):
        db = _items(self.BASE, ("keyed", "empty-key"))
        # Built later and alone: adopts the map its key already has.
        db.build_index("items", ["item_id"], ["item_id", "group", "size"])
        for _ in range(2):
            indexes = db.indexes.indexes_for("items")
            assert len(indexes) == 5
            for key in (("item_id",), ()):
                assert len({id(i._buckets) for i in indexes if i.key == key}) == 1
            # ... and their successors after a write still do.
            db.apply_writes(inserts={"items": [(_Cell("i1"), _Cell("g2"), _Cell(1))]})

    def test_empty_key_index_counts_copies(self):
        db = _items(self.BASE, ("empty-key",))
        sizes = db.find_index("items", (), ("size",))
        assert sorted(row[0].value for row in sizes.probe(())) == [0, 1, 2]
        lone = (_Cell("solo"), _Cell("g0"), _Cell(7))
        db.apply_writes(inserts={"items": [lone, lone]})
        grown = db.find_index("items", (), ("size",))
        assert sorted(row[0].value for row in grown.probe(())) == [0, 1, 2, 7]
        # The superseded snapshot is untouched; both copies must go before 7 does.
        assert sorted(row[0].value for row in sizes.probe(())) == [0, 1, 2]
        assert db.apply_writes(deletes={"items": [lone]}) == {"items": (0, 2)}
        shrunk = db.find_index("items", (), ("size",))
        assert sorted(row[0].value for row in shrunk.probe(())) == [0, 1, 2]


# -- Database.apply_writes -----------------------------------------------------------


class TestDatabaseApplyWrites:
    def test_counts_and_single_version_bump(self):
        db = _db()
        v0 = db.data_version
        counts = db.apply_writes(
            inserts={"friends": [("u2", "u3")], "tags": [("p2", "u2")]},
            deletes={"friends": [("u1", "u2")]},
        )
        assert counts == {"friends": (1, 1), "tags": (1, 0)}
        assert db.data_version == v0 + 1
        assert db.write_epoch % 2 == 0

    def test_per_relation_versions_scope_the_bump(self):
        db = _db()
        friends_v = db.relation_version("friends")
        tags_v = db.relation_version("tags")
        db.apply_writes(inserts={"friends": [("u3", "u4")]})
        assert db.relation_version("friends") == friends_v + 1
        assert db.relation_version("tags") == tags_v

    def test_empty_batch_does_not_bump(self):
        db = _db()
        v0 = db.data_version
        assert db.apply_writes(inserts={"friends": []}) == {}
        assert db.data_version == v0

    def test_validation_failure_publishes_nothing(self):
        db = _db()
        v0 = db.data_version
        before = db.relation("friends").tuples()
        with pytest.raises(ArityError):
            db.apply_writes(
                inserts={"friends": [("ok", "row")], "tags": [("too", "many", "cols")]}
            )
        assert db.relation("friends").tuples() == before
        assert db.data_version == v0

    def test_failure_while_staging_publishes_nothing(self, monkeypatch):
        db = _db()
        db.build_indexes("friends", [(("user_id",), ["friend_id"])])
        db.build_indexes("tags", [(("photo_id",), ["user_id"])])
        before = {name: db.relation(name).tuples() for name in ("friends", "tags")}
        catalog = list(db.indexes)
        versions = (db.data_version, db.relation_version("friends"))
        genuine = HashIndex.derived

        def failing(index, *args, **kwargs):
            if index.relation.name == "tags":  # the second relation of the batch
                raise RuntimeError("index maintenance failed")
            return genuine(index, *args, **kwargs)

        monkeypatch.setattr(HashIndex, "derived", failing)
        with pytest.raises(RuntimeError):
            db.apply_writes(
                inserts={"friends": [("u7", "u8")], "tags": [("p7", "u7")]},
                deletes={"friends": [("u0", "u1")]},
            )
        # Old version, whole: rows, catalog entries, versions and epoch.
        assert {name: db.relation(name).tuples() for name in before} == before
        assert all(kept is was for kept, was in zip(db.indexes, catalog))
        assert (db.data_version, db.relation_version("friends")) == versions
        assert db.write_epoch % 2 == 0
        monkeypatch.undo()
        assert db.apply_writes(inserts={"tags": [("p7", "u7")]}) == {"tags": (1, 0)}

    def test_deletes_apply_before_inserts_per_relation(self):
        db = _db()
        db.apply_writes(
            inserts={"friends": [("u0", "u1")]},
            deletes={"friends": [("u0", "u1")]},
        )
        # The delete removed the old copy; the insert re-added one.
        assert db.relation("friends").tuples().count(("u0", "u1")) == 1

    def test_delete_with_predicate(self):
        db = _db()
        removed = db.delete("friends", lambda row: row[0] == "u0")
        assert removed == 2
        assert db.relation("friends").tuples() == [("u1", "u2")]


# -- the memoized-backend seam (satellite regression) --------------------------------


class TestBackendSeam:
    CONSTRAINT = AccessConstraint("friends", ["user_id"], ["friend_id"], 10)
    OTHER = AccessConstraint("tags", ["photo_id"], ["user_id"], 10)

    def test_write_after_as_backend_is_visible(self):
        db = _db()
        backend = as_backend(db)
        assert sorted(backend.fetch(self.CONSTRAINT, [("u0",)])) == [
            ("u0", "u1"),
            ("u0", "u2"),
        ]
        db.insert("friends", ("u0", "u9"))
        assert sorted(backend.fetch(self.CONSTRAINT, [("u0",)])) == [
            ("u0", "u1"),
            ("u0", "u2"),
            ("u0", "u9"),
        ]

    def test_backend_write_api_round_trips(self):
        db = _db()
        backend = as_backend(db)
        assert backend.insert("friends", [("u7", "u8")]) == 1
        assert ("u7", "u8") in backend.dump("friends")
        assert backend.delete("friends", [("u7", "u8")]) == 1
        assert ("u7", "u8") not in backend.dump("friends")

    def test_invalidation_is_scoped_per_relation(self):
        db = _db()
        backend = as_backend(db)
        backend.fetch(self.CONSTRAINT, [("u0",)])
        backend.fetch(self.OTHER, [("p0",)])
        untouched_view = backend._views[(self.OTHER, True)]
        db.insert("friends", ("u0", "u9"))
        backend.fetch(self.CONSTRAINT, [("u0",)])
        backend.fetch(self.OTHER, [("p0",)])
        # The written relation's view was rebuilt; the other stayed bound.
        assert backend._views[(self.OTHER, True)] is untouched_view

    def test_memory_read_view_yields_none(self):
        backend = as_backend(_db())
        with backend.read_view() as version:
            assert version is None


# -- SQLite backend ------------------------------------------------------------------


class TestSQLiteWrites:
    def test_insert_delete_parity_with_memory(self):
        db = _db()
        backend = SQLiteBackend.from_database(db)
        v0 = backend.data_version
        counts = backend.apply_writes(
            as_write_batch(
                None,
                inserts={"friends": [("u2", "u3")]},
                deletes={"tags": [("p0", "u0")]},
            )
        )
        assert counts == {"tags": (0, 1), "friends": (1, 0)}
        assert backend.data_version == v0 + 1
        assert ("u2", "u3") in backend.dump("friends")
        assert ("p0", "u0") not in backend.dump("tags")

    def test_delete_removes_every_copy(self):
        db = Database(_schema())
        db.extend("friends", [("a", "b"), ("a", "b"), ("c", "d")])
        backend = SQLiteBackend.from_database(db)
        assert backend.delete("friends", [("a", "b")]) == 2
        assert backend.dump("friends") == [("c", "d")]

    def test_predicate_delete(self):
        backend = SQLiteBackend.from_database(_db())
        assert backend.delete("friends", lambda row: row[0] == "u0") == 2
        assert backend.dump("friends") == [("u1", "u2")]

    def test_read_view_pins_a_version(self):
        backend = SQLiteBackend.from_database(_db())
        with backend.read_view() as version:
            assert version == backend.data_version
        backend.insert("friends", [("x", "y")])
        with backend.read_view() as version:
            assert version == backend.data_version

    def test_validation_failure_applies_nothing(self):
        backend = SQLiteBackend.from_database(_db())
        before = backend.dump("friends")
        v0 = backend.data_version
        with pytest.raises(SchemaError):
            backend.apply_writes(
                as_write_batch(
                    None,
                    inserts={"friends": [("ok", "row"), ("bad", object())]},
                )
            )
        assert backend.dump("friends") == before
        assert backend.data_version == v0

    def test_file_backed_store_uses_wal(self, tmp_path):
        path = str(tmp_path / "store.db")
        backend = SQLiteBackend.from_database(_db(), path=path)
        mode = backend._connections.get().execute("PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        backend.insert("friends", [("w", "x")])
        assert ("w", "x") in backend.dump("friends")
        # An independent connection sees the committed write (WAL persists).
        with sqlite3.connect(path) as conn:
            rows = conn.execute("SELECT * FROM friends").fetchall()
        assert ("w", "x") in rows

    def test_memory_store_skips_wal_keeps_busy_timeout(self):
        backend = SQLiteBackend.from_database(_db())
        conn = backend._connections.get()
        assert conn.execute("PRAGMA journal_mode").fetchone()[0] == "memory"
        assert conn.execute("PRAGMA busy_timeout").fetchone()[0] == 5000

    def test_writes_visible_from_other_threads(self):
        backend = SQLiteBackend.from_database(_db())
        backend.insert("friends", [("t", "u")])
        seen: list = []

        def reader() -> None:
            seen.append(backend.dump("friends"))

        thread = threading.Thread(target=reader)
        thread.start()
        thread.join()
        assert ("t", "u") in seen[0]


# -- ReadWriteLock -------------------------------------------------------------------


class TestReadWriteLock:
    def test_readers_share(self):
        lock = ReadWriteLock()
        inside = threading.Event()
        release = threading.Event()

        def reader() -> None:
            with lock.read():
                inside.set()
                release.wait(timeout=5.0)

        thread = threading.Thread(target=reader)
        thread.start()
        assert inside.wait(timeout=5.0)
        # A second reader enters while the first still holds the shared side.
        entered = []
        with lock.read():
            entered.append(True)
        release.set()
        thread.join()
        assert entered == [True]

    def test_writer_excludes_readers(self):
        lock = ReadWriteLock()
        order: list[str] = []
        writing = threading.Event()
        release = threading.Event()

        def writer() -> None:
            with lock.write():
                writing.set()
                release.wait(timeout=5.0)
                order.append("write-done")

        thread = threading.Thread(target=writer)
        thread.start()
        assert writing.wait(timeout=5.0)

        def reader() -> None:
            with lock.read():
                order.append("read")

        reader_thread = threading.Thread(target=reader)
        reader_thread.start()
        time.sleep(0.02)
        release.set()
        thread.join()
        reader_thread.join()
        assert order == ["write-done", "read"]

    def test_waiting_writer_blocks_new_readers(self):
        lock = ReadWriteLock()
        order: list[str] = []
        reading = threading.Event()
        release_reader = threading.Event()

        def first_reader() -> None:
            with lock.read():
                reading.set()
                release_reader.wait(timeout=5.0)

        def writer() -> None:
            with lock.write():
                order.append("writer")

        def late_reader() -> None:
            with lock.read():
                order.append("late-reader")

        r1 = threading.Thread(target=first_reader)
        r1.start()
        assert reading.wait(timeout=5.0)
        w = threading.Thread(target=writer)
        w.start()
        time.sleep(0.02)  # let the writer queue up
        r2 = threading.Thread(target=late_reader)
        r2.start()
        time.sleep(0.02)
        release_reader.set()
        for thread in (r1, w, r2):
            thread.join()
        # Writer preference: the queued writer went before the late reader.
        assert order == ["writer", "late-reader"]
