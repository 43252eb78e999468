"""Reads beside commits, undrained: the write path's concurrency regression.

Reader threads stream hot-key requests through a :class:`QueryService` while
a writer commits a thousand batches, and nobody waits for anybody — the
schedule the end-to-end benchmark had to avoid, because a reader memoizing a
probe into ``HashIndex._projected`` while ``HashIndex.derived`` iterated it
broke about one commit in six hundred (``dictionary changed size during
iteration``) and left the store half-written.  Two things must hold: no
operation fails, and every answer equals the serial naive oracle's at exactly
the ``data_version`` the answer reports.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time

from repro.execution import BoundedEngine
from repro.relational import Database
from repro.service import QueryService
from repro.spc import ParameterizedQuery
from repro.storage import as_backend
from repro.workloads import generate_social_database, query_q1, social_access_schema

BATCHES = 1000
READERS = 3
JOIN_TIMEOUT = 120.0


def _clone(database: Database) -> Database:
    clone = Database(database.schema)
    for relation in database.relations():
        clone.extend(relation.schema.name, relation.tuples())
    return clone


def _batches(base: Database, user: str, albums: list[str]) -> list[dict]:
    """Batch i tags ``user`` on one more photo of ``albums`` and untags batch i-1's.

    Every batch changes the answer of one hot binding, so an answer computed
    from any other version than the one it reports is caught.  Photos already
    carrying a tag of ``user`` are left alone (the access schema bounds the
    taggers per photo and taggee).
    """
    friend = next(row[1] for row in base.relation("friends") if row[0] == user)
    tagged = {row[0] for row in base.relation("tagging") if row[2] == user}
    photos = [
        row[0]
        for row in base.relation("in_album")
        if row[1] in albums and row[0] not in tagged
    ]
    batches, live = [], []
    for serial in range(BATCHES):
        rows = [(photos[serial % len(photos)], friend, user)]
        batches.append({"inserts": {"tagging": rows}, "deletes": {"tagging": live}})
        live = rows
    return batches


def test_a_thousand_undrained_commits_beside_hot_readers():
    base = generate_social_database(scale=0.1, seed=5)
    access = social_access_schema()
    q1 = query_q1()
    template = ParameterizedQuery(
        q1, {"album": q1.ref("ia", "album_id"), "user": q1.ref("f", "user_id")}
    )
    hot = [{"album": album, "user": "u0"} for album in ("a0", "a1")]
    batches = _batches(base, "u0", ["a0", "a1"])
    backend = as_backend(_clone(base))
    v0 = backend.data_version
    everyone = [
        {"album": album, "user": user}
        for album in sorted({row[1] for row in base.relation("in_album")})
        for user in sorted({row[0] for row in base.relation("friends")})
    ]

    failures: list[BaseException] = []
    observed: list[tuple[int, int, frozenset]] = []
    done = threading.Event()
    submitted = itertools.count()
    reads = 0

    def writer(service: QueryService) -> None:
        try:
            for serial, batch in enumerate(batches):
                # Paced by submissions, never by completions: on average one
                # read is admitted per commit, and none is waited for.
                while reads < serial:
                    time.sleep(0)
                service.apply_writes(**batch)
        except BaseException as error:  # reported after the joins
            failures.append(error)
        finally:
            done.set()

    def reader(service: QueryService, offset: int) -> None:
        nonlocal reads
        mine = []
        try:
            serial = offset
            while not done.is_set():
                pick = serial % len(hot)
                future = service.submit(template, **hot[pick])
                reads = next(submitted)
                result = future.result(timeout=JOIN_TIMEOUT)
                mine.append((pick, result.details["data_version"], result.as_set))
                serial += 1
        except BaseException as error:
            failures.append(error)
        observed.extend(mine)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # hand the interpreter over mid-commit, often
    try:
        with QueryService(backend, access, workers=READERS) as service:
            # A probe memo worth iterating: every stored tag, probed once.
            service.run_many(template, everyone)
            threads = [threading.Thread(target=writer, args=(service,))] + [
                threading.Thread(target=reader, args=(service, offset))
                for offset in range(READERS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=JOIN_TIMEOUT)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)

    assert failures == []
    assert backend.data_version == v0 + BATCHES
    assert len({version for _, version, _ in observed}) > BATCHES // 10  # reads overlapped commits

    # The serial oracle: replay the batches in commit order, answering each
    # observed (binding, version) by naive evaluation at that version.
    oracle_engine = BoundedEngine(access)
    shadow = _clone(base)
    by_version: dict[int, list[tuple[int, frozenset]]] = {}
    for pick, version, answer in observed:
        by_version.setdefault(version, []).append((pick, answer))
    assert v0 <= min(by_version) and max(by_version) <= v0 + BATCHES
    for version in range(v0, v0 + BATCHES + 1):
        if version > v0:
            shadow.apply_writes(**batches[version - v0 - 1])
        expected: dict[int, frozenset] = {}
        for pick, answer in by_version.get(version, ()):
            if pick not in expected:
                expected[pick] = oracle_engine.execute_naive(
                    template.bind(**hot[pick]), shadow
                ).as_set
            assert answer == expected[pick], (
                f"answer for {hot[pick]} differs from the oracle at version {version}"
            )
