"""The write-path correctness harness: interleavings, oracles, seeded defects.

Three layers of evidence that live updates are safe:

* **Stateful machines** (Hypothesis ``RuleBasedStateMachine``) over the TFACC
  and MOT workloads: random schedules of constraint-safe inserts, deletes and
  bounded queries through a live :class:`~repro.service.QueryService`, with a
  serially-maintained shadow database evaluated by the *naive* executor as
  the independent oracle.  After every query: identical answers, measured
  ``tuples_accessed`` within the plan's certificate, and a ``data_version``
  stamp equal to the store's committed version.

* **Threaded interleavings**: one writer committing batches while several
  reader threads stream bounded queries.  Every result carries the version it
  observed; replaying the write prefix up to that version must reproduce the
  answer exactly — the no-torn-reads check (a result mixing rows from two
  versions matches *no* prefix).

* **Mutation-style negative tests**: a write must outdate exactly what holds
  data — the stale-answer cache and the executor's bound index snapshot — and
  nothing that is analysis (plans, negative verdicts, prepared templates and
  their certificates survive it).  Deliberately skip one of the two hooks and
  assert precisely one of the two checks catches it — evidence the harness
  has teeth, not just green lights.
"""

from __future__ import annotations

import itertools
import random
import threading
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import NotEffectivelyBoundedError
from repro.execution import BoundedEngine
from repro.relational import Database
from repro.service import DegradationPolicy, QueryService, ResiliencePolicy
from repro.spc import ParameterizedQuery
from repro.spc.builder import SPCQueryBuilder
from repro.storage import as_backend
from repro.workloads import (
    generate_mot_database,
    generate_social_database,
    generate_tfacc_database,
    mot_access_schema,
    mot_schema,
    query_q0,
    query_q1,
    social_access_schema,
    social_schema,
    tfacc_access_schema,
    tfacc_schema,
)

RESOLVE_TIMEOUT = 30.0


def _clone(database: Database) -> Database:
    """A fresh, independent database holding the same rows (uncounted load)."""
    clone = Database(database.schema)
    for relation in database.relations():
        clone.extend(relation.schema.name, relation.tuples())
    return clone


# -- workload scenarios (generated once, cloned per machine instance) ---------------


def _tfacc_template() -> ParameterizedQuery:
    query = (
        SPCQueryBuilder(tfacc_schema(), name="live_force_vehicles")
        .add_atom("accident", alias="a")
        .add_atom("vehicle", alias="v")
        .where_eq("a.accident_id", "v.accident_id")
        .select("a.accident_id")
        .select("v.vehicle_id")
        .select("v.vehicle_type")
        .build()
    )
    return ParameterizedQuery(
        query,
        {"date": query.ref("a", "date"), "force": query.ref("a", "police_force")},
    )


def _mot_template() -> ParameterizedQuery:
    query = (
        SPCQueryBuilder(mot_schema(), name="live_vehicle_history")
        .add_atom("mot_test", alias="t")
        .add_atom("garage", alias="g")
        .where_eq("t.garage_id", "g.garage_id")
        .select("t.test_id")
        .select("t.test_result")
        .select("g.region")
        .build()
    )
    return ParameterizedQuery(query, {"vehicle": query.ref("t", "vehicle_id")})


@lru_cache(maxsize=None)
def _scenario(workload: str):
    """(base database, access schema, template, query bindings) — cached."""
    if workload == "tfacc":
        database = generate_tfacc_database(scale=0.1, seed=1)
        access = tfacc_access_schema()
        template = _tfacc_template()
        bindings = [
            {"date": f"2004-{month:02d}-{day:02d}", "force": f"force_{force:02d}"}
            for month, day, force in [
                (1, 3, 1), (2, 5, 7), (3, 7, 13), (4, 9, 21), (5, 11, 33),
                (6, 13, 41), (7, 15, 5), (8, 17, 11),
            ]
        ]
    else:
        database = generate_mot_database(scale=0.1, seed=1)
        access = mot_access_schema()
        template = _mot_template()
        bindings = [{"vehicle": f"v{i:07d}"} for i in range(8)]
    return database, access, template, bindings


class LiveWriteMachine(RuleBasedStateMachine):
    """Random write/query schedules vs a serially-maintained naive oracle.

    Every write is applied to the live service *and* to the shadow database;
    every query is answered by both and compared.  Writes are crafted to
    respect the workload's access constraints (fresh key values), so the
    plan certificates stay valid throughout.
    """

    workload = "tfacc"

    def __init__(self) -> None:
        super().__init__()
        base, access, self.template, self.bindings = _scenario(self.workload)
        database = _clone(base)
        self.backend = as_backend(database)
        self.oracle = _clone(base)
        self.service = QueryService(self.backend, access, workers=1)
        self.oracle_engine = BoundedEngine(access)
        self._fresh = itertools.count()
        self._writes = 0

    def teardown(self) -> None:
        self.service.close()

    # -- write crafting (constraint-safe per workload) -----------------------------

    def _fresh_row(self, pick: int):
        """(relation, row): a copy of an existing row under fresh key values."""
        raise NotImplementedError

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def insert_row(self, pick: int) -> None:
        relation, row = self._fresh_row(pick)
        counts = self.service.apply_writes(inserts={relation: [row]})
        assert counts == {relation: (1, 0)}
        self.oracle.apply_writes(inserts={relation: [row]})
        self._writes += 1

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def delete_row(self, pick: int) -> None:
        relation = self.write_relation
        rows = self.oracle.relation(relation).tuples()
        if not rows:
            return
        row = rows[pick % len(rows)]
        counts = self.service.apply_writes(deletes={relation: [row]})
        assert counts[relation][1] >= 1
        self.oracle.apply_writes(deletes={relation: [row]})
        self._writes += 1

    # -- the oracle comparison -----------------------------------------------------

    @rule(pick=st.integers(min_value=0, max_value=10_000))
    def query(self, pick: int) -> None:
        binding = self.bindings[pick % len(self.bindings)]
        result = self.service.submit(self.template, **binding).result(
            timeout=RESOLVE_TIMEOUT
        )
        reference = self.oracle_engine.execute_naive(
            self.template.bind(**binding), self.oracle
        )
        assert result.as_set == reference.as_set
        # Charging contract: still within the plan's a-priori certificate.
        assert result.stats.plan_bound is not None
        assert result.stats.tuples_accessed <= result.stats.plan_bound
        # The result is stamped with the committed version it observed.
        assert result.details["data_version"] == self.backend.data_version

    @invariant()
    def version_counts_committed_batches(self) -> None:
        assert self.backend.data_version >= self._writes


class TfaccLiveWrites(LiveWriteMachine):
    workload = "tfacc"
    write_relation = "vehicle"

    def _fresh_row(self, pick: int):
        rows = self.oracle.relation("vehicle").tuples()
        row = list(rows[pick % len(rows)])
        row[0] = f"w{next(self._fresh)}"  # fresh vehicle_id, same accident
        return "vehicle", tuple(row)


class MotLiveWrites(LiveWriteMachine):
    workload = "mot"
    write_relation = "mot_test"

    def _fresh_row(self, pick: int):
        rows = self.oracle.relation("mot_test").tuples()
        row = list(rows[pick % len(rows)])
        serial = next(self._fresh)
        # Fresh test_item_id / test_id / test_date keep both MOT constraints
        # ([test_id] -> ..., N=1 and [vehicle_id, test_date] -> ..., N=4) safe.
        row[0] = f"wi{serial}"
        row[1] = f"wt{serial}"
        row[3] = f"2099-{serial}"
        return "mot_test", tuple(row)


TestTfaccLiveWrites = TfaccLiveWrites.TestCase
TestTfaccLiveWrites.settings = settings(
    max_examples=8, stateful_step_count=12, deadline=None
)
TestMotLiveWrites = MotLiveWrites.TestCase
TestMotLiveWrites.settings = settings(
    max_examples=8, stateful_step_count=12, deadline=None
)


# -- threaded interleavings over the social workload --------------------------------


@lru_cache(maxsize=None)
def _social_base():
    return generate_social_database(scale=0.3, seed=5)


def _q1_template() -> ParameterizedQuery:
    q1 = query_q1()
    return ParameterizedQuery(
        q1, {"album": q1.ref("ia", "album_id"), "user": q1.ref("f", "user_id")}
    )


@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=5, deadline=None)
def test_threaded_reads_see_exactly_one_committed_version(seed):
    """Readers racing a writer: every answer matches one write prefix.

    The writer commits batches serially, so version ``v0 + i`` corresponds
    exactly to the first ``i`` batches.  Each result's ``data_version`` stamp
    names the snapshot it ran against; replaying that prefix into a fresh
    database must reproduce the answer byte-for-byte.  A torn read — rows
    mixed from two versions — matches no prefix and fails here.
    """
    rng = random.Random(seed)
    base = _social_base()
    access = social_access_schema()
    template = _q1_template()
    database = _clone(base)
    backend = as_backend(database)
    bindings = [{"album": f"a{i % 24}", "user": f"u{i % 60}"} for i in range(12)]

    tagging = base.relation("tagging").tuples()
    batches = []
    for i in range(6):
        victim = tagging[rng.randrange(len(tagging))]
        fresh = (f"wp{seed % 1000}_{i}", victim[1], victim[2])
        batches.append({"deletes": {"tagging": [victim]}, "inserts": {"tagging": [fresh]}})

    service = QueryService(backend, access, workers=3)
    v0 = backend.data_version
    observations: list[tuple[int, int, frozenset]] = []
    obs_lock = threading.Lock()
    writer_done = threading.Event()
    failures: list[BaseException] = []

    def writer() -> None:
        try:
            for batch in batches:
                service.apply_writes(**batch)
        except BaseException as error:  # surfaced after join
            failures.append(error)
        finally:
            writer_done.set()

    def reader(worker_seed: int) -> None:
        local = random.Random(worker_seed)
        try:
            for _ in range(8):
                pick = local.randrange(len(bindings))
                result = service.submit(template, **bindings[pick]).result(
                    timeout=RESOLVE_TIMEOUT
                )
                with obs_lock:
                    observations.append(
                        (pick, result.details["data_version"], result.as_set)
                    )
        except BaseException as error:
            failures.append(error)

    threads = [threading.Thread(target=writer)] + [
        threading.Thread(target=reader, args=(seed + 1 + i,)) for i in range(2)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=RESOLVE_TIMEOUT)
    try:
        assert not failures, failures
        assert backend.data_version == v0 + len(batches)

        # Post-hoc oracle replay: one shadow database per observed version.
        oracle_engine = BoundedEngine(access)
        oracles: dict[int, Database] = {}

        def oracle_at(version: int) -> Database:
            if version not in oracles:
                shadow = _clone(base)
                for batch in batches[: version - v0]:
                    shadow.apply_writes(**batch)
                oracles[version] = shadow
            return oracles[version]

        for pick, version, answer in observations:
            assert v0 <= version <= v0 + len(batches)
            reference = oracle_engine.execute_naive(
                template.bind(**bindings[pick]), oracle_at(version)
            )
            assert answer == reference.as_set, (
                f"answer for binding {bindings[pick]} does not match the "
                f"committed prefix at version {version}"
            )
    finally:
        service.close()


# -- mutation-style negative tests: the harness catches seeded defects --------------


def _service_with_stale_cache():
    database = _clone(_social_base())
    service = QueryService(
        as_backend(database),
        social_access_schema(),
        workers=1,
        resilience=ResiliencePolicy(
            degradation=DegradationPolicy(serve_stale=True, partial=False)
        ),
    )
    return service


def _unbounded_query():
    """All friendship edges — no parameter can bind friends[user_id]."""
    return (
        SPCQueryBuilder(social_schema(), name="all_friends")
        .add_atom("friends", alias="f")
        .select("f.user_id")
        .select("f.friend_id")
        .build()
    )


#: The write every case below commits: a new photo in album a0 on which a
#: friend of u0 tags u0, so Q1(album=a0, user=u0) gains a row.
_BINDING = {"album": "a0", "user": "u0"}


def _populate_caches(service: QueryService) -> None:
    """Warm all four serving caches: prepared, plan, negative, stale-answer."""
    service.submit(_q1_template(), **_BINDING).result(timeout=RESOLVE_TIMEOUT)
    service.engine.plan(query_q0())
    with pytest.raises(NotEffectivelyBoundedError):
        service.engine.plan(_unbounded_query())


def _write(service: QueryService) -> Database:
    """Commit the write; returns the serial oracle's copy with it applied."""
    friend = next(row[1] for row in service.backend.dump("friends") if row[0] == "u0")
    batch = {
        "inserts": {
            "in_album": [("p_new", "a0")],
            "tagging": [("p_new", friend, "u0")],
        }
    }
    oracle = _clone(service.backend.database)
    assert set(service.apply_writes(**batch)) == {"in_album", "tagging"}
    oracle.apply_writes(**batch)
    return oracle


def _stale_answer_leaks(service: QueryService, relations) -> int:
    """Check 1: stale answers still cached over a relation the write touched."""
    cache = service._stale_cache
    with cache._lock:
        return sum(len(cache._by_relation.get(r, ())) for r in relations)


def _next_answer_is_current(service: QueryService, oracle: Database) -> bool:
    """Check 2: the next answer equals the naive oracle's at the committed version."""
    result = service.submit(_q1_template(), **_BINDING).result(timeout=RESOLVE_TIMEOUT)
    reference = service.engine.execute_naive(_q1_template().bind(**_BINDING), oracle)
    assert ("p_new",) in reference.as_set  # the write is visible to the oracle
    return (
        result.as_set == reference.as_set
        and result.details["data_version"] == service.backend.data_version
    )


class TestSeededInvalidationDefects:
    """Skip exactly one of the write path's two hooks; exactly one check dies."""

    def _checks_failed(self, sabotage) -> set[str]:
        service = _service_with_stale_cache()
        try:
            _populate_caches(service)
            assert _stale_answer_leaks(service, ("in_album", "tagging")) > 0
            sabotage(service)
            oracle = _write(service)
            failed = set()
            if _stale_answer_leaks(service, ("in_album", "tagging")):
                failed.add("stale")
            if not _next_answer_is_current(service, oracle):
                failed.add("rebind")
            return failed
        finally:
            service.close()

    def test_healthy_write_path_is_coherent(self):
        assert self._checks_failed(lambda service: None) == set()

    def test_skipped_stale_cache_invalidation_is_caught(self):
        def sabotage(service: QueryService) -> None:
            service._stale_cache.invalidate = lambda relations: 0

        assert self._checks_failed(sabotage) == {"stale"}

    def test_skipped_index_snapshot_rebind_is_caught(self):
        def sabotage(service: QueryService) -> None:
            executor = service.engine._bounded_executor
            bound = executor.prepare(service.backend, service.engine.access_schema)
            executor._prepare_locked = lambda backend, access_schema: bound

        assert self._checks_failed(sabotage) == {"rebind"}

    def test_compilations_survive_a_write_to_a_relation_they_read(self):
        service = _service_with_stale_cache()
        try:
            _populate_caches(service)
            engine = service.engine
            prepared = engine.prepare_query(_q1_template())
            certificate = prepared.certificate
            assert certificate is not None
            plan = engine.plan(query_q0())
            caches = ("plan", "negative", "prepared")
            before = {name: engine.cache_info()[name].size for name in caches}
            oracle = _write(service)
            # Analysis is data-independent: same objects, certificate attached.
            assert engine.prepare_query(_q1_template()) is prepared
            assert prepared.certificate is certificate
            assert engine.plan(query_q0()) is plan
            assert {name: engine.cache_info()[name].size for name in caches} == before
            # ... while the data the next request reads is the written data.
            assert _next_answer_is_current(service, oracle)
        finally:
            service.close()
