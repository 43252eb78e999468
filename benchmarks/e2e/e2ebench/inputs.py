"""Seeded inputs: TFACC rows, the read mix, write batches and the oracle's answers.

Everything here is a pure function of ``(workload, seed)``; nothing is timed
except data generation itself (``workloads.datagen_s``) and the oracle pass.
The program under test later receives only what this module generated.

The seed decides the *order* of a round's requests, not how much work they
are: the stored data and the multiset of (template, binding) reads of each
segment are the workload's definition (``DEFINITION_SEED``), so every seed
asks for exactly the same tuples and ``tuples_per_request`` is one number per
workload, whatever the seed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass
from typing import NamedTuple

from repro.execution import BoundedExecutor
from repro.planning.qplan import prepare_plan
from repro.relational import Database
from repro.spc import ParameterizedQuery
from repro.spc.builder import SPCQueryBuilder
from repro.storage import InMemoryBackend, WriteBatch
from repro.workloads import generate_tfacc_database, tfacc_access_schema, tfacc_schema

#: Rows inserted (and later deleted) by every write batch.
ROWS_PER_WRITE = 4
#: Never-seen template shapes served once each in a round's cold tail.
COLD_SHAPES = 16
#: The read mix: how many of every ten reads each template gets, in template
#: order (50/30/20 %).
MIX_BLOCK = (5, 3, 2)
#: Seeds the stored data, the popularity ranking and the reads of each segment.
DEFINITION_SEED = 12


class Sizes(NamedTuple):
    """How much one round of a workload does."""

    scale: float
    #: Operations in the light (in-flight 2) and saturated (in-flight 16) segments.
    light: int
    saturated: int
    #: Every ``write_every``-th operation of both segments is a write; 0: none.
    write_every: int
    #: Write batches in the write tail, each followed by one read.  Three where
    #: a write costs tens of milliseconds; on SQLite a write is ~0.3 ms and
    #: three samples a round would be noise, so it gets a hundred.
    tail_writes: int = 3


#: Sized on the reference host so one measured round lasts 2-4 s.  The two
#: SQLite counts are what fits: at ~300 requests/s the 1000 + 1000 of the
#: other tiers would take 7 s a round.
SIZES = {
    "serve_mem": Sizes(8, 2000, 3000, 0),
    "serve_sqlite": Sizes(8, 800, 300, 0, tail_writes=100),
    "serve_sharded": Sizes(8, 2500, 2000, 0),
    "write_mix": Sizes(2, 800, 200, 20),
}
QUICK_SCALE = 0.25
QUICK_OPS = 50


def sizes_for(workload: str, quick: bool) -> Sizes:
    sizes = SIZES[workload]
    if quick:
        return sizes._replace(scale=QUICK_SCALE, light=QUICK_OPS, saturated=QUICK_OPS)
    return sizes


class Read:
    """One read of the mix and the answer the oracle expects for it."""

    __slots__ = ("template", "date", "force", "expected")

    def __init__(self, template: ParameterizedQuery, date: str, force: str) -> None:
        self.template = template
        self.date = date
        self.force = force
        self.expected: frozenset = frozenset()

    @property
    def binding(self) -> dict[str, str]:
        """The template's parameter values."""
        return {"date": self.date, "force": self.force}


class Write:
    """One write: ``rows`` go into ``vehicle``, the previous write's rows come out."""

    __slots__ = ("rows", "pair")

    def __init__(self, rows: list[tuple], pair: tuple[str, str] | None = None) -> None:
        self.rows = rows
        #: The (date, force) binding whose answer these rows change, if any.
        self.pair = pair


class WriteChain:
    """Turns successive :class:`Write` rows into batches that delete their predecessor."""

    def __init__(self) -> None:
        self.live: list[tuple] = []

    def batch(self, rows: list[tuple]) -> WriteBatch:
        batch = WriteBatch(inserts={"vehicle": rows}, deletes={"vehicle": self.live})
        self.live = rows
        return batch


def _anchored(name: str, atoms: list[tuple[str, str]], joins, outputs) -> ParameterizedQuery:
    """A template over ``atoms`` anchored on ``accident(police_force, date)``."""
    builder = SPCQueryBuilder(tfacc_schema(), name=name)
    for relation, alias in atoms:
        builder.add_atom(relation, alias=alias)
    for left, right in joins:
        builder.where_eq(left, right)
    query = builder.select(*outputs).build()
    return ParameterizedQuery(
        query, {"date": query.ref("a", "date"), "force": query.ref("a", "police_force")}
    )


_VEHICLE_ATOMS = [("accident", "a"), ("vehicle", "v")]
_VEHICLE_JOINS = [("a.accident_id", "v.accident_id")]


def read_templates() -> list[ParameterizedQuery]:
    """The three prepared templates of the read mix, lightest plan first."""
    return [
        _anchored(
            "accidents_on_date_force", [("accident", "a")], [],
            ["a.accident_id", "a.severity"],
        ),
        _anchored(
            "vehicles_on_date_force", _VEHICLE_ATOMS, _VEHICLE_JOINS,
            ["a.accident_id", "v.vehicle_id", "v.vehicle_type"],
        ),
        _anchored(
            "casualties_on_date_force",
            _VEHICLE_ATOMS + [("casualty", "c")],
            _VEHICLE_JOINS + [("v.vehicle_id", "c.vehicle_id")],
            ["a.accident_id", "v.vehicle_id", "c.casualty_id", "c.severity"],
        ),
    ]


def cold_template(serial: int) -> ParameterizedQuery:
    """The ``serial``-th never-seen shape: same atoms and anchors, own projection.

    The bits of ``serial + 1`` pick which extra ``vehicle`` columns are
    projected, so every serial has a distinct ``plan_key``.
    """
    extras = tfacc_schema().relation("vehicle").attribute_names[2:]
    chosen = [f"v.{name}" for bit, name in enumerate(extras) if (serial + 1) >> bit & 1]
    return _anchored(
        f"cold_{serial}", _VEHICLE_ATOMS, _VEHICLE_JOINS,
        ["a.accident_id", "v.vehicle_id", *chosen],
    )


def unbounded_template() -> ParameterizedQuery:
    """A shape EBCheck must reject: the vehicle join with no anchor on ``date``."""
    query = (
        SPCQueryBuilder(tfacc_schema(), name="unanchored")
        .add_atom("accident", alias="a")
        .add_atom("vehicle", alias="v")
        .where_eq("a.accident_id", "v.accident_id")
        .select("a.accident_id", "v.vehicle_id")
        .build()
    )
    return ParameterizedQuery(query, {"severity": query.ref("a", "severity")})


def load_database(rows: dict[str, list[tuple]]) -> Database:
    """Generated rows -> a fresh in-memory database (no indexes yet)."""
    database = Database(tfacc_schema())
    for relation, tuples in rows.items():
        database.extend(relation, tuples)
    return database


class Oracle:
    """The serial interpreted evalDQ over its own in-memory copy of the data."""

    def __init__(self, rows: dict[str, list[tuple]], access) -> None:
        self.backend = InMemoryBackend(load_database(rows))
        self._access = access
        self._executor = BoundedExecutor()
        self._plans: dict[str, object] = {}

    def answer(self, read: Read) -> frozenset:
        name = read.template.query.name
        prepared = self._plans.get(name)
        if prepared is None:
            prepared = self._plans[name] = prepare_plan(read.template, self._access)
        slots = prepared.bind_values(read.binding)
        return self._executor.execute_interpreted(
            prepared.plan, self.backend, params=slots
        ).as_set


@dataclass
class Inputs:
    """Everything one run feeds the program, with the answers it must give."""

    workload: str
    seed: int
    sizes: Sizes
    rows: dict[str, list[tuple]]
    access: object
    templates: list[ParameterizedQuery]
    #: (date, force) bindings, most popular first.
    ranked_pairs: list[tuple[str, str]]
    #: The two segments of a round: reads, and on ``write_mix`` interleaved writes.
    light: list
    saturated: list
    #: One read per template on the most popular binding: the first answers of
    #: set-up and the follow-up reads of the write tail.
    probes: list[Read]
    tail: list[Write]
    oracle: Oracle
    datagen_s: float
    oracle_s: float

    def cold_reads(self, first_serial: int) -> list[Read]:
        """``COLD_SHAPES`` reads of shapes nobody has seen, answered by the oracle."""
        reads = []
        for offset in range(COLD_SHAPES):
            date, force = self.ranked_pairs[offset % len(self.ranked_pairs)]
            read = Read(cold_template(first_serial + offset), date, force)
            read.expected = self.oracle.answer(read)
            reads.append(read)
        return reads


def _vehicle_rows(prototype: tuple, tag: str, accident_ids: list[str]) -> list[tuple]:
    return [
        (f"bench_veh_{tag}_{i}", accident_ids[i % len(accident_ids)]) + prototype[2:]
        for i in range(ROWS_PER_WRITE)
    ]


def _fresh_accidents(tag: str) -> list[str]:
    """Accident ids no stored accident has, so no read of the mix reaches them."""
    return [f"bench_acc_{tag}_{i}" for i in range(ROWS_PER_WRITE)]


def _place_writes(ops: list, every: int, stream: str, accidents_of, prototype: tuple) -> None:
    """Fill every ``every``-th slot of ``ops`` with a write its block's reads can see.

    A write inserts its rows under the accidents of the first binding the
    reads up to the next write probe (if any of them has accidents), so those
    reads must return the new rows and the reads after the next write must
    not.  Where no binding qualifies the rows go under fresh accident ids.
    """
    for position in range(0, len(ops), every):
        tag = f"{stream}{position:06d}"
        target = next(
            (
                (op.date, op.force)
                for op in ops[position + 1:position + every]
                if accidents_of.get((op.date, op.force))
            ),
            None,
        )
        accident_ids = accidents_of[target] if target else _fresh_accidents(tag)
        ops[position] = Write(_vehicle_rows(prototype, tag, accident_ids), target)


def _expect(ops: list, oracle: Oracle, stored: dict[tuple, frozenset]) -> None:
    """Replay ``ops`` serially against the oracle and record each read's answer.

    ``stored`` memoizes the answers over the stored rows alone, which is what
    every read gets unless it probes the binding of its block's write.
    """
    chain = WriteChain()
    visible = None
    for op in ops:
        if isinstance(op, Write):
            oracle.backend.apply_writes(chain.batch(op.rows))
            visible = op.pair
        elif (op.date, op.force) == visible:
            op.expected = oracle.answer(op)
        else:
            key = (op.template.query.name, op.date, op.force)
            if key not in stored:
                stored[key] = oracle.answer(op)
            op.expected = stored[key]
    if chain.live:
        oracle.backend.apply_writes(chain.batch([]))


def _reordered(ops: list, every: int, rng: random.Random) -> list:
    """``ops`` in the seed's order: the reads shuffled, or whole write blocks.

    A block is a write and the reads up to the next write.  It moves as one:
    only a block's own write is live while its reads run, so the answers
    recorded in definition order still hold, and which reads come first after
    a write (they pay for the invalidation) is the same for every seed.
    """
    size = every or 1
    blocks = [ops[start:start + size] for start in range(0, len(ops), size)]
    rng.shuffle(blocks)
    return [op for block in blocks for op in block]


def generate(workload: str, seed: int, quick: bool = False) -> Inputs:
    """Build the inputs of one run; the same arguments give the same inputs."""
    sizes = sizes_for(workload, quick)
    started = time.perf_counter()
    database = generate_tfacc_database(scale=sizes.scale, seed=DEFINITION_SEED)
    datagen_s = time.perf_counter() - started
    rows = {relation.name: relation.tuples() for relation in database}
    access = tfacc_access_schema()
    templates = read_templates()

    accidents_of: dict[tuple[str, str], list[str]] = {}
    for accident in rows["accident"]:
        accidents_of.setdefault((accident[1], accident[3]), []).append(accident[0])
    dates = sorted({accident[1] for accident in rows["accident"]})
    forces = sorted(force[0] for force in rows["police_force"])
    ranked = list(itertools.product(dates, forces))
    random.Random(DEFINITION_SEED).shuffle(ranked)
    zipf = list(itertools.accumulate(1.0 / rank for rank in range(1, len(ranked) + 1)))
    prototype = rows["vehicle"][0]
    every = sizes.write_every
    if every:
        # The most popular bindings stay untouched: the probes and the cold
        # shapes read them and expect the stored answer whatever write is live.
        for pair in ranked[:COLD_SHAPES]:
            accidents_of.pop(pair, None)

    started = time.perf_counter()
    oracle = Oracle(rows, access)
    stored: dict[tuple, frozenset] = {}

    def segment(stream: str, count: int) -> list:
        """One segment: its operations are the definition's, their order the seed's."""
        rng = random.Random(f"{DEFINITION_SEED}/{stream}")
        ops: list = [None] * count
        slots = [p for p in range(count) if not (every and p % every == 0)]
        mix = [t for t, share in zip(templates, MIX_BLOCK) for _ in range(share)]
        chosen = (mix * (len(slots) // len(mix) + 1))[: len(slots)]
        rng.shuffle(chosen)
        pairs = rng.choices(ranked, cum_weights=zipf, k=len(slots))
        for slot, template, (date, force) in zip(slots, chosen, pairs):
            ops[slot] = Read(template, date, force)
        if every:
            _place_writes(ops, every, stream, accidents_of, prototype)
        _expect(ops, oracle, stored)
        return _reordered(ops, every, random.Random(f"{seed}/{stream}"))

    light = segment("light", sizes.light)
    saturated = segment("saturated", sizes.saturated)
    probes = [Read(template, *ranked[0]) for template in templates]
    for probe in probes:
        probe.expected = oracle.answer(probe)
    oracle_s = time.perf_counter() - started

    tail = [
        Write(_vehicle_rows(prototype, f"tail{k}", _fresh_accidents(f"tail{k}")))
        for k in range(sizes.tail_writes)
    ]
    return Inputs(
        workload=workload,
        seed=seed,
        sizes=sizes,
        rows=rows,
        access=access,
        templates=templates,
        ranked_pairs=ranked,
        light=light,
        saturated=saturated,
        probes=probes,
        tail=tail,
        oracle=oracle,
        datagen_s=datagen_s,
        oracle_s=oracle_s,
    )
