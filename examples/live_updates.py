#!/usr/bin/env python3
"""The live write path: versioned stores served while the data changes.

Until PR 9 the store was frozen at ``prepare()`` time.  This walkthrough
shows what changed:

1. a `QueryService` answers a prepared form template, each result stamped
   with the ``data_version`` it observed;
2. `service.apply_writes` commits an atomic batch of inserts and deletes —
   indexes are maintained incrementally (only the touched buckets rebuild)
   and the compiled template, being analysis of the query alone, survives;
3. the next answer reflects the write, the version stamp advances by exactly
   one per committed batch, and the access bound Σ Mᵢ still holds;
4. the same write applied through a 2-shard `ShardedQueryService`: the
   router slices the batch by partition key, replicated relations fan out,
   and the merged counts agree with the single-process service.

Run with::

    python examples/live_updates.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.service import QueryService
from repro.sharding import ShardMap, ShardedQueryService
from repro.spc import ParameterizedQuery
from repro.storage import as_backend
from repro.workloads import generate_social_database, query_q1, social_access_schema


def form_template() -> ParameterizedQuery:
    """Example 1's form: photos in album ``$album`` tagging ``$user``'s friends."""
    q1 = query_q1()
    return ParameterizedQuery(
        q1, {"album": q1.ref("ia", "album_id"), "user": q1.ref("f", "user_id")}
    )


def main() -> None:
    database = generate_social_database(scale=0.5, seed=3)
    access = social_access_schema()
    backend = as_backend(database)
    template = form_template()

    # Craft an observable write from the data: take an existing tag whose
    # tagger IS a friend of the taggee (so the tag is in Q1's answer), then
    # remove and restore that friendship — the join edge — live.
    edges = set(database.relation("friends").tuples())
    photo, tagger, taggee = next(
        row for row in database.relation("tagging").tuples()
        if (row[2], row[1]) in edges
    )
    album = dict(database.relation("in_album").tuples())[photo]
    binding = {"album": album, "user": taggee}

    with QueryService(backend, access, workers=2) as service:
        before = service.submit(template, **binding).result()
        print(f"store version {before.details['data_version']}: "
              f"{len(before.rows.rows)} rows, "
              f"|D_Q| = {before.stats.tuples_accessed} "
              f"(bound {before.stats.plan_bound})")

        # ------------------------------------------- one atomic write batch
        counts = service.apply_writes(deletes={"friends": [(taggee, tagger)]})
        print(f"committed {counts}: friendship ({taggee}, {tagger}) removed")

        after = service.submit(template, **binding).result()
        print(f"store version {after.details['data_version']}: "
              f"{len(after.rows.rows)} rows, "
              f"|D_Q| = {after.stats.tuples_accessed} "
              f"(bound {after.stats.plan_bound})")

        assert after.details["data_version"] == before.details["data_version"] + 1
        assert len(after.rows.rows) < len(before.rows.rows)
        assert after.stats.tuples_accessed <= after.stats.plan_bound
        print("  one version bump, the joined rows vanished, "
              "certificate still holds")

        # ------------------------------------------------ and back again
        service.apply_writes(inserts={"friends": [(taggee, tagger)]})
        restored = service.submit(template, **binding).result()
        assert len(restored.rows.rows) == len(before.rows.rows)
        print(f"after re-adding the friendship: "
              f"back to {len(restored.rows.rows)} rows")
        print(f"service stats: write_batches={service.stats()['write_batches']}, "
              f"rows_written={service.stats()['rows_written']}\n")

    # -------------------------------------------------- the sharded write path
    shard_map = ShardMap(2, {"in_album": ("album_id",)})
    with ShardedQueryService(database, access, shard_map=shard_map) as sharded:
        counts = sharded.apply_writes(
            deletes={"friends": [(taggee, tagger)]},  # replicated: fans out
        )
        print(f"sharded commit {counts} "
              f"(replicated relation, counted once, applied on every shard)")
        result = sharded.submit(template, **binding).result()
        assert result.as_set == after.as_set
        per_shard = sharded.shard_stats()
        for shard in sorted(per_shard):
            stats = per_shard[shard]
            print(f"  shard {shard}: write_batches={stats['write_batches']}, "
                  f"rows_written={stats['rows_written']}")
        print("sharded answer identical to the thread-tier answer")


if __name__ == "__main__":
    main()
