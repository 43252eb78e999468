"""The timed run: set-up, one warm round, measured rounds, nine end-to-end metrics.

Load model: one generator thread, closed loop.  Each read is a future the
generator holds; a sliding window of them is harvested in submission order.
A round replays the same seeded request list as a light segment (window 2,
where latency is measured), a saturated segment (window 16, where throughput
is measured), a write tail and a cold tail.  Every timing is computed per
round and reported as the median across rounds, so one disturbed round moves
nothing.  Answers are held to the oracle between segments, outside the timers.
"""

from __future__ import annotations

import gc
import itertools
import multiprocessing
import os
import resource
import statistics
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from .inputs import COLD_SHAPES, Inputs, Read, Write, WriteChain
from .report import Metric, spread
from .tiers import Tier, WrongAnswer, check, set_up, submit

#: Reads in flight in the light segment (latency) and the saturated one (throughput).
LIGHT_WINDOW = 2
SATURATED_WINDOW = 16
#: Measured rounds: at least this many, then until ``--seconds`` are used up.
MIN_ROUNDS = 5
#: Tiers brought up per run; ``setup_s`` is the median, the last one is measured.
SETUPS = 3
#: Patience for one future; a closed loop must never hang on a lost request.
RESULT_TIMEOUT = 60.0
_ACCOUNTING = ("completed", "timeouts", "failures", "degraded", "pending")


@dataclass
class Tally:
    """Operations attempted and failed over the whole run, with the first reasons."""

    attempted: int = 0
    failed: int = 0
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


@dataclass
class Segment:
    """What one pass over a list of operations measured."""

    wall: float
    #: CPU seconds of this process and its shard children over the pass.
    cpu: float
    #: (read, result, seconds from just before submit() to result() returning).
    served: list[tuple[Read, Any, float]]
    write_seconds: list[float]
    #: Submissions the service shed or refused at admission.
    refused: int = 0
    #: Filled by :func:`verify`.
    latencies: list[float] = field(default_factory=list)
    tuples: int = 0

    @property
    def correct(self) -> int:
        return len(self.latencies) + len(self.write_seconds)


def drive(service: Any, ops: list, window: int, chain: WriteChain, tally: Tally) -> Segment:
    """Run ``ops`` closed-loop with ``window`` reads in flight; writes are synchronous."""
    in_flight: deque = deque()
    served: list = []
    write_seconds: list[float] = []
    refused = 0

    def harvest() -> None:
        read, started, future = in_flight.popleft()
        try:
            result = future.result(timeout=RESULT_TIMEOUT)
        except Exception as error:  # typed service errors and timeouts alike
            tally.fail(f"read failed: {error!r}")
            return
        served.append((read, result, time.perf_counter() - started))

    tally.attempted += len(ops)
    cpu_before = _cpu_seconds()
    began = time.perf_counter()
    for op in ops:
        if isinstance(op, Write):
            # Reads are drained first, so write_mix does not yet cover reads
            # running beside a commit.  On the in-memory store (the only tier
            # with writes between reads) such a read can break the commit:
            # HashIndex.derived iterates the probe memo its readers insert
            # into ("dictionary changed size during iteration", once in ~600
            # concurrent writes, store left half-written), and the contract
            # admits no workload on which operations fail.  Until src/ fixes
            # that, writes run alone and the saturated window refills after
            # each: write_mix's throughput_rps includes that drain and refill.
            while in_flight:
                harvest()
            batch = chain.batch(op.rows)
            started = time.perf_counter()
            try:
                service.apply_writes(batch)
            except Exception as error:
                tally.fail(f"write failed: {error!r}")
            else:
                write_seconds.append(time.perf_counter() - started)
            continue
        if len(in_flight) >= window:
            harvest()
        started = time.perf_counter()
        try:
            future = submit(service, op)
        except Exception as error:  # shed or refused at admission
            tally.fail(f"submit refused: {error!r}")
            refused += 1
            continue
        in_flight.append((op, started, future))
    while in_flight:
        harvest()
    wall = time.perf_counter() - began
    return Segment(wall, _cpu_seconds() - cpu_before, served, write_seconds, refused)


def verify(segment: Segment, tally: Tally) -> Segment:
    """Hold every served answer of ``segment`` to the oracle (untimed)."""
    for read, result, seconds in segment.served:
        try:
            segment.tuples += check(result, read)
        except WrongAnswer as error:
            tally.fail(str(error))
        else:
            segment.latencies.append(seconds)
    return segment


def percentile(values: list[float], share: float) -> float:
    """The smallest value with at least ``share`` of the sample at or below it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def write_tail(tier: Tier, inputs: Inputs, chain: WriteChain, tally: Tally) -> list[float]:
    """The tail's writes, each followed by a read that must see a newer version."""
    first = verify(drive(tier.service, inputs.probes[:1], 1, chain, tally), tally)
    seconds: list[float] = []
    version = max((r.details["data_version"] for _, r, _ in first.served), default=0)
    for write, probe in zip(inputs.tail, itertools.cycle(inputs.probes)):
        segment = verify(drive(tier.service, [write, probe], 1, chain, tally), tally)
        seconds += segment.write_seconds
        for _, result, _ in segment.served:
            seen = result.details["data_version"]
            if seen <= version:
                tally.fail(f"read after write saw data_version {seen}, not above {version}")
            version = seen
    return seconds


def run_round(
    tier: Tier, inputs: Inputs, chain: WriteChain, tally: Tally, cold_serial: int
) -> dict[str, Any]:
    """One round; returns its per-round statistics (seconds unless named otherwise)."""
    gc.collect()
    light = verify(drive(tier.service, inputs.light, LIGHT_WINDOW, chain, tally), tally)
    gc.collect()
    saturated = verify(
        drive(tier.service, inputs.saturated, SATURATED_WINDOW, chain, tally), tally
    )
    gc.collect()
    tail_seconds = write_tail(tier, inputs, chain, tally)
    cold_reads = inputs.cold_reads(cold_serial)
    gc.collect()
    cold = verify(drive(tier.service, cold_reads, 1, chain, tally), tally)
    writes = light.write_seconds + saturated.write_seconds or tail_seconds
    return {
        "cpu": (light.cpu + saturated.cpu) / max(light.correct + saturated.correct, 1),
        "throughput": saturated.correct / saturated.wall,
        "p50": percentile(light.latencies, 0.50) if light.latencies else None,
        "p99": percentile(light.latencies, 0.99) if light.latencies else None,
        "write": statistics.median(writes) if writes else None,
        "cold": statistics.median(cold.latencies) if cold.latencies else None,
        "tuples": light.tuples + saturated.tuples,
        "reads": len(light.latencies) + len(saturated.latencies),
        "light_samples": len(light.latencies),
    }


def _cpu_seconds() -> float:
    """CPU used so far by this process and its shard children.

    A reaped child is in ``RUSAGE_CHILDREN``; a live one only in ``/proc``.
    """
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    ticks = os.sysconf("SC_CLK_TCK")
    for child in multiprocessing.active_children():
        try:
            stat = Path(f"/proc/{child.pid}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / ticks  # utime + stime
    return total


def _peak_rss_mib() -> float:
    """Max RSS of this process plus the max over reaped children (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def check_accounting(tier: Tier, tally: Tally) -> None:
    """``submitted == completed + timeouts + failures + degraded + pending``, per service."""
    stats = tier.service.stats()
    books = [("service", stats)] + [
        (f"shard {index}", shard) for index, shard in stats.get("per_shard", {}).items()
    ]
    for name, book in books:
        if "submitted" not in book:
            tally.fail(f"{name} did not report its counters: {book}")
        elif book["submitted"] != sum(book[key] for key in _ACCOUNTING):
            tally.fail(f"{name} accounting does not balance: {book}")


def run(inputs: Inputs, seconds: float, quick: bool) -> tuple[list[Metric], Tally, dict]:
    """The untraced run of one workload: returns the nine end-to-end metrics."""
    tally = Tally()
    setup_seconds: list[float] = []
    tier = None
    for _ in range(1 if quick else SETUPS):
        if tier is not None:
            tier.close()
        tier = set_up(inputs)
        setup_seconds.append(tier.setup_s)
    chain = WriteChain()
    rounds: list[dict[str, Any]] = []
    try:
        run_round(tier, inputs, chain, tally, 0)  # warm: caches fill, discarded
        began = time.perf_counter()
        minimum, budget = (1, 0.0) if quick else (MIN_ROUNDS, seconds)
        while len(rounds) < minimum or time.perf_counter() - began < budget:
            rounds.append(run_round(tier, inputs, chain, tally, COLD_SHAPES * (len(rounds) + 1)))
        measured_wall = time.perf_counter() - began
        check_accounting(tier, tally)
    finally:
        tier.close()

    def per_round(key: str, scale: float) -> list[float]:
        return [r[key] * scale for r in rounds if r[key] is not None]

    note = f"median of {len(rounds)} rounds"
    samples = rounds[0]["light_samples"]
    metrics = [
        Metric("setup_s", statistics.median(setup_seconds), "s",
               f"median of {len(setup_seconds)} set-ups {spread(setup_seconds)}"),
        _median("throughput_rps", per_round("throughput", 1.0), "1/s",
                f"{note}, {len(inputs.saturated)} operations each"),
        _median("latency_p50_ms", per_round("p50", 1e3), "ms", f"{note}, {samples} reads each"),
        _median("latency_p99_ms", per_round("p99", 1e3), "ms",
                f"{note}, {samples} reads each, {samples - int(0.99 * samples) - 1} beyond"),
        _median("cpu_ms_per_request", per_round("cpu", 1e3), "ms",
                f"{note}, CPU of this process and its shard children over both segments"),
        Metric("tuples_per_request",
               sum(r["tuples"] for r in rounds) / max(sum(r["reads"] for r in rounds), 1),
               "tuples", f"mean over {sum(r['reads'] for r in rounds)} reads, exact, the same for every seed"),
        _median("write_latency_p50_ms", per_round("write", 1e3), "ms", note),
        _median("cold_request_ms", per_round("cold", 1e3), "ms",
                f"{note}, {COLD_SHAPES} shapes each"),
        Metric("peak_rss_mb", _peak_rss_mib(), "MiB", "this process + largest reaped child"),
    ]
    detail = {
        "rounds": len(rounds),
        "measured_wall_s": measured_wall,
        "setup_phases_s": tier.phases,
    }
    return metrics, tally, detail


def _median(name: str, values: list[float], unit: str, note: str) -> Metric:
    return Metric(name, statistics.median(values) if values else 0.0, unit,
                  f"{note} {spread(values)}")
