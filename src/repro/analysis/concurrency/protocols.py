"""Protocol rules for the repo's hand-rolled primitives (CONC003/004).

**Seqlock discipline (CONC003).**  The write path publishes versions
through a seqlock: the epoch is bumped to *odd* (write in progress),
the guarded mutations run inside a ``try``, and the ``finally`` bumps the
epoch back to *even* (committed) — readers retry on odd or changed
epochs.  Annotating the epoch attribute's initialization with
``# seqlock: self._write_lock`` enforces, per class:

* every bump is exactly ``+= 1`` (anything else can skip odd states or
  tear the pairing) and holds the writer lock;
* bumps pair up lexically — an opening bump is immediately followed by a
  ``try`` whose ``finally`` holds exactly the closing bump, so no early
  return or exception can leave the epoch odd;
* every attribute written inside a bump window (the published state) is
  written *only* inside bump windows elsewhere in the class — mutating
  published state outside the protocol would be invisible to readers'
  epoch checks.

**Copy-on-write discipline (CONC004).**  Snapshot structures marked
``# published-snapshot`` are read lock-free by in-flight plan executions;
writers must replace them wholesale (build a new dict, publish by
rebinding) and never mutate them in place.  Any post-construction write —
including subscript stores and mutator calls rooted at the attribute,
like ``self._buckets[key].append(row)`` — is a finding.

The read side has one rule of its own.  A structure another thread may
resize — a ``# published-snapshot``, or a memo pinned ``# guarded-by: none``
that readers insert into lock-free — must not be iterated in place
(``for k in self._memo`` / ``.items()`` / ``.values()`` / ``.keys()``, loop
or comprehension): a concurrent insert raises ``dictionary changed size
during iteration`` mid-loop.  Iterate an atomic copy instead —
``self._memo.copy()`` or ``list(self._memo.items())`` complete in one
C-level step.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .guards import is_self_attr, make_spec
from .locksets import ClassAnalysis

#: Dict methods returning a live view: iterating one iterates the dict.
_VIEWS = frozenset({"items", "values", "keys"})


@dataclass(frozen=True)
class _Window:
    """The line span of one seqlock bump window (a ``try`` body)."""

    start: int
    end: int

    def covers(self, line: int) -> bool:
        return self.start <= line <= self.end


def _is_bump(stmt: ast.stmt, epoch: str) -> bool:
    return (
        isinstance(stmt, ast.AugAssign)
        and isinstance(stmt.op, ast.Add)
        and isinstance(stmt.value, ast.Constant)
        and stmt.value.value == 1
        and isinstance(stmt.target, ast.Attribute)
        and isinstance(stmt.target.value, ast.Name)
        and stmt.target.value.id == "self"
        and stmt.target.attr == epoch
    )


def _blocks(body: list[ast.stmt]):
    """Yield every statement list reachable without entering a nested scope."""
    yield body
    for stmt in body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for attribute in ("body", "orelse", "finalbody"):
            inner = getattr(stmt, attribute, None)
            if inner:
                yield from _blocks(inner)
        for handler in getattr(stmt, "handlers", ()):
            yield from _blocks(handler.body)
        for case in getattr(stmt, "cases", ()):
            yield from _blocks(case.body)


def _epoch_writes(body: list[ast.stmt], epoch: str):
    """Every write of the epoch attribute in a method body (any form).

    Assignments are statements, so checking each block's statements directly
    (``_blocks`` already yields every nested statement list) sees each write
    exactly once — walking subtrees here would double-count.
    """
    for block in _blocks(body):
        for node in block:
            targets: list[ast.expr] = []
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AugAssign):
                targets = [node.target]
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets = [node.target]
            for candidate in targets:
                if (
                    isinstance(candidate, ast.Attribute)
                    and isinstance(candidate.value, ast.Name)
                    and candidate.value.id == "self"
                    and candidate.attr == epoch
                ):
                    yield node


def seqlock_findings(analysis: ClassAnalysis) -> list[tuple[int, str]]:
    """CONC003: seqlock bump pairing, form, locking, and window hygiene."""
    findings: list[tuple[int, str]] = []
    for epoch, writer in sorted(analysis.seqlocks.items()):
        spec = make_spec(epoch, writer, "writes", "annotated", analysis.table)
        windows: list[_Window] = []
        methods = [
            stmt
            for stmt in analysis.node.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
            and stmt.name not in analysis.setup
        ]
        for method in methods:
            # Form: the epoch only ever moves by += 1.
            for write in _epoch_writes(method.body, epoch):
                if not _is_bump(write, epoch):
                    findings.append(
                        (
                            write.lineno,
                            f"{analysis.name}.{method.name}: seqlock epoch "
                            f"self.{epoch} must only be bumped with '+= 1'",
                        )
                    )
            # Pairing: opening bump -> try/finally -> closing bump.
            claimed: set[int] = set()
            for block in _blocks(method.body):
                for index, stmt in enumerate(block):
                    if not _is_bump(stmt, epoch):
                        continue
                    if id(stmt) in claimed:
                        continue
                    follower = block[index + 1] if index + 1 < len(block) else None
                    closers = (
                        [s for s in follower.finalbody if _is_bump(s, epoch)]
                        if isinstance(follower, ast.Try)
                        else []
                    )
                    inside = (
                        [
                            w
                            for w in _epoch_writes(follower.body, epoch)
                            if _is_bump(w, epoch)
                        ]
                        if isinstance(follower, ast.Try)
                        else []
                    )
                    if len(closers) == 1 and not inside:
                        claimed.add(id(closers[0]))
                        start = follower.body[0].lineno
                        end = max(
                            getattr(s, "end_lineno", s.lineno) for s in follower.body
                        )
                        windows.append(_Window(start, end))
                    else:
                        findings.append(
                            (
                                stmt.lineno,
                                f"{analysis.name}.{method.name}: unpaired seqlock "
                                f"bump of self.{epoch} — expected 'bump; try: "
                                f"...; finally: bump'",
                            )
                        )
        # Locking: every bump holds the writer lock.
        for access in analysis.accesses:
            if (
                access.attr == epoch
                and access.kind == "write"
                and access.method not in analysis.setup
                and not (spec.write_tokens & access.held)
            ):
                findings.append(
                    (
                        access.line,
                        f"{analysis.name}.{access.method}: seqlock bump of "
                        f"self.{epoch} without holding {writer}",
                    )
                )
        # Window hygiene: state published inside a window is never written
        # outside one (setup aside).
        protected = sorted(
            {
                access.attr
                for access in analysis.accesses
                if access.kind == "write"
                and access.attr != epoch
                and access.method not in analysis.setup
                and any(window.covers(access.line) for window in windows)
            }
        )
        for attr in protected:
            for access in analysis.accesses:
                if (
                    access.attr == attr
                    and access.kind == "write"
                    and access.method not in analysis.setup
                    and not any(window.covers(access.line) for window in windows)
                ):
                    findings.append(
                        (
                            access.line,
                            f"{analysis.name}.{access.method}: write of "
                            f"self.{attr} outside the self.{epoch} seqlock "
                            f"window — readers cannot detect it",
                        )
                    )
    return findings


def _iterated_in_place(iterable: ast.expr, attrs: frozenset[str]) -> str | None:
    """The attribute of ``attrs`` that ``iterable`` walks without copying, if any."""
    if (
        isinstance(iterable, ast.Call)
        and isinstance(iterable.func, ast.Attribute)
        and iterable.func.attr in _VIEWS
        and not iterable.args
    ):
        iterable = iterable.func.value
    if is_self_attr(iterable) and iterable.attr in attrs:  # type: ignore[union-attr]
        return iterable.attr  # type: ignore[union-attr]
    return None


def snapshot_findings(analysis: ClassAnalysis) -> list[tuple[int, str]]:
    """CONC004: a lock-free shared structure mutated, or iterated, in place."""
    findings = []
    for access in analysis.accesses:
        if (
            access.attr in analysis.snapshots
            and access.kind == "write"
            and access.via == "mutate"
            and access.method not in analysis.setup
        ):
            findings.append(
                (
                    access.line,
                    f"{analysis.name}.{access.method}: in-place mutation of "
                    f"published snapshot self.{access.attr} — writers must "
                    f"rebind a fresh structure (copy-on-write)",
                )
            )
    lock_free = analysis.snapshots | {
        attr
        for attr, spec in analysis.guard_specs.items()
        if spec.source == "annotated" and spec.mode == "none"
    }
    for method in analysis.node.body:
        if (
            not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
            or method.name in analysis.setup
        ):
            continue
        for node in ast.walk(method):
            if not isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
                continue
            attr = _iterated_in_place(node.iter, lock_free)
            if attr is not None:
                findings.append(
                    (
                        node.iter.lineno,
                        f"{analysis.name}.{method.name}: self.{attr} is shared "
                        f"lock-free and iterated in place — a concurrent "
                        f"insert resizes it mid-loop; iterate an atomic copy "
                        f"(self.{attr}.copy(), list(self.{attr}.items()))",
                    )
                )
    return findings
