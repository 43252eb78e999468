"""The CONC rule set, registered beside REPRO002–006.

Each rule is a :class:`~repro.analysis.lint.framework.Rule`, so the
concurrency analyzer inherits the linter's whole escape-hatch machinery —
``# repro-lint: disable=CONC001`` inline suppressions and the justified
baseline file — and runs through the same driver
(:func:`~repro.analysis.lint.framework.lint_paths`):

* **CONC001** — read/write of a guarded attribute outside its guard
  (must-hold lock-set dataflow; replaces the retired REPRO001 heuristic).
* **CONC002** — lock-order cycles (potential deadlock) and re-acquisition
  of a non-reentrant lock (guaranteed self-deadlock).
* **CONC003** — seqlock discipline on annotated epoch attributes.
* **CONC004** — in-place mutation of ``# published-snapshot`` structures,
  and in-place iteration of any lock-free shared structure (a snapshot or a
  ``# guarded-by: none`` memo) instead of an atomic copy.
* **CONC005** — blocking calls while holding any inferred lock.

The module-level analysis is shared: the first rule to check a module
runs :func:`analyze_module` and caches the result on the module object,
so five rules cost one pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from ..lint.framework import Finding, Module, Rule, iter_source_files, parse_module
from .guards import parse_annotations, render_guard_table
from .locksets import (
    ClassAnalysis,
    analyze_class,
    blocking_findings,
    guard_discipline_findings,
    lock_order_findings,
)
from .protocols import seqlock_findings, snapshot_findings

_CACHE_ATTR = "_concurrency_analysis"


@dataclass
class ModuleAnalysis:
    """All class analyses and rule findings for one module."""

    classes: list[ClassAnalysis]
    findings: list[Finding]


def _iter_classes(tree: ast.Module) -> Iterator[ast.ClassDef]:
    """Top-level classes and classes nested in classes (not in functions)."""
    stack = [stmt for stmt in tree.body if isinstance(stmt, ast.ClassDef)]
    while stack:
        cls = stack.pop()
        yield cls
        stack.extend(stmt for stmt in cls.body if isinstance(stmt, ast.ClassDef))


def analyze_module(module: Module) -> ModuleAnalysis:
    """Run (or fetch the cached) concurrency analysis of one module."""
    cached = getattr(module, _CACHE_ATTR, None)
    if cached is not None:
        return cached
    annotations = parse_annotations(module.source)
    classes: list[ClassAnalysis] = []
    findings: list[Finding] = []

    def emit(rule: str, pairs: list[tuple[int, str]]) -> None:
        for line, message in pairs:
            findings.append(
                Finding(rule=rule, path=module.path, line=line, message=message)
            )

    for cls in _iter_classes(module.tree):
        analysis = analyze_class(cls, annotations)
        if analysis is None:
            continue
        classes.append(analysis)
        emit("CONC001", guard_discipline_findings(analysis))
        emit("CONC002", lock_order_findings(analysis))
        emit("CONC003", seqlock_findings(analysis))
        emit("CONC004", snapshot_findings(analysis))
        emit("CONC005", blocking_findings(analysis))
    findings.sort(key=lambda f: (f.line, f.rule, f.message))
    result = ModuleAnalysis(classes=classes, findings=findings)
    setattr(module, _CACHE_ATTR, result)
    return result


class _ConcurrencyRule(Rule):
    """Shared check: filter the cached module analysis by rule id."""

    def check(self, module: Module) -> Iterator[Finding]:
        for finding in analyze_module(module).findings:
            if finding.rule == self.id:
                yield finding


class GuardDisciplineRule(_ConcurrencyRule):
    id = "CONC001"
    description = (
        "guarded attribute accessed outside its inferred/annotated guard "
        "(must-hold lock-set dataflow)"
    )


class LockOrderRule(_ConcurrencyRule):
    id = "CONC002"
    description = (
        "lock-order cycle (potential deadlock) or re-acquisition of a "
        "non-reentrant lock (self-deadlock)"
    )


class SeqlockProtocolRule(_ConcurrencyRule):
    id = "CONC003"
    description = (
        "seqlock discipline: paired += 1 epoch bumps under the writer lock, "
        "published state mutated only inside bump windows"
    )


class SnapshotDisciplineRule(_ConcurrencyRule):
    id = "CONC004"
    description = (
        "published copy-on-write snapshot mutated in place instead of "
        "rebound to a fresh structure, or a lock-free shared structure "
        "iterated in place instead of through an atomic copy"
    )


class BlockingUnderLockRule(_ConcurrencyRule):
    id = "CONC005"
    description = (
        "blocking call (sleep/wait/join/recv/queue take) while holding a lock"
    )


CONCURRENCY_RULES: tuple[Rule, ...] = (
    GuardDisciplineRule(),
    LockOrderRule(),
    SeqlockProtocolRule(),
    SnapshotDisciplineRule(),
    BlockingUnderLockRule(),
)


# ---------------------------------------------------------------------------
# Guard map export

_PREFIX = "src/repro/"


def collect_guard_map(paths: Iterable[Path], root: Path | None = None) -> list[dict]:
    """The machine-readable guard map over every analyzed class.

    One entry per (module, class, attribute) whose guard is known — either
    inferred or pinned by an annotation (pinned ``none`` entries are kept:
    a named benign race is documentation).  Protocol attributes carry the
    protocol in place of the plain discipline.
    """
    entries: list[dict] = []
    for source_path in iter_source_files(paths):
        module = parse_module(source_path, root=root)
        for analysis in analyze_module(module).classes:
            shown = module.path
            if shown.startswith(_PREFIX):
                shown = shown[len(_PREFIX) :]
            for attr, spec in sorted(analysis.guard_specs.items()):
                if spec.guard is None and spec.source != "annotated":
                    if attr not in analysis.snapshots:
                        continue  # un-inferable and unannotated: not mapped
                protocol = ""
                if attr in analysis.seqlocks:
                    protocol = "seqlock (writes)"
                elif attr in analysis.snapshots:
                    protocol = "copy-on-write snapshot"
                elif spec.mode == "writes":
                    protocol = "writes only (lock-free reads)"
                entries.append(
                    {
                        "module": shown,
                        "class": analysis.name,
                        "attr": attr,
                        "guard": spec.guard,
                        "mode": spec.mode,
                        "source": spec.source,
                        "protocol": protocol,
                    }
                )
            for attr in sorted(analysis.snapshots - set(analysis.guard_specs)):
                entries.append(
                    {
                        "module": shown,
                        "class": analysis.name,
                        "attr": attr,
                        "guard": None,
                        "mode": "none",
                        "source": "annotated",
                        "protocol": "copy-on-write snapshot",
                    }
                )
    entries.sort(key=lambda entry: (entry["module"], entry["class"], entry["attr"]))
    return entries


def guard_table_markdown(repo_root: Path) -> str:
    """The docs/architecture.md concurrency table, regenerated from source."""
    source_root = repo_root / "src" / "repro"
    return render_guard_table(collect_guard_map([source_root], root=repo_root))
