"""Mutation harness: every class of seeded defect is rejected, by rule id.

Each test takes a genuine planner/compiler artefact, flips exactly one field —
a widened bound, a dropped dedup, an unbound slot, an undeclared constraint, a
reordered dependency, a tampered program shape, a type-inconsistent equality —
and asserts the verifier rejects the mutant with the *right* rule, while the
untouched artefact still verifies.  This is the soundness half of the
verifier's contract (completeness lives in ``test_verify.py``).
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from repro.access.constraint import AccessConstraint
from repro.access.schema import AccessSchema
from repro.analysis import verify_compiled, verify_plan, verify_prepared
from repro.analysis.concurrency import CONCURRENCY_RULES
from repro.analysis.lint import lint_paths
from repro.errors import PlanVerificationError
from repro.execution.compiled import compile_plan, compiled_for
from repro.planning import qplan
from repro.planning.plan import ColumnSource, ConstSource, ParamSource
from repro.planning.qplan import prepare_plan
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.relational.types import INT, STRING
from repro.spc import ParameterizedQuery
from repro.spc.builder import SPCQueryBuilder
from repro.workloads import tfacc_access_schema, tfacc_schema


def _form_query():
    return (
        SPCQueryBuilder(tfacc_schema(), name="mutant_form")
        .add_atom("accident", alias="a")
        .add_atom("vehicle", alias="v")
        .where_eq("a.accident_id", "v.accident_id")
        .where_const("a.date", "2004-01-03")
        .where_const("a.police_force", "force_01")
        .select("a.accident_id")
        .select("v.vehicle_id")
        .build()
    )


@pytest.fixture()
def plan():
    """A fresh multi-step bounded plan (never shared, safe to mutate)."""
    return qplan(_form_query(), tfacc_access_schema())


@pytest.fixture()
def prepared():
    query = (
        SPCQueryBuilder(tfacc_schema(), name="mutant_template")
        .add_atom("accident", alias="a")
        .add_atom("vehicle", alias="v")
        .where_eq("a.accident_id", "v.accident_id")
        .select("a.accident_id")
        .select("v.vehicle_id")
        .build()
    )
    template = ParameterizedQuery(
        query,
        {"date": query.ref("a", "date"), "force": query.ref("a", "police_force")},
    )
    return prepare_plan(template, tfacc_access_schema())


def _rejects(rule, action):
    with pytest.raises(PlanVerificationError) as excinfo:
        action()
    assert excinfo.value.rule == rule, excinfo.value
    return excinfo.value


def _dependent_step(plan):
    """The first step drawing a key from an earlier step's column."""
    return next(
        step
        for step in plan.steps
        if any(isinstance(s, ColumnSource) for s in step.key_sources.values())
    )


# -- plan-level mutants ------------------------------------------------------------


def test_pristine_plan_verifies(plan):
    assert verify_plan(plan).total_bound == plan.total_bound


def test_widened_step_bound_rejected_plan002(plan):
    plan.steps[-1].bound += 5
    _rejects("PLAN002", lambda: verify_plan(plan))


def test_understated_total_bound_rejected_plan002(plan):
    # Widening *every* stated quantity consistently still cannot fool the
    # verifier: the per-step re-derivation starts from the constraint's N.
    for step in plan.steps:
        step.bound *= 2
    _rejects("PLAN002", lambda: verify_plan(plan))


def test_undeclared_constraint_rejected_plan001(plan):
    step = plan.steps[0]
    smuggled = AccessConstraint(
        step.constraint.relation,
        step.constraint.x,
        step.constraint.y,
        step.constraint.bound + 999,
    )
    assert smuggled not in plan.access_schema
    step.constraint = smuggled
    _rejects("PLAN001", lambda: verify_plan(plan))


def test_miscovered_occurrence_rejected_plan001(plan):
    atoms = sorted(plan.covering)
    assert len(atoms) >= 2
    # Point one occurrence's covering entry at the other occurrence's step.
    plan.covering[atoms[0]] = plan.covering[atoms[1]]
    _rejects("PLAN001", lambda: verify_plan(plan))


def test_forward_key_dependency_rejected_plan003(plan):
    step = _dependent_step(plan)
    for attribute, source in step.key_sources.items():
        if isinstance(source, ColumnSource):
            step.key_sources[attribute] = ColumnSource(step.index, source.column)
            break
    _rejects("PLAN003", lambda: verify_plan(plan))


def test_phantom_column_rejected_plan003(plan):
    step = _dependent_step(plan)
    for attribute, source in step.key_sources.items():
        if isinstance(source, ColumnSource):
            missing = replace(source.column, attribute="no_such_column")
            step.key_sources[attribute] = ColumnSource(source.step, missing)
            break
    _rejects("PLAN003", lambda: verify_plan(plan))


def test_param_source_in_unprepared_plan_rejected_plan003(plan):
    step = plan.steps[0]
    attribute = next(iter(step.key_sources))
    step.key_sources[attribute] = ParamSource("ghost")
    _rejects("PLAN003", lambda: verify_plan(plan))


def test_unbound_slot_in_template_rejected_plan003(prepared):
    slot_step = next(
        step
        for step in prepared.plan.steps
        if any(isinstance(s, ParamSource) for s in step.key_sources.values())
    )
    for attribute, source in slot_step.key_sources.items():
        if isinstance(source, ParamSource):
            slot_step.key_sources[attribute] = ParamSource("undeclared_slot")
            break
    _rejects("PLAN003", lambda: verify_prepared(prepared))


def test_type_inconsistent_join_rejected_plan005():
    schema = DatabaseSchema(
        [
            RelationSchema("r", [("a", INT), ("b", STRING)]),
            RelationSchema("s", [("c", STRING), ("d", INT)]),
        ]
    )
    access = AccessSchema(
        [
            AccessConstraint("r", ("a",), ("a", "b"), 5),
            AccessConstraint("s", ("c",), ("c", "d"), 3),
        ]
    )
    good = (
        SPCQueryBuilder(schema, name="typed_ok")
        .add_atom("r")
        .add_atom("s")
        .where_const("r.a", 7)
        .where_eq("r.b", "s.c")  # STRING = STRING
        .select("s.d")
        .build()
    )
    verify_plan(qplan(good, access))

    bad = (
        SPCQueryBuilder(schema, name="typed_bad")
        .add_atom("r")
        .add_atom("s")
        .where_const("r.a", 7)
        .where_eq("r.a", "s.c")  # INT = STRING: can never hold
        .select("s.d")
        .build()
    )
    _rejects("PLAN005", lambda: verify_plan(qplan(bad, access, check=False)))


def test_mistyped_constant_key_rejected_plan005():
    schema = DatabaseSchema([RelationSchema("r", [("a", INT), ("b", STRING)])])
    access = AccessSchema([AccessConstraint("r", ("a",), ("a", "b"), 5)])
    query = (
        SPCQueryBuilder(schema, name="typed_const")
        .add_atom("r")
        .where_const("r.a", 7)
        .select("r.b")
        .build()
    )
    plan = qplan(query, access)
    verify_plan(plan)
    step = plan.steps[0]
    step.key_sources["a"] = ConstSource("seven")  # STRING constant for an INT key
    _rejects("PLAN005", lambda: verify_plan(plan))


# -- compiled-program mutants ------------------------------------------------------


def test_pristine_compiled_verifies(plan):
    assert verify_compiled(compiled_for(plan))


def test_dropped_dedup_rejected_plan004(plan):
    compiled = compile_plan(plan)
    index = next(i for i, s in enumerate(compiled.steps) if s.groups)
    steps = list(compiled.steps)
    steps[index] = replace(steps[index], dedup=False)
    mutant = replace(compiled, steps=tuple(steps))
    error = _rejects("PLAN004", lambda: verify_compiled(mutant))
    assert error.step == index


def test_undeclared_compiled_slot_rejected_plan003(prepared):
    compiled = compile_plan(prepared.plan)
    index, program = next(
        (i, s)
        for i, s in enumerate(compiled.steps)
        if any(is_param for is_param, _ in s.prefix)
    )
    prefix = tuple(
        (is_param, "smuggled_slot" if is_param else value)
        for is_param, value in program.prefix
    )
    steps = list(compiled.steps)
    steps[index] = replace(
        program,
        prefix=prefix,
        param_slots=tuple("smuggled_slot" for _ in program.param_slots)
        if program.param_slots
        else None,
    )
    mutant = replace(compiled, steps=tuple(steps))
    _rejects("PLAN003", lambda: verify_compiled(mutant, slots=prepared.slots))


def test_dropped_atom_program_rejected_plan006(plan):
    compiled = compile_plan(plan)
    mutant = replace(compiled, atoms=compiled.atoms[:-1], joins=())
    _rejects("PLAN006", lambda: verify_compiled(mutant))


def test_tampered_filter_rejected_plan006():
    plan = qplan(_form_query(), tfacc_access_schema())
    compiled = compile_plan(plan)
    index, program = next(
        (i, a) for i, a in enumerate(compiled.atoms) if a.const_filters
    )
    atoms = list(compiled.atoms)
    atoms[index] = replace(program, const_filters=())
    mutant = replace(compiled, atoms=tuple(atoms))
    _rejects("PLAN006", lambda: verify_compiled(mutant))


def test_swapped_projection_rejected_plan006(plan):
    from repro.relational.algebra import row_extractor

    compiled = compile_plan(plan)
    program = compiled.atoms[0]
    arity = len(compiled.steps[program.covering].header)
    assert arity >= 2
    # Probe the genuine extraction positions, then derange them.
    original = list(program.project(tuple(range(arity))))
    if len(original) > 1:
        twisted = row_extractor(original[1:] + original[:1])
    else:
        twisted = row_extractor([(original[0] + 1) % arity])
    atoms = (replace(program, project=twisted),) + compiled.atoms[1:]
    mutant = replace(compiled, atoms=atoms)
    _rejects("PLAN006", lambda: verify_compiled(mutant))


# -- a concurrency mutant of real source: the write-path defect of PR 12 -------------

_INDEXES_SOURCE = (
    Path(__file__).resolve().parents[2] / "src/repro/relational/indexes.py"
)
#: ``HashIndex.derived`` carries the probe memo over with one atomic copy ...
_ATOMIC_CARRY_OVER = """\
        memo = self._projected.copy()
        for key in touched:
            memo.pop(key, None)
"""
#: ... where the original walked the memo its readers insert into.
_IN_PLACE_CARRY_OVER = """\
        memo = {}
        for key, projected in self._projected.items():
            if key not in touched:
                memo[key] = projected
"""


def _conc004(tmp_path, source):
    path = tmp_path / "indexes.py"
    path.write_text(source)
    return [f for f in lint_paths([path], CONCURRENCY_RULES) if f.rule == "CONC004"]


def test_pristine_index_source_passes_conc004(tmp_path):
    assert _conc004(tmp_path, _INDEXES_SOURCE.read_text()) == []


def test_memo_iterated_in_place_rejected_conc004(tmp_path):
    pristine = _INDEXES_SOURCE.read_text()
    assert pristine.count(_ATOMIC_CARRY_OVER) == 1
    findings = _conc004(
        tmp_path, pristine.replace(_ATOMIC_CARRY_OVER, _IN_PLACE_CARRY_OVER)
    )
    assert len(findings) == 1
    assert "HashIndex.derived: self._projected is shared lock-free" in findings[0].message


@pytest.mark.parametrize(
    "loop, flagged",
    [
        ("for key in self._memo: pass", True),
        ("for value in self._memo.values(): pass", True),
        ("return [key for key, _ in self._snap.items()]", True),
        ("for key in self._memo.copy(): pass", False),
        ("for key, value in list(self._snap.items()): pass", False),
        ("return len(self._memo)", False),
        ("for key in self._plain: pass", False),
    ],
)
def test_in_place_iteration_of_lock_free_structures_conc004(tmp_path, loop, flagged):
    source = f"""\
class Shared:
    def __init__(self):
        # guarded-by: none — idempotent memo
        self._memo = {{}}
        self._snap = {{}}  # published-snapshot
        self._plain = {{}}
        for key in self._memo:  # construction: nobody else can see it yet
            pass

    def walk(self):
        {loop}
"""
    assert bool(_conc004(tmp_path, source)) is flagged
