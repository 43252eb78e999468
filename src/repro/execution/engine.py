"""The BoundedEngine: the end-to-end workflow the paper proposes.

The conclusion of the introduction describes the intended use: given a query
``Q`` and an access schema ``A``,

1. check (in quadratic time) whether ``Q`` is effectively bounded under ``A``;
2. if so, generate a bounded plan and answer ``Q`` by fetching a bounded
   ``D_Q``;
3. if not, suggest a minimum set of dominating parameters for the user to
   instantiate (or an access-schema extension);
4. only when none of that applies, pay the price of evaluating ``Q`` directly.

:class:`BoundedEngine` packages those four stages behind one object so the
examples and benchmarks read like the workflow they reproduce.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from ..access.indexes import AccessIndexes
from ..access.schema import AccessSchema
from ..core.bcheck import BoundednessResult, bcheck
from ..core.dominating import DominatingParametersResult, find_dominating_parameters
from ..core.ebcheck import EffectiveBoundednessResult, ebcheck
from ..errors import NotEffectivelyBoundedError, PlanVerificationError
from ..planning.plan import BoundedPlan
from ..planning.qplan import prepare_plan, qplan
from ..spc.atoms import AttrRef
from ..spc.parameters import ParameterizedQuery
from ..spc.query import SPCQuery
from .bounded import BoundedExecutor
from .cache import CacheStats, LRUCache
from .metrics import ExecutionResult
from .naive import NaiveExecutor
from .prepared import PreparedQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (analysis -> execution)
    from ..analysis.bound import PlanCertificate

#: Default capacity of the per-engine bounded-plan LRU cache.
DEFAULT_PLAN_CACHE_SIZE = 256
#: Default capacity of the negative (not-effectively-bounded) verdict cache.
#: Entries are tiny (a shape key and a message), so it can be roomier.
DEFAULT_NEGATIVE_CACHE_SIZE = 1024


@dataclass(frozen=True)
class BackendInfo:
    """Storage backends an engine's executor has prepared (for monitoring).

    Lives alongside :class:`~repro.execution.cache.CacheStats` in
    :meth:`BoundedEngine.cache_info`, sharing its ``describe()`` surface so
    monitoring loops can render every entry uniformly.
    """

    kinds: tuple[str, ...] = ()

    def describe(self) -> str:
        prepared = ", ".join(self.kinds) if self.kinds else "none"
        return f"storage-backends: prepared={prepared}"


@dataclass(frozen=True)
class VerifierInfo:
    """Static plan-verifier counters, reported by :meth:`BoundedEngine.cache_info`.

    ``certificates`` counts Σ Mᵢ certificates issued (one per verified
    compilation or :meth:`~BoundedEngine.check` report), ``failures`` counts
    plans the verifier rejected; ``last_proven_bound`` is the most recently
    certified Σ Mᵢ, so operators can eyeball the proven bound next to the
    measured ``tuples_accessed`` of the same template.
    """

    certificates: int = 0
    failures: int = 0
    last_proven_bound: int | None = None

    def describe(self) -> str:
        proven = (
            f", last proven Σ Mᵢ={self.last_proven_bound}"
            if self.last_proven_bound is not None
            else ""
        )
        return (
            f"plan-verifier: certificates={self.certificates} "
            f"failures={self.failures}{proven}"
        )


@dataclass
class QueryReport:
    """The engine's static analysis of one query under the access schema."""

    query: SPCQuery
    boundedness: BoundednessResult
    effective: EffectiveBoundednessResult
    plan: BoundedPlan | None = None
    dominating: DominatingParametersResult | None = None
    #: Serving-path cache counters at report time, keyed exactly like
    #: :meth:`BoundedEngine.cache_info`: ``"plan"`` (plan LRU), ``"negative"``
    #: (EBCheck negative verdicts), ``"prepared"`` (prepared templates).
    serving_caches: dict[str, CacheStats] = field(default_factory=dict)
    #: Kinds of the storage backends the engine's executor has prepared.
    backend_kinds: tuple[str, ...] = ()
    #: The static verifier's Σ Mᵢ certificate for ``plan`` (when one exists
    #: and verification succeeded): the access bound *proven* from the plan
    #: structure, to be read next to a run's measured ``tuples_accessed``.
    certificate: "PlanCertificate | None" = None
    #: Rule-tagged diagnostic when the verifier rejected the plan.
    verification_error: str | None = None

    @property
    def bounded(self) -> bool:
        return self.boundedness.bounded

    @property
    def effectively_bounded(self) -> bool:
        return self.effective.effectively_bounded

    @property
    def access_bound(self) -> int | None:
        """The plan's access bound when a bounded plan exists."""
        return self.plan.total_bound if self.plan is not None else None

    @property
    def suggested_parameters(self) -> frozenset[AttrRef] | None:
        """Dominating parameters to instantiate when the query is not bounded."""
        if self.dominating is not None and self.dominating.found:
            return self.dominating.parameters
        return None

    def describe(self) -> str:
        lines = [f"Report for {self.query.name}:"]
        lines.append(f"  bounded: {self.bounded}")
        lines.append(f"  effectively bounded: {self.effectively_bounded}")
        if self.plan is not None:
            lines.append(f"  plan access bound: {self.plan.total_bound} tuples")
        if self.certificate is not None:
            lines.append(
                f"  proven access bound (Σ Mᵢ certificate): "
                f"{self.certificate.total_bound} tuples over "
                f"{self.certificate.num_steps} fetch step(s)"
            )
        if self.verification_error is not None:
            lines.append(f"  plan verification FAILED: {self.verification_error}")
        if self.suggested_parameters is not None:
            pretty = ", ".join(
                ref.pretty(self.query.atoms) for ref in sorted(self.suggested_parameters)
            )
            lines.append(f"  suggested dominating parameters: {pretty}")
        for name, stats in self.serving_caches.items():
            lines.append(f"  {name} cache: {stats.describe()}")
        if self.backend_kinds:
            lines.append(f"  storage backends prepared: {', '.join(self.backend_kinds)}")
        return "\n".join(lines)


class BoundedEngine:
    """Checks, plans and executes SPC queries under a fixed access schema.

    Thread safety: one engine may back every worker of a
    :class:`~repro.service.QueryService`.  The serving-path caches (plans,
    negative verdicts, prepared templates) are internally locked, the
    executor's prepare path is serialized, and compiled programs are
    immutable — so :meth:`prepare_query`, :meth:`plan`, :meth:`execute` and
    :meth:`cache_info` may all be called concurrently.  Two threads racing on
    a cold cache key may both compute the entry (one result is kept); that
    duplicate work is benign because compilations of equal keys are
    interchangeable.

    Writes: everything cached here — plans, negative verdicts, prepared
    templates and their Σ Mᵢ certificates — is analysis of ``Q`` and ``A``
    alone, so a committed write batch drops none of it.  What a write does
    outdate is the executor's bound index snapshot, which is stamped with
    the store's ``data_version`` and re-bound on the next request.
    """

    def __init__(
        self,
        access_schema: AccessSchema,
        fallback_to_naive: bool = True,
        enforce_bounds: bool = True,
        dominating_alpha: float | None = None,
        plan_cache_size: int = DEFAULT_PLAN_CACHE_SIZE,
        negative_cache_size: int = DEFAULT_NEGATIVE_CACHE_SIZE,
        verify_plans: bool = True,
    ) -> None:
        self.access_schema = access_schema
        self.fallback_to_naive = fallback_to_naive
        self.dominating_alpha = dominating_alpha
        #: Default for :meth:`prepare_query`'s ``verify`` argument: run the
        #: static verifier over every new compilation.  Verification happens
        #: once per template (never on the per-request hot path), but
        #: latency-critical deployments can opt out engine-wide here.
        self.verify_plans = verify_plans
        #: Guards the verifier counters reported by :meth:`cache_info`.
        self._verifier_lock = threading.Lock()
        self._verifier_certificates = 0
        self._verifier_failures = 0
        self._verifier_last_bound: int | None = None
        self._bounded_executor = BoundedExecutor(enforce_bounds=enforce_bounds)
        self._naive_executor = NaiveExecutor()
        # Every distinct bound constant yields a structurally new SPCQuery, so
        # under a serving workload these keys never repeat exactly; the caches
        # are capped so a long-lived engine cannot grow without bound.
        self._plan_cache: LRUCache[SPCQuery, BoundedPlan] = LRUCache(
            plan_cache_size, name="plan-cache"
        )
        # Not-effectively-bounded verdicts are value-independent, so they are
        # keyed by the query's *shape*: one classification covers every
        # binding of a template.
        self._negative_cache: LRUCache[tuple, str] = LRUCache(
            negative_cache_size, name="negative-cache"
        )
        self._prepared_cache: LRUCache[tuple, PreparedQuery] = LRUCache(
            plan_cache_size, name="prepared-cache"
        )

    # -- analysis -----------------------------------------------------------------------

    def check(self, query: SPCQuery, suggest_parameters: bool = True) -> QueryReport:
        """Static analysis: boundedness, effective boundedness, plan, suggestions."""
        boundedness = bcheck(query, self.access_schema)
        effective = ebcheck(query, self.access_schema)
        plan: BoundedPlan | None = None
        dominating: DominatingParametersResult | None = None
        certificate = None
        verification_error = None
        if effective.effectively_bounded:
            plan = self.plan(query)
            certificate, verification_error = self._certify(plan)
        elif suggest_parameters:
            dominating = find_dominating_parameters(
                query, self.access_schema, alpha=self.dominating_alpha
            )
        return QueryReport(
            query=query,
            boundedness=boundedness,
            effective=effective,
            plan=plan,
            dominating=dominating,
            certificate=certificate,
            verification_error=verification_error,
            serving_caches={
                "plan": self._plan_cache.stats,
                "negative": self._negative_cache.stats,
                "prepared": self._prepared_cache.stats,
            },
            backend_kinds=self._bounded_executor.backend_kinds(),
        )

    def is_effectively_bounded(self, query: SPCQuery) -> bool:
        return ebcheck(query, self.access_schema).effectively_bounded

    def _record_verification(self, certificate: "PlanCertificate | None") -> None:
        with self._verifier_lock:
            if certificate is None:
                self._verifier_failures += 1
            else:
                self._verifier_certificates += 1
                self._verifier_last_bound = certificate.total_bound

    def _certify(self, plan: BoundedPlan) -> tuple["PlanCertificate | None", str | None]:
        """Run the static verifier over ``plan``, reporting instead of raising.

        :meth:`check` is the diagnostic surface — a rejected plan belongs *in*
        the report (``verification_error``), not in a traceback.
        """
        # Imported lazily: repro.analysis sits above the execution layer.
        from ..analysis.verify import verify_plan

        try:
            certificate = verify_plan(plan, access_schema=self.access_schema)
        except PlanVerificationError as error:
            self._record_verification(None)
            return None, str(error)
        self._record_verification(certificate)
        return certificate, None

    def plan(self, query: SPCQuery) -> BoundedPlan:
        """The (cached) bounded plan for an effectively bounded query.

        Negative verdicts are cached by the query's value-independent shape,
        so a template rejected by EBCheck once is rejected for every binding
        without re-running the quadratic check.
        """
        plan = self._plan_cache.get(query)
        if plan is not None:
            return plan
        # The shape cannot distinguish satisfiable bindings from unsatisfiable
        # ones, so settle satisfiability (cheap, cached on the query) before
        # trusting a shape-keyed verdict.
        query.closure.require_satisfiable()
        reason = self._negative_cache.get(query.plan_shape)
        if reason is not None:
            raise NotEffectivelyBoundedError(reason)
        try:
            plan = qplan(query, self.access_schema)
        except NotEffectivelyBoundedError as error:
            self._negative_cache.put(query.plan_shape, str(error))
            raise
        self._plan_cache.put(query, plan)
        return plan

    def prepare_query(
        self, template: ParameterizedQuery, verify: bool | None = None
    ) -> PreparedQuery:
        """Compile ``template`` once into a :class:`PreparedQuery` (cached).

        Parameters
        ----------
        template:
            A :class:`~repro.spc.parameters.ParameterizedQuery` — the form
            query to serve.  EBCheck and QPlan run here, once, against
            symbolic constants.
        verify:
            Run the static plan verifier (:mod:`repro.analysis.verify`) over
            the compilation and attach its Σ Mᵢ certificate
            (``prepared.certificate``).  Defaults to the engine's
            ``verify_plans`` setting (on).  Verification is compile-time work
            — it never runs on the per-request hot path — and is skipped when
            the cached compilation already carries a certificate.

        Returns
        -------
        PreparedQuery
            The compiled handle: ``total_bound`` states the per-request
            access bound up front; ``execute`` binds values and runs with no
            analysis on the hot path.

        Raises
        ------
        ~repro.errors.NotEffectivelyBoundedError
            When the template is not effectively bounded under the engine's
            access schema.
        ~repro.errors.PlanVerificationError
            When ``verify`` is on and the compilation violates a verifier
            rule (the rule id is carried on the error).

        The prepared query shares this engine's bounded executor, so its
        per-database index cache is shared with :meth:`execute`.  Repeated
        calls with an equivalent template return the cached compilation.
        Thread-safe (see the class docstring).

        Example
        -------
        >>> from repro.spc import ParameterizedQuery
        >>> from repro.workloads import query_q1, social_access_schema
        >>> engine = BoundedEngine(social_access_schema())
        >>> q1 = query_q1()
        >>> template = ParameterizedQuery(
        ...     q1, {"album": q1.ref("ia", "album_id"), "user": q1.ref("f", "user_id")})
        >>> prepared = engine.prepare_query(template)
        >>> prepared.total_bound
        7000
        >>> engine.prepare_query(template) is prepared    # cached compilation
        True
        """
        key = template.plan_key()
        prepared = self._prepared_cache.get(key)
        if prepared is None:
            prepared = PreparedQuery(
                prepare_plan(template, self.access_schema),
                executor=self._bounded_executor,
            )
            self._prepared_cache.put(key, prepared)
        should_verify = self.verify_plans if verify is None else verify
        if should_verify and prepared.certificate is None:
            # Imported lazily: repro.analysis sits above the execution layer.
            from ..analysis.verify import verify_prepared

            try:
                certificate = verify_prepared(
                    prepared.prepared, access_schema=self.access_schema
                )
            except PlanVerificationError:
                self._record_verification(None)
                raise
            prepared.certify(certificate)
            self._record_verification(certificate)
        return prepared

    def cache_info(self) -> dict[str, CacheStats | BackendInfo | VerifierInfo]:
        """Hit/miss/eviction counters for the serving-path caches, per backend seam.

        Besides the three LRU caches (plans, negative EBCheck verdicts,
        prepared templates), the ``"backends"`` entry reports which storage
        backend kinds the engine's executor has prepared constraint indexes
        on, and the ``"verifier"`` entry reports the static plan verifier's
        certificate/failure counters with the most recently proven Σ Mᵢ —
        serving deployments monitor hit rates and proven bounds next to the
        stores they serve from.  Every value exposes ``describe()``.
        """
        with self._verifier_lock:
            verifier = VerifierInfo(
                certificates=self._verifier_certificates,
                failures=self._verifier_failures,
                last_proven_bound=self._verifier_last_bound,
            )
        return {
            "plan": self._plan_cache.stats,
            "negative": self._negative_cache.stats,
            "prepared": self._prepared_cache.stats,
            "backends": BackendInfo(self._bounded_executor.backend_kinds()),
            "verifier": verifier,
        }

    # -- execution ----------------------------------------------------------------------

    def prepare(self, source: Any) -> AccessIndexes:
        """Pre-build the access-constraint indexes on a database or backend."""
        return self._bounded_executor.prepare(source, self.access_schema)

    def execute(self, query: SPCQuery, source: Any) -> ExecutionResult:
        """Answer ``query`` on a database or backend with the bounded plan when possible.

        Falls back to the naive executor for queries that are not effectively
        bounded when ``fallback_to_naive`` is enabled; otherwise raises
        :class:`~repro.errors.NotEffectivelyBoundedError`.
        """
        try:
            plan = self.plan(query)
        except NotEffectivelyBoundedError:
            if not self.fallback_to_naive:
                raise
            return self._naive_executor.execute(query, source)
        return self._bounded_executor.execute(plan, source)

    def execute_naive(self, query: SPCQuery, source: Any) -> ExecutionResult:
        """Force baseline evaluation (used for comparisons and correctness checks)."""
        return self._naive_executor.execute(query, source)
