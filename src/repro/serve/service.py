"""PlanningService: the planning operations over registered specs.

The ROADMAP north star is serving heavy adaptation-request traffic: many
concurrent ``(source, target)`` requests against the *same* compiled
``(S, I, T, A)`` spec.  Building a fresh :class:`AdaptationPlanner` per
request re-derives the safe space, the SAG, and every shortest path from
scratch; instead each :class:`~repro.serve.registry.SpecRecord` of the
:class:`~repro.serve.registry.SpecRegistry` holds one shared planner,
and the service answers every request against it — so all callers of a
spec land on the same warm space + SAG + shortest-path-tree caches.

Concurrency model (lock-per-spec, lock-free warm reads):

* each record owns an ``RLock`` serializing *cold* work (safe-space
  enumeration, SAG build, Dijkstra) for that spec only — concurrent
  traffic against different specs never contends;
* warm reads bypass the lock entirely: a planned pair is served from
  :meth:`AdaptationPlanner.peek_plan`, a single dict lookup that is safe
  under the GIL because plan caches only ever grow;
* counters are bumped (and snapshotted) under the record's
  ``stats_lock`` so accounting is **exact** under concurrency: every
  request is counted exactly once as warm, cold, or lazy, and
  :meth:`stats` returns consistent per-record snapshots rather than
  torn reads.

Every operation takes the :class:`~repro.serve.registry.SpecRecord` the
caller resolved with its one registry lookup per request
(:meth:`SpecRegistry.register` or :meth:`SpecRegistry.get`); only the
wire caches, which hold nothing but a digest, credit hits by digest.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.model import Configuration
from repro.core.planner import (
    AdaptationPlan,
    no_safe_path_message,
    plan_route,
)
from repro.errors import NoSafePathError
from repro.ltl.ast import PFormula, property_to_text
from repro.ltl.compile import CompiledProperty
from repro.ltl.paths import PathVerdict
from repro.ltl.paths import verify_paths as _verify_paths
from repro.serve.registry import COUNTERS, SpecRecord, SpecRegistry


class PlanningService:
    """Shared planning front end over the records of one registry.

    Requests are routed by :func:`~repro.core.planner.plan_route`:
    oversized specs are planned through
    :meth:`AdaptationPlanner.lazy_plan` — the frontier search that never
    materializes the safe space or the SAG — instead of the eager CSR
    pipeline.  Lazy results land in the same per-pair plan cache, so warm
    reads stay lock-free regardless of which path planned the pair.
    """

    def __init__(self, registry: SpecRegistry):
        self.registry = registry

    # -- planning ----------------------------------------------------------------
    def plan_digest(
        self,
        record: SpecRecord,
        source: Configuration,
        target: Configuration,
        method: str = "auto",
    ) -> AdaptationPlan:
        """One MAP request against the spec's shared planner.

        *method* ``auto`` routes by universe size; ``dijkstra``, ``lazy``,
        and ``collaborative`` force the respective planner entry point.
        Warm pairs return without taking any lock; cold pairs serialize
        on the spec's lock (one search, then every waiter reads the fresh
        cache entry).  Dijkstra and lazy plans land in the shared
        per-pair plan cache; collaborative plans are recomputed on every
        cold request (a warm pair already in the cache is still answered
        from it).  Raises like :meth:`AdaptationPlanner.plan` (unsafe
        endpoints, unreachable target).
        """
        planner = record.planner
        route = plan_route(method, len(planner.universe))
        hit, plan = planner.peek_plan(source, target)
        if not hit:
            with record.lock:
                # Re-peek under the lock: a concurrent caller may have
                # planned this exact pair while we waited.  Without this,
                # two racing cold requests would both count (and plan)
                # cold — the accounting hammer test pins exactness.
                hit, plan = planner.peek_plan(source, target)
                if not hit:
                    if route == "lazy":
                        record.count("lazy_plans")
                        return planner.lazy_plan(source, target)
                    record.count("cold_plans")
                    if route == "collaborative":
                        return planner.plan_collaborative(source, target)
                    return planner.plan(source, target)
        record.count("warm_hits")
        if plan is None:
            raise NoSafePathError(no_safe_path_message(source, target))
        return plan

    def count_warm_hit(self, digest: str) -> bool:
        """Credit one warm hit to *digest*; False when the spec is gone.

        For front-end wire caches that answer repeated requests from
        precomputed bytes: the response bypasses the planner, but the
        traffic still shows up in the spec's warm statistics — and a
        ``False`` return tells the cache its spec was evicted.
        """
        record = self.registry.peek(digest)
        if record is None:
            return False
        record.count("warm_hits")
        return True

    def plan_many_digest(
        self,
        record: SpecRecord,
        pairs: Sequence[Tuple[Configuration, Configuration]],
    ) -> List[Optional[AdaptationPlan]]:
        """Batched MAP solving against the spec's shared planner.

        Semantics follow :meth:`AdaptationPlanner.plan_many`: one result
        per request in input order, ``None`` for unreachable pairs.
        Oversized specs answer each pair via the lazy frontier search
        (unsafe endpoints still raise; unreachable pairs yield ``None``).
        """
        planner = record.planner
        with record.lock:
            if plan_route("auto", len(planner.universe)) == "lazy":
                record.count("lazy_plans", len(pairs))
                results: List[Optional[AdaptationPlan]] = []
                for source, target in pairs:
                    try:
                        results.append(planner.lazy_plan(source, target))
                    except NoSafePathError:
                        results.append(None)
                return results
            record.count("cold_plans", len(pairs))
            return planner.plan_many(pairs)

    def plan_k_digest(
        self,
        record: SpecRecord,
        source: Configuration,
        target: Configuration,
        k: int,
    ) -> List[AdaptationPlan]:
        """The k best alternates for a pair.

        Eager-only (the k-shortest enumeration needs the materialized
        SAG): :func:`~repro.core.planner.plan_route` rejects oversized
        specs with the :class:`ValueError` the CLI shows.
        """
        plan_route("auto", len(record.planner.universe), k)
        with record.lock:
            return list(record.planner.plan_k(source, target, k))

    # -- temporal verification ---------------------------------------------------
    def compiled_property_digest(
        self, record: SpecRecord, phi: PFormula
    ) -> CompiledProperty:
        """The spec's compiled form of *phi* (compiled once, then warm).

        Keyed by the canonical formula text, so structurally equal
        formulas — even separately constructed objects — share one
        compilation per spec.  Warm lookups bump ``verify_hits``.
        """
        key = property_to_text(phi)
        compiled = record.properties.get(key)  # lock-free (dict only grows)
        if compiled is not None:
            record.count("verify_hits")
            return compiled
        with record.lock:
            compiled = record.properties.get(key)
            if compiled is None:
                compiled = CompiledProperty(
                    phi, record.planner.universe.atom_bits
                )
                record.properties[key] = compiled
        return compiled

    def verify_paths_digest(
        self,
        record: SpecRecord,
        source: Configuration,
        target: Configuration,
        phi: PFormula,
        quantifier: str = "all",
        k: Optional[int] = None,
        max_expansions: Optional[int] = None,
        lazy: Optional[bool] = None,
    ) -> PathVerdict:
        """Path-quantified verification against the spec's shared caches.

        Semantics of :func:`repro.ltl.paths.verify_paths`, with the
        service's amortization on top: the property compiles once per
        spec, the path enumeration reuses (and feeds) the shared plan
        caches, and oversized specs route to the lazy frontier exactly
        as :meth:`plan_digest` does (*lazy* forces either mode).
        """
        compiled = self.compiled_property_digest(record, phi)
        with record.lock:
            return _verify_paths(
                record.planner,
                source,
                target,
                phi,
                quantifier,
                k,
                lazy=lazy,
                max_expansions=max_expansions,
                compiled=compiled,
            )

    # -- introspection -----------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Counters summed over every registered spec.

        The keys are the ``service`` document of ``/v1/stats`` (less the
        control plane's ``lint_hits``) and the matching columns of the
        shared-memory cluster counters.  Each record's counters are read
        atomically, so warm and cold counts are never torn.
        """
        records = self.registry.records()
        totals = dict.fromkeys(COUNTERS, 0)
        for record in records:
            for counter, value in record.counters().items():
                totals[counter] += value
        return {
            "specs": len(records),
            **totals,
            "evictions": self.registry.evictions,
        }
