"""Span wrappers around each layer's public functions, and the per-layer
metrics derived from the recorded spans.

:func:`install` patches functions of the running program in place (the
benchmark's traced processes call it before doing any work); untraced
runs never import this module.  The span names, and the layer each one
times, are:

==============================  ============================================
span                            wrapped callable
==============================  ============================================
``serve.http``                  ``ControlPlaneHTTPServer._handle_request``
                                (one request: framing, routing, writing)
``serve.control.fast``          ``ControlPlane.plan_wire_fast`` /
                                ``lint_wire_fast``
``serve.api.decode``            ``plan_request_from_json`` /
                                ``lint_request_from_json`` /
                                ``verify_paths_request_from_json``
``serve.api.encode``            ``to_wire``
``serve.control.dispatch``      ``ControlPlane.dispatch``
``serve.registry.register``     ``SpecRegistry.register``
``manifest.loads``              ``repro.manifest.loads`` (as the registry
                                calls it)
``core.planner.plan`` / ``…plan_k`` / ``…lazy_plan``
                                ``AdaptationPlanner`` entry points
``core.space.enumerate``        ``SafeConfigurationSpace.enumerate`` (cold
                                calls only)
``core.space.enumerate_masks``  ``SafeConfigurationSpace.enumerate_masks``
``core.space.safety``           ``is_safe_mask`` / ``are_safe_masks`` on
                                both space classes (folded)
``core.sag.build``              ``SafeAdaptationGraph.build``
``core.sag.successors``         ``LazySAG.successors`` (folded)
``ltl.paths.verify``            ``repro.ltl.paths.verify_paths``
``lint``                        ``repro.lint.lint_text``
``lint.sa2xx``                  ``truth_profile`` / ``jointly_satisfiable``
                                (folded)
``lint.sa3xx.arcs``             ``action_arcs`` (folded)
``lint.sa6xx``                  ``check_interference``
==============================  ============================================

Lint stage times are attributed through the parent span: a
``core.sag.successors`` span whose parent is ``lint`` is lint's lazy
reachability sweep, while one under ``ltl.paths.verify`` belongs to the
SA5xx stage.
"""

from __future__ import annotations

import asyncio
import contextvars
from typing import Dict, List

from perfbench.spans import DUR, NAME, PARENT, RID, Recorder, Summary


def _count_result(args) -> object:
    return lambda result: (len(result), 0)


def _safety_measure(args) -> object:
    space, masks = args[0], args[1]
    memo = space.safe_memo
    before = len(memo)
    queried = 1 if isinstance(masks, int) else len(masks)
    return lambda result: (queried, len(memo) - before)


def _expansion_measure(args) -> object:
    lazy = args[0]
    before = lazy.expanded_nodes
    return lambda result: (lazy.expanded_nodes - before, 0)


def _verdict_measure(args) -> object:
    return lambda verdict: (verdict.paths_checked, 0 if verdict.complete else 1)


def _register_measure(args) -> object:
    return lambda result: (1 if result[1] else 0, 0)


def _fast_measure(args) -> object:
    return lambda wire: (0 if wire is None else 1, 0)


def _listify(fn):
    """Materialise the mask iterable so the span can count it."""

    def call(space, masks):
        return fn(space, list(masks))

    return call


def install(recorder: Recorder) -> None:
    """Patch every layer's public callables with span wrappers."""
    from repro.core import planner as planner_mod
    from repro.core import sag as sag_mod
    from repro.core import space as space_mod
    from repro.lint import checks as checks_mod
    import repro.lint as lint_pkg
    from repro.ltl import paths as paths_mod
    from repro.serve import control as control_mod
    from repro.serve import http as http_mod
    from repro.serve import registry as registry_mod
    from repro.serve import service as service_mod

    wrap = recorder.wrap

    def patch(owner, attr, name, **kwargs):
        setattr(owner, attr, wrap(name, getattr(owner, attr), **kwargs))

    # serve.http: one span per request, tagged with the client's request id
    handle_request = http_mod.ControlPlaneHTTPServer._handle_request

    async def traced_handle_request(self, head, reader, writer):
        rid = -1
        marker = head.find(b"X-Request-Id: ")
        if marker >= 0:
            end = head.find(b"\r\n", marker)
            rid = int(head[marker + 14:end])
        token = recorder.request.set(rid)
        sid = recorder.open("serve.http")
        span_token = recorder.current.set(sid)
        try:
            return await handle_request(self, head, reader, writer)
        finally:
            recorder.current.reset(span_token)
            recorder.close(sid)
            recorder.request.reset(token)

    http_mod.ControlPlaneHTTPServer._handle_request = traced_handle_request

    # dispatch runs on an executor thread: carry the span context over
    run_in_executor = asyncio.base_events.BaseEventLoop.run_in_executor

    def traced_run_in_executor(self, executor, func, *args):
        context = contextvars.copy_context()
        return run_in_executor(self, executor, context.run, func, *args)

    asyncio.base_events.BaseEventLoop.run_in_executor = traced_run_in_executor

    patch(control_mod.ControlPlane, "plan_wire_fast", "serve.control.fast",
          measure=_fast_measure)
    patch(control_mod.ControlPlane, "lint_wire_fast", "serve.control.fast",
          measure=_fast_measure)
    for decoder in ("plan_request_from_json", "lint_request_from_json",
                    "verify_paths_request_from_json"):
        patch(http_mod, decoder, "serve.api.decode")
    patch(http_mod, "to_wire", "serve.api.encode")
    patch(control_mod.ControlPlane, "dispatch", "serve.control.dispatch")
    patch(registry_mod.SpecRegistry, "register", "serve.registry.register",
          measure=_register_measure)
    patch(registry_mod, "loads", "manifest.loads")

    planner_cls = planner_mod.AdaptationPlanner
    patch(planner_cls, "plan", "core.planner.plan")
    patch(planner_cls, "plan_k", "core.planner.plan_k")
    patch(planner_cls, "lazy_plan", "core.planner.lazy_plan")

    eager = space_mod.SafeConfigurationSpace
    enumerate_fn = eager.enumerate
    traced_enumerate = wrap("core.space.enumerate", enumerate_fn,
                            measure=_count_result)

    def enumerate_cold_only(self):
        if self.last_enumeration_stats is not None:
            return enumerate_fn(self)  # cached: no enumeration happens
        return traced_enumerate(self)

    eager.enumerate = enumerate_cold_only
    patch(eager, "enumerate_masks", "core.space.enumerate_masks")
    for cls in (eager, space_mod.LazySafeSpace):
        setattr(cls, "are_safe_masks", _listify(wrap(
            "core.space.safety", cls.are_safe_masks, folded=True,
            measure=_safety_measure)))
        patch(cls, "is_safe_mask", "core.space.safety", folded=True,
              measure=_safety_measure)

    build = sag_mod.SafeAdaptationGraph.__dict__["build"].__func__
    sag_mod.SafeAdaptationGraph.build = classmethod(
        wrap("core.sag.build", build)
    )
    patch(sag_mod.LazySAG, "successors", "core.sag.successors", folded=True,
          measure=_expansion_measure)

    traced_verify = wrap("ltl.paths.verify", paths_mod.verify_paths,
                         measure=_verdict_measure)
    paths_mod.verify_paths = traced_verify
    service_mod._verify_paths = traced_verify

    patch(lint_pkg, "lint_text", "lint")
    patch(checks_mod, "truth_profile", "lint.sa2xx", folded=True)
    patch(checks_mod, "jointly_satisfiable", "lint.sa2xx", folded=True)
    patch(checks_mod, "action_arcs", "lint.sa3xx.arcs", folded=True)
    patch(checks_mod, "check_interference", "lint.sa6xx")


# -- per-layer metrics ----------------------------------------------------------

#: spans directly below ``serve.http`` whose time is not HTTP's own
SERVER_CHILDREN = (
    "serve.control.fast",
    "serve.api.decode",
    "serve.control.dispatch",
    "serve.api.encode",
    "serve.registry.register",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def core_metrics(summary: Summary, units: int) -> Dict[str, float]:
    """Planner, space, SAG and path-verification metrics.

    Folded (hot leaf) spans report their summed time per *unit* (a read
    request or a manifest); the other times are means per call.
    """
    s = summary
    queried = s.value.get("core.space.safety", 0)
    return {
        "manifest.loads_ms": s.mean_ms("manifest.loads"),
        "core.planner.plan_calls": s.calls.get("core.planner.plan", 0),
        "core.planner.plan_ms": s.mean_ms("core.planner.plan"),
        "core.planner.plan_k_ms": s.mean_ms("core.planner.plan_k"),
        "core.planner.lazy_calls": s.calls.get("core.planner.lazy_plan", 0),
        "core.planner.lazy_ms": s.mean_ms("core.planner.lazy_plan"),
        "core.space.enumerate_calls": s.calls.get("core.space.enumerate", 0),
        "core.space.enumerate_ms": s.mean_ms("core.space.enumerate"),
        "core.space.safe_configs": s.value.get("core.space.enumerate", 0),
        "core.space.safety_masks": queried,
        "core.space.safety_ms": _ratio(
            1e3 * s.total.get("core.space.safety", 0.0), units
        ),
        "parallel.memo_hit_ratio": (
            1.0 - _ratio(s.extra.get("core.space.safety", 0), queried)
            if queried else 0.0
        ),
        "core.sag.build_ms": s.mean_ms("core.sag.build"),
        "core.sag.successor_calls": s.calls.get("core.sag.successors", 0),
        "core.sag.successor_ms": _ratio(
            1e3 * s.total.get("core.sag.successors", 0.0), units
        ),
        "core.sag.expanded_nodes": s.value.get("core.sag.successors", 0),
        "ltl.paths.verify_calls": s.calls.get("ltl.paths.verify", 0),
        "ltl.paths.verify_ms": s.mean_ms("ltl.paths.verify"),
        "ltl.paths.paths_checked": s.value.get("ltl.paths.verify", 0),
    }


def layer_metrics(
    records: List[list], units: int, latencies: Dict[int, float]
) -> Dict[str, float]:
    """Every per-layer metric the spans can give.

    *units* is the number of end-to-end units traced (read requests or
    manifests).  *latencies* maps a request id to its client-observed
    latency in seconds (empty when no HTTP was involved);
    ``serve.http.self_ms`` is that latency minus the time of the
    server-side spans directly below ``serve.http``, averaged over the
    traced requests.
    """
    s = Summary(records)
    below: Dict[int, float] = {}
    for record in records:
        parent = record[PARENT]
        if (
            parent >= 0
            and records[parent][NAME] == "serve.http"
            and record[NAME] in SERVER_CHILDREN
        ):
            rid = records[parent][RID]
            below[rid] = below.get(rid, 0.0) + record[DUR]
    joined = [rid for rid in latencies if rid in below]
    http_self = sum(latencies[rid] - below[rid] for rid in joined)
    fast_calls = s.calls.get("serve.control.fast", 0)
    registers = s.calls.get("serve.registry.register", 0)
    metrics = {
        "serve.http.self_ms": _ratio(1e3 * http_self, len(joined)),
        "serve.control.fast_calls": fast_calls,
        "serve.control.fast_hit_ratio": _ratio(
            s.value.get("serve.control.fast", 0), fast_calls
        ),
        "serve.control.fast_us": 1e3 * s.mean_ms("serve.control.fast"),
        "serve.api.decode_us": 1e3 * s.mean_ms("serve.api.decode"),
        "serve.api.encode_us": 1e3 * s.mean_ms("serve.api.encode"),
        "serve.control.dispatch_calls": s.calls.get("serve.control.dispatch", 0),
        "serve.control.dispatch_ms": s.mean_ms("serve.control.dispatch"),
        "serve.registry.register_calls": registers,
        "serve.registry.register_ms": s.mean_ms("serve.registry.register"),
        "serve.registry.created_ratio": _ratio(
            s.value.get("serve.registry.register", 0), registers
        ),
    }
    metrics.update(core_metrics(s, units))
    metrics.update(lint_metrics(s, units))
    return metrics


LINT_STAGES = {
    "lint.sa2xx_ms": ("lint.sa2xx",),
    "lint.sa3xx_ms": ("core.space.enumerate_masks", "lint.sa3xx.arcs"),
    "lint.reach_ms": ("core.sag.successors",),
    "lint.sa5xx_ms": ("ltl.paths.verify",),
    "lint.sa6xx_ms": ("lint.sa6xx",),
}


def lint_metrics(summary: Summary, manifests: int) -> Dict[str, float]:
    """Lint stage times per manifest (0 when nothing was linted)."""
    out: Dict[str, float] = {}
    for metric, names in LINT_STAGES.items():
        total = sum(summary.under(name, ("lint",)) for name in names)
        out[metric] = _ratio(1e3 * total, manifests)
    out["lint.self_ms"] = _ratio(
        1e3 * summary.self_total.get("lint", 0.0), manifests
    )
    return out


def self_ms_per_unit(records: List[list], units: int) -> Dict[str, float]:
    """Self time of every span name, in ms per unit, largest first.

    Along the blocking steps these add up to the traced latency of a
    unit (minus, for HTTP, the client-side part ``serve.http.self_ms``
    already holds), which is how a traced run accounts for a latency.
    """
    totals = Summary(records).self_total
    return {
        name: round(_ratio(1e3 * total, units), 4)
        for name, total in sorted(totals.items(), key=lambda item: -item[1])
    }
