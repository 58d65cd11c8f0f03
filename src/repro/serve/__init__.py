"""repro.serve: the adaptation control plane.

Layered sans-io design:

* :mod:`repro.serve.service` — the thread-safe, amortizing
  :class:`PlanningService` (warm planner caches keyed by spec digest);
* :mod:`repro.serve.api` — typed request/response dataclasses and
  :class:`ErrorEnvelope`, the wire vocabulary every transport shares;
* :mod:`repro.serve.registry` — the LRU-bounded multi-tenant
  :class:`SpecRegistry` (manifest uploads keyed by digest, shardable);
* :mod:`repro.serve.control` — :class:`ControlPlane.dispatch`, the one
  entry point the CLI and the network adapter both answer through;
* :mod:`repro.serve.http` — the asyncio HTTP/1.1 JSON adapter
  (stdlib-only) with admission control, deadlines, and worker sharding.

``from repro.serve import PlanningService, spec_digest`` keeps working
exactly as it did when this package was a single module.
"""

from repro.core.planner import PLAN_METHODS
from repro.serve.api import (
    ERROR_CODES,
    ErrorEnvelope,
    EvictSpecRequest,
    EvictSpecResult,
    LintRequest,
    LintResult,
    PlanBatchItem,
    PlanBatchRequest,
    PlanBatchResult,
    PlanInfo,
    PlanRequest,
    PlanResult,
    PlanStepInfo,
    RegisterSpecRequest,
    RegisterSpecResult,
    Request,
    RequestDecodeError,
    Response,
    StatsRequest,
    StatsResult,
    TraceCheckRequest,
    TraceCheckResult,
    TracePropertyInfo,
    TraceViolationInfo,
    VerifyPathsRequest,
    VerifyPathsResult,
    envelope,
    to_json,
    to_wire,
)
from repro.serve.control import ControlPlane
from repro.serve.http import (
    STATUS_BY_CODE,
    ControlPlaneHTTPServer,
    ServerThread,
    create_listen_socket,
    response_status,
    run_server,
)
from repro.serve.registry import SpecRecord, SpecRegistry
from repro.serve.service import (
    PlanningService,
    ServiceStats,
    no_safe_path_message,
    spec_digest,
)

__all__ = [
    "ERROR_CODES",
    "PLAN_METHODS",
    "STATUS_BY_CODE",
    "ControlPlane",
    "ControlPlaneHTTPServer",
    "ErrorEnvelope",
    "EvictSpecRequest",
    "EvictSpecResult",
    "LintRequest",
    "LintResult",
    "PlanBatchItem",
    "PlanBatchRequest",
    "PlanBatchResult",
    "PlanInfo",
    "PlanRequest",
    "PlanResult",
    "PlanStepInfo",
    "PlanningService",
    "RegisterSpecRequest",
    "RegisterSpecResult",
    "Request",
    "RequestDecodeError",
    "Response",
    "ServerThread",
    "ServiceStats",
    "SpecRecord",
    "SpecRegistry",
    "StatsRequest",
    "StatsResult",
    "TraceCheckRequest",
    "TraceCheckResult",
    "TracePropertyInfo",
    "TraceViolationInfo",
    "VerifyPathsRequest",
    "VerifyPathsResult",
    "create_listen_socket",
    "envelope",
    "no_safe_path_message",
    "response_status",
    "run_server",
    "spec_digest",
    "to_json",
    "to_wire",
]
