"""repro.serve: the adaptation control plane.

Layered sans-io design:

* :mod:`repro.serve.registry` — the LRU-bounded multi-tenant
  :class:`SpecRegistry`, the one digest → spec table: each
  :class:`SpecRecord` holds a parsed manifest and its shared warm
  planner, keyed by :func:`spec_digest` (the hash of the manifest's
  canonical text); shardable across worker processes;
* :mod:`repro.serve.service` — the thread-safe, amortizing
  :class:`PlanningService` (plan, batch, k-best and verify-paths
  operations on registry records);
* :mod:`repro.serve.api` — typed request/response dataclasses and
  :class:`ErrorEnvelope`, the wire vocabulary every transport shares;
* :mod:`repro.serve.control` — :class:`ControlPlane.dispatch`, the one
  entry point the CLI and the network adapter both answer through;
* :mod:`repro.serve.http` — the asyncio HTTP/1.1 JSON adapter
  (stdlib-only) with admission control, deadlines, and worker sharding.

Specs enter only as manifest text (:meth:`SpecRegistry.register`);
every later request addresses them by digest.
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
from repro.serve.registry import SpecRecord, SpecRegistry, spec_digest
from repro.serve.service import PlanningService, no_safe_path_message

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
