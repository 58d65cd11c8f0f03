"""Backend-agnostic agent/manager runtimes: the one effect interpreter.

The sans-io protocol machines (:mod:`repro.protocol`) return effects;
*somebody* has to carry them out.  This module is that somebody — the
single place in the library where protocol :class:`~repro.protocol.effects.Effect`
objects are interpreted and :class:`~repro.trace.Trace` records emitted.
Deployment backends (discrete-event simulator, threaded runtime,
asyncio) only supply the :class:`~repro.exec.substrate.Clock`,
:class:`~repro.exec.substrate.Transport`, and
:class:`~repro.exec.substrate.TimerService` services plus their own
receive-loop wiring; they never touch an effect directly.

* :class:`AgentRuntime` — one adaptive process: agent machine, local
  component slice, application adapter, blocking gate.
* :class:`ManagerRuntime` — the adaptation manager: manager machine,
  planner, committed configuration, terminal outcome.
* :func:`resolve_replan` — the shared §4.4 failure-handling cascade
  (retry → alternate path → rollback → user), used by every backend.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterable, List, Optional, Set, Type

from repro.core.actions import AdaptiveAction
from repro.core.model import ComponentUniverse, Configuration
from repro.core.planner import AdaptationPlan, AdaptationPlanner
from repro.errors import (
    ExecutionError,
    NoSafePathError,
    ReproError,
    UnsafeConfigurationError,
)
from repro.exec.app import AppAdapter
from repro.exec.substrate import Clock, NullLock, TimerService, Transport
from repro.protocol.agent import AgentMachine
from repro.protocol.effects import (
    AbortReset,
    AdaptationAborted,
    AdaptationComplete,
    AwaitUser,
    BlockProcess,
    CancelTimer,
    Effect,
    ExecuteInAction,
    ExecutePostAction,
    RequestReplan,
    ResumeProcess,
    Send,
    SetTimer,
    StartReset,
    StepCommitted,
    StepRolledBack,
    UndoInAction,
)
from repro.protocol.failures import FailurePolicy, ReplanKind
from repro.protocol.manager import FlushProvider, ManagerMachine, no_flush
from repro.protocol.messages import Envelope, FlushRequest
from repro.trace import (
    AdaptationApplied,
    BlockRecord,
    ConfigCommitted,
    NoteRecord,
    RollbackRecord,
    Trace,
)


@dataclass
class AdaptationOutcome:
    """Terminal result of one adaptation request."""

    status: str  # "complete" | "aborted" | "await_user"
    configuration: Configuration
    reason: str = ""
    steps_committed: int = 0
    steps_rolled_back: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def duration(self) -> float:
        return self.finished_at - self.started_at

    @property
    def succeeded(self) -> bool:
        return self.status == "complete"


class AgentRuntime:
    """One adaptive process: agent machine + local components + app.

    The runtime interprets every agent-side effect (reset initiation,
    blocking, in-action execution, rollback, post-action, resume) and
    emits the corresponding trace records.  Backends deliver inbound
    envelopes via :meth:`on_envelope`; the application reports its local
    safe state via :meth:`local_safe` (from any thread — effect
    execution is serialized by *lock*).
    """

    def __init__(
        self,
        process_id: str,
        universe: ComponentUniverse,
        components: Iterable[str],
        *,
        clock: Clock,
        transport: Transport,
        timers: TimerService,
        trace: Trace,
        app: Optional[AppAdapter] = None,
        manager_id: str = "manager",
        lock=None,
        error: Type[ReproError] = ExecutionError,
    ):
        self.process_id = process_id
        self.universe = universe
        self.components: Set[str] = set(components)
        self.clock = clock
        self.transport = transport
        self.timers = timers
        self.trace = trace
        self._error = error
        self._lock = lock if lock is not None else NullLock()
        # set == full operation; apps' worker threads may wait on this.
        self.running_event = threading.Event()
        self.running_event.set()
        self.app = app or AppAdapter()
        self.app.attach(self)
        self.agent = AgentMachine(process_id, manager_id)

    def emit(self, record) -> None:
        """Publish one trace record (single agent-side emission point).

        Appending publishes to the trace's observation bus, so a raising
        enforcement observer aborts the effect being interpreted — with
        the violating record already recorded as evidence.
        """
        self.trace.append(record)

    # -- blocking gate -----------------------------------------------------------
    @property
    def blocked(self) -> bool:
        return not self.running_event.is_set()

    @blocked.setter
    def blocked(self, value: bool) -> None:
        if value:
            self.running_event.clear()
        else:
            self.running_event.set()

    # -- inbound ---------------------------------------------------------------
    def on_envelope(self, envelope: Envelope) -> None:
        """Backend callback: a coordination envelope arrived."""
        if isinstance(envelope.message, FlushRequest):
            # Out-of-band drain request: handled by the app, not the agent.
            self.app.inject_marker(envelope.message.step_key)
            return
        with self._lock:
            self.dispatch(self.agent.on_message(envelope.message))

    def local_safe(self, step_key: str) -> None:
        """App callback (any thread): local safe state reached."""
        with self._lock:
            self.dispatch(self.agent.on_local_safe(step_key))

    # -- local component slice ----------------------------------------------------
    def local_slice(self, names: Iterable[str]) -> Set[str]:
        return {
            name for name in names
            if self.universe.process_of(name) == self.process_id
        }

    def _apply_local(self, action: AdaptiveAction, inverse: bool) -> None:
        removes = self.local_slice(action.adds if inverse else action.removes)
        adds = self.local_slice(action.removes if inverse else action.adds)
        if not inverse:
            missing = removes - self.components
            if missing:
                raise self._error(
                    f"{self.process_id}: in-action {action.action_id} removes "
                    f"components not present locally: {sorted(missing)}"
                )
        self.components -= removes
        self.components |= adds

    # -- effect interpreter ---------------------------------------------------------
    def dispatch(self, effects: Iterable[Effect]) -> None:
        """Interpret agent effects (caller must hold the runtime's lock)."""
        queue: Deque[Effect] = deque(effects)
        while queue:
            effect = queue.popleft()
            if isinstance(effect, Send):
                self.transport.send(
                    Envelope(self.process_id, effect.destination, effect.message)
                )
            elif isinstance(effect, StartReset):
                self.app.begin_reset(
                    effect.step_key,
                    effect.action,
                    effect.inject_flush,
                    effect.await_flush,
                )
            elif isinstance(effect, AbortReset):
                self.app.abort_reset(effect.step_key)
            elif isinstance(effect, BlockProcess):
                self.running_event.clear()
                self.emit(
                    BlockRecord(
                        time=self.clock.now(), process=self.process_id, blocked=True
                    )
                )
                self.app.on_blocked()
            elif isinstance(effect, ResumeProcess):
                queue.extend(self._resume(effect.step_key))
            elif isinstance(effect, ExecuteInAction):
                self._apply_local(effect.action, inverse=False)
                self.app.apply_action(effect.action)
                self.emit(
                    AdaptationApplied(
                        time=self.clock.now(),
                        process=self.process_id,
                        action_id=effect.action.action_id,
                        removes=frozenset(self.local_slice(effect.action.removes)),
                        adds=frozenset(self.local_slice(effect.action.adds)),
                    )
                )
                queue.extend(self.agent.on_in_action_applied(effect.step_key))
            elif isinstance(effect, UndoInAction):
                self._apply_local(effect.action, inverse=True)
                self.app.undo_action(effect.action)
                self.emit(
                    RollbackRecord(
                        time=self.clock.now(),
                        process=self.process_id,
                        action_id=effect.action.action_id,
                    )
                )
                queue.extend(self.agent.on_undone(effect.step_key))
            elif isinstance(effect, ExecutePostAction):
                self.app.post_action(effect.action)
            else:  # pragma: no cover - defensive
                raise self._error(
                    f"{self.process_id}: unhandled agent effect {effect!r}"
                )

    def _resume(self, step_key: str) -> List[Effect]:
        latency = self.app.resume_latency()
        if latency > 0:
            self.timers.set_timer(
                f"resume:{step_key}", latency, lambda: self._finish_resume(step_key)
            )
            return []
        return self._resume_now(step_key)

    def _resume_now(self, step_key: str) -> List[Effect]:
        self.running_event.set()
        self.emit(
            BlockRecord(time=self.clock.now(), process=self.process_id, blocked=False)
        )
        self.app.on_resumed()
        return self.agent.on_resumed(step_key)

    def _finish_resume(self, step_key: str) -> None:
        with self._lock:
            self.dispatch(self._resume_now(step_key))


def resolve_replan(
    machine: ManagerMachine,
    planner: AdaptationPlanner,
    request: RequestReplan,
    replan_k: int = 8,
) -> List[Effect]:
    """The §4.4 re-planning cascade, shared by every backend.

    Picks the cheapest of the *replan_k* best plans to the requested
    destination (target for ``ALTERNATE_TO_TARGET``, original source for
    rollback) that avoids every already-failed ``(configuration, action)``
    edge; falls through to ``on_no_plan`` when planning fails or every
    candidate would retrace a failed edge.
    """
    if request.kind == ReplanKind.ALTERNATE_TO_TARGET:
        destination = machine.target
    else:
        destination = machine.original_source
    assert destination is not None
    if request.current == destination:
        empty = AdaptationPlan(request.current, destination, (), 0.0)
        return machine.on_new_plan(empty)
    failed = set(request.failed_edges)
    # Warm fast path: the MAP equals plan_k[0], so when the single best
    # plan avoids every failed edge the full Yen sweep is unnecessary —
    # and with a registered spec's warm shared planner, plan() is usually
    # a cache/SPT hit while plan_k pays k spur searches.
    try:
        best = planner.plan(request.current, destination)
    except (NoSafePathError, UnsafeConfigurationError):
        return machine.on_no_plan()
    if all(
        (step.source, step.action.action_id) not in failed for step in best.steps
    ):
        return machine.on_new_plan(best)
    try:
        candidates = planner.plan_k(request.current, destination, replan_k)
    except (NoSafePathError, UnsafeConfigurationError):
        return machine.on_no_plan()
    for plan in candidates:
        if all(
            (step.source, step.action.action_id) not in failed
            for step in plan.steps
        ):
            return machine.on_new_plan(plan)
    return machine.on_no_plan()


class ManagerRuntime:
    """The adaptation manager on any backend.

    Owns the manager machine, the committed configuration, manager-side
    trace emission, timer bookkeeping, the §4.4 replan cascade, and the
    terminal :class:`AdaptationOutcome`.  Backends deliver envelopes via
    :meth:`on_envelope`; the timer service invokes :meth:`on_timeout`.
    *on_terminal* (if given) is called with the outcome when a run
    reaches a terminal state — e.g. to wake a blocked caller.
    """

    def __init__(
        self,
        planner: AdaptationPlanner,
        initial_config: Configuration,
        *,
        clock: Clock,
        transport: Transport,
        timers: TimerService,
        trace: Trace,
        policy: Optional[FailurePolicy] = None,
        flush_provider: FlushProvider = no_flush,
        manager_id: str = "manager",
        replan_k: int = 8,
        lock=None,
        error: Type[ReproError] = ExecutionError,
        on_terminal: Optional[Callable[[AdaptationOutcome], None]] = None,
    ):
        self.planner = planner
        self.clock = clock
        self.transport = transport
        self.timers = timers
        self.trace = trace
        self.manager_id = manager_id
        self.replan_k = replan_k
        self._error = error
        self._lock = lock if lock is not None else NullLock()
        self._on_terminal = on_terminal
        self.machine = ManagerMachine(
            planner.universe,
            policy=policy,
            flush_provider=flush_provider,
            manager_id=manager_id,
        )
        self.committed = initial_config
        self.outcome: Optional[AdaptationOutcome] = None
        self._started_at = 0.0
        self.emit(
            ConfigCommitted(
                time=clock.now(), configuration=initial_config.members, step_id="initial"
            )
        )

    def emit(self, record) -> None:
        """Publish one trace record (single manager-side emission point)."""
        self.trace.append(record)

    # -- entry point -----------------------------------------------------------
    def request_adaptation(self, target: Configuration) -> None:
        """Plan current→target and start executing (detection & setup + realization)."""
        plan = self.planner.plan(self.committed, target)
        self.start_plan(plan)

    def start_plan(self, plan: AdaptationPlan) -> None:
        """Execute a pre-computed plan (must start at the committed config)."""
        if plan.source != self.committed:
            raise self._error(
                f"plan starts at {plan.source.label()} but system is at "
                f"{self.committed.label()}"
            )
        with self._lock:
            self.outcome = None
            self._started_at = self.clock.now()
            self.dispatch(self.machine.start(plan))

    @property
    def done(self) -> bool:
        return self.outcome is not None

    # -- inbound ---------------------------------------------------------------
    def on_envelope(self, envelope: Envelope) -> None:
        """Backend callback: a coordination envelope arrived."""
        with self._lock:
            self.dispatch(self.machine.on_message(envelope.message))

    def on_timeout(self, name: str) -> None:
        """Timer-service callback: the named timer fired."""
        with self._lock:
            self.dispatch(self.machine.on_timeout(name))

    # -- effect interpreter -----------------------------------------------------
    def dispatch(self, effects: Iterable[Effect]) -> None:
        """Interpret manager effects (caller must hold the runtime's lock)."""
        queue: Deque[Effect] = deque(effects)
        while queue:
            effect = queue.popleft()
            if isinstance(effect, Send):
                self.transport.send(
                    Envelope(self.manager_id, effect.destination, effect.message)
                )
            elif isinstance(effect, SetTimer):
                self.timers.set_timer(
                    effect.name,
                    effect.delay,
                    lambda name=effect.name: self.on_timeout(name),
                )
            elif isinstance(effect, CancelTimer):
                self.timers.cancel_timer(effect.name)
            elif isinstance(effect, StepCommitted):
                self.committed = effect.step.target
                self.emit(
                    ConfigCommitted(
                        time=self.clock.now(),
                        configuration=effect.step.target.members,
                        step_id=effect.step_key,
                        action_id=effect.step.action.action_id,
                    )
                )
            elif isinstance(effect, StepRolledBack):
                self.emit(
                    NoteRecord(
                        time=self.clock.now(),
                        text=(
                            f"step {effect.step_key} "
                            f"({effect.step.action.action_id}) rolled back: "
                            f"{effect.reason}"
                        ),
                    )
                )
            elif isinstance(effect, RequestReplan):
                queue.extend(
                    resolve_replan(self.machine, self.planner, effect, self.replan_k)
                )
            elif isinstance(effect, AdaptationComplete):
                self._finish("complete", effect.configuration, "target reached")
            elif isinstance(effect, AdaptationAborted):
                self._finish("aborted", effect.configuration, effect.reason)
            elif isinstance(effect, AwaitUser):
                self._finish("await_user", effect.configuration, effect.reason)
            else:  # pragma: no cover - defensive
                raise self._error(f"manager: unhandled effect {effect!r}")

    def _finish(self, status: str, configuration: Configuration, reason: str) -> None:
        self.outcome = AdaptationOutcome(
            status=status,
            configuration=configuration,
            reason=reason,
            steps_committed=self.machine.steps_committed,
            steps_rolled_back=self.machine.steps_rolled_back,
            started_at=self._started_at,
            finished_at=self.clock.now(),
        )
        self.emit(
            NoteRecord(time=self.clock.now(), text=f"adaptation {status}: {reason}")
        )
        if self._on_terminal is not None:
            self._on_terminal(self.outcome)
