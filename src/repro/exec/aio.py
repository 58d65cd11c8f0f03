"""Asyncio backend: the third deployment substrate.

Proof that :mod:`repro.exec` is genuinely pluggable, and the
high-concurrency path of the roadmap: every process is a coroutine on
one event loop, coordination messages travel over ``asyncio.Queue``s,
timers are ``loop.call_later``, and — because the loop serializes all
callbacks — the shared runtimes run entirely lock-free
(:class:`~repro.exec.substrate.NullLock`).

The same :class:`~repro.exec.app.AppAdapter` subclasses that run on the
simulator and the threaded runtime run here unchanged, as long as they
only use portable host services (``local_safe``, ``timers``,
``components``).

Usage::

    async with AioAdaptationSystem(universe, invariants, actions, source) as system:
        outcome = await system.adapt_to(target)

or synchronously via :func:`run_aio_adaptation`.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Iterable, Mapping, Optional

from repro.core.actions import ActionLibrary
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.core.planner import AdaptationPlanner
from repro.errors import ExecutionError
from repro.exec.app import AppAdapter
from repro.exec.runtime import AdaptationOutcome, AgentRuntime, ManagerRuntime
from repro.exec.substrate import STOP, WallClock
from repro.protocol.failures import FailurePolicy
from repro.protocol.manager import FlushProvider, no_flush
from repro.protocol.messages import Envelope
from repro.trace import Trace


class AioTransport:
    """Envelope router over per-endpoint ``asyncio.Queue``s.

    Single-loop only: ``send`` uses ``put_nowait`` and must be called
    from the event-loop thread (which is where every runtime callback
    executes on this backend).
    """

    def __init__(self) -> None:
        self._queues: Dict[str, "asyncio.Queue"] = {}
        self.messages_sent = 0

    def register(self, endpoint: str) -> "asyncio.Queue":
        if endpoint in self._queues:
            raise ExecutionError(f"endpoint {endpoint!r} already registered")
        q: "asyncio.Queue" = asyncio.Queue()
        self._queues[endpoint] = q
        return q

    def send(self, envelope: Envelope) -> None:
        q = self._queues.get(envelope.destination)
        if q is None:
            raise ExecutionError(f"no endpoint {envelope.destination!r}")
        self.messages_sent += 1
        q.put_nowait(envelope)

    def stop_endpoint(self, endpoint: str) -> None:
        """Deliver the STOP sentinel (receive loop exits after draining)."""
        q = self._queues.get(endpoint)
        if q is not None:
            q.put_nowait(STOP)


class AioTimerService:
    """Named timers over ``loop.call_later`` (protocol units × time_scale)."""

    def __init__(self, time_scale: float = 0.001):
        self.time_scale = time_scale
        self._handles: Dict[str, "asyncio.TimerHandle"] = {}

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        self.cancel_timer(name)
        loop = asyncio.get_running_loop()
        self._handles[name] = loop.call_later(
            delay * self.time_scale, self._fire, name, callback
        )

    def _fire(self, name: str, callback: Callable[[], None]) -> None:
        self._handles.pop(name, None)
        callback()

    def cancel_timer(self, name: str) -> None:
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.cancel()

    def cancel_all(self) -> None:
        handles, self._handles = list(self._handles.values()), {}
        for handle in handles:
            handle.cancel()


class AioAgentHost(AgentRuntime):
    """One adaptive process: receive coroutine + agent machine + app."""

    def __init__(
        self,
        process_id: str,
        transport: AioTransport,
        universe: ComponentUniverse,
        components: Iterable[str],
        app: Optional[AppAdapter] = None,
        trace: Optional[Trace] = None,
        clock: Optional[WallClock] = None,
        manager_id: str = "manager",
        time_scale: float = 0.001,
    ):
        super().__init__(
            process_id,
            universe,
            components,
            clock=clock or WallClock(time_scale),
            transport=transport,
            timers=AioTimerService(time_scale),
            trace=trace if trace is not None else Trace(),
            app=app,
            manager_id=manager_id,
        )
        self._queue = transport.register(process_id)
        self._task: Optional["asyncio.Task"] = None

    def start(self) -> None:
        """Launch the receive coroutine (requires a running loop)."""
        self._task = asyncio.get_running_loop().create_task(
            self._receive_loop(), name=f"agent-{self.process_id}"
        )
        self.app.start()

    async def stop(self) -> None:
        self.app.stop()
        self.timers.cancel_all()
        self.transport.stop_endpoint(self.process_id)
        if self._task is not None:
            await self._task

    async def _receive_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is STOP:
                return
            assert isinstance(item, Envelope)
            self.on_envelope(item)


class AioAdaptationSystem:
    """Asyncio deployment of the safe-adaptation protocol.

    Args:
        time_scale: wall seconds per protocol time unit (policies speak
            the simulator's units ≈ milliseconds; the default maps one
            unit to 1 ms of real time).
    """

    def __init__(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
        initial_config: Configuration,
        apps: Optional[Mapping[str, AppAdapter]] = None,
        policy: Optional[FailurePolicy] = None,
        flush_provider: FlushProvider = no_flush,
        time_scale: float = 0.001,
        replan_k: int = 8,
        manager_id: str = "manager",
        bus=None,
        planner: Optional[AdaptationPlanner] = None,
    ):
        self.universe = universe
        # An injected planner (e.g. a registered spec's shared one) brings
        # its warm space/SAG/SPT caches with it.
        self.planner = planner or AdaptationPlanner(universe, invariants, actions)
        self.planner.space.require_safe(initial_config, role="initial configuration")
        self.transport = AioTransport()
        self.trace = Trace(bus=bus)
        self.time_scale = time_scale
        self.manager_id = manager_id
        self._clock = WallClock(time_scale)
        apps = dict(apps or {})
        self.hosts: Dict[str, AioAgentHost] = {}
        for process_id in universe.processes():
            local = {
                name for name in initial_config.members
                if universe.process_of(name) == process_id
            }
            self.hosts[process_id] = AioAgentHost(
                process_id,
                self.transport,
                universe,
                local,
                app=apps.pop(process_id, None),
                trace=self.trace,
                clock=self._clock,
                manager_id=manager_id,
                time_scale=time_scale,
            )
        if apps:
            raise ExecutionError(f"apps supplied for unknown processes: {sorted(apps)}")
        self.manager = ManagerRuntime(
            self.planner,
            initial_config,
            clock=self._clock,
            transport=self.transport,
            timers=AioTimerService(time_scale),
            trace=self.trace,
            policy=policy,
            flush_provider=flush_provider,
            manager_id=manager_id,
            replan_k=replan_k,
            on_terminal=self._on_terminal,
        )
        self._queue = self.transport.register(manager_id)
        self._task: Optional["asyncio.Task"] = None
        self._terminal: Optional["asyncio.Event"] = None

    # -- compatibility accessors ---------------------------------------------------
    @property
    def committed(self) -> Configuration:
        return self.manager.committed

    @property
    def outcome(self) -> Optional[AdaptationOutcome]:
        return self.manager.outcome

    def now(self) -> float:
        """Elapsed protocol time units since construction."""
        return self._clock.now()

    # -- lifecycle ----------------------------------------------------------------
    async def start(self) -> None:
        self._terminal = asyncio.Event()
        self._task = asyncio.get_running_loop().create_task(
            self._receive_loop(), name="adaptation-manager"
        )
        for host in self.hosts.values():
            host.start()

    async def shutdown(self) -> None:
        self.manager.timers.cancel_all()
        for host in self.hosts.values():
            await host.stop()
        self.transport.stop_endpoint(self.manager_id)
        if self._task is not None:
            await self._task

    async def __aenter__(self) -> "AioAdaptationSystem":
        await self.start()
        return self

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.shutdown()

    async def _receive_loop(self) -> None:
        while True:
            item = await self._queue.get()
            if item is STOP:
                return
            assert isinstance(item, Envelope)
            self.manager.on_envelope(item)

    # -- adaptation entry ------------------------------------------------------------
    async def adapt_to(
        self, target: Configuration, timeout: float = 30.0
    ) -> AdaptationOutcome:
        """Plan and execute current→target; awaits the terminal outcome."""
        if self._terminal is None:
            raise ExecutionError("system not started (use 'async with' or start())")
        self._terminal.clear()
        self.manager.request_adaptation(target)
        try:
            await asyncio.wait_for(self._terminal.wait(), timeout=timeout)
        except asyncio.TimeoutError:
            raise ExecutionError(
                f"adaptation did not finish within {timeout}s "
                f"(manager state {self.manager.machine.state.value})"
            ) from None
        assert self.manager.outcome is not None
        return self.manager.outcome

    def _on_terminal(self, outcome: AdaptationOutcome) -> None:
        if self._terminal is not None:
            self._terminal.set()


def run_aio_adaptation(
    universe: ComponentUniverse,
    invariants: InvariantSet,
    actions: ActionLibrary,
    source: Configuration,
    target: Configuration,
    apps: Optional[Mapping[str, AppAdapter]] = None,
    policy: Optional[FailurePolicy] = None,
    flush_provider: FlushProvider = no_flush,
    time_scale: float = 0.001,
    replan_k: int = 8,
    timeout: float = 30.0,
    bus=None,
):
    """Synchronous convenience wrapper: build, run one adaptation, shut down.

    Returns ``(outcome, system)`` — the system is already shut down but
    its trace and hosts remain inspectable.
    """

    async def _run():
        system = AioAdaptationSystem(
            universe,
            invariants,
            actions,
            source,
            apps=apps,
            policy=policy,
            flush_provider=flush_provider,
            time_scale=time_scale,
            replan_k=replan_k,
            bus=bus,
        )
        async with system:
            outcome = await system.adapt_to(target, timeout=timeout)
        return outcome, system

    return asyncio.run(_run())
