"""Discrete-event backend of the execution substrate.

This module wires the shared runtimes (:mod:`repro.exec.runtime`) to the
simulated network and clock: :class:`SimClock` and
:class:`SimTimerService` adapt the :class:`~repro.sim.kernel.Simulator`
to the substrate's :class:`~repro.exec.substrate.Clock` /
:class:`~repro.exec.substrate.TimerService` contracts, and the
:class:`~repro.sim.net.Network` *is* the substrate's transport.  All
effect interpretation and trace emission live in
:class:`~repro.exec.runtime.AgentRuntime` /
:class:`~repro.exec.runtime.ManagerRuntime`; the classes here only add
simulator wiring and keep their historical names.

:class:`AdaptationCluster` assembles a full system from
``(universe, invariants, actions)`` and runs adaptation requests end to
end, returning an :class:`AdaptationOutcome` and a checkable
:class:`~repro.trace.Trace`.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Mapping, Optional, Set

from repro.core.actions import ActionLibrary
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.core.planner import AdaptationPlan, AdaptationPlanner
from repro.errors import SimulationError
from repro.exec.app import AppAdapter
from repro.exec.runtime import AdaptationOutcome, AgentRuntime, ManagerRuntime
from repro.protocol.failures import FailurePolicy
from repro.protocol.manager import FlushProvider, no_flush
from repro.sim.kernel import Simulator, TimerHandle
from repro.sim.net import DelayModel, LossModel, Network
from repro.trace import Trace

__all__ = [
    "AdaptationCluster",
    "AdaptationOutcome",
    "ManagerHost",
    "ProcessApp",
    "ProcessHost",
    "SimClock",
    "SimTimerService",
]


class SimClock:
    """Substrate clock over the simulator's virtual time."""

    def __init__(self, sim: Simulator):
        self._sim = sim

    def now(self) -> float:
        return self._sim.now


class SimTimerService:
    """Substrate timers over the simulator's event heap."""

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._handles: Dict[str, TimerHandle] = {}

    def set_timer(self, name: str, delay: float, callback: Callable[[], None]) -> None:
        self.cancel_timer(name)

        def fire() -> None:
            self._handles.pop(name, None)
            callback()

        self._handles[name] = self._sim.schedule(delay, fire)

    def cancel_timer(self, name: str) -> None:
        handle = self._handles.pop(name, None)
        if handle is not None:
            handle.cancel()

    def cancel_all(self) -> None:
        handles, self._handles = list(self._handles.values()), {}
        for handle in handles:
            handle.cancel()


class ProcessApp(AppAdapter):
    """Application adapter for the simulated backend.

    Compatibility alias of :class:`repro.exec.app.AppAdapter`; simulator
    apps may additionally use ``self.host.sim`` (the event loop) and
    ``self.host.network`` (the simulated network).
    """

    host: "ProcessHost"


class ProcessHost(AgentRuntime):
    """One simulated process: agent machine + local components + app."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        trace: Trace,
        universe: ComponentUniverse,
        process_id: str,
        components: Iterable[str],
        app: Optional[AppAdapter] = None,
        manager_id: str = "manager",
    ):
        self.sim = sim
        self.network = network
        super().__init__(
            process_id,
            universe,
            components,
            clock=SimClock(sim),
            transport=network,
            timers=SimTimerService(sim),
            trace=trace,
            app=app or ProcessApp(),
            manager_id=manager_id,
            error=SimulationError,
        )
        network.register(process_id, self.on_envelope)


class ManagerHost(ManagerRuntime):
    """The adaptation manager process on the simulator."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        trace: Trace,
        planner: AdaptationPlanner,
        initial_config: Configuration,
        policy: Optional[FailurePolicy] = None,
        flush_provider: FlushProvider = no_flush,
        manager_id: str = "manager",
        replan_k: int = 8,
    ):
        self.sim = sim
        self.network = network
        super().__init__(
            planner,
            initial_config,
            clock=SimClock(sim),
            transport=network,
            timers=SimTimerService(sim),
            trace=trace,
            policy=policy,
            flush_provider=flush_provider,
            manager_id=manager_id,
            replan_k=replan_k,
            error=SimulationError,
        )
        network.register(manager_id, self.on_envelope)


class AdaptationCluster:
    """A complete simulated adaptive system: manager + per-process agents.

    Builds one :class:`ProcessHost` per distinct process in the universe,
    assigns each the local slice of ``initial_config``, and exposes
    :meth:`adapt_to` for end-to-end runs.
    """

    def __init__(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        actions: ActionLibrary,
        initial_config: Configuration,
        *,
        seed: int = 0,
        apps: Optional[Mapping[str, AppAdapter]] = None,
        policy: Optional[FailurePolicy] = None,
        flush_provider: FlushProvider = no_flush,
        default_delay: Optional[DelayModel] = None,
        default_loss: Optional[LossModel] = None,
        replan_k: int = 8,
        bus=None,
        planner: Optional[AdaptationPlanner] = None,
    ):
        self.universe = universe
        self.invariants = invariants
        self.actions = actions
        self.sim = Simulator(seed=seed)
        self.network = Network(self.sim, default_delay=default_delay, default_loss=default_loss)
        # With an observation bus, every record any host appends is
        # published at emission time (streaming checking/enforcement).
        self.trace = Trace(bus=bus)
        # An injected planner (e.g. a registered spec's shared one) brings
        # its warm space/SAG/SPT caches; by default each cluster owns a
        # private planner, as before.
        self.planner = planner or AdaptationPlanner(universe, invariants, actions)
        self.planner.space.require_safe(initial_config, role="initial configuration")
        apps = dict(apps or {})
        self.hosts: Dict[str, ProcessHost] = {}
        for process_id in universe.processes():
            local = {
                name for name in initial_config.members
                if universe.process_of(name) == process_id
            }
            self.hosts[process_id] = ProcessHost(
                sim=self.sim,
                network=self.network,
                trace=self.trace,
                universe=universe,
                process_id=process_id,
                components=local,
                app=apps.pop(process_id, None),
            )
        if apps:
            raise SimulationError(f"apps supplied for unknown processes: {sorted(apps)}")
        self.manager = ManagerHost(
            sim=self.sim,
            network=self.network,
            trace=self.trace,
            planner=self.planner,
            initial_config=initial_config,
            policy=policy,
            flush_provider=flush_provider,
            replan_k=replan_k,
        )

    def start_apps(self) -> None:
        for host in self.hosts.values():
            host.app.start()

    @property
    def live_configuration(self) -> Configuration:
        """Union of every host's local component slice (the ground truth)."""
        members: Set[str] = set()
        for host in self.hosts.values():
            members |= host.components
        return Configuration(members)

    def adapt_to(
        self,
        target: Configuration,
        until: float = 1_000_000.0,
        max_events: int = 2_000_000,
    ) -> AdaptationOutcome:
        """Run one adaptation request to a terminal outcome."""
        self.manager.request_adaptation(target)
        self.sim.run(until=until, max_events=max_events, stop_when=lambda: self.manager.done)
        if self.manager.outcome is None:
            raise SimulationError(
                f"adaptation did not terminate by t={until} "
                f"(manager state {self.manager.machine.state.value})"
            )
        return self.manager.outcome

    def run_plan(
        self,
        plan: AdaptationPlan,
        until: float = 1_000_000.0,
        max_events: int = 2_000_000,
    ) -> AdaptationOutcome:
        """Execute a specific pre-computed plan (e.g. a deliberate alternate)."""
        self.manager.start_plan(plan)
        self.sim.run(until=until, max_events=max_events, stop_when=lambda: self.manager.done)
        if self.manager.outcome is None:
            raise SimulationError("plan execution did not terminate")
        return self.manager.outcome
