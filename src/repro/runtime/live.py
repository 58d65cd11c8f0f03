"""The live adaptation system: threaded manager + hosts + demo pipeline app.

The threaded backend's system assembly.  :class:`LiveAdaptationSystem`
builds one shared :class:`~repro.exec.runtime.ManagerRuntime` (which owns
all manager-side effect interpretation) plus one
:class:`~repro.runtime.host.LiveAgentHost` per process; ``adapt_to``
blocks the calling thread until the adaptation reaches a terminal
outcome.  :class:`PipelineApp` is a ready-made application for examples
and tests: a worker thread pumps items through a live
:class:`~repro.components.FilterChain`, pausing while its host is blocked
and rebuilding the chain from the host's component set after in-actions.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Dict, Mapping, Optional

from repro.components.filters import Filter, FilterChain
from repro.core.actions import ActionLibrary, AdaptiveAction
from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.core.planner import AdaptationPlanner
from repro.errors import RuntimeHostError
from repro.exec.app import AppAdapter
from repro.exec.runtime import AdaptationOutcome, ManagerRuntime
from repro.exec.substrate import STOP, ThreadTimerService, WallClock
from repro.protocol.failures import FailurePolicy
from repro.protocol.manager import FlushProvider, ManagerMachine, no_flush
from repro.protocol.messages import Envelope
from repro.runtime.host import LiveAgentHost, LiveApp
from repro.runtime.transport import InMemoryTransport
from repro.trace import Trace


class LiveAdaptationSystem:
    """Threaded deployment of the safe-adaptation protocol.

    Args:
        time_scale: wall seconds per protocol time unit.  Policies speak
            the simulator's units (≈ milliseconds); the default maps one
            unit to 1 ms of real time.
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
        self.transport = InMemoryTransport()
        # Bus publication happens under the trace lock, so observers see
        # one serialized record stream even across runtime threads.
        self.trace = Trace(bus=bus)
        self.time_scale = time_scale
        self.manager_id = manager_id
        self._clock = WallClock(time_scale)
        self._outcome_ready = threading.Event()
        self._lock = threading.RLock()
        self._queue = self.transport.register(manager_id)
        self._thread = threading.Thread(
            target=self._receive_loop, name="adaptation-manager", daemon=True
        )
        apps = dict(apps or {})
        self.hosts: Dict[str, LiveAgentHost] = {}
        for process_id in universe.processes():
            local = {
                name for name in initial_config.members
                if universe.process_of(name) == process_id
            }
            self.hosts[process_id] = LiveAgentHost(
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
            raise RuntimeHostError(f"apps for unknown processes: {sorted(apps)}")
        self.manager = ManagerRuntime(
            self.planner,
            initial_config,
            clock=self._clock,
            transport=self.transport,
            timers=ThreadTimerService(time_scale),
            trace=self.trace,
            policy=policy,
            flush_provider=flush_provider,
            manager_id=manager_id,
            replan_k=replan_k,
            lock=self._lock,
            error=RuntimeHostError,
            on_terminal=lambda outcome: self._outcome_ready.set(),
        )

    # -- compatibility accessors ---------------------------------------------------
    @property
    def machine(self) -> ManagerMachine:
        return self.manager.machine

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
    def start(self) -> None:
        self._thread.start()
        for host in self.hosts.values():
            host.start()

    def shutdown(self, timeout: float = 5.0) -> None:
        self.manager.timers.cancel_all()
        for host in self.hosts.values():
            host.stop(timeout=timeout)
        self.transport.stop_endpoint(self.manager_id)
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():  # pragma: no cover - shutdown hygiene
            raise RuntimeHostError("manager thread did not stop")

    def __enter__(self) -> "LiveAdaptationSystem":
        self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- adaptation entry ------------------------------------------------------------
    def adapt_to(self, target: Configuration, timeout: float = 30.0) -> AdaptationOutcome:
        """Plan and execute current→target; blocks until terminal outcome."""
        with self._lock:
            plan = self.planner.plan(self.manager.committed, target)
            self._outcome_ready.clear()
            self.manager.start_plan(plan)
        if not self._outcome_ready.wait(timeout=timeout):
            raise RuntimeHostError(
                f"adaptation did not finish within {timeout}s "
                f"(manager state {self.manager.machine.state.value})"
            )
        assert self.manager.outcome is not None
        return self.manager.outcome

    # -- manager receive loop ----------------------------------------------------
    def _receive_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is STOP:
                return
            assert isinstance(item, Envelope)
            self.manager.on_envelope(item)


class PipelineApp(LiveApp):
    """A live pipeline: worker thread pushing items through a FilterChain.

    Args:
        filter_factory: maps a component name to a :class:`Filter`; the
            chain is rebuilt from the host's component set after every
            structural change.
        source: produces the next input item (defaults to a counter).
        sink: consumes chain outputs.
        interval: worker period in wall seconds.
    """

    def __init__(
        self,
        filter_factory: Callable[[str], Filter],
        sink: Callable[[object], None],
        source: Optional[Callable[[], object]] = None,
        interval: float = 0.002,
    ):
        self.filter_factory = filter_factory
        self.sink = sink
        self._counter = 0
        self.source = source or self._default_source
        self.interval = interval
        self.chain: Optional[FilterChain] = None
        self.items_processed = 0
        self._stop = threading.Event()
        self._worker: Optional[threading.Thread] = None
        self._chain_lock = threading.Lock()

    def _default_source(self) -> object:
        self._counter += 1
        return self._counter

    # -- lifecycle ----------------------------------------------------------------
    def start(self) -> None:
        self._rebuild_chain()
        self._worker = threading.Thread(
            target=self._run, name=f"pipeline-{self.host.process_id}", daemon=True
        )
        self._worker.start()

    def stop(self) -> None:
        self._stop.set()
        self.host.running_event.set()  # unblock a paused worker so it can exit
        if self._worker is not None:
            self._worker.join(timeout=5.0)

    def _run(self) -> None:
        while not self._stop.is_set():
            # Pause while the host is blocked (held in its safe state).
            self.host.running_event.wait(timeout=0.5)
            if self._stop.is_set():
                return
            if not self.host.running_event.is_set():
                continue
            with self._chain_lock:
                chain = self.chain
                if chain is not None:
                    for item in chain.push(self.source()):
                        self.sink(item)
                    self.items_processed += 1
            time.sleep(self.interval)

    # -- adaptation hooks ---------------------------------------------------------------
    def _rebuild_chain(self) -> None:
        with self._chain_lock:
            self.chain = FilterChain(
                f"{self.host.process_id}.chain",
                [self.filter_factory(name) for name in sorted(self.host.components)],
            )

    def begin_reset(
        self, step_key: str, action: AdaptiveAction, inject_flush: bool, await_flush: bool
    ) -> None:
        # The worker holds the chain lock for a whole item: acquiring it
        # here means "not mid-item", i.e. the local safe state.
        with self._chain_lock:
            pass
        self.host.local_safe(step_key)

    def apply_action(self, action: AdaptiveAction) -> None:
        self._rebuild_chain()

    def undo_action(self, action: AdaptiveAction) -> None:
        self._rebuild_chain()
