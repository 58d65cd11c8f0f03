"""PlanningService under concurrency: exact accounting, build-once specs."""

import threading

import pytest

from repro.errors import NoSafePathError
from repro.manifest import SystemManifest, loads
from repro.serve import PlanningService, SpecRegistry


@pytest.fixture
def spec(video_text):
    manifest = loads(video_text)
    source = manifest.resolve_configuration("source")
    target = manifest.resolve_configuration("target")
    return video_text, source, target


def registered(text):
    """A fresh service with *text* registered; returns (service, record)."""
    service = PlanningService(SpecRegistry())
    record, _ = service.registry.register(text)
    return service, record


def hammer(threads, iterations, work):
    """Run *work(thread_index, iteration)* from *threads* workers."""
    barrier = threading.Barrier(threads)
    errors = []

    def body(index):
        barrier.wait()
        try:
            for iteration in range(iterations):
                work(index, iteration)
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    workers = [
        threading.Thread(target=body, args=(i,)) for i in range(threads)
    ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    assert not errors, errors


class TestExactAccounting:
    THREADS = 8
    ITERATIONS = 50

    def test_every_request_is_warm_or_cold_and_cold_is_per_pair(self, spec):
        text, source, target = spec
        service, record = registered(text)
        pairs = [(source, target), (target, target), (source, source)]

        def work(index, iteration):
            a, b = pairs[(index + iteration) % len(pairs)]
            plan = service.plan_digest(record, a, b)
            assert plan.source == a and plan.target == b

        hammer(self.THREADS, self.ITERATIONS, work)
        stats = service.stats()
        total = self.THREADS * self.ITERATIONS
        assert stats["warm_hits"] + stats["cold_plans"] == total
        assert stats["cold_plans"] == len(pairs)
        assert stats["lazy_plans"] == 0

    def test_unreachable_pairs_stay_exact_too(self, spec):
        text, source, target = spec
        service, record = registered(text)
        # target -> source is unreachable (actions are directed); the
        # planner caches the negative answer, so it costs one cold plan
        pairs = [(source, target), (target, source)]
        unreachable = []

        def work(index, iteration):
            a, b = pairs[(index + iteration) % len(pairs)]
            try:
                service.plan_digest(record, a, b)
            except NoSafePathError:
                unreachable.append(1)

        hammer(self.THREADS, self.ITERATIONS, work)
        stats = service.stats()
        total = self.THREADS * self.ITERATIONS
        assert stats["warm_hits"] + stats["cold_plans"] == total
        assert stats["cold_plans"] == len(pairs)
        assert len(unreachable) == total // 2

    def test_stats_snapshot_is_consistent_mid_hammer(self, spec):
        text, source, target = spec
        service, record = registered(text)
        stop = threading.Event()
        snapshots = []

        def reader():
            while not stop.is_set():
                snapshots.append(service.stats())

        observer = threading.Thread(target=reader)
        observer.start()
        try:
            hammer(
                self.THREADS, self.ITERATIONS,
                lambda i, j: service.plan_digest(record, source, target),
            )
        finally:
            stop.set()
            observer.join()
        total = self.THREADS * self.ITERATIONS
        final = service.stats()
        assert final["warm_hits"] + final["cold_plans"] == total
        # served counts never decrease and never overshoot the total
        counts = [s["warm_hits"] + s["cold_plans"] for s in snapshots]
        assert counts == sorted(counts)
        assert all(count <= total for count in counts)


class TestBuildOnce:
    def test_concurrent_register_builds_the_planner_exactly_once(
        self, spec, monkeypatch
    ):
        text, _, _ = spec
        real_planner = SystemManifest.planner
        built = []

        def counting_planner(self, *args, **kwargs):
            built.append(1)
            return real_planner(self, *args, **kwargs)

        monkeypatch.setattr(SystemManifest, "planner", counting_planner)
        registry = SpecRegistry()
        records = []

        def work(index, iteration):
            records.append(registry.register(text)[0])

        hammer(8, 5, work)
        assert len(built) == 1
        assert len({id(record) for record in records}) == 1
        assert PlanningService(registry).stats()["specs"] == 1

    def test_count_warm_hit_only_credits_live_specs(self, spec):
        text, _, _ = spec
        service, record = registered(text)
        assert service.count_warm_hit(record.digest) is True
        assert service.stats()["warm_hits"] == 1
        service.registry.evict(record.digest)
        assert service.count_warm_hit(record.digest) is False
