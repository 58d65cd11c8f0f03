"""SpecRegistry: LRU bound, sharding, spec identity."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.manifest import dumps, loads
from repro.serve import PlanningService, SpecRegistry


def manifest_with_n_components(n):
    lines = ["[components]"]
    lines += [f"C{i} @ host" for i in range(n)]
    lines += ["", "[invariants]", ": C0", "", "[configurations]",
              "base = " + "1" * n]
    return "\n".join(lines) + "\n"


@pytest.fixture
def registry():
    return SpecRegistry(max_specs=3)


class TestLRUBound:
    def test_register_past_bound_evicts_least_recently_used(self, registry):
        digests = []
        for n in range(2, 6):
            record, created = registry.register(manifest_with_n_components(n))
            assert created is True
            digests.append(record.digest)
        assert len(registry) == 3
        assert digests[0] not in registry
        assert all(d in registry for d in digests[1:])

    def test_eviction_drops_the_service_entry_too(self, registry):
        service = PlanningService(registry)
        first, _ = registry.register(manifest_with_n_components(2))
        for n in range(3, 6):
            registry.register(manifest_with_n_components(n))
        assert registry.peek(first.digest) is None
        assert service.count_warm_hit(first.digest) is False
        assert service.stats()["evictions"] == 1
        # re-registering builds a fresh (cold) record
        again, created = registry.register(manifest_with_n_components(2))
        assert created and again is not first

    def test_get_refreshes_lru_order(self, registry):
        first, _ = registry.register(manifest_with_n_components(2))
        second, _ = registry.register(manifest_with_n_components(3))
        registry.get(first.digest)
        registry.register(manifest_with_n_components(4))
        registry.register(manifest_with_n_components(5))
        assert first.digest in registry
        assert second.digest not in registry

    def test_reregister_is_idempotent_and_refreshes(self, registry):
        first, created = registry.register(manifest_with_n_components(2))
        again, created_again = registry.register(
            manifest_with_n_components(2)
        )
        assert created and not created_again
        assert again is first
        assert len(registry) == 1

    def test_max_specs_must_be_positive(self):
        with pytest.raises(ValueError):
            SpecRegistry(max_specs=0)


class TestLookup:
    def test_get_unknown_raises_keyerror_with_digest(self, registry):
        with pytest.raises(KeyError, match="unknown spec digest 'beef'"):
            registry.get("beef")

    def test_peek_is_lru_neutral(self, registry):
        first, _ = registry.register(manifest_with_n_components(2))
        registry.register(manifest_with_n_components(3))
        assert registry.peek(first.digest) is first
        assert registry.peek("nope") is None
        # peek must not have refreshed: first is still the LRU victim
        registry.register(manifest_with_n_components(4))
        registry.register(manifest_with_n_components(5))
        assert first.digest not in registry

    def test_evict_returns_whether_anything_existed(self, registry):
        record, _ = registry.register(manifest_with_n_components(2))
        assert registry.evict(record.digest) is True
        assert registry.evict(record.digest) is False
        assert record.digest not in registry
        assert registry.evictions == 1


class TestSharding:
    def test_owns_partitions_the_digest_space(self):
        total = 4
        shards = [SpecRegistry(shard=(i, total)) for i in range(total)]
        digests = [f"{v:08x}{'0' * 56}" for v in range(64)]
        for digest in digests:
            owners = [s.owns(digest) for s in shards]
            assert sum(owners) == 1
            assert owners[int(digest[:8], 16) % total]

    def test_unsharded_registry_owns_everything(self, registry):
        assert registry.owns("0" * 64)
        assert registry.owns("f" * 64)

    def test_foreign_specs_are_transient_and_evicted_first(self):
        text = manifest_with_n_components(2)
        probe = SpecRegistry(max_specs=8)
        digest, _ = probe.register(text)
        index = int(digest.digest[:8], 16) % 2
        foreign = (index + 1) % 2

        registry = SpecRegistry(max_specs=2, shard=(foreign, 2))
        record, _ = registry.register(text)
        assert record.transient is True
        # two owned specs push the transient one out first, even though
        # it is not the least recently used
        owned = []
        for n in (3, 4, 5):
            rec, _ = registry.register(manifest_with_n_components(n))
            if not rec.transient:
                owned.append(rec)
            if record.digest not in registry:
                break
        assert record.digest not in registry

    def test_bad_shard_rejected(self):
        with pytest.raises(ValueError):
            SpecRegistry(shard=(2, 2))


class TestDescribe:
    def test_describe_merges_manifest_facts_with_counters(self, registry):
        record, _ = registry.register(manifest_with_n_components(2))
        source = registry.get(record.digest).manifest.resolve_configuration(
            "base"
        )
        PlanningService(registry).plan_digest(record, source, source)
        (doc,) = registry.describe()
        assert doc["digest"] == record.digest
        assert doc["components"] == 2
        assert doc["configurations"] == ["base"]
        assert doc["owned"] is True
        assert doc["cold_plans"] == 1


@st.composite
def small_manifests(draw):
    """Manifest text over two or three components whose parts vary in
    everything the canonical text renders: descriptions, invariant
    names, costs, named configurations and properties."""
    count = draw(st.integers(min_value=2, max_value=3))
    lines = ["[components]"]
    for i in range(count):
        description = draw(st.sampled_from(["", "fast", "slow"]))
        lines.append(f"C{i} @ p{i % 2}" + (f" : {description}" if description else ""))
    name = draw(st.sampled_from(["", "need", "keep"]))
    lines += ["", "[invariants]", f"{name} : C0 | C1"]
    cost = draw(st.sampled_from(["1", "2.5", "10"]))
    note = draw(st.sampled_from(["", "swap it"]))
    lines += [
        "", "[actions]",
        f"swap : C0 -> C1 @ {cost}" + (f" ; {note}" if note else ""),
        "back : C1 -> C0 @ 3",
    ]
    target = draw(st.sampled_from(["C1", "C0, C1", "C0"]))
    lines += ["", "[configurations]", "source = C0", f"target = {target}"]
    formula = draw(st.sampled_from(["", "historically(C0 | C1)", "historically(C0)"]))
    if formula:
        lines += ["", "[properties]", f"p : {formula}"]
    return "\n".join(lines) + "\n"


def noisy(text):
    """The same manifest with comments and extra whitespace added."""
    return "# a comment\n\n" + text.replace(" : ", "  :   ").replace(
        "\n\n", "\n   \n# another comment\n\n"
    )


def canonical(text):
    return dumps(loads(text))


class TestSpecIdentity:
    """One digest per canonical manifest text — no more, no less."""

    @settings(max_examples=150, deadline=None)
    @given(small_manifests(), small_manifests())
    def test_distinct_canonical_texts_never_share_a_record(self, first, second):
        registry = SpecRegistry(max_specs=8)
        one, _ = registry.register(first)
        two, created = registry.register(second)
        same = canonical(first) == canonical(second)
        assert (one.digest == two.digest) is same
        assert (one is two) is same
        assert created is not same

    @settings(max_examples=50, deadline=None)
    @given(small_manifests())
    def test_equal_canonical_text_lands_on_the_same_planner(self, text):
        registry = SpecRegistry()
        first, _ = registry.register(text)
        again, created = registry.register(noisy(text))
        assert noisy(text) != text
        assert created is False
        assert again is first and again.planner is first.planner
