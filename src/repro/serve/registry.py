"""SpecRegistry: multi-tenant manifest registry over a PlanningService.

The :class:`~repro.serve.service.PlanningService` keys warm planners by
the content digest of a compiled ``(S, I, A)`` spec; this registry adds
the **manifest layer** on top — named configurations, ``[properties]``
formulas, component counts — so control-plane requests can say
``"source": "baseline"`` instead of shipping bit vectors.  Uploading a
spec *is* uploading manifest text: the registry parses it, registers the
compiled spec with the service, and remembers the parsed manifest under
the digest.

The registry is LRU-bounded (``max_specs``): registering past the bound
evicts the least-recently-used spec, dropping its warm planner from the
service as well.  In ``--workers`` mode each worker process gets a
``shard=(index, total)`` and **owns** the digests that hash onto it;
foreign specs are still served (any worker can be asked anything) but
are marked *transient* and evicted first, so the shard owner is the
process that keeps a spec's caches warm.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.manifest import SystemManifest, loads
from repro.serve.service import PlanningService


class SpecRecord:
    """One registered spec: its digest plus the parsed manifest."""

    __slots__ = ("digest", "manifest", "transient")

    def __init__(
        self, digest: str, manifest: SystemManifest, transient: bool = False
    ):
        self.digest = digest
        self.manifest = manifest
        #: True on a sharded worker that does not own this digest
        self.transient = transient


class SpecRegistry:
    """LRU-bounded digest → :class:`SpecRecord` map, synced to a service.

    Args:
        service: the planning service warm caches live in; evicting a
            record evicts the service entry too.
        max_specs: LRU bound on registered specs (≥ 1).
        shard: ``(index, total)`` worker identity, or ``None`` when the
            process serves the whole digest space.
    """

    def __init__(
        self,
        service: PlanningService,
        max_specs: int = 64,
        shard: Optional[Tuple[int, int]] = None,
    ):
        if max_specs < 1:
            raise ValueError(f"max_specs must be >= 1, got {max_specs}")
        if shard is not None:
            index, total = shard
            if not (total >= 1 and 0 <= index < total):
                raise ValueError(f"shard index/total out of range: {shard}")
        self.service = service
        self.max_specs = max_specs
        self.shard = shard
        self._lock = threading.RLock()
        self._records: "OrderedDict[str, SpecRecord]" = OrderedDict()

    # -- sharding ----------------------------------------------------------------
    def owns(self, digest: str) -> bool:
        """True when this process's shard is the home of *digest*.

        Unsharded registries own everything.  The digest is already a
        uniform hash, so its leading 32 bits modulo the worker count is
        a stable, even assignment.
        """
        if self.shard is None:
            return True
        index, total = self.shard
        return int(digest[:8], 16) % total == index

    # -- registration ------------------------------------------------------------
    def register(self, text: str) -> Tuple[SpecRecord, bool]:
        """Parse manifest *text* and register its spec.

        Returns ``(record, created)`` — *created* is False when an equal
        spec (same content digest) was already registered, in which case
        the existing record is refreshed in LRU order and returned.
        Raises :class:`repro.errors.ParseError` on bad manifest text.
        """
        manifest = loads(text)
        digest = self.service.register(
            manifest.universe, manifest.invariants, manifest.actions,
            manifest.conflicts,
        )
        with self._lock:
            record = self._records.get(digest)
            if record is not None:
                self._records.move_to_end(digest)
                return record, False
            record = SpecRecord(
                digest, manifest, transient=not self.owns(digest)
            )
            self._records[digest] = record
            self._evict_over_bound()
        return record, True

    def _evict_over_bound(self) -> None:
        """Drop LRU records past ``max_specs`` (transient ones first)."""
        while len(self._records) > self.max_specs:
            victim = next(
                (d for d, r in self._records.items() if r.transient),
                next(iter(self._records)),
            )
            del self._records[victim]
            self.service.evict(victim)

    # -- lookup ------------------------------------------------------------------
    def get(self, digest: str) -> SpecRecord:
        """The record for *digest*, refreshed in LRU order.

        Raises ``KeyError`` (message includes the digest) when absent.
        """
        with self._lock:
            record = self._records.get(digest)
            if record is None:
                raise KeyError(f"unknown spec digest {digest!r}")
            self._records.move_to_end(digest)
            return record

    def peek(self, digest: str) -> Optional[SpecRecord]:
        """Lock-free, LRU-neutral lookup for hot paths (None when absent)."""
        return self._records.get(digest)

    def __contains__(self, digest: str) -> bool:
        return digest in self._records

    def __len__(self) -> int:
        return len(self._records)

    def digests(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(self._records)

    def evict(self, digest: str) -> bool:
        """Drop a spec from registry and service; True when it existed."""
        with self._lock:
            existed = self._records.pop(digest, None) is not None
        # Sync the service either way: a spec registered through the
        # object-keyed service API may exist there without a record here.
        serviced = self.service.evict(digest)
        return existed or serviced

    # -- introspection -----------------------------------------------------------
    def describe(self) -> List[Dict[str, Any]]:
        """Per-spec listing merging registry facts with service counters."""
        with self._lock:
            records = list(self._records.values())
        counters = self.service.spec_stats()
        out: List[Dict[str, Any]] = []
        for record in sorted(records, key=lambda r: r.digest):
            doc: Dict[str, Any] = {
                "digest": record.digest,
                "components": len(record.manifest.universe),
                "configurations": sorted(record.manifest.configurations),
                "properties": sorted(record.manifest.properties),
                "owned": self.owns(record.digest),
            }
            spec_counters = dict(counters.get(record.digest, {}))
            # the service's "properties" counter is its compiled-formula
            # cache size; don't clobber the manifest's property names
            if "properties" in spec_counters:
                spec_counters["compiled_properties"] = spec_counters.pop(
                    "properties"
                )
            doc.update(spec_counters)
            out.append(doc)
        return out
