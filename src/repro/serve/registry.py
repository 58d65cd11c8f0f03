"""SpecRegistry: the control plane's one digest → spec table.

Uploading a spec *is* uploading manifest text: the registry parses it
and keys a :class:`SpecRecord` by :func:`spec_digest`, the hash of the
manifest's canonical text.  A record holds everything a request against
the spec needs — the parsed manifest (named configurations,
``[properties]`` formulas), the shared :class:`AdaptationPlanner` whose
warm space + SAG + shortest-path-tree caches every request reuses, the
cold-path lock, the request counters and the compiled-property cache.
The :class:`~repro.serve.service.PlanningService` runs its operations on
these records.

The registry is LRU-bounded (``max_specs``): registering past the bound
evicts the least-recently-used record, and its warm planner with it.  In
``--workers`` mode each worker process gets a ``shard=(index, total)``
and **owns** the digests that hash onto it; foreign specs are still
served (any worker can be asked anything) but are marked *transient* and
evicted first, so the shard owner is the process that keeps a spec's
caches warm.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.core.planner import AdaptationPlanner
from repro.ltl.compile import CompiledProperty
from repro.manifest import SystemManifest, dumps, loads

#: per-record request counters (summed into ``/v1/stats`` under these names)
COUNTERS = ("warm_hits", "cold_plans", "lazy_plans", "verify_hits")


def spec_digest(manifest: SystemManifest) -> str:
    """The spec identity: sha256 of the manifest's canonical text.

    :func:`repro.manifest.dumps` renders every part an answer depends on
    — components in declaration order (which fixes bit positions),
    invariants with their names, actions with costs and descriptions,
    named configurations, properties and conflicts — and nothing else,
    so manifests differing only in whitespace or comments share a
    digest, and any two that could answer a request differently do not.
    """
    return hashlib.sha256(dumps(manifest).encode("utf-8")).hexdigest()


class SpecRecord:
    """One registered spec: its manifest, shared planner, lock and counters."""

    __slots__ = (
        "digest",
        "manifest",
        "transient",
        "planner",
        "lock",
        "stats_lock",
        "properties",
        "warm_hits",
        "cold_plans",
        "lazy_plans",
        "verify_hits",
    )

    def __init__(
        self,
        digest: str,
        manifest: SystemManifest,
        planner: AdaptationPlanner,
        transient: bool = False,
    ):
        self.digest = digest
        self.manifest = manifest
        #: True on a sharded worker that does not own this digest
        self.transient = transient
        self.planner = planner
        #: serializes cold work (enumeration, SAG build, Dijkstra)
        self.lock = threading.RLock()
        #: guards the counters only — held for nanoseconds, never while planning
        self.stats_lock = threading.Lock()
        #: compiled-property cache, keyed by the canonical formula text
        self.properties: Dict[str, CompiledProperty] = {}
        self.warm_hits = 0
        self.cold_plans = 0
        self.lazy_plans = 0
        self.verify_hits = 0

    def count(self, counter: str, amount: int = 1) -> None:
        with self.stats_lock:
            setattr(self, counter, getattr(self, counter) + amount)

    def counters(self) -> Dict[str, int]:
        """All counters read atomically (consistent under concurrent bumps)."""
        with self.stats_lock:
            return {counter: getattr(self, counter) for counter in COUNTERS}


class SpecRegistry:
    """LRU-bounded digest → :class:`SpecRecord` map.

    Args:
        max_specs: LRU bound on registered specs (≥ 1).
        shard: ``(index, total)`` worker identity, or ``None`` when the
            process serves the whole digest space.
        workers: forwarded to each planner's
            :class:`~repro.core.space.SafeConfigurationSpace` for
            parallel safe-space enumeration.
    """

    def __init__(
        self,
        *,
        max_specs: int = 64,
        shard: Optional[Tuple[int, int]] = None,
        workers: Optional[int] = None,
    ):
        if max_specs < 1:
            raise ValueError(f"max_specs must be >= 1, got {max_specs}")
        if shard is not None:
            index, total = shard
            if not (total >= 1 and 0 <= index < total):
                raise ValueError(f"shard index/total out of range: {shard}")
        self.max_specs = max_specs
        self.shard = shard
        self.workers = workers
        #: records dropped by LRU pressure or :meth:`evict`
        self.evictions = 0
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

        Returns ``(record, created)`` — *created* is False when a
        manifest with the same canonical text (same digest) was already
        registered, in which case the existing record is refreshed in
        LRU order and returned.  The planner is built once per digest,
        however many callers race to register it.  Raises
        :class:`repro.errors.ParseError` on bad manifest text.
        """
        manifest = loads(text)
        digest = spec_digest(manifest)
        with self._lock:
            record = self._records.get(digest)
            if record is not None:
                self._records.move_to_end(digest)
                return record, False
            record = SpecRecord(
                digest,
                manifest,
                manifest.planner(workers=self.workers),
                transient=not self.owns(digest),
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
            self.evictions += 1

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

    def records(self) -> List[SpecRecord]:
        """A snapshot of every registered record."""
        with self._lock:
            return list(self._records.values())

    def evict(self, digest: str) -> bool:
        """Drop a spec and its warm caches; True when it existed."""
        with self._lock:
            existed = self._records.pop(digest, None) is not None
            if existed:
                self.evictions += 1
        return existed

    # -- introspection -----------------------------------------------------------
    def describe(self) -> List[Dict[str, Any]]:
        """Per-spec listing: manifest facts plus the record's counters."""
        out: List[Dict[str, Any]] = []
        for record in sorted(self.records(), key=lambda r: r.digest):
            doc: Dict[str, Any] = {
                "digest": record.digest,
                "components": len(record.manifest.universe),
                "configurations": sorted(record.manifest.configurations),
                "properties": sorted(record.manifest.properties),
                "owned": self.owns(record.digest),
                "compiled_properties": len(record.properties),
            }
            doc.update(record.counters())
            out.append(doc)
        return out
