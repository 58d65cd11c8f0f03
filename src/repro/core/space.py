"""Safe-configuration enumeration (paper §4.2, step 1).

"Based on the source/target configurations of an adaptation request and
dependency relationships, this step produces a set of safe configurations."

A configuration is safe iff it satisfies every invariant.  Enumeration over
*n* components is 2^n in the worst case — the paper acknowledges this in §7
— so besides the full sweep we support *restricted* enumeration: freeze the
components no adaptive action can touch at their current values and only
vary the rest.  The restriction is exact (it enumerates precisely the safe
configurations reachable by the given actions from the given base).

Performance: safety testing runs on the bitmask fast path.  The invariant
conjunction is compiled once (:mod:`repro.expr.compile`) to a closure over
an integer presence mask, and verdicts are memoized per mask in a table
shared by every consumer — :meth:`SafeConfigurationSpace.is_safe`, the
backtracking enumerators, :meth:`SafeAdaptationGraph.build
<repro.core.sag.SafeAdaptationGraph.build>`, and the planner's lazy A*.
The frozenset/AST evaluation path remains the semantic source of truth and
still serves configurations containing components outside the universe.
"""

from __future__ import annotations

import os
import pickle
import time
import warnings
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from repro.core.invariants import InvariantSet
from repro.core.model import ComponentUniverse, Configuration
from repro.errors import UnknownComponentError, UnsafeConfigurationError
from repro.parallel.bitset import SafetyMemo

#: either memo backing works everywhere a memo table is accepted — the
#: hybrid :class:`SafetyMemo` is dict-compatible by construction
MemoTable = Union[Dict[int, bool], SafetyMemo]


#: below this many components a process pool costs more than it saves
MIN_PARALLEL_COMPONENTS = 12

#: below this many estimated backtracking nodes (surviving partitions times
#: the free-suffix subtree size) pool spin-up dominates; stay serial
MIN_PARALLEL_MASK_NODES = 1 << 18

#: task-queue chunks per worker — idle workers steal the next chunk, so
#: oversubscription is what evens out skewed partition sizes
PARALLEL_OVERSUBSCRIPTION = 8


def _cpu_count() -> int:
    """Usable CPU count (module-level hook so tests can simulate hosts)."""
    return os.cpu_count() or 1


@dataclass(frozen=True)
class EnumerationStats:
    """How the last :meth:`SafeConfigurationSpace.enumerate` actually ran.

    ``reason`` records why the mode was chosen — in particular why a
    parallel request fell back to serial (clamped workers, small universe,
    root-pruned partitions, pool failure) — so benches and operators can
    tell a genuine parallel win from a silent fallback.  The wall-time
    fields carry the timing evidence: how much of ``total_ms`` went to
    pool spin-up versus waiting on chunks, and whether the persistent
    pool was already warm.
    """

    mode: str  # "serial" | "parallel"
    requested_workers: Optional[int]
    effective_workers: int
    reason: str
    partitions: int = 0  # surviving prefix partitions (parallel planning)
    chunks: int = 0  # tasks submitted to the shared queue (parallel)
    safe_count: int = 0
    #: "" (serial) | "shm-plane" | "pickled-masks" — how results traveled
    transport: str = ""
    #: True when the persistent pool existed before this call
    pool_warm: bool = False
    pool_spinup_ms: float = 0.0
    chunk_wait_ms: float = 0.0
    total_ms: float = 0.0


class SafeConfigurationSpace:
    """All safe configurations of a universe under an invariant set.

    With ``workers=N`` (N > 1), the full enumeration partitions the mask
    space on the high bits of the component prefix and fans the
    partitions out across a process pool — see
    :meth:`_enumerate_parallel`.  Restricted enumeration and membership
    queries are unaffected by the option.
    """

    def __init__(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        workers: Optional[int] = None,
    ):
        self.universe = universe
        self.invariants = invariants
        self.workers = workers
        self._cache: Optional[Tuple[Configuration, ...]] = None
        self._safe_memo: SafetyMemo = SafetyMemo(len(universe))
        self._compiled: Optional[Callable[[int], bool]] = None
        self._compiled_partial: Optional[Tuple[Callable, ...]] = None
        #: how the last full enumeration ran (None until one happens)
        self.last_enumeration_stats: Optional[EnumerationStats] = None

    # -- compiled fast path ------------------------------------------------------
    @property
    def safe_memo(self) -> SafetyMemo:
        """The shared mask -> verdict memo table (exposed for reuse)."""
        return self._safe_memo

    def _compiled_mask_fn(self) -> Callable[[int], bool]:
        if self._compiled is None:
            self._compiled = self.invariants.compile_mask(self.universe.atom_bits)
        return self._compiled

    def _compiled_partial_fns(self) -> Tuple[Callable, ...]:
        if self._compiled_partial is None:
            self._compiled_partial = self.invariants.compile_mask_partial(
                self.universe.atom_bits
            )
        return self._compiled_partial

    def _check_schedule(self, names: Tuple[str, ...]) -> Tuple[Tuple[Callable, ...], ...]:
        """Per-position invariant checks for a backtracking order.

        ``schedule[i]`` holds the compiled three-valued closures of the
        invariants that mention ``names[i]`` — the only invariants whose
        verdict can change when that component is decided.  Checking just
        those at each depth is exact (the parent node already vetted the
        rest) and drops the per-node work from |I| closures to the
        invariant's fan-in.
        """
        fns = self._compiled_partial_fns()
        buckets: List[List[Callable]] = [[] for _ in names]
        position = {name: i for i, name in enumerate(names)}
        for inv, fn in zip(self.invariants, fns):
            for atom in inv.atoms():
                index = position.get(atom)
                if index is not None:
                    buckets[index].append(fn)
        return tuple(tuple(bucket) for bucket in buckets)

    def is_safe_mask(self, mask: int) -> bool:
        """Memoized safety verdict for an integer presence mask."""
        verdict = self._safe_memo.get(mask)
        if verdict is None:
            verdict = self._compiled_mask_fn()(mask)
            self._safe_memo[mask] = verdict
        return verdict

    def are_safe_masks(self, masks: Iterable[int]) -> List[bool]:
        """Batched :meth:`is_safe_mask` — one verdict per mask, in order.

        Hot-path callers (lazy successor generation, lint sweeps) hand
        over a whole candidate batch so the compiled-closure and memo
        lookups are resolved once per batch instead of once per call.
        """
        memo = self._safe_memo
        memo_get = memo.get
        compiled = self._compiled_mask_fn()
        out: List[bool] = []
        for mask in masks:
            verdict = memo_get(mask)
            if verdict is None:
                verdict = compiled(mask)
                memo[mask] = verdict
            out.append(verdict)
        return out

    # -- membership ------------------------------------------------------------
    def is_safe(self, config: Configuration) -> bool:
        """True iff *config* is a safe configuration (paper §3.1)."""
        try:
            mask = self.universe.mask_of(config)
        except UnknownComponentError:
            # Configurations reaching outside the universe keep the
            # set-based evaluation (they have no mask encoding).
            return self.invariants.all_hold(config)
        return self.is_safe_mask(mask)

    def require_safe(self, config: Configuration, role: str = "configuration") -> None:
        """Raise :class:`UnsafeConfigurationError` with an explanation if unsafe."""
        if not self.is_safe(config):
            raise UnsafeConfigurationError(
                f"{role} is unsafe: {self.invariants.explain(config)}"
            )

    # -- enumeration ------------------------------------------------------------
    def enumerate(self) -> Tuple[Configuration, ...]:
        """All safe configurations over the full universe (cached).

        Deterministic order: ascending by the universe's bit-vector value.
        Implemented by :meth:`enumerate_backtracking` (invariant
        propagation prunes hopeless branches early); the exhaustive
        filter over ``all_configurations`` is kept as the property-test
        oracle.
        """
        if self._cache is None:
            self._cache = self._enumerate_with_stats()
        return self._cache

    def _enumerate_serial(
        self, reason: str, started: Optional[float] = None
    ) -> Tuple[Configuration, ...]:
        """Serial enumeration, recording *reason* on the stats attribute."""
        if started is None:
            started = time.perf_counter()
        result = self.enumerate_backtracking()
        self.last_enumeration_stats = EnumerationStats(
            mode="serial",
            requested_workers=self.workers,
            effective_workers=1,
            reason=reason,
            safe_count=len(result),
            total_ms=(time.perf_counter() - started) * 1e3,
        )
        return result

    def _enumerate_with_stats(self) -> Tuple[Configuration, ...]:
        """Pick serial vs parallel and record the decision.

        ``workers=1`` is exactly serial by contract (no pool spin-up);
        requests beyond :func:`_cpu_count` clamp with a warning — extra
        processes on a saturated host only add scheduling overhead.
        """
        started = time.perf_counter()
        requested = self.workers
        n = len(self.universe)
        if requested is None:
            return self._enumerate_serial("serial: no workers requested", started)
        if requested <= 1:
            return self._enumerate_serial(
                "serial: workers=1 is serial by contract", started
            )
        if n < MIN_PARALLEL_COMPONENTS:
            return self._enumerate_serial(
                f"serial: {n} components below the "
                f"{MIN_PARALLEL_COMPONENTS}-component parallel floor",
                started,
            )
        cpus = _cpu_count()
        effective = min(requested, cpus)
        if effective < requested:
            warnings.warn(
                f"workers={requested} exceeds cpu_count={cpus}; "
                f"clamping to {effective}",
                RuntimeWarning,
                stacklevel=3,
            )
        if effective <= 1:
            return self._enumerate_serial(
                f"serial: workers={requested} clamped to 1 (cpu_count={cpus})",
                started,
            )
        return self._enumerate_parallel(effective, started)

    def enumerate_masks(self) -> Tuple[int, ...]:
        """Masks of :meth:`enumerate`'s result, in the same order."""
        mask_of = self.universe.mask_of
        return tuple(mask_of(config) for config in self.enumerate())

    def enumerate_restricted(
        self,
        base: Configuration,
        free_components: Iterable[str],
    ) -> Tuple[Configuration, ...]:
        """Safe configurations varying only *free_components* over *base*.

        Components outside *free_components* keep their membership from
        *base*.  This is how a planner scopes the search to the components
        an adaptation can actually touch, avoiding the full 2^n sweep: the
        three-valued backtracking pruner runs over just the free
        components, with everything else pre-decided, and leaf verdicts go
        through the shared safety memo table.
        """
        free: Tuple[str, ...] = tuple(dict.fromkeys(free_components))
        self.universe.validate_members(free)
        frozen = base.members - frozenset(free)
        if not frozen <= self.universe.names:
            # Frozen members outside the universe have no bit encoding;
            # keep the exhaustive set-based sweep for that corner.
            return self._enumerate_restricted_setwise(frozen, free)
        universe = self.universe
        present0 = universe.mask_of_names(frozen)
        from_mask = universe.from_mask
        out = [from_mask(mask) for mask in self._restricted_masks(present0, free)]
        # free components may interleave with frozen ones in universe
        # order, so recursion order is not globally ascending — re-sort
        out.sort(key=universe.to_bits)
        return tuple(out)

    def _restricted_masks(
        self, present0: int, free: Tuple[str, ...]
    ) -> List[int]:
        """Safe masks varying only *free* bits over the frozen *present0*.

        The masks-only core of :meth:`enumerate_restricted`, shared with
        the parallel workers (which never materialize
        :class:`Configuration` objects — the parent interns them once
        after the merge).  Leaf masks are recorded in the shared safety
        memo.  Output follows recursion order: ascending whenever the
        free components form a suffix of the universe order.
        """
        universe = self.universe
        free_bits = tuple(universe.bit_of(name) for name in free)
        # everything outside the free components is decided up front
        decided0 = universe.full_mask ^ universe.mask_of_names(free)
        # invariants not touching a free component are fully decided at
        # the root; reject the whole restriction in one pass if any fails
        for expr in self._compiled_partial_fns():
            if expr(present0, decided0) is False:
                return []
        schedule = self._check_schedule(free)
        memo = self._safe_memo
        out: List[int] = []
        n = len(free_bits)

        def recurse(index: int, present: int, decided: int) -> None:
            if index == n:
                memo[present] = True
                out.append(present)
                return
            bit = free_bits[index]
            decided |= bit
            checks = schedule[index]
            # '0' branch first, then '1' — ascending within the free bits
            for candidate in (present, present | bit):
                for expr in checks:
                    if expr(candidate, decided) is False:
                        break
                else:
                    recurse(index + 1, candidate, decided)

        recurse(0, present0, decided0)
        return out

    def _enumerate_restricted_setwise(
        self, frozen: FrozenSet[str], free: Tuple[str, ...]
    ) -> Tuple[Configuration, ...]:
        """Exhaustive fallback for bases reaching outside the universe."""
        out: List[Configuration] = []
        n = len(free)
        for mask in range(1 << n):
            members = set(frozen)
            for i in range(n):
                if mask & (1 << (n - 1 - i)):
                    members.add(free[i])
            config = Configuration(members)
            if self.is_safe(config):
                out.append(config)
        out.sort(key=lambda c: "".join(
            "1" if name in c else "0" for name in self.universe.order
        ))
        return tuple(out)

    def enumerate_backtracking(self) -> Tuple[Configuration, ...]:
        """Safe set via backtracking with invariant propagation.

        Decides components one at a time (in universe order) and prunes a
        branch as soon as any invariant is *determined false* under
        three-valued evaluation — so branches that can never satisfy a
        one-of/dependency constraint are abandoned without expanding the
        remaining 2^k subtree.  Produces exactly :meth:`enumerate`'s
        result (same order) but scales far better on constrained spaces.

        This is :meth:`_restricted_masks` with every component free.  It
        runs entirely on compiled bitmask closures; every leaf verdict is
        recorded in the shared safety memo so later SAG construction and
        lazy planning reuse it for free.
        """
        from_mask = self.universe.from_mask
        return tuple(
            from_mask(mask)
            for mask in self._restricted_masks(0, self.universe.order)
        )

    def _enumerate_parallel(
        self, workers: int, started: float
    ) -> Tuple[Configuration, ...]:
        """Full enumeration via chunked work-stealing over a process pool.

        The mask space is partitioned on the first *k* components of the
        universe order — the **high** bits of the bit-vector encoding — so
        partition index order equals ascending mask order and the
        concatenated results come out exactly as
        :meth:`enumerate_backtracking` would produce them.  The parent
        root-prunes partitions whose prefix assignment already falsifies
        an invariant under three-valued evaluation (those contain no safe
        configuration), estimates the remaining search-tree size, and
        stays serial when pool spin-up would dominate.

        The execution engine lives in :mod:`repro.parallel`:

        * the pool is **persistent and process-wide** — acquired from
          :func:`repro.parallel.pool.acquire_pool`, so spin-up is paid
          once per process, not once per enumeration; repeated
          enumerations of the same spec digest hit the workers' spec and
          partition-result caches and skip the invariant work entirely;
        * surviving partitions are split into many small chunks on a
          shared task queue — idle workers steal the next chunk, so a
          skewed partition no longer serializes the whole sweep behind
          one static assignment;
        * for universes within the bitset cap, workers write their safe
          verdicts as bits into one shared-memory **result plane** (bit
          index == mask; the prefix width is clamped so partitions own
          disjoint bytes) and the parent bulk-ORs the plane into the
          memo and word-scans it — no mask pickling.  Oversized
          universes fall back to pickled mask tuples on the same pool.

        Any pool failure (a platform without usable multiprocessing, a
        spec that cannot round-trip) falls back to the serial enumerator
        and records why — the option is a go-faster knob, never a
        behavior change.
        """
        from repro import parallel as par
        from repro.parallel import pool as pool_mod

        universe = self.universe
        order = universe.order
        n = len(order)
        target_tasks = workers * PARALLEL_OVERSUBSCRIPTION
        # the prefix must leave a free suffix of >= 3 components so each
        # partition's plane range is byte-aligned (and workers have work)
        max_k = max(1, min(12, n - 3))
        k = 1
        while (1 << k) < target_tasks and k < max_k:
            k += 1
        prefix = order[:k]
        free = order[k:]
        prefix_bits = tuple(universe.bit_of(name) for name in prefix)
        prefix_full = universe.mask_of_names(prefix)
        partial_fns = self._compiled_partial_fns()
        surviving: List[int] = []
        for value in range(1 << k):
            present0 = 0
            for i in range(k):
                if value & (1 << (k - 1 - i)):
                    present0 |= prefix_bits[i]
            if any(fn(present0, prefix_full) is False for fn in partial_fns):
                continue  # the whole partition is provably unsafe
            surviving.append(value)
        if not surviving:
            return self._enumerate_serial(
                "serial: every prefix partition root-pruned", started
            )
        estimated = len(surviving) << (n - k)
        if estimated < MIN_PARALLEL_MASK_NODES:
            return self._enumerate_serial(
                f"serial: ~{estimated} estimated search nodes below the "
                f"parallel threshold ({MIN_PARALLEL_MASK_NODES})",
                started,
            )
        chunk_size = max(1, len(surviving) // target_tasks)
        chunks = [
            (index, tuple(surviving[lo : lo + chunk_size]))
            for index, lo in enumerate(range(0, len(surviving), chunk_size))
        ]
        component_specs = tuple(
            (name, universe.component(name).process) for name in order
        )
        from repro.expr.ast import to_text

        invariant_texts = tuple(to_text(inv.expr) for inv in self.invariants)
        payload = pickle.dumps(
            (component_specs, invariant_texts, k),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        digest = par.spec_digest(payload)
        memo = self._safe_memo
        from_mask = universe.from_mask
        cached = (
            par.cached_plane(digest)
            if n <= par.MAX_BITSET_COMPONENTS
            else None
        )
        if cached is not None:
            # A previous enumeration of this exact spec already merged
            # its result plane — replay it without touching the pool.
            memo.or_safe_plane(cached)
            out = [from_mask(mask) for mask in par.iter_plane_masks(cached)]
            self.last_enumeration_stats = EnumerationStats(
                mode="parallel",
                requested_workers=self.workers,
                effective_workers=workers,
                reason=f"parallel: result plane for spec {digest} replayed "
                "from the warm plane cache",
                partitions=len(surviving),
                chunks=0,
                safe_count=len(out),
                transport="plane-cache",
                pool_warm=True,
                total_ms=(time.perf_counter() - started) * 1e3,
            )
            return tuple(out)
        try:
            import concurrent.futures

            t_pool = time.perf_counter()
            pool, spun_up = par.acquire_pool(workers)
            if spun_up:
                # round-trip a no-op so spin-up cost lands in this field
                # (and the fork server / first worker is provably up)
                pool.submit(int, 0).result()
            pool_spinup_ms = (time.perf_counter() - t_pool) * 1e3
        except Exception as exc:
            return self._enumerate_serial(
                f"serial: pool failure ({exc.__class__.__name__}: {exc})",
                started,
            )
        plane = None
        if n <= par.MAX_BITSET_COMPONENTS:
            try:
                from multiprocessing import shared_memory

                plane = shared_memory.SharedMemory(
                    create=True, size=par.plane_size(n)
                )
            except Exception:
                plane = None  # fall back to pickled masks on the pool
        plane_name = None if plane is None else plane.name
        transport = "pickled-masks" if plane is None else "shm-plane"
        results: List[Optional[Tuple[int, ...]]] = [None] * len(chunks)
        try:
            t_chunks = time.perf_counter()
            futures = [
                pool.submit(
                    pool_mod.enumerate_chunk,
                    (digest, payload, k, index, values, plane_name),
                )
                for index, values in chunks
            ]
            for future in concurrent.futures.as_completed(futures):
                index, value = future.result()
                if plane is None:
                    results[index] = value
            chunk_wait_ms = (time.perf_counter() - t_chunks) * 1e3
        except Exception as exc:
            if plane is not None:
                plane.close()
                plane.unlink()
            pool_mod.discard_pool(pool)  # it may be broken; rebuild next time
            return self._enumerate_serial(
                f"serial: pool failure ({exc.__class__.__name__}: {exc})",
                started,
            )
        out: List[Configuration] = []
        if plane is not None:
            try:
                plane_bytes = bytes(plane.buf)
            finally:
                plane.close()
                plane.unlink()
            memo.or_safe_plane(plane_bytes)
            par.store_plane(digest, plane_bytes)
            # ascending bit scan == ascending mask == serial order
            out = [from_mask(mask) for mask in par.iter_plane_masks(plane_bytes)]
        else:
            # chunk index order == ascending prefix order == ascending masks
            for masks in results:
                assert masks is not None
                for mask in masks:
                    memo[mask] = True
                    out.append(from_mask(mask))
        self.last_enumeration_stats = EnumerationStats(
            mode="parallel",
            requested_workers=self.workers,
            effective_workers=workers,
            reason=f"parallel: {len(chunks)} chunks stolen from "
            f"{len(surviving)} surviving partitions via {transport}",
            partitions=len(surviving),
            chunks=len(chunks),
            safe_count=len(out),
            transport=transport,
            pool_warm=not spun_up,
            pool_spinup_ms=pool_spinup_ms,
            chunk_wait_ms=chunk_wait_ms,
            total_ms=(time.perf_counter() - started) * 1e3,
        )
        return tuple(out)

    def lazy_view(self) -> "LazySafeSpace":
        """A point-query view sharing this space's memo and compiled closure.

        Verdicts computed by either side are visible to the other, so a
        lazy search warmed by an earlier eager enumeration (or vice
        versa) never re-evaluates an invariant conjunction.
        """
        return LazySafeSpace(
            self.universe,
            self.invariants,
            memo=self._safe_memo,
            compiled=self._compiled_mask_fn(),
        )

    def count(self) -> int:
        return len(self.enumerate())

    def to_table(self) -> List[Tuple[str, str]]:
        """Render the safe set as (bit vector, member list) rows — Table 1."""
        rows = []
        for config in self.enumerate():
            rows.append((self.universe.to_bits(config), config.label()))
        return rows

    def __iter__(self) -> Iterator[Configuration]:
        return iter(self.enumerate())

    def __len__(self) -> int:
        return self.count()

    def __contains__(self, config: Configuration) -> bool:
        return self.is_safe(config)


class LazySafeSpace:
    """Answers "is this mask safe?" memoized and on demand — never 2^n.

    The frontier-planning counterpart of :class:`SafeConfigurationSpace`:
    it exposes the same membership interface but deliberately has **no**
    ``enumerate`` — holding one is a static guarantee that the
    exponential sweep cannot happen on this code path (the paper's §7
    barrier).  Safety verdicts run on the compiled bitmask closure and
    are memoized per mask; construct via
    :meth:`SafeConfigurationSpace.lazy_view` to share the memo with an
    eager space, or directly from ``(universe, invariants)`` when no
    eager space should ever exist (oversized specs).

    ``point_queries`` / ``memo_hits`` counters are exposed for benches
    and the service layer to report cache effectiveness.
    """

    __slots__ = (
        "universe",
        "invariants",
        "_safe_memo",
        "_compiled",
        "point_queries",
        "memo_hits",
    )

    def __init__(
        self,
        universe: ComponentUniverse,
        invariants: InvariantSet,
        memo: Optional[MemoTable] = None,
        compiled: Optional[Callable[[int], bool]] = None,
    ):
        self.universe = universe
        self.invariants = invariants
        self._safe_memo: MemoTable = (
            memo if memo is not None else SafetyMemo(len(universe))
        )
        self._compiled = compiled
        self.point_queries = 0
        self.memo_hits = 0

    @property
    def safe_memo(self) -> MemoTable:
        """The shared mask -> verdict memo table (exposed for reuse)."""
        return self._safe_memo

    def _compiled_fn(self) -> Callable[[int], bool]:
        if self._compiled is None:
            self._compiled = self.invariants.compile_mask(
                self.universe.atom_bits
            )
        return self._compiled

    def is_safe_mask(self, mask: int) -> bool:
        """Memoized safety verdict for an integer presence mask."""
        self.point_queries += 1
        verdict = self._safe_memo.get(mask)
        if verdict is None:
            verdict = self._compiled_fn()(mask)
            self._safe_memo[mask] = verdict
        else:
            self.memo_hits += 1
        return verdict

    def are_safe_masks(self, masks: Iterable[int]) -> List[bool]:
        """Batched :meth:`is_safe_mask` — one verdict per mask, in order.

        Counter semantics match the pointwise path exactly: every mask
        counts as a point query, every memo hit as a hit.
        """
        memo = self._safe_memo
        memo_get = memo.get
        compiled = self._compiled_fn()
        out: List[bool] = []
        queries = hits = 0
        for mask in masks:
            queries += 1
            verdict = memo_get(mask)
            if verdict is None:
                verdict = compiled(mask)
                memo[mask] = verdict
            else:
                hits += 1
            out.append(verdict)
        self.point_queries += queries
        self.memo_hits += hits
        return out

    def is_safe(self, config: Configuration) -> bool:
        """True iff *config* is a safe configuration (paper §3.1)."""
        try:
            mask = self.universe.mask_of(config)
        except UnknownComponentError:
            return self.invariants.all_hold(config)
        return self.is_safe_mask(mask)

    def require_safe(self, config: Configuration, role: str = "configuration") -> None:
        """Raise :class:`UnsafeConfigurationError` with an explanation if unsafe."""
        if not self.is_safe(config):
            raise UnsafeConfigurationError(
                f"{role} is unsafe: {self.invariants.explain(config)}"
            )

    def __contains__(self, config: Configuration) -> bool:
        return self.is_safe(config)
