"""In-memory span recorder for the traced benchmark runs.

A span is ``(name, start, duration, parent, request id)``.  Spans are
opened by wrappers the benchmark installs around public functions of the
program (see :mod:`perfbench.layers`); nothing in the program itself is
changed, and an untraced run installs no wrapper at all.

Parent links follow :mod:`contextvars`, so they are correct per asyncio
task and per thread.  Hot leaf functions (called tens of thousands of
times per request) are *folded*: one record per ``(name, parent span)``
carries the call count and the summed duration.  Folding keeps memory
bounded while self time stays exact, because self time only needs the
summed duration of each span's children.

Records live in memory and are written once, at exit, by :meth:`dump`.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional

# record fields: [name, parent id, request id, start, duration, value,
# calls, extra]; value and extra are work counts the wrapper measured
NAME, PARENT, RID, START, DUR, VALUE, CALLS, EXTRA = range(8)

_perf = time.perf_counter


class Recorder:
    """Collects span records; safe to use from several threads."""

    def __init__(self) -> None:
        self.records: Dict[int, list] = {}
        self._ids = itertools.count()
        self._folded: Dict[tuple, int] = {}
        self.current: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_span", default=-1
        )
        self.request: contextvars.ContextVar[int] = contextvars.ContextVar(
            "perfbench_request", default=-1
        )

    # -- recording -----------------------------------------------------------
    def open(self, name: str) -> int:
        """Start a regular span under the current one; returns its id."""
        sid = next(self._ids)
        self.records[sid] = [
            name, self.current.get(), self.request.get(), _perf(), 0.0, 0, 1, 0
        ]
        return sid

    def close(self, sid: int) -> None:
        record = self.records[sid]
        record[DUR] = _perf() - record[START]

    def _folded_record(self, name: str) -> int:
        parent = self.current.get()
        key = (name, parent)
        sid = self._folded.get(key)
        if sid is None:
            sid = next(self._ids)
            self.records[sid] = [
                name, parent, self.request.get(), _perf(), 0.0, 0, 0, 0
            ]
            # setdefault: another thread may have folded the same key
            sid = self._folded.setdefault(key, sid)
        return sid

    def wrap(
        self,
        name: str,
        fn: Callable,
        *,
        folded: bool = False,
        measure: Optional[Callable[[tuple], Callable[[Any], tuple]]] = None,
    ) -> Callable:
        """A wrapper of *fn* that records one span per call.

        *measure* is called with the call's arguments before the call and
        returns a function that maps the result to ``(value, extra)``,
        two work counts added to the span (such as masks queried and new
        memo entries).
        """
        records = self.records
        current = self.current

        if folded:

            @functools.wraps(fn)
            def folded_wrapper(*args, **kwargs):
                finish = measure(args) if measure is not None else None
                sid = self._folded_record(name)
                token = current.set(sid)
                start = _perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = _perf() - start
                    current.reset(token)
                record = records[sid]
                record[DUR] += elapsed
                record[CALLS] += 1
                if finish is not None:
                    value, extra = finish(result)
                    record[VALUE] += value
                    record[EXTRA] += extra
                return result

            return folded_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            finish = measure(args) if measure is not None else None
            sid = self.open(name)
            token = current.set(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                current.reset(token)
                self.close(sid)
            if finish is not None:
                records[sid][VALUE], records[sid][EXTRA] = finish(result)
            return result

        return wrapper

    # -- output --------------------------------------------------------------
    def dump(self, path: str) -> None:
        """Write every record as one JSON document (called at exit)."""
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(normalise(self.records), handle)


def load(path: str) -> List[list]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def normalise(records_by_id: Dict[int, list]) -> List[list]:
    """Records with parents rewritten as list positions."""
    ids = sorted(records_by_id)
    position = {sid: index for index, sid in enumerate(ids)}
    out = []
    for sid in ids:
        record = list(records_by_id[sid])
        record[PARENT] = position.get(record[PARENT], -1)
        out.append(record)
    return out


class Summary:
    """Per-name aggregates over a list of records (parents by position)."""

    def __init__(self, records: List[list]):
        self.records = records
        child_time = [0.0] * len(records)
        for record in records:
            parent = record[PARENT]
            if parent >= 0:
                child_time[parent] += record[DUR]
        self.child_time = child_time
        self.calls: Dict[str, int] = defaultdict(int)
        self.total: Dict[str, float] = defaultdict(float)
        self.self_total: Dict[str, float] = defaultdict(float)
        self.value: Dict[str, int] = defaultdict(int)
        self.extra: Dict[str, int] = defaultdict(int)
        for index, record in enumerate(records):
            name = record[NAME]
            self.calls[name] += record[CALLS]
            self.total[name] += record[DUR]
            self.self_total[name] += record[DUR] - child_time[index]
            self.value[name] += record[VALUE]
            self.extra[name] += record[EXTRA]

    def under(self, name: str, parent_names: Iterable[str]) -> float:
        """Summed duration of *name* spans whose parent is one of *parent_names*."""
        parents = set(parent_names)
        records = self.records
        return sum(
            record[DUR]
            for record in records
            if record[NAME] == name
            and record[PARENT] >= 0
            and records[record[PARENT]][NAME] in parents
        )

    def mean_ms(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return 1e3 * self.total.get(name, 0.0) / calls if calls else 0.0
