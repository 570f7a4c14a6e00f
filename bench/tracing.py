"""Span recording from the outside: wrap public callables, restore them.

``--trace`` replaces each attribute named in :data:`bench.layers.TABLE`
with a recorder that notes name, start and end; the span that was open
when a call started is its parent.  Spans stay in memory until the run
ends.  A span's self time is its duration minus what its child spans
cover, so the self times under a root add up to the root exactly.

Single-threaded by design: the traced runs keep the program in one
thread (inline shards, the service in the benchmark's own event loop).
"""

from __future__ import annotations

import importlib
import types
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np


class SpanRecorder:
    """An in-memory log of span boundaries.

    While the program runs, a wrapper only appends to two flat arrays:
    ``(alias id, clock)`` when a call starts and ``(-1, clock)`` when it
    ends.  Calls nest, so parents and self times are rebuilt from the
    log afterwards; nothing is looked up or linked on the hot path.
    """

    def __init__(self) -> None:
        self.aliases: list[str] = []
        self._alias_ids: dict[str, int] = {}
        self._log_ids = array("i")
        self._log_times = array("d")
        #: log position of a call's start -> units of work it carried
        self._units: dict[int, int] = {}
        self._installed: list[tuple[object, str, object]] = []

    def _alias_id(self, alias: str) -> int:
        found = self._alias_ids.get(alias)
        if found is None:
            found = self._alias_ids[alias] = len(self.aliases)
            self.aliases.append(alias)
        return found

    def wrap(self, alias: str, function, count=None):
        """A recording stand-in for ``function``.

        ``count(args)`` — optional — gives the units of work in one
        call (rows, requests), summed per alias like time is.
        """
        alias_id = self._alias_id(alias)
        log_id = self._log_ids.append
        log_time = self._log_times.append
        log_ids = self._log_ids
        units = self._units
        clock = perf_counter

        def recorded(*args, **kwargs):
            if count is not None:
                units[len(log_ids)] = count(args)
            log_id(alias_id)
            log_time(clock())
            try:
                return function(*args, **kwargs)
            finally:
                ended = clock()
                log_id(-1)
                log_time(ended)

        recorded.__wrapped__ = function
        recorded.__name__ = getattr(function, "__name__", alias)
        return recorded

    @contextmanager
    def span(self, alias: str):
        """A span the harness opens itself (roots without a callable)."""
        self._log_ids.append(self._alias_id(alias))
        self._log_times.append(perf_counter())
        try:
            yield
        finally:
            ended = perf_counter()
            self._log_ids.append(-1)
            self._log_times.append(ended)

    def spans(self) -> dict:
        """The log as columns: alias, parent, start, end, units per span."""
        ids = self._log_ids
        times = self._log_times
        alias, parent, start, end, units = [], [], [], [], []
        stack: list[int] = []
        for position in range(len(ids)):
            alias_id = ids[position]
            if alias_id >= 0:
                stack_top = stack[-1] if stack else -1
                stack.append(len(alias))
                alias.append(alias_id)
                parent.append(stack_top)
                start.append(times[position])
                end.append(times[position])
                units.append(self._units.get(position, 0))
            else:
                end[stack.pop()] = times[position]
        return {
            "alias": np.array(alias, dtype=np.intc),
            "parent": np.array(parent, dtype=np.intc),
            "start": np.array(start, dtype=float),
            "end": np.array(end, dtype=float),
            "units": np.array(units, dtype=np.int64),
        }

    # -- install / restore ---------------------------------------------
    def install(self, table) -> None:
        """Wrap every callable of ``table`` (see :mod:`bench.layers`)."""
        for entry in table:
            owner, attribute = resolve(entry.target)
            original = vars(owner)[attribute]
            if not isinstance(original, types.FunctionType):
                raise TypeError(
                    f"{entry.target} is not a plain function; refusing to wrap"
                )
            setattr(owner, attribute, self.wrap(entry.alias, original, entry.count))
            self._installed.append((owner, attribute, original))

    def restore(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    @contextmanager
    def installed(self, table):
        self.install(table)
        try:
            yield self
        finally:
            self.restore()

    # -- analysis ------------------------------------------------------
    def roots(self, root_alias: str, per_call: tuple[str, ...] = ()) -> list[dict]:
        """Per root span: its duration and, for every alias under it,
        ``(calls, total seconds, self seconds, units)``.  Aliases named in
        ``per_call`` also keep each call's duration, in start order."""
        root_id = self._alias_ids.get(root_alias)
        columns = self.spans()
        alias, parent = columns["alias"], columns["parent"]
        total = len(alias)
        if total == 0 or root_id is None:
            return []
        duration = columns["end"] - columns["start"]
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=total
        )
        self_time = duration - covered
        # Parents precede their children, so one forward pass settles
        # every span's root.
        root_of = [-1] * total
        for index, (alias_id, above) in enumerate(zip(alias.tolist(), parent.tolist())):
            inherited = root_of[above] if above >= 0 else -1
            if inherited >= 0:
                root_of[index] = inherited
            elif alias_id == root_id:
                root_of[index] = index
        root_of = np.asarray(root_of)
        names = len(self.aliases)
        summaries = []
        for root in np.flatnonzero(root_of == np.arange(total)):
            inside = root_of == root
            ids = alias[inside]
            calls = np.bincount(ids, minlength=names)
            totals = np.bincount(ids, weights=duration[inside], minlength=names)
            selfs = np.bincount(ids, weights=self_time[inside], minlength=names)
            work = np.bincount(ids, weights=columns["units"][inside], minlength=names)
            summary = {
                "duration": float(duration[root]),
                "by_alias": {
                    self.aliases[i]: (
                        int(calls[i]),
                        float(totals[i]),
                        float(selfs[i]),
                        int(work[i]),
                    )
                    for i in range(names)
                    if calls[i]
                },
                "durations": {},
            }
            for name in per_call:
                mask = inside & (alias == self._alias_ids.get(name, -1))
                summary["durations"][name] = duration[mask].tolist()
            summaries.append(summary)
        return summaries

    def dump(self, path) -> None:
        """Write every span: the name table plus one column per field."""
        np.savez(path, aliases=np.asarray(self.aliases), **self.spans())


def resolve(target: str) -> tuple[object, str]:
    """``"package.module:Class.method"`` -> ``(Class, "method")``;
    ``"package.module:function"`` -> ``(module, "function")``."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attribute = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attribute
