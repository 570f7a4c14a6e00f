"""Kernel selection, and the Eq. 4/5 pass of the reservation tick.

**Kernel.**  This is the single place that imports :mod:`numpy`.  The
package works without it; the kernel chooses only the backend of the
Naghshineh–Schwartz convolution (:mod:`repro.core.related`) — whole-array
numpy products, or the list loop that is the only path on a numpy-free
install.  Both produce bit-identical metrics.

Selection order:

1. an explicit :func:`set_kernel` call (``SimulationConfig.kernel``
   and the ``--kernel`` CLI flag end here);
2. the ``REPRO_KERNEL`` environment variable (``numpy`` / ``python``);
3. ``auto``: numpy when importable, python otherwise.

Requesting ``numpy`` without numpy raises an informative error; the
``auto`` and ``python`` kernels always work.  The resolved choice is
logged once (logger ``repro.kernel``, INFO) so long runs record which
kernel produced them.

**Eq. 4/5 pass.**  A coalesced reservation tick
(:meth:`repro.cellular.network.CellularNetwork.flush_reservation_tick`)
answers every supplier whose Eq. 4 masses are plain counts (infinite
``T_int``, ``w_0 = 1``, no route oracle) with one :class:`FlushBatch`:
each supplier registers its cell's ``prev`` buckets and, per request,
the cache's sorted sojourn lists toward the target, and
:meth:`FlushBatch.resolve` walks, per ``(prev, target)`` list, only the
window of the ``prev`` bucket whose rows can have a sojourn in the
list within ``T_est``, counting with ``bisect``.  It needs no numpy and
builds no snapshot; every total is bit-identical to the scalar walk
(:meth:`repro.estimation.estimator.MobilityEstimator.expected_bandwidth_multi`),
which answers every other supplier.
"""

from __future__ import annotations

import logging
import os
from bisect import bisect_left, bisect_right

logger = logging.getLogger("repro.kernel")

try:  # the only eager numpy import in the package — keep it that way
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _numpy = None

#: Whether the optional ``[fast]`` dependency is importable at all.
HAS_NUMPY = _numpy is not None

KERNELS = ("auto", "numpy", "python")

_active: str | None = None


def _resolve(requested: str) -> str:
    if requested == "auto":
        return "numpy" if HAS_NUMPY else "python"
    if requested == "numpy" and not HAS_NUMPY:
        raise RuntimeError(
            "the numpy kernel was requested but numpy is not installed;"
            " install the optional extra (pip install 'repro[fast]')"
            " or select --kernel python"
        )
    return requested


def set_kernel(name: str) -> str:
    """Select the kernel; returns the resolved name."""
    global _active
    if name not in KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {KERNELS}"
        )
    resolved = _resolve(name)
    if resolved != _active:
        _active = resolved
        logger.info(
            "kernel: %s%s",
            resolved,
            "" if HAS_NUMPY else " (numpy not installed)",
        )
    return resolved


def kernel_name() -> str:
    """The active kernel (``numpy`` or ``python``), resolved lazily
    from ``REPRO_KERNEL`` / availability on first use."""
    if _active is None:
        set_kernel(os.environ.get("REPRO_KERNEL", "auto"))
    return _active  # type: ignore[return-value]


def numpy_or_none():
    """The numpy module when the array kernel is active, else ``None``.

    The convolution branches on this once per cell distribution, so the
    per-call overhead is one function call and a string compare.
    """
    return _numpy if kernel_name() == "numpy" else None





# ----------------------------------------------------------------------
# the Eq. 4/5 pass of the cross-cell coalesced tick
# ----------------------------------------------------------------------
class FlushBatch:
    """Accumulator of one coalesced tick's resident Eq. 5 walks.

    Each supplier registers one part (:meth:`add_part`): its cell's
    rows bucketed by ``prev`` and, per request, the cache's sorted
    sojourn lists toward the request's target.  :meth:`resolve` then
    walks every part and returns the Eq. 5 totals, one per registered
    request.

    Only *unit-weight* masses participate (``w_0 = 1``, infinite
    ``T_int``): a mass is then the count of a list's sojourns in a
    range, which two ``bisect`` calls give exactly — the same integers
    whose float cumulative sums the scalar walk subtracts.  A row with
    ``extant = now - entry_time`` has a nonzero Eq. 4 numerator toward
    a ``(prev, target)`` list ``pair`` only if it is neither *old*
    (``extant >= pair[-1]``) nor *young* (``extant + t_est <
    pair[0]``).  Both predicates are monotone in ``entry_time``, so in
    a bucket sorted by entry time the old rows are a prefix and the
    young ones a suffix: two ``bisect`` calls, each corrected against
    the exact predicate, bound the window, and only its rows are read.
    Each request's nonzero terms ``basis * (within / above)`` are then
    added from ``0.0`` in ascending attach ``seq`` — connection
    iteration order — so every total is bit-identical to the scalar
    walk's.
    """

    __slots__ = ("_parts", "outputs", "window_rows")

    def __init__(self) -> None:
        #: ``(now, buckets, walks)`` per registered supplier.
        self._parts: list[tuple] = []
        #: Requests registered so far: the index, in :meth:`resolve`'s
        #: result, of the next part's first request.
        self.outputs = 0
        #: Row-requests the last :meth:`resolve` read inside a window.
        self.window_rows = 0

    def add_part(self, now: float, buckets: dict, walks: list) -> None:
        """Register one supplier's requests.

        ``buckets`` maps ``prev`` to the cell's rows ``(entry_time,
        seq, basis, connection id)`` in ascending ``(entry_time,
        seq)``.  ``walks`` holds one ``(t_est, lists)`` per request,
        ``t_est > 0``, where ``lists`` names every nonempty ``(prev,
        target)`` list as ``(prev, union, pair)``: ``union`` is the
        sorted union of ``prev``'s live sojourns (the Eq. 4
        denominator support), ``pair`` the sorted sojourns toward the
        target.  A row whose ``prev`` has no list adds exactly ``+0.0``
        to the request's total, so it is never read.
        """
        self._parts.append((now, buckets, walks))
        self.outputs += len(walks)

    def resolve(self) -> list[float]:
        """Eq. 5 totals of every registered request, in registration
        order."""
        bisect = bisect_right
        totals: list[float] = []
        window_rows = 0
        for now, buckets, walks in self._parts:
            bucket_of = buckets.get
            for t_est, lists in walks:
                terms = []
                for prev, union, pair in lists:
                    bucket = bucket_of(prev)
                    if bucket is None:
                        continue
                    first = pair[0]
                    last = pair[-1]
                    size = len(bucket)
                    # ``lo``: the first row that is not old.
                    lo = bisect_left(bucket, (now - last,))
                    while lo < size and now - bucket[lo][0] >= last:
                        lo += 1
                    while lo and now - bucket[lo - 1][0] < last:
                        lo -= 1
                    # ``hi``: the first young row (none before ``lo``).
                    hi = bisect_left(bucket, (now + t_est - first,))
                    if hi < lo:
                        hi = lo
                    while hi < size and now - bucket[hi][0] + t_est >= first:
                        hi += 1
                    while hi > lo and now - bucket[hi - 1][0] + t_est < first:
                        hi -= 1
                    window_rows += hi - lo
                    for entry_time, seq, basis, _key in bucket[lo:hi]:
                        extant = now - entry_time
                        within = bisect(pair, extant + t_est) - bisect(
                            pair, extant
                        )
                        if within:
                            # Every pair sojourn is a union sojourn, so
                            # ``0 < within <= above``: the row is not
                            # estimated stationary, and the scalar
                            # walk's ``min(ratio, 1.0)`` changes nothing.
                            above = len(union) - bisect(union, extant)
                            terms.append((seq, basis * (within / above)))
                total = 0.0
                if terms:
                    terms.sort()
                    for _seq, term in terms:
                        total += term
                totals.append(total)
        self.window_rows = window_rows
        return totals
