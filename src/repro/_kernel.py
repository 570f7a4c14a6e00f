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
each supplier registers its cell's attach-order rows and its cache's
sorted sojourn lists, and :meth:`FlushBatch.resolve` walks them with
``bisect``.  It needs no numpy and builds no snapshot; every total is
bit-identical to the scalar walk
(:meth:`repro.estimation.estimator.MobilityEstimator.expected_bandwidth_multi`),
which answers every other supplier.
"""

from __future__ import annotations

import logging
import os
from bisect import bisect_right

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
    attach-order rows and, per ``prev``, the cache's sorted sojourn
    lists toward the requested targets.  :meth:`resolve` then walks
    every part and returns the Eq. 5 totals, one per registered
    ``(supplier, target)``.

    Only *unit-weight* masses participate (``w_0 = 1``, infinite
    ``T_int``): a mass is then the count of a list's sojourns in a
    range, which two ``bisect`` calls give exactly — the same integers
    whose float cumulative sums the scalar walk subtracts.  Each row
    adds ``basis * (within / above)`` to a request's total, left to
    right in attach order, which is connection-iteration order: every
    total is bit-identical to the scalar walk's.
    """

    __slots__ = ("_parts", "outputs")

    def __init__(self) -> None:
        #: ``(now, rows, groups, count)`` per registered supplier.
        self._parts: list[tuple] = []
        #: Requests registered so far: the index, in :meth:`resolve`'s
        #: result, of the next part's first request.
        self.outputs = 0

    def add_part(self, now: float, rows, groups: dict, count: int) -> None:
        """Register one supplier's ``count`` requests.

        ``rows`` yields ``(prev, entry_time, basis)`` in attach order.
        ``groups`` maps each ``prev`` that can contribute to ``(union,
        targets)``: the sorted union of its live sojourns (the Eq. 4
        denominator support) and ``(request index, sorted pair
        sojourns, t_est)`` for every live request whose pair list is
        nonempty.  A row whose ``prev`` is not in ``groups`` adds
        exactly ``+0.0`` to every total, so it is skipped.
        """
        self._parts.append((now, rows, groups, count))
        self.outputs += count

    def resolve(self) -> list[float]:
        """Eq. 5 totals of every registered request, in registration
        order."""
        bisect = bisect_right
        totals: list[float] = []
        for now, rows, groups, count in self._parts:
            part = [0.0] * count
            group_of = groups.get
            # With several requests, one look at the union's largest
            # sojourn skips an estimated-stationary row (paper §4.1)
            # before its per-target bisects; with one, those two
            # bisects settle the row as fast.
            several = count > 1
            for prev, entry_time, basis in rows:
                group = group_of(prev)
                if group is None:
                    continue
                union, targets = group
                extant = now - entry_time
                if several and extant >= union[-1]:
                    continue
                above = 0
                for index, pair, t_est in targets:
                    within = bisect(pair, extant + t_est) - bisect(pair, extant)
                    if within:
                        # Every pair sojourn is a union sojourn, so
                        # ``0 < within <= above``: the row is not
                        # estimated stationary, and the scalar walk's
                        # ``min(ratio, 1.0)`` changes nothing.
                        if not above:
                            above = len(union) - bisect(union, extant)
                        part[index] += basis * (within / above)
            totals.extend(part)
        return totals
