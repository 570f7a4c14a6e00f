"""Estimation-kernel selection: numpy-batched or pure Python.

This is the single place that imports :mod:`numpy`.  The package works
without it — Eq. 5 is then the scalar per-connection walk
(:meth:`repro.estimation.estimator.MobilityEstimator.expected_bandwidth_multi`)
everywhere, which is also what the ``python`` kernel means — but when
numpy is installed (``pip install repro[fast]``) a reservation tick
answers whole suppliers with ``searchsorted`` over resident columns
instead.

Selection order:

1. an explicit :func:`set_kernel` call (``SimulationConfig.kernel``
   and the ``--kernel`` CLI flag end here);
2. the ``REPRO_KERNEL`` environment variable (``numpy`` / ``python``);
3. ``auto``: numpy when importable, python otherwise.

Requesting ``numpy`` without numpy raises an informative error; the
``auto`` and ``python`` kernels always work.  The resolved choice is
logged once (logger ``repro.kernel``, INFO) so long runs record which
kernel produced them.

Besides selection, this module hosts the Eq. 4/5 pass of the coalesced
reservation tick
(:meth:`repro.cellular.network.CellularNetwork.flush_reservation_tick`)
and the key encoding it searches with.  The pass is two-phase per
supplier (:class:`FlushBatch`): every row's Eq. 4 denominator first,
then numerators only for the rows that can add anything to Eq. 5.

**Key encoding.**  numpy orders complex numbers lexicographically
(real part first, imaginary part second), so one sorted complex128
column can hold many sorted sojourn lists back to back: the real part
names the list, the imaginary part is the sojourn time.  With
``S =`` :data:`KEY_STRIDE`:

* a connection's table key is ``(prev+1)·S − 1j·entry_time``
  (:class:`repro.cellular.cell.Cell`), so ``key + 1j·now`` is
  ``(prev+1)·S + 1j·(now − entry_time)`` — its Eq. 4 query, the same
  float ``now - entry_time`` the scalar walk computes;
* a station's *union* column holds ``(prev+1)·S + 1j·T_soj`` for every
  live quadruplet, its *pair* column ``(prev+1)·S + (next+2) +
  1j·T_soj`` (:class:`repro.estimation.cache.QuadrupletCache`;
  ``prev=None`` counts as ``−1`` and ``next`` may be the exit cell
  ``−1``, hence the ``+1`` and ``+2``).

A ``searchsorted`` of a query in such a column lands inside the list
the real part names, whatever lists surround it, so every row of a
supplier — whatever its ``prev`` — is answered by the same call.  All
real parts are integers far below 2**53, so they are exact.
"""

from __future__ import annotations

import logging
import os

logger = logging.getLogger("repro.kernel")

try:  # the only eager numpy import in the package — keep it that way
    import numpy as _numpy
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _numpy = None

#: Whether the optional ``[fast]`` dependency is importable at all.
HAS_NUMPY = _numpy is not None

KERNELS = ("auto", "numpy", "python")

#: ``S``: distance between the real parts of two ``prev`` lists in a
#: key column.  ``next + 2`` must stay below it, which
#: :class:`repro.cellular.network.CellularNetwork` checks at build time.
KEY_STRIDE = float(1 << 20)

#: Offsets turning a query into the two ends of "sojourns above it":
#: the query itself, and one sorting after every sojourn of its list.
_ABOVE = (
    None if _numpy is None else _numpy.array([0j, complex(0.0, float("inf"))])
)

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
    """Select the estimation kernel; returns the resolved name."""
    global _active
    if name not in KERNELS:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {KERNELS}"
        )
    resolved = _resolve(name)
    if resolved != _active:
        _active = resolved
        logger.info(
            "estimation kernel: %s%s",
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

    The tick branches on this exactly once per flush, so the per-call
    overhead is one function call and a string compare.
    """
    return _numpy if kernel_name() == "numpy" else None


def prev_key(prev: int | None) -> float:
    """Real part ``(prev+1)·S`` naming one ``prev`` list of a column."""
    return 0.0 if prev is None else (prev + 1) * KEY_STRIDE


# ----------------------------------------------------------------------
# the Eq. 4/5 pass of the cross-cell coalesced tick
# ----------------------------------------------------------------------
class FlushBatch:
    """Accumulator of one coalesced tick's Eq. 4 searches.

    Each supplier registers one part (:meth:`add_part`): its table
    rows searched against its station's key columns for every
    requested target at once.  :meth:`resolve` then turns the counts
    into Eq. 5 totals, one per registered ``(supplier, target)``.

    A part is searched in two phases.  The union column gives every
    row its Eq. 4 denominator; only rows whose denominator *and*
    basis are both nonzero go on to the pair-column search for the
    numerators.  The rows left out are the ones that add exactly
    ``+0.0`` to every total: an *estimated stationary* row (no cached
    sojourn for its ``prev`` exceeds its extant sojourn — paper §4.1)
    and a detached connection's row, which stays in the table with
    basis ``0.0`` until compaction.  Every partial sum is
    non-negative, and ``x + 0.0 == x`` for those, so dropping them
    changes no bit.

    Only *unit-weight* masses participate (``w == 1.0``, the stationary
    default): their cumulative weights are exact consecutive integers,
    so the Eq. 4 masses equal search-index differences.  The arithmetic
    produces the scalar walk's floats (subtract, divide, scale; see
    :meth:`resolve` for why its guards are no-ops here) and totals
    each request left to right in table order — which is
    connection-iteration order — so every total is bit-identical to
    the scalar walk's.
    """

    __slots__ = ("np", "_parts", "outputs")

    def __init__(self, np) -> None:
        self.np = np
        #: ``(denominator counts, numerator counts, bases)`` per part,
        #: kept rows only; numerator counts have one row per requested
        #: target.
        self._parts: list[tuple] = []
        #: Requests registered so far: the index, in :meth:`resolve`'s
        #: result, of the next part's first request.
        self.outputs = 0

    def add_part(self, union, pair, queries, offsets, bases) -> None:
        """Register one supplier: two searches cover all its targets.

        ``union`` / ``pair`` are the station's key columns, ``queries``
        the supplier's table keys shifted to ``now``, ``bases`` its
        reservation bases.  ``offsets`` lists ``(target+2)`` for every
        request, then ``(target+2) + 1j·t_est`` for every request: the
        two ends of each numerator interval.
        """
        add_outer = self.np.add.outer
        # ndarray methods, not np.searchsorted / np.nonzero: the
        # free-function wrappers cost a dispatch layer per call and
        # this is the hot path.
        ends = union.searchsorted(add_outer(_ABOVE, queries), side="right")
        above = ends[1] - ends[0]
        keep = (above * bases).nonzero()[0]
        if len(keep) < len(queries):
            above = above[keep]
            queries = queries[keep]
            bases = bases[keep]
        count = len(offsets) // 2
        spans = pair.searchsorted(add_outer(offsets, queries), side="right")
        self._parts.append((above, spans[count:] - spans[:count], bases))
        self.outputs += count

    def resolve(self) -> list[float]:
        """Eq. 5 totals of every registered request, in registration
        order."""
        totals: list[float] = []
        for above, within, bases in self._parts:
            if not len(above):
                # Nothing kept: every row would have added +0.0.
                totals.extend([0.0] * len(within))
                continue
            # Unit-weight masses: the cumulative weight of the first k
            # entries is exactly float(k), so the masses are the search
            # counts themselves (true_divide converts them to the same
            # float64 values the scalar walk's gathers produce).  Every
            # pair sojourn is also a union sojourn, so ``within <=
            # above``: the scalar walk's ``min(ratio, 1.0)`` changes
            # nothing, and its "estimated stationary" skip
            # (``above == 0``) is a row :meth:`add_part` did not keep —
            # every kept ``above`` is at least 1.
            ratio = within / above
            ratio *= bases
            # cumsum is a strict left-to-right recurrence along each
            # row, so its last element is the same addition sequence —
            # hence the same float — as the per-connection Python loop.
            totals.extend(ratio.cumsum(axis=1)[:, -1].tolist())
        return totals


def flush_batch_or_none():
    """A fresh :class:`FlushBatch` under the numpy kernel, else ``None``.

    ``None`` under the pure-python kernel — the caller then answers
    every supplier with the scalar walk.
    """
    np = numpy_or_none()
    return None if np is None else FlushBatch(np)
