"""Target reservation bandwidth computation (paper Eqs. 5–6).

For a target cell ``0`` with estimation window ``T_est,0``:

* Eq. 5 — each adjacent cell ``i`` computes, over its own connections,
  the expected hand-off bandwidth toward the target::

      B_{i,0} = sum_j b(C_{i,j}) * p_h(C_{i,j} -> 0)

  where ``p_h`` comes from cell ``i``'s estimator (Eq. 4) evaluated with
  the *target* cell's ``T_est``.

* Eq. 6 — the target's reservation bandwidth aggregates its neighbours::

      B_{r,0} = sum_{i in A_0} B_{i,0}

These are pure functions over duck-typed inputs (anything with
``bandwidth``, ``prev_cell`` and ``cell_entry_time`` counts as a
connection) so they are usable outside the bundled simulator.
"""

from __future__ import annotations

from typing import Iterable, Protocol

from repro.estimation.estimator import MobilityEstimator


class ReservableConnection(Protocol):
    """What Eq. 5 needs to know about a connection."""

    bandwidth: float
    prev_cell: int | None
    cell_entry_time: float


def expected_handoff_bandwidth(
    estimator: MobilityEstimator,
    now: float,
    connections: Iterable[ReservableConnection],
    target_cell: int,
    t_est: float,
) -> float:
    """Eq. 5: expected hand-off bandwidth from one cell toward ``target_cell``.

    Parameters
    ----------
    estimator:
        The *source* cell's mobility estimator.
    now:
        Current virtual time (seconds).
    connections:
        Connections currently carried by the source cell.
    target_cell:
        Global id of the cell computing its reservation.
    t_est:
        The target cell's estimation window ``T_est`` (seconds).
    """
    return estimator.expected_bandwidth(now, connections, target_cell, t_est)


def aggregate_reservation(per_neighbor: Iterable[float]) -> float:
    """Eq. 6: the target reservation bandwidth ``B_r`` of a cell.

    A plain left fold from ``0.0``, in neighbour order: ``sum()`` over
    floats is compensated from CPython 3.12 on, which would move a
    ``B_r`` in its last bit between Python versions.
    """
    total = 0.0
    for contribution in per_neighbor:
        total += contribution
    return total
