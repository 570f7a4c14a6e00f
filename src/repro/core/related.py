"""Related-work comparator: Naghshineh–Schwartz distributed CAC.

The paper's §6 positions its scheme against the distributed call
admission control of Naghshineh & Schwartz (IEEE JSAC, May 1996 —
reference [10]): every estimation period, a cell estimates the
bandwidth it will need for its own calls *and* the hand-offs its
neighbours may send within a window ``T``, assuming exponentially
distributed channel-holding and cell-residence times, and admits new
calls only while the overload probability stays below a target.  The
companion paper ([4]) compares the two schemes quantitatively; this
module lets this repository do the same.

Model (per their paper, simplified to the symmetric 1-D case):

* a call in cell ``k`` is still in ``k`` at ``t + T`` with probability
  ``p_stay = exp(-T/lifetime) * exp(-T/dwell)`` (neither finished nor
  moved away);
* a call in a neighbour ``m`` has entered ``k`` by ``t + T`` with
  probability ``p_in = exp(-T/lifetime) * (1 - exp(-T/dwell)) / deg(m)``
  (moved, still alive, direction uniform over ``m``'s neighbours);
* the cell's bandwidth at ``t + T`` is the sum of independent scaled
  Bernoullis; a new call is admitted iff, with it included,
  ``P(B_k(t+T) > C_k) <= overload_target`` in the requesting cell and
  in every neighbour.

The paper's §6 criticisms are visible in the implementation: the
exponential-residence assumption is wired in (our mobiles actually
cross cells near-deterministically), and the dwell time must be *given*
(no mechanism predicts it), whereas the paper's estimator learns both
from the hand-off history.
"""

from __future__ import annotations

import math
from functools import partial

from repro._kernel import numpy_or_none
from repro.cellular.network import CellularNetwork
from repro.core.admission import AdmissionDecision, AdmissionPolicy


def convolve_bernoulli(
    distribution: list[float], probability: float, bandwidth: int
) -> list[float]:
    """Convolve a bandwidth pmf with one scaled Bernoulli arrival.

    ``distribution[b]`` is ``P(total = b)``; the new term adds
    ``bandwidth`` BUs with ``probability``.  The numpy and python
    kernels return equal lists.
    """
    if not 0.0 <= probability <= 1.0:
        raise ValueError(f"probability {probability} outside [0, 1]")
    if bandwidth < 0:
        raise ValueError("bandwidth cannot be negative")
    np = numpy_or_none()
    if np is None:
        return _convolve_list(distribution, probability, bandwidth)
    mass = np.asarray(distribution, dtype=np.float64)
    return _convolve_array(np, mass, probability, bandwidth).tolist()


def _convolve_list(
    distribution: list[float], probability: float, bandwidth: int
) -> list[float]:
    """:func:`convolve_bernoulli` on lists (the python kernel)."""
    if probability == 0.0 or bandwidth == 0:
        return list(distribution)
    size = len(distribution) + bandwidth
    result = [0.0] * size
    miss = 1.0 - probability
    for value, mass in enumerate(distribution):
        if mass == 0.0:
            continue
        result[value] += mass * miss
        result[value + bandwidth] += mass * probability
    return result


def _convolve_array(np, mass, probability: float, bandwidth: int):
    """:func:`convolve_bernoulli` on an ndarray (the numpy kernel).

    Entry ``b`` gets the same two products, added in the same order,
    as the list loop gives it: first ``mass[b - bandwidth] * p``, then
    ``mass[b] * (1 - p)``.  The loop skips zero masses, and the
    products it skips are ``+0.0``, which change no non-negative sum.
    """
    if probability == 0.0 or bandwidth == 0:
        return mass
    size = len(mass)
    result = np.zeros(size + bandwidth)
    result[bandwidth:] = mass * probability
    result[:size] += mass * (1.0 - probability)
    return result


def overload_probability(
    distribution: list[float], capacity: float
) -> float:
    """``P(total > capacity)`` for an integer-support pmf."""
    threshold = math.floor(capacity + 1e-9)
    return sum(distribution[threshold + 1:])


class NaghshinehSchwartzPolicy(AdmissionPolicy):
    """Distributed CAC of reference [10], as an :class:`AdmissionPolicy`.

    Parameters
    ----------
    window:
        Estimation window ``T`` (seconds) — fixed, not adaptive.
    overload_target:
        Maximum tolerated ``P(B_k(t+T) > C_k)``; plays the role the
        paper's ``P_HD,target`` plays (their paper relates the two).
    dwell_time:
        *Assumed* mean cell-residence time (seconds).  The scheme has no
        way to learn it; give it the true value for a best-case
        comparison (e.g. ``36`` for 100 km/h across 1 km).
    mean_lifetime:
        Mean call duration (A5: 120 s).
    """

    name = "NS"

    def __init__(
        self,
        window: float = 10.0,
        overload_target: float = 0.01,
        dwell_time: float = 36.0,
        mean_lifetime: float = 120.0,
    ) -> None:
        if window <= 0 or dwell_time <= 0 or mean_lifetime <= 0:
            raise ValueError("window, dwell and lifetime must be positive")
        if not 0 < overload_target < 1:
            raise ValueError("overload target must be in (0, 1)")
        self.window = float(window)
        self.overload_target = float(overload_target)
        self.dwell_time = float(dwell_time)
        self.mean_lifetime = float(mean_lifetime)
        alive = math.exp(-self.window / self.mean_lifetime)
        moved = 1.0 - math.exp(-self.window / self.dwell_time)
        #: P(call still in its cell at t+T).
        self.p_stay = alive * (1.0 - moved)
        #: P(call alive and departed its cell by t+T) — split uniformly
        #: over the departure cell's neighbours.
        self.p_depart = alive * moved
        #: Distribution evaluations performed (complexity metric).
        self.evaluations = 0

    # ------------------------------------------------------------------
    # the distributed admission test
    # ------------------------------------------------------------------
    def _cell_distribution(
        self,
        network: CellularNetwork,
        cell_id: int,
        extra_bandwidth: int = 0,
    ) -> list[float]:
        """pmf of cell ``cell_id``'s bandwidth at ``t + T``."""
        self.evaluations += 1
        # The pmf stays an ndarray between convolutions under the numpy
        # kernel and becomes a list once, at the end.
        np = numpy_or_none()
        if np is None:
            convolve = _convolve_list
            distribution = [1.0]
        else:
            convolve = partial(_convolve_array, np)
            distribution = np.ones(1)
        if extra_bandwidth:
            # The candidate call: admitted now, still present w.p. stay.
            distribution = convolve(
                distribution, self.p_stay, extra_bandwidth
            )
        for connection in network.cell(cell_id).connections():
            distribution = convolve(
                distribution, self.p_stay, int(round(connection.bandwidth))
            )
        for neighbor in network.neighbors(cell_id):
            degree = len(network.neighbors(neighbor))
            if degree == 0:
                continue
            p_in = self.p_depart / degree
            for connection in network.cell(neighbor).connections():
                distribution = convolve(
                    distribution, p_in, int(round(connection.bandwidth))
                )
        return distribution if np is None else distribution.tolist()

    def admit_new(
        self,
        network: CellularNetwork,
        cell_id: int,
        bandwidth: float,
        now: float,
    ) -> AdmissionDecision:
        cell = network.cell(cell_id)
        # NS reserves no explicit band; the overload test is the guard.
        cell.reserved_target = 0.0
        if not cell.fits_handoff(bandwidth):
            return AdmissionDecision(False, calculations=0, messages=0)
        evaluations_before = self.evaluations
        admitted = True
        own = self._cell_distribution(
            network, cell_id, extra_bandwidth=int(round(bandwidth))
        )
        if overload_probability(own, cell.capacity) > self.overload_target:
            admitted = False
        else:
            for neighbor in network.neighbors(cell_id):
                neighbor_distribution = self._cell_distribution(
                    network, neighbor
                )
                if (
                    overload_probability(
                        neighbor_distribution,
                        network.cell(neighbor).capacity,
                    )
                    > self.overload_target
                ):
                    admitted = False
                    break
        performed = self.evaluations - evaluations_before
        # Each evaluation needs the neighbours' occupancy: 2 messages per
        # adjacent cell, mirroring the B_r protocol's accounting.
        return AdmissionDecision(
            admitted,
            calculations=performed,
            messages=2 * performed * len(network.neighbors(cell_id)),
        )
