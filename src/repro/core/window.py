"""Adaptive control of the mobility-estimation time window (paper §4.2).

:class:`EstimationWindowController` is a faithful transcription of the
pseudocode in Figure 6.  Per cell it maintains the estimation window
``T_est`` using three counters:

* ``w = ceil(1 / P_HD,target)`` — the reference window: one drop is
  allowed per ``w`` observed hand-offs;
* ``W_obs`` — the current observation window, grown by ``w`` every time
  the drop quota is exceeded;
* ``n_H`` / ``n_HD`` — hand-offs and hand-off drops observed so far in
  the current observation window.

On every hand-off *into* the cell: ``n_H`` increments; on a drop,
``n_HD`` increments and, once ``n_HD`` exceeds the quota
``W_obs / w``, the window is extended and ``T_est`` incremented (bounded
above by ``T_soj,max``, the largest sojourn seen by neighbouring
estimators).  When ``n_H`` exceeds ``W_obs`` with the quota respected,
``T_est`` is decremented (bounded below by 1 s) and the counters reset.

The paper reports experimenting with additive (1, 2, 3, ...) and
multiplicative (1, 2, 4, ...) step growth for consecutive adjustments
and finding they over-react; both are implemented here as
:class:`StepPolicy` options for the ablation benchmark.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass

_log = logging.getLogger("repro.window")


class StepPolicy(enum.Enum):
    """How the adjustment step evolves over consecutive same-direction moves."""

    UNIT = "unit"
    ADDITIVE = "additive"
    MULTIPLICATIVE = "multiplicative"


@dataclass
class WindowControllerConfig:
    """Tunables of the Figure-6 algorithm."""

    #: ``P_HD,target`` — target hand-off dropping probability.
    target_drop_probability: float = 0.01
    #: ``T_start`` — initial estimation window (seconds).
    initial_window: float = 1.0
    #: Lower bound on ``T_est`` (the paper fixes 1 s).
    min_window: float = 1.0
    #: Step-growth policy (paper keeps UNIT; others are the ablation).
    step_policy: StepPolicy = StepPolicy.UNIT
    #: Decrement uses ``n_HD <= W_obs / w`` per the prose of §4.2; set
    #: False for the strict ``<`` of the pseudocode listing.
    inclusive_decrement: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.target_drop_probability < 1:
            raise ValueError("target drop probability must be in (0, 1)")
        if self.initial_window < self.min_window:
            raise ValueError("initial window below the minimum")

    @property
    def reference_window(self) -> int:
        """``w = ceil(1 / P_HD,target)``."""
        return math.ceil(1.0 / self.target_drop_probability)


@dataclass
class WindowAdjustment:
    """One recorded ``T_est`` change, for traces and tests."""

    time: float
    new_window: float
    increased: bool
    #: ``n_H`` / ``n_HD`` counter values at the moment of adaptation.
    handoffs: int = 0
    drops: int = 0


class EstimationWindowController:
    """Per-cell adaptive ``T_est`` controller (Figure 6)."""

    def __init__(self, config: WindowControllerConfig | None = None) -> None:
        self.config = config or WindowControllerConfig()
        self.reference = self.config.reference_window
        self.observation_window = self.reference  # W_obs
        self.t_est = float(self.config.initial_window)
        self.handoffs = 0  # n_H
        self.drops = 0  # n_HD
        self.total_handoffs = 0
        self.total_drops = 0
        self._consecutive = 0  # same-direction adjustments (variants)
        self._last_direction: bool | None = None
        self.adjustments: list[WindowAdjustment] = []

    # ------------------------------------------------------------------
    # Figure-6 main loop body
    # ------------------------------------------------------------------
    def on_handoff(self, dropped: bool, max_sojourn, now: float = 0.0) -> None:
        """Process one hand-off into the cell (lines 04–17 of Figure 6).

        Parameters
        ----------
        dropped:
            Whether the hand-off was dropped for lack of bandwidth.
        max_sojourn:
            ``T_soj,max`` — largest sojourn in the neighbouring cells'
            estimation functions; upper bound for ``T_est``.  Either
            the value, or a callable of ``now`` that returns it.  Figure
            6 reads the bound in one statement only — the ``T_est <
            T_soj,max`` guard of the increment, reached when the drop
            quota is exceeded — so a callable is asked there and nowhere
            else: a counted hand-off and a decrement (guarded by the
            1 s minimum, not by the bound) cost no walk over the
            neighbours.
        now:
            Virtual time, recorded with the adjustment trace.
        """
        self.handoffs += 1
        self.total_handoffs += 1
        quota = self.observation_window / self.reference
        if dropped:
            self.drops += 1
            self.total_drops += 1
            if self.drops > quota:
                self.observation_window += self.reference
                bound = max_sojourn(now) if callable(max_sojourn) else max_sojourn
                if self.t_est < bound:
                    self._adjust(increase=True, bound=bound, now=now)
        elif self.handoffs > self.observation_window:
            allowed = (
                self.drops <= quota
                if self.config.inclusive_decrement
                else self.drops < quota
            )
            minimum = self.config.min_window
            if allowed and self.t_est > minimum:
                self._adjust(increase=False, bound=minimum, now=now)
            self.observation_window = self.reference
            self.handoffs = 0
            self.drops = 0

    def _adjust(self, increase: bool, bound: float, now: float) -> None:
        """Step ``T_est`` once; ``bound`` is the limit on the side it
        moves toward (``T_soj,max`` up, the minimum window down)."""
        if self._last_direction is increase:
            self._consecutive += 1
        else:
            self._consecutive = 1
            self._last_direction = increase
        step = self._step_size()
        if increase:
            self.t_est = min(self.t_est + step, max(bound, self.config.min_window))
        else:
            self.t_est = max(self.t_est - step, bound)
        self.adjustments.append(
            WindowAdjustment(
                now, self.t_est, increase, self.handoffs, self.drops
            )
        )
        if _log.isEnabledFor(logging.DEBUG):
            _log.debug(
                "T_est adjusted",
                extra={
                    "direction": "up" if increase else "down",
                    "t_est": self.t_est,
                    "n_h": self.handoffs,
                    "n_hd": self.drops,
                    "virtual_time": now,
                },
            )

    def _step_size(self) -> float:
        policy = self.config.step_policy
        if policy is StepPolicy.UNIT:
            return 1.0
        if policy is StepPolicy.ADDITIVE:
            return float(self._consecutive)
        return float(2 ** (self._consecutive - 1))

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def drop_ratio(self) -> float:
        """Lifetime ``P_HD`` seen by this controller (0 when no hand-offs)."""
        if self.total_handoffs == 0:
            return 0.0
        return self.total_drops / self.total_handoffs
