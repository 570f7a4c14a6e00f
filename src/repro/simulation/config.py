"""Simulation configuration: the paper's §5.1 defaults in one dataclass."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.window import StepPolicy
from repro.mobility.models import TravelDirections
from repro.traffic.profiles import DayProfile


@dataclass
class SimulationConfig:
    """Everything needed to reproduce one simulation run.

    Defaults follow §5.1: 10 ring-connected cells of 1 km, ``C = 100``
    BUs, voice-only traffic, mean lifetime 120 s, ``P_HD,target = 0.01``,
    ``T_start = 1`` s, ``N_quad = 100``, infinite ``T_int`` (stationary),
    high user mobility.
    """

    # --- infrastructure (A1, A6) -------------------------------------
    num_cells: int = 10
    cell_diameter_km: float = 1.0
    ring: bool = True
    capacity: float = 100.0

    # --- traffic (A2, A3, A5) ----------------------------------------
    #: Offered load ``L`` per cell in BUs (Eq. 7); ignored when
    #: ``load_profile`` is set.
    offered_load: float = 100.0
    #: ``R_vo`` — fraction of voice connections.
    voice_ratio: float = 1.0
    mean_lifetime: float = 120.0
    #: Time-of-day offered-load profile (enables the §5.3 scenario).
    load_profile: DayProfile | None = None

    # --- retries (§5.3) ----------------------------------------------
    retry_enabled: bool = False
    retry_delay: float = 5.0
    retry_giveup_step: float = 0.1

    # --- mobility (A4) -------------------------------------------------
    #: ``[SP_min, SP_max]`` km/h; ignored when ``speed_profile`` is set.
    speed_range: tuple[float, float] = (80.0, 120.0)
    speed_profile: DayProfile | None = None
    speed_profile_half_width: float = 20.0
    directions: TravelDirections = TravelDirections.TWO_WAY
    stationary_fraction: float = 0.0

    # --- scheme parameters (§5.1) --------------------------------------
    #: ``static``, ``AC1``, ``AC2`` or ``AC3``.
    scheme: str = "AC3"
    #: Layer :class:`repro.core.qos.AdaptiveQoSPolicy` over the scheme
    #: and make video degradable (hand-offs accepted at reduced rate
    #: instead of dropped; reservation on the minimum QoS — paper §1).
    adaptive_qos: bool = False
    #: CDMA soft capacity (§7): hand-offs may push a cell up to
    #: ``capacity * handoff_overload`` (higher interference accepted).
    handoff_overload: float = 1.0
    #: CDMA soft hand-off (§7): seconds a crossing mobile stays reachable
    #: from the old BS; a blocked hand-off retries during this window
    #: instead of dropping immediately.  0 disables (the paper's model).
    soft_handoff_window: float = 0.0
    #: Retry cadence inside the soft hand-off window.
    soft_handoff_retry_interval: float = 0.5
    #: Guard band ``G`` in BUs (static scheme only).
    static_guard: float = 10.0
    target_drop_probability: float = 0.01
    t_start: float = 1.0
    n_quad: int = 100
    #: ``T_int`` in seconds; ``None`` models the stationary ``T_int = inf``.
    t_int: float | None = None
    #: Day-age weights ``(w_0, w_1, ...)``.
    weights: tuple[float, ...] = (1.0, 1.0)
    #: ``T_day`` — the estimator's cyclic period and the hourly-stats
    #: bucket base.  Shrinking it (with matching profiles) time-
    #: compresses the §5.3 scenario.
    day_seconds: float = 86_400.0
    step_policy: StepPolicy = StepPolicy.UNIT

    #: Convolution backend of the Naghshineh–Schwartz comparison:
    #: ``auto`` (numpy when installed), ``numpy`` (require the
    #: ``[fast]`` extra) or ``python`` (the list loop — the only path
    #: on a numpy-free install).  Eq. 5 does not depend on it.  Both
    #: produce bit-identical metrics.  See :mod:`repro._kernel`.
    kernel: str = "auto"

    # --- run control ----------------------------------------------------
    duration: float = 2000.0
    #: Metrics ignore everything before this time (the scheme still
    #: learns from t=0, matching the paper's cold start).
    warmup: float = 0.0
    seed: int = 1
    #: Period of the B_r/B_u/T_est samplers (seconds); 0 disables.
    sample_interval: float = 10.0
    #: Cells whose time traces (T_est, B_r, cumulative P_HD) to record.
    tracked_cells: tuple[int, ...] = ()
    #: Aggregate hourly buckets (Figure 14b).
    hourly_stats: bool = False

    # --- observability ---------------------------------------------------
    #: Collect run telemetry (counters/gauges/histograms) into a snapshot
    #: attached to the result (``--telemetry``).
    telemetry: bool = False
    #: Heartbeat progress lines at most this often (wall seconds);
    #: 0 disables.  Each line renders a time-series sampler row (with no
    #: ``series_*`` cadence set this becomes the sampler's wall
    #: cadence); samples never schedule events, so enabling them cannot
    #: perturb the run.
    progress_interval: float = 0.0
    #: Run identifier stamped into logs and telemetry; auto-generated
    #: when empty.
    run_id: str = ""
    #: Streaming time-series sampling cadence in *virtual* seconds
    #: (0 disables).  Samples are taken from the engine's observer hook
    #: — pure reads, never scheduled events — so enabling them cannot
    #: perturb the run (``metrics_key()`` parity is enforced by tests).
    series_interval: float = 0.0
    #: Streaming time-series sampling cadence in *wall* seconds
    #: (0 disables).  Either cadence (or both) may be active.
    series_wall_interval: float = 0.0
    #: Append-only JSONL destination for live samples (``repro dash``
    #: tails it); empty keeps samples only on the result.  Spatial
    #: shard processes append their own tagged rows to the same path.
    series_path: str = ""
    #: Record wall-clock spans (epoch barriers, flush ticks, checkpoint
    #: publishes) as Chrome trace events attached to the result
    #: (``--trace-out``).
    trace: bool = False

    #: Pre-warmed estimator state to hydrate the network with before the
    #: run starts: a :class:`repro.state.CheckpointWarmStart`.  Campaign
    #: days chain through it and the replication runner ships one
    #: warm-up's history to every shard; ``None`` for a cold start.
    warm_state: object | None = None

    # --- free-form label for reports ------------------------------------
    label: str = ""

    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.num_cells < 2:
            raise ValueError("need at least two cells")
        if self.offered_load < 0:
            raise ValueError("offered load cannot be negative")
        if not 0.0 <= self.voice_ratio <= 1.0:
            raise ValueError("voice ratio must be in [0, 1]")
        low, high = self.speed_range
        if low < 0 or high < low:
            raise ValueError(f"invalid speed range {self.speed_range}")
        if self.warmup >= self.duration:
            raise ValueError("warmup must end before the run does")
        for cell_id in self.tracked_cells:
            if not 0 <= cell_id < self.num_cells:
                raise ValueError(f"tracked cell {cell_id} out of range")
        if self.handoff_overload < 1.0:
            raise ValueError("handoff_overload must be >= 1")
        if self.soft_handoff_window < 0:
            raise ValueError("soft hand-off window cannot be negative")
        if self.soft_handoff_retry_interval <= 0:
            raise ValueError("soft hand-off retry interval must be positive")
        if self.kernel not in ("auto", "numpy", "python"):
            raise ValueError(
                f"kernel must be auto, numpy or python, got {self.kernel!r}"
            )
        if self.progress_interval < 0:
            raise ValueError("progress interval cannot be negative")
        if self.series_interval < 0 or self.series_wall_interval < 0:
            raise ValueError("series intervals cannot be negative")

    @property
    def series_enabled(self) -> bool:
        """Whether any time-series sampling cadence is active."""
        return self.series_interval > 0 or self.series_wall_interval > 0

    @property
    def is_time_varying(self) -> bool:
        return self.load_profile is not None or self.speed_profile is not None


def cell_load_weights(config: SimulationConfig) -> list[float] | None:
    """Per-cell offered-load weights from the scenario, or ``None``.

    Scenario builders (``hex_city(hotspots=...)``) stash the vector in
    ``config.extra["cell_weights"]``; it scales each cell's arrival
    rate and feeds load-balanced partitioning.
    """
    raw = (config.extra or {}).get("cell_weights")
    if raw is None:
        return None
    weights = [float(value) for value in raw]
    if len(weights) != config.num_cells:
        raise ValueError(
            f"config.extra['cell_weights'] needs {config.num_cells}"
            f" entries, got {len(weights)}"
        )
    if min(weights) < 0:
        raise ValueError("cell weights must be >= 0")
    return weights
