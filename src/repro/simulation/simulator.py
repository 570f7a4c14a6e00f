"""The cellular hand-off simulator: wires every substrate together.

Event flow (all on the :class:`~repro.des.Engine`):

* **arrival** — a new connection request appears in a cell (Poisson,
  A2): the admission policy runs its test (updating ``B_r`` targets as
  the scheme dictates), an admitted connection draws its lifetime and
  — if its mobile moves — its next boundary crossing, and queues the
  *earlier* of the two: the only event it can still see (§5.1).  A
  blocked request may schedule a retry (§5.3).
* **crossing** — the mobile reaches a cell boundary: the old cell's BS
  caches the hand-off quadruplet, the new cell's BS feeds its window
  controller, and the hand-off is admitted iff the new cell has spare
  capacity (reserved band included); a successful hop queues the
  connection's next event by the same rule.  Off an open road's end
  the connection simply leaves the system.
* **lifetime end** — the connection completes and releases bandwidth.
* **sample** — periodic observer recording ``B_r``, ``B_u`` and
  ``T_est`` per cell.

What a request, a crossing, a road exit and a completion *do* is
written once, as the simulator's four life-cycle transitions
(:meth:`~CellularSimulator.admit_request`,
:meth:`~CellularSimulator.probe_handoff` +
:meth:`~CellularSimulator.resolve_handoff`,
:meth:`~CellularSimulator.exit_road`,
:meth:`~CellularSimulator.complete`).  The event handlers here only
draw, apply a transition and schedule; :mod:`repro.serve` applies the
same transitions to events that arrive from outside.
"""

from __future__ import annotations

import math
import time as wall_clock

from repro._kernel import kernel_name, set_kernel
from repro.cellular.base_station import EXIT_CELL
from repro.cellular.network import CellularNetwork
from repro.cellular.topology import LinearTopology
from repro.core.admission import AdmissionPolicy, make_policy
from repro.core.qos import AdaptiveQoSPolicy
from repro.core.window import WindowControllerConfig
from repro.des.engine import Engine
from repro.des.events import EventPriority
from repro.des.random import RandomStreams
from repro.estimation.cache import CacheConfig
from repro.mobility.models import (
    LinearMobilityModel,
    MobilityModel,
    Transition,
    TravelDirections,
)
from repro.mobility.speed import ProfileSpeedSampler, UniformSpeedSampler
from repro.obs.logs import ensure_configured, set_run_id
from repro.obs.progress import ProgressReporter
from repro.obs.telemetry import begin_run, new_run_id
from repro.obs.timeseries import TimeSeriesSampler
from repro.obs.trace import begin_trace
from repro.simulation.config import SimulationConfig, cell_load_weights
from repro.simulation.extensions import ExtensionChain
from repro.simulation.metrics import (
    CellStatus,
    MetricsCollector,
    SimulationResult,
)
from repro.traffic.arrivals import (
    ModulatedPoissonArrivals,
    PoissonArrivals,
    RetryPolicy,
)
from repro.traffic.classes import ADAPTIVE_VIDEO, TrafficMix
from repro.traffic.connection import Connection, ConnectionState


# ----------------------------------------------------------------------
# the substrate a config describes (shared with the sharded engine)
# ----------------------------------------------------------------------
def begin_observability(config: SimulationConfig, shard: int | None = None):
    """Select the kernel, then start the run's telemetry and tracer.

    Must run before any subsystem is built: the estimators grab
    instrument handles and the network its flush-tick tracer handle at
    construction.  ``config.kernel == "auto"`` resolves lazily via
    REPRO_KERNEL/numpy availability, an explicit choice overrides the
    environment; ``config.telemetry``/``config.trace`` force collection
    on, otherwise the module defaults decide.  A shard gets its own
    ``-s<index>`` run id and Perfetto ``pid`` lane.  Returns
    ``(run_id, telemetry, tracer)``.
    """
    if config.kernel == "auto":
        kernel_name()
    else:
        set_kernel(config.kernel)
    ensure_configured()
    requested = config.run_id or None
    if shard is not None:
        requested = f"{requested or new_run_id()}-s{shard}"
    telemetry = begin_run(
        run_id=requested, enabled=True if config.telemetry else None
    )
    run_id = telemetry.run_id or requested or new_run_id()
    if shard is None:
        set_run_id(run_id)
    # Spans read only the wall clock, so tracing can never perturb the
    # simulation.
    tracer = begin_trace(
        run_id=run_id,
        enabled=True if config.trace else None,
        pid=shard or 0,
    )
    return run_id, telemetry, tracer


def build_network(
    config: SimulationConfig, topology, cell_factory=None, hydrate_cells=None
) -> CellularNetwork:
    """The cells and base stations of ``config`` over ``topology``.

    ``config.warm_state`` (campaign days and replication shards start
    from an earlier run's estimator history, see :mod:`repro.state`)
    hydrates every cell, or only ``hydrate_cells`` when given.
    """
    network = CellularNetwork(
        topology,
        capacity=config.capacity,
        cache_config=CacheConfig(
            interval=config.t_int,
            max_per_pair=config.n_quad,
            weights=config.weights,
            period=config.day_seconds,
        ),
        window_config=WindowControllerConfig(
            target_drop_probability=config.target_drop_probability,
            initial_window=config.t_start,
            step_policy=config.step_policy,
        ),
        cell_factory=cell_factory,
        handoff_overload=config.handoff_overload,
    )
    if config.warm_state is not None:
        config.warm_state.hydrate(network, cells=hydrate_cells)
    return network


def arrival_processes(config: SimulationConfig, mix: TrafficMix, cells) -> dict:
    """``cell -> arrival process`` for ``cells``.

    Uniform scenarios share one process object across all cells; a
    scenario with ``extra["cell_weights"]`` (hot spots) gets one
    weighted process per cell (a zero weight means a silent cell).
    """

    def process(weight: float):
        if config.load_profile is not None:
            return ModulatedPoissonArrivals(
                config.load_profile,
                mix.mean_bandwidth,
                config.mean_lifetime,
                weight=weight,
            )
        return PoissonArrivals(
            weight
            * mix.arrival_rate_for_load(
                config.offered_load, config.mean_lifetime
            )
        )

    weights = cell_load_weights(config)
    if weights is None:
        shared = process(1.0)
        return {cell: shared for cell in cells}
    return {cell: process(weights[cell]) for cell in cells}


def retry_policy(config: SimulationConfig) -> RetryPolicy:
    """The §5.3 blocked-request retry behaviour ``config`` asks for."""
    return RetryPolicy(
        delay=config.retry_delay,
        giveup_step=config.retry_giveup_step,
        enabled=config.retry_enabled,
    )


def metrics_collector(
    config: SimulationConfig, num_cells: int, tracked_cells
) -> MetricsCollector:
    """The run's counters; traces are kept for ``tracked_cells`` only."""
    return MetricsCollector(
        num_cells,
        warmup=config.warmup,
        tracked_cells=tracked_cells,
        hourly=config.hourly_stats,
        hour_seconds=config.day_seconds / 24.0,
    )


def cell_statuses(metrics: MetricsCollector, stations) -> list[CellStatus]:
    """One end-of-run :class:`CellStatus` row per station in ``stations``."""
    return [
        CellStatus(
            cell_id=station.cell_id,
            blocking_probability=(
                metrics.cells[station.cell_id].blocking_probability
            ),
            dropping_probability=(
                metrics.cells[station.cell_id].dropping_probability
            ),
            t_est=station.t_est,
            reserved_target=station.cell.reserved_target,
            used_bandwidth=station.cell.used_bandwidth,
        )
        for station in stations
    ]


def harvest_telemetry(
    tel, engine: Engine, metrics: MetricsCollector, network, cell_ids=None
) -> None:
    """Fold an engine's end-of-run counters into ``tel``.

    The run telemetry both engines emit under the same names: events
    fired and left queued, one ``simulation.runs`` per engine, admission
    outcomes and tests, and the network's per-station counters —
    ``cell_ids`` limits the latter to the cells an engine owns.
    """
    tel.counter("des.events_fired").inc(engine.events_processed)
    tel.gauge("des.heap_len").set(engine.pending)
    tel.counter("simulation.runs", kernel=kernel_name()).inc()
    requests = sum(cell.new_requests for cell in metrics.cells)
    blocked = sum(cell.blocked for cell in metrics.cells)
    attempts = sum(cell.handoff_attempts for cell in metrics.cells)
    drops = sum(cell.handoff_drops for cell in metrics.cells)
    admissions = tel.counter
    admissions("cellular.admissions", kind="new", outcome="accepted").inc(
        requests - blocked
    )
    admissions("cellular.admissions", kind="new", outcome="blocked").inc(
        blocked
    )
    admissions(
        "cellular.admissions", kind="handoff", outcome="accepted"
    ).inc(attempts - drops)
    admissions(
        "cellular.admissions", kind="handoff", outcome="dropped"
    ).inc(drops)
    tel.counter("cellular.admission_tests").inc(metrics.total_admission_tests)
    network.harvest_telemetry(tel, cell_ids)


class CellularSimulator:
    """One configured, runnable simulation.

    Parameters
    ----------
    config:
        The scenario (defaults follow paper §5.1).
    policy:
        Admission policy override; by default built from
        ``config.scheme``.
    mobility_model:
        Mobility override (e.g. :class:`HexMobilityModel`); by default a
        :class:`LinearMobilityModel` over the configured road.  When the
        override carries its own ``topology`` it replaces the road.
    """

    def __init__(
        self,
        config: SimulationConfig,
        policy: AdmissionPolicy | None = None,
        mobility_model: MobilityModel | None = None,
        extensions=(),
    ) -> None:
        self.config = config
        self.run_id, self.telemetry, self.tracer = begin_observability(config)
        self.engine = Engine()
        self.streams = RandomStreams(config.seed)
        # Hot-path stream handles, resolved once: checkpoint restore
        # mutates these Random objects in place (``setstate``), so the
        # cached references stay valid across save/resume.
        self._arrival_rng = self.streams.get("arrivals")
        self._traffic_rng = self.streams.get("traffic")
        self._mobility_rng = self.streams.get("mobility")
        self._lifetime_rng = self.streams.get("lifetimes")
        self._retry_rng = self.streams.get("retries")
        if config.adaptive_qos:
            self.mix = TrafficMix(
                config.voice_ratio, video_class=ADAPTIVE_VIDEO
            )
        else:
            self.mix = TrafficMix(config.voice_ratio)
        override_topology = getattr(mobility_model, "topology", None)
        if override_topology is not None:
            self.topology = override_topology
        else:
            self.topology = LinearTopology(
                config.num_cells, config.cell_diameter_km, ring=config.ring
            )
        self.network = build_network(config, self.topology)
        if policy is not None:
            self.policy = policy
        elif config.scheme.lower() == "static":
            self.policy = make_policy(
                "static", guard_bandwidth=config.static_guard
            )
        else:
            self.policy = make_policy(config.scheme)
        if config.adaptive_qos and not isinstance(
            self.policy, AdaptiveQoSPolicy
        ):
            self.policy = AdaptiveQoSPolicy(self.policy)
        self.policy.install(self.network)
        self.extensions = ExtensionChain(extensions)
        self.extensions.install(self.network)

        if mobility_model is not None:
            self.mobility = mobility_model
        else:
            if config.speed_profile is not None:
                speed_sampler = ProfileSpeedSampler(
                    config.speed_profile, config.speed_profile_half_width
                )
            else:
                low, high = config.speed_range
                speed_sampler = UniformSpeedSampler(low, high)
            self.mobility = LinearMobilityModel(
                self.topology,
                speed_sampler,
                directions=config.directions,
                stationary_fraction=config.stationary_fraction,
            )

        self._cell_arrivals = arrival_processes(
            config, self.mix, range(self.topology.num_cells)
        )
        self.retry = retry_policy(config)
        self.metrics = metrics_collector(
            config, self.topology.num_cells, config.tracked_cells
        )
        self.active_connections: dict[int, Connection] = {}
        self._finished = False
        #: Set by :func:`repro.state.restore_simulator`: the queue is
        #: already populated, so :meth:`run` must skip the initial
        #: scheduling pass.
        self._resumed = False
        #: Optional mid-run checkpoint hook (``repro.state.Checkpointer``),
        #: composed into the engine observer alongside progress.
        self.checkpointer = None
        #: In-run time-series sampler, built lazily by :meth:`run` when
        #: the config enables a cadence (checkpoints read it mid-run).
        self.sampler: TimeSeriesSampler | None = None
        #: Optional :class:`repro.serve.events.RunRecorder`: captures
        #: the run's semantic event stream (arrivals with their
        #: decisions, hand-off resolutions, completions, exits) for
        #: replay through the live-serving path.  Hooks fire after each
        #: event is fully applied — pure observation.
        self.recorder = None

    # ------------------------------------------------------------------
    # run control
    # ------------------------------------------------------------------
    def run(self) -> SimulationResult:
        """Execute the configured scenario and return its result."""
        if self._finished:
            raise RuntimeError("simulator instances are single-use")
        started = wall_clock.perf_counter()
        if not self._resumed:
            arrival_rng = self._arrival_rng
            for cell_id in range(self.topology.num_cells):
                first = self._cell_arrivals[cell_id].next_arrival(
                    0.0, arrival_rng
                )
                if first is not None:
                    self.engine.call_at(
                        first,
                        self._on_arrival,
                        cell_id,
                        1,
                        priority=EventPriority.ARRIVAL,
                    )
            if self.config.sample_interval > 0:
                self.engine.call_at(
                    self.config.sample_interval,
                    self._on_sample,
                    priority=EventPriority.MONITOR,
                )
        config = self.config
        # One observer: sampler, then progress, then checkpoint.  Each
        # throttles itself on virtual or wall time.
        hooks = []
        if config.series_enabled:
            self.sampler = TimeSeriesSampler(
                self.engine,
                metrics=self.metrics,
                stations=self.network.stations,
                capacity=config.capacity,
                interval=config.series_interval,
                wall_interval=config.series_wall_interval,
                max_samples=config.series_max_samples,
                stream=config.series_path or None,
                run_id=self.run_id,
                label=config.label or config.scheme,
                telemetry=self.telemetry,
            )
            hooks.append(self.sampler.maybe_sample)
        reporter = None
        if config.progress_interval > 0:
            reporter = ProgressReporter(
                self.engine,
                duration=config.duration,
                interval=config.progress_interval,
                label=config.label or config.scheme,
            )
            hooks.append(reporter.beat)
        if self.checkpointer is not None:
            hooks.append(self.checkpointer.beat)
        if not hooks:
            observer = None
        elif len(hooks) == 1:
            observer = hooks[0]
        else:
            def observer() -> None:
                for hook in hooks:
                    hook()
        with self.tracer.span(
            "run.engine", label=config.label or config.scheme
        ):
            self.engine.run(until=config.duration, observer=observer)
        if reporter is not None:
            reporter.final()
        if self.sampler is not None:
            self.sampler.final()
        self._finished = True
        return self._build_result(wall_clock.perf_counter() - started)

    # ------------------------------------------------------------------
    # the call life-cycle: four transitions, applied by both drivers
    # (the DES handlers below and repro.serve's StreamDriver)
    # ------------------------------------------------------------------
    def admit_request(
        self, cell_id: int, traffic_class, spawn_mobile: bool = True
    ) -> Connection | None:
        """A new connection request in ``cell_id``: test, account, attach.

        Returns the attached connection, or ``None`` when blocked.  A
        streamed request carries no mobile (``spawn_mobile=False``): its
        crossings arrive from outside instead of from a mobility model.
        """
        now = self.engine.now
        decision = self.policy.admit_new(
            self.network, cell_id, traffic_class.bandwidth, now
        )
        self.metrics.record_admission_test(
            decision.calculations, decision.messages
        )
        admitted = decision.admitted
        connection = None
        if admitted:
            mobile = None
            if spawn_mobile:
                mobile = self.mobility.spawn(cell_id, now, self._mobility_rng)
            connection = Connection(
                traffic_class,
                start_time=now,
                cell_id=cell_id,
                mobile=mobile,
                prev_cell=None,
                cell_entry_time=now,
            )
            # Extensions (e.g. the wired backbone) may veto an accept.
            if self.extensions and not self.extensions.admit_new(
                connection, cell_id, now
            ):
                admitted = False
        self.metrics.record_request(cell_id, now, blocked=not admitted)
        if self.recorder is not None:
            self.recorder.on_arrival(
                now,
                cell_id,
                traffic_class.name,
                admitted,
                connection.connection_id if admitted else None,
            )
        if not admitted:
            return None
        self.network.cell(cell_id).attach(connection)
        self.extensions.on_admitted(connection, now)
        self.active_connections[connection.connection_id] = connection
        return connection

    def probe_handoff(self, connection: Connection, new_cell: int):
        """Eq. 2 overload test at ``new_cell`` plus the extension veto:
        the bandwidth the hand-off would get, or ``None`` (a drop)."""
        allocation = self.policy.handoff_allocation(
            self.network, new_cell, connection
        )
        if (
            allocation is not None
            and self.extensions
            and not self.extensions.admit_handoff(
                connection, connection.cell_id, new_cell, self.engine.now
            )
        ):
            return None  # e.g. no wired bandwidth on the new route
        return allocation

    def resolve_handoff(
        self, connection: Connection, new_cell: int, allocation
    ) -> bool:
        """The mobile leaves its cell now, into ``new_cell`` if
        :meth:`probe_handoff` granted ``allocation``; else it is dropped.
        Returns whether the connection lives on."""
        now = self.engine.now
        old_cell = connection.cell_id
        admitted = allocation is not None
        self._record_departure(connection, old_cell, new_cell, now)
        self.network.cell(old_cell).detach(connection)
        self.network.station(new_cell).on_handoff_arrival(
            dropped=not admitted, now=now
        )
        self.metrics.record_handoff(new_cell, now, dropped=not admitted)
        if self.recorder is not None:
            self.recorder.on_handoff(
                now, connection.connection_id, new_cell, admitted
            )
        # The departure freed bandwidth in the old cell either way.
        self.policy.on_release(self.network, old_cell, now)
        if not admitted:
            connection.finish(ConnectionState.DROPPED, now)
            self._end(connection)
            return False
        connection.allocated_bandwidth = allocation
        mobile = connection.mobile
        if mobile is not None and isinstance(self.mobility, LinearMobilityModel):
            boundary = self.mobility.crossing_position(mobile)
            mobile.place(boundary, new_cell, now)
        elif mobile is not None:
            mobile.cell_id = new_cell
        connection.move_to(new_cell, now)
        self.network.cell(new_cell).attach(connection)
        self.extensions.on_handoff(connection, old_cell, new_cell, now)
        return True

    def exit_road(self, connection: Connection) -> None:
        """The mobile drives off an open road's end."""
        now = self.engine.now
        old_cell = connection.cell_id
        self._record_departure(connection, old_cell, EXIT_CELL, now)
        self.network.cell(old_cell).detach(connection)
        connection.finish(ConnectionState.EXITED, now)
        self.metrics.record_exit(old_cell, now)
        if self.recorder is not None:
            self.recorder.on_exit(now, connection.connection_id)
        self.policy.on_release(self.network, old_cell, now)
        self._end(connection)

    def complete(self, connection: Connection) -> None:
        """The connection's lifetime ran out; its bandwidth is released."""
        now = self.engine.now
        cell_id = connection.cell_id
        self.network.cell(cell_id).detach(connection)
        connection.finish(ConnectionState.COMPLETED, now)
        self.metrics.record_completion(cell_id, now)
        if self.recorder is not None:
            self.recorder.on_complete(now, connection.connection_id)
        self.policy.on_release(self.network, cell_id, now)
        self._end(connection)

    def _end(self, connection: Connection) -> None:
        """Forget a finished connection: it has left the system."""
        self.active_connections.pop(connection.connection_id, None)
        self.extensions.on_connection_end(connection, self.engine.now)
        # Release per-mobile state kept by stateful mobility models.
        forget = getattr(self.mobility, "forget", None)
        if forget is not None and connection.mobile is not None:
            forget(connection.mobile)

    def _record_departure(
        self,
        connection: Connection,
        old_cell: int,
        new_cell: int,
        now: float,
    ) -> None:
        """Cache the departing mobile's quadruplet at the old cell's BS.

        Recorded even for road exits: the estimator then knows those
        mobiles were not heading to a reservable neighbour.
        """
        self.network.station(old_cell).record_departure(
            now, connection.prev_cell, new_cell, connection.cell_entry_time
        )

    # ------------------------------------------------------------------
    # DES event handlers: draw -> transition -> schedule
    # ------------------------------------------------------------------
    def _on_arrival(self, cell_id: int, attempt: int) -> None:
        if attempt == 1:
            # Queue the next fresh request of this cell's Poisson
            # process (retries are extra events, not process renewals).
            # A renewal past the horizon is queued like any other event:
            # run() leaves it unfired and a checkpoint carries it to a
            # longer horizon.
            next_time = self._cell_arrivals[cell_id].next_arrival(
                self.engine.now, self._arrival_rng
            )
            if next_time is not None:
                self.engine.call_at(
                    next_time,
                    self._on_arrival,
                    cell_id,
                    1,
                    priority=EventPriority.ARRIVAL,
                )
        self._handle_request(cell_id, attempt)

    def _handle_request(self, cell_id: int, attempt: int) -> None:
        traffic_class = self.mix.sample(self._traffic_rng)
        connection = self.admit_request(cell_id, traffic_class)
        if connection is None:
            if self.retry.should_retry(attempt, self._retry_rng):
                self.engine.call_in(
                    self.retry.delay,
                    self._handle_request,
                    cell_id,
                    attempt + 1,
                    priority=EventPriority.ARRIVAL,
                )
            return
        connection.planned_end = (
            self.engine.now
            + self._lifetime_rng.expovariate(1.0 / self.config.mean_lifetime)
        )
        self._schedule_next(connection)

    def _schedule_next(self, connection: Connection) -> None:
        """Queue the connection's next event in its current cell.

        The mobility model is asked even when the lifetime will win, so
        models that draw from the RNG keep their draw order.
        """
        mobile = connection.mobile
        if mobile is not None and mobile.is_moving:
            transition = self.mobility.next_transition(
                mobile, self.engine.now, self._mobility_rng
            )
            if transition is not None:
                self._schedule_one(connection, transition.time, transition)
                return
        self._schedule_one(connection)

    def _schedule_one(
        self,
        connection: Connection,
        at: float = math.inf,
        transition: Transition | None = None,
        soft_deadline: float | None = None,
    ) -> None:
        """One connection, one pending event (§5.1).

        The crossing (or soft-hand-off retry) at ``at`` is queued only
        when it comes strictly before the planned lifetime end; else
        the end is.  DEPARTURE fires before HANDOFF at equal times, so
        the loser could never have fired — queueing it and cancelling
        it later would be the same run.
        """
        end = connection.planned_end
        if end <= at:
            self.engine.call_at(
                end,
                self._on_lifetime_end,
                connection,
                priority=EventPriority.DEPARTURE,
            )
        else:
            self.engine.call_at(
                at,
                self._on_crossing,
                connection,
                transition,
                soft_deadline,
                priority=EventPriority.HANDOFF,
            )

    def _on_crossing(
        self,
        connection: Connection,
        transition: Transition,
        soft_deadline: float | None = None,
    ) -> None:
        new_cell = transition.next_cell
        if new_cell == EXIT_CELL:
            self.exit_road(connection)
            return
        allocation = self.probe_handoff(connection, new_cell)
        if allocation is None and self.config.soft_handoff_window > 0:
            # CDMA soft hand-off (§7): the mobile stays reachable from
            # the old BS inside the overlap region; retry instead of
            # dropping until the window closes.
            now = self.engine.now
            if soft_deadline is None:
                soft_deadline = now + self.config.soft_handoff_window
            retry_at = now + self.config.soft_handoff_retry_interval
            if retry_at <= soft_deadline:
                self._schedule_one(
                    connection, retry_at, transition, soft_deadline
                )
                return
        if self.resolve_handoff(connection, new_cell, allocation):
            self._schedule_next(connection)

    def _on_lifetime_end(self, connection: Connection) -> None:
        self.complete(connection)

    def _on_sample(self) -> None:
        now = self.engine.now
        for station in self.network.stations:
            self.metrics.sample_cell(
                station.cell_id,
                now,
                station.cell.reserved_target,
                station.cell.used_bandwidth,
                station.t_est,
            )
        self.engine.call_at(
            now + self.config.sample_interval,
            self._on_sample,
            priority=EventPriority.MONITOR,
        )

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------
    def _harvest_telemetry(self, wall_seconds: float) -> dict | None:
        """Fold the run's plain-int hot-path counters into the registry.

        Instrumented objects (engine, estimators, cells, stations,
        window controllers) count on cheap attributes during the run;
        one pass here turns them into named telemetry series.  Returns
        the finished snapshot, or ``None`` when telemetry is off.
        """
        tel = self.telemetry
        if not tel.enabled:
            return None
        if wall_seconds > 0:
            tel.gauge("des.events_per_sec").set(
                self.engine.events_processed / wall_seconds
            )
        run_timer = tel.timer("simulation.run")
        run_timer.seconds += wall_seconds
        run_timer.count += 1
        harvest_telemetry(tel, self.engine, self.metrics, self.network)
        return tel.snapshot()

    def _build_result(self, wall_seconds: float) -> SimulationResult:
        config = self.config
        return SimulationResult(
            label=config.label or config.scheme,
            scheme=self.policy.name,
            offered_load=config.offered_load,
            duration=config.duration,
            warmup=config.warmup,
            num_cells=self.topology.num_cells,
            cells=self.metrics.cells,
            statuses=cell_statuses(self.metrics, self.network.stations),
            average_reservation=self.metrics.average_reservation(),
            average_used=self.metrics.average_used(),
            average_calculations=self.metrics.average_calculations(),
            average_messages=self.metrics.average_messages(),
            total_admission_tests=self.metrics.total_admission_tests,
            hourly=self.metrics.hourly_buckets(),
            t_est_traces=self.metrics.t_est_traces,
            reservation_traces=self.metrics.reservation_traces,
            phd_traces=self.metrics.phd_traces,
            events_processed=self.engine.events_processed,
            wall_seconds=wall_seconds,
            run_id=self.run_id,
            telemetry=self._harvest_telemetry(wall_seconds),
            timeseries=(
                self.sampler.series() if self.sampler is not None else None
            ),
            trace_events=self.tracer.events(),
        )


def simulate(config: SimulationConfig, **overrides: object) -> SimulationResult:
    """Build and run a simulator in one call (the main library entry)."""
    return CellularSimulator(config, **overrides).run()  # type: ignore[arg-type]
