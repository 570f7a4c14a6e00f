"""Live admission-control serving: the paper's loop as an online service.

The DES reproduction exercises the estimator/reservation/admission core
(Eq. 4/5/6, AC1–AC3) in virtual time.  This package runs the *same*
core — same :class:`~repro.cellular.network.CellularNetwork`, same
policies, same coalesced-tick flush path — against externally supplied
timestamped events:

* :mod:`repro.serve.clock` — the clock abstraction: virtual (heap
  driven, today's DES) vs wall (stream seconds mapped from
  ``perf_counter``).
* :mod:`repro.serve.events` — the replayable event-stream format plus
  the simulator-side recorder that captures one (parity proof).
* :mod:`repro.serve.driver` — :class:`StreamDriver`, the synchronous
  core: apply arrival/hand-off/departure events in timestamp order and
  get back the exact decisions the DES simulator would have made.
* :mod:`repro.serve.service` — :class:`AdmissionService`, the live
  façade: a group of events applied by one call under a latency
  budget, periodic checkpoints, telemetry.
* :mod:`repro.serve.ws` — a stdlib RFC 6455 WebSocket server/client
  streaming the same JSONL time-series rows ``repro dash`` tails.
"""

from repro.serve.clock import StreamClock, VirtualClock, WallClock
from repro.serve.driver import (
    Decision,
    StreamDriver,
    comparable_counters,
    warm_start,
)
from repro.serve.events import (
    RunRecorder,
    StreamEvent,
    decode_event,
    encode_event,
    record_run,
)
from repro.serve.service import AdmissionService, BroadcastStream, ServiceFailed

__all__ = [
    "AdmissionService",
    "BroadcastStream",
    "Decision",
    "RunRecorder",
    "ServiceFailed",
    "StreamClock",
    "StreamDriver",
    "StreamEvent",
    "VirtualClock",
    "WallClock",
    "comparable_counters",
    "decode_event",
    "encode_event",
    "record_run",
    "warm_start",
]
