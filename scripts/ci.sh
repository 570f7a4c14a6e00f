#!/bin/sh
# CI gate: tier-1 test suite, the kernel matrix, the benchmark harness's
# own checks, and the end-to-end smokes.
# Run from the repository root:  sh scripts/ci.sh
set -e

cd "$(dirname "$0")/.."

echo "== tier-1 tests =="
# Includes the one-pending-event invariant
# (tests/simulation/test_one_pending_event.py): both DES drivers keep
# one heap entry per connection — and the serve driver's heap holds its
# monitor event across a checkpoint (tests/serve/test_service.py).
# The suite's wall time is one of the end-to-end numbers (ROADMAP aim
# 1): --durations prints where it goes, the last line how long it took.
TIER1_START=$(date +%s)
PYTHONPATH=src python -m pytest -x -q --durations=15
echo "tier-1 wall: $(( $(date +%s) - TIER1_START )) s"

echo "== kernel matrix =="
# The kernel selects one thing, the Naghshineh-Schwartz convolution
# backend, and both backends must be bit-identical: the suites that
# reach it (its one caller is core/related.py) re-run under each forced
# backend.  The other suites below never reach the kernel or set every
# available backend themselves.  The resident Eq. 5 walk needs no
# numpy; all of them re-run once more where numpy cannot be imported
# at all (REPRO_KERNEL=python still imports it, and the numpy-free
# install is the reason the python kernel exists).
CONVOLUTION_TESTS="tests/properties/test_convolution_parity.py \
    tests/core/test_related.py"
KERNEL_TESTS="tests/properties/test_kernel_backend_parity.py \
    tests/properties/test_reservation_table_properties.py \
    tests/properties/test_admission_properties.py \
    tests/properties/test_convolution_parity.py \
    tests/cellular/test_reservation_cache.py \
    tests/cellular/test_reservation_group.py tests/estimation \
    tests/simulation/test_columnar.py tests/simulation/test_spatial.py"
for KERNEL in python numpy; do
    echo "-- REPRO_KERNEL=$KERNEL --"
    REPRO_KERNEL=$KERNEL PYTHONPATH=src python -m pytest -x -q $CONVOLUTION_TESTS
done
echo "-- numpy blocked --"
PYTHONPATH=src python scripts/pytest_without_numpy.py -x -q $KERNEL_TESTS

echo "== benchmark harness =="
# bench/ drives the program through named seams and pins result
# digests; a renamed seam or a moved digest must fail here, not in the
# benchmark pipeline.  --smoke sizes are not comparable with anything.
python -m pytest bench/test_bench.py -q
python3 bench/run.py --all --smoke
python3 bench/run.py --workload ring_ac3 --smoke --trace 1
python3 bench/run.py --workload ring_static --smoke --trace 1
python3 bench/run.py --workload hex_city --smoke --trace 1
python3 bench/run.py --workload serve_static_ws --smoke --trace 1

echo "== telemetry smoke =="
PYTHONPATH=src python scripts/telemetry_smoke.py

echo "== state smoke =="
# Durable state store: corruption must fail `state inspect`,
# save -> load -> run must be bit-identical to the straight run (once
# with T_int = inf, once with T_int = 120 s and N_quad = 40, so the
# windowed quadruplet columns are restored too), the
# CLI's --telemetry-json must export state.save and state.load, and a
# sharded `repro campaign` must leave verifiable days it then reuses.
PYTHONPATH=src python scripts/state_smoke.py

echo "== lifetime smoke =="
# A finished run is freed by reference counting: 30 back-to-back ring
# runs (AC3 and static alternating) with the cycle collector off must
# not grow the peak RSS by more than 2 MB from run 10 to run 30.  The
# code before the engine held its owner weakly and before stations
# dropped their network back-reference grew 11 MB and fails here.
PYTHONPATH=src python scripts/lifetime_smoke.py

echo "== serve smoke =="
# Live admission service: WebSocket decision round-trip, a 200-frame
# pipelined burst with a malformed frame, a duplicate-`conn` admit, a
# whitespace-padded admit and an admit with trailing data in it
# (in-order replies, three errors, connection kept, nothing attached
# for the duplicate, the padded admit decided and the trailing data
# refused with `json.loads`' own `Extra data` error: the parser's
# fallback past the bare scan), a fractional cell id refused, a binary frame
# closed with 1003, a well-formed streamed series frame, a second
# connection answered mid-burst, the exact decision count, and a clean
# shutdown; then the journal of a `repro run --scheme static
# --trace-jsonl` ring, sent stamped over one WebSocket to a fresh
# wall-clock service of the same scenario, must get every recorded
# decision back.
PYTHONPATH=src python scripts/serve_smoke.py

echo "== spatial smoke =="
# City-scale spatial sharding: a 2-shard process run must merge to the
# same metrics_key() as the single-shard in-process run, and with its
# telemetry on, no supplier may leave the resident Eq. 5 walk for the
# snapshot walk (cellular.tick_suppliers{path="fallback"} stays 0).
PYTHONPATH=src python scripts/spatial_smoke.py

echo "CI OK"
