"""Each subcommand's option set, pinned.

A flag that appears or disappears here changes what a command line
means, so it must be a deliberate edit of this table, never a side
effect of sharing an argument group.
"""

import argparse

from repro.cli import build_parser

HELP = {"-h", "--help"}
SCENARIO = {
    "--scheme", "--load", "--rvo", "--duration", "--warmup", "--seed",
    "--cells", "--guard", "--low-mobility", "--one-way", "--adaptive-qos",
    "--soft-handoff", "--overload", "--kernel",
}  # fmt: skip
SPATIAL = {"--shards", "--hex", "--epoch", "--hotspots"}
LOGGING = {"--telemetry", "--log-level", "--log-json", "--series",
           "--series-wall"}  # fmt: skip
EXPORTS = {"--prom-out", "--telemetry-json", "--trace-out"}
STREAM = {"--progress", "--series-out"}
CHECKPOINTS = {"--load-state", "--checkpoint-every", "--checkpoint-dir",
               "--checkpoint-keep"}  # fmt: skip

PINNED = {
    "": HELP,
    "run": HELP | SCENARIO | SPATIAL | LOGGING | EXPORTS | STREAM
    | CHECKPOINTS
    | {"--save-state", "--trace-jsonl", "--replications", "--ci-level",
       "--workers"},
    "sweep": HELP | SCENARIO | LOGGING | EXPORTS | STREAM
    | {"--loads", "--workers"},
    "experiment": HELP | {"--duration"},
    "list-experiments": HELP,
    # No exports: a campaign reports per day in its JSONL.
    "campaign": HELP | SCENARIO | SPATIAL | LOGGING | STREAM
    | {"--days", "--state-dir", "--jsonl", "--day-seconds",
       "--fresh-windows"},
    "dash": HELP | {"--refresh", "--once", "--timeout"},
    # No stream file or heartbeat: 'repro dash ws://...' tails a service.
    "serve": HELP | SCENARIO | LOGGING | EXPORTS | CHECKPOINTS
    | {"--host", "--port", "--budget-ms", "--time-scale", "--run-for"},
    "state": HELP,
    "state inspect": HELP,
}  # fmt: skip


def _option_sets(parser, prefix=""):
    found = {
        prefix: {
            option for action in parser._actions
            for option in action.option_strings
        }
    }  # fmt: skip
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_option_sets(sub, f"{prefix} {name}".strip()))
    return found


def test_every_subcommand_accepts_exactly_its_pinned_options():
    found = _option_sets(build_parser())
    assert sorted(found) == sorted(PINNED)
    for command, options in PINNED.items():
        assert found[command] == options, command
