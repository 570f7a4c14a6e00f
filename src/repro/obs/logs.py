"""Structured logging for simulation runs.

Every ``repro`` subsystem logs through the stdlib under the ``repro.*``
namespace (``repro.kernel`` already did; ``repro.engine``,
``repro.window``, ``repro.progress``, ``repro.trace`` join it here).
This module adds:

* a **JSONL formatter** — one JSON object per line with timestamp,
  level, logger, message, the current ``run_id``, and any structured
  ``extra=`` fields the call site attached;
* **per-subsystem levels** — a level spec like
  ``"info,des=debug,repro.estimation=warning"`` sets the root
  ``repro`` level and per-logger overrides (bare names are shorthand
  for ``repro.<name>``);
* **environment plumbing** — ``REPRO_LOG`` holds a level spec and
  ``REPRO_LOG_JSON=1`` switches to JSONL, so library users get
  structured logs without touching the CLI (the simulator calls
  :func:`ensure_configured` once per construction).

The CLI flags ``--log-level`` / ``--log-json`` route through
:func:`configure_logging`.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from typing import Mapping, TextIO

__all__ = [
    "JsonLineFormatter",
    "configure_logging",
    "current_run_id",
    "ensure_configured",
    "get_logger",
    "parse_level_spec",
    "set_run_id",
]

#: LogRecord attributes that are plumbing, not user-attached structure.
_RECORD_FIELDS = frozenset(
    logging.LogRecord(
        "", logging.INFO, "", 0, "", (), None
    ).__dict__
) | {"message", "asctime", "taskName"}

_current_run_id = ""
_handler: logging.Handler | None = None
_configured = False


def set_run_id(run_id: str) -> None:
    """Set the run id stamped onto subsequent log lines (per process)."""
    global _current_run_id
    _current_run_id = run_id


def current_run_id() -> str:
    return _current_run_id


def get_logger(subsystem: str) -> logging.Logger:
    """The logger of one subsystem (``repro.<subsystem>``)."""
    if subsystem.startswith("repro"):
        return logging.getLogger(subsystem)
    return logging.getLogger(f"repro.{subsystem}")


class JsonLineFormatter(logging.Formatter):
    """One JSON object per record; ``extra=`` fields pass through."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, object] = {
            "ts": round(record.created, 6),
            "level": record.levelname.lower(),
            "logger": record.name,
            "msg": record.getMessage(),
        }
        if _current_run_id:
            payload["run_id"] = _current_run_id
        for key, value in record.__dict__.items():
            if key not in _RECORD_FIELDS and not key.startswith("_"):
                payload[key] = value
        if record.exc_info:
            payload["exc"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str)


class _HumanFormatter(logging.Formatter):
    """Compact human format; structured extras rendered as k=v pairs."""

    def format(self, record: logging.LogRecord) -> str:
        stamp = time.strftime("%H:%M:%S", time.localtime(record.created))
        extras = " ".join(
            f"{key}={value}"
            for key, value in record.__dict__.items()
            if key not in _RECORD_FIELDS and not key.startswith("_")
        )
        line = (
            f"{stamp} {record.levelname.lower():<7} {record.name}"
            f" {record.getMessage()}"
        )
        if extras:
            line = f"{line} [{extras}]"
        if record.exc_info:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


def parse_level_spec(
    spec: str,
) -> tuple[int, dict[str, int]]:
    """Parse ``"info,des=debug,..."`` into a root level plus overrides.

    The first bare entry (no ``=``) is the root ``repro`` level;
    ``name=level`` entries override individual subsystem loggers.
    Unknown level names raise ``ValueError``.
    """
    root = logging.INFO
    overrides: dict[str, int] = {}
    for piece in spec.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" in piece:
            name, _, level_name = piece.partition("=")
            name = name.strip()
            if not name.startswith("repro"):
                name = f"repro.{name}"
            overrides[name] = _level(level_name.strip())
        else:
            root = _level(piece)
    return root, overrides


def _level(name: str) -> int:
    resolved = logging.getLevelName(name.upper())
    if not isinstance(resolved, int):
        raise ValueError(f"unknown log level {name!r}")
    return resolved


def configure_logging(
    spec: str | None = None,
    json_lines: bool | None = None,
    stream: TextIO | None = None,
    subsystem_levels: Mapping[str, int] | None = None,
) -> None:
    """(Re)configure the ``repro`` logging tree.

    Parameters
    ----------
    spec:
        Level spec (see :func:`parse_level_spec`); ``None`` falls back
        to ``REPRO_LOG`` and then to ``"info"``.
    json_lines:
        Emit JSONL instead of the human format; ``None`` falls back to
        ``REPRO_LOG_JSON``.
    stream:
        Destination (default ``sys.stderr``).
    subsystem_levels:
        Extra per-logger overrides, merged over the spec's.

    Idempotent: re-running replaces the handler installed by the
    previous call instead of stacking another one.
    """
    global _handler, _configured
    if spec is None:
        spec = os.environ.get("REPRO_LOG") or "info"
    if json_lines is None:
        json_lines = os.environ.get(
            "REPRO_LOG_JSON", ""
        ).strip().lower() in ("1", "true", "on", "yes")
    root_level, overrides = parse_level_spec(spec)
    if subsystem_levels:
        overrides.update(subsystem_levels)
    root = logging.getLogger("repro")
    if _handler is not None:
        root.removeHandler(_handler)
    _handler = logging.StreamHandler(stream or sys.stderr)
    _handler.setFormatter(
        JsonLineFormatter() if json_lines else _HumanFormatter()
    )
    root.addHandler(_handler)
    root.setLevel(root_level)
    root.propagate = False
    for name, level in overrides.items():
        logging.getLogger(name).setLevel(level)
    _configured = True


def ensure_configured() -> None:
    """Configure once from the environment, if the env asks for logs.

    Called by the simulator at construction: library users who set
    ``REPRO_LOG``/``REPRO_LOG_JSON`` get output without any CLI; users
    who set neither keep the stdlib default (silence below WARNING).
    """
    if _configured:
        return
    if os.environ.get("REPRO_LOG") or os.environ.get("REPRO_LOG_JSON"):
        configure_logging()
