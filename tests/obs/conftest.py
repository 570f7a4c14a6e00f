"""Isolate the module-level logging state between tests.

:mod:`repro.obs.logs` keeps module singletons (the installed handler,
the configured flag, the current run id) because Python's logging
handlers are process-global; tests here mutate them freely, so save and
restore around every test to keep the rest of the suite unaffected.
"""

import logging

import pytest

import repro.obs.logs as logs_module


@pytest.fixture(autouse=True)
def _isolate_obs_state():
    root = logging.getLogger("repro")
    saved_logs = (
        logs_module._handler,
        logs_module._configured,
        logs_module._current_run_id,
    )
    saved_root = (root.level, root.propagate, list(root.handlers))
    manager = logging.Logger.manager
    saved_levels = {
        name: logger.level
        for name, logger in manager.loggerDict.items()
        if name.startswith("repro.") and isinstance(logger, logging.Logger)
    }
    yield
    # Per-subsystem overrides installed by configure_logging during the
    # test: restore pre-test levels, clear loggers created by the test.
    for name, logger in list(manager.loggerDict.items()):
        if name.startswith("repro.") and isinstance(logger, logging.Logger):
            logger.setLevel(saved_levels.get(name, logging.NOTSET))
    (
        logs_module._handler,
        logs_module._configured,
        logs_module._current_run_id,
    ) = saved_logs
    root.setLevel(saved_root[0])
    root.propagate = saved_root[1]
    root.handlers = saved_root[2]
