"""Suite-wide fixtures.

The compiled-simulation engine keeps process-global counters
(:func:`repro.synth.codegen.stats`): compiles, cache hits, fallbacks.
Several suites assert on them (``fallbacks == 0`` is the "codegen never
silently degrades" invariant), which only means anything if each test
observes its *own* activity.  Reset the counters before every test so
assertions never depend on suite order or ``-k`` selections.

Likewise :func:`repro.logutil.configure_logging`, which every in-process
CLI run calls, installs a handler on the ``repro`` logger and stops it
propagating, after which ``caplog`` sees no ``repro`` record.  Each test
gets the logger back as it found it.
"""

import logging

import pytest

from repro import logutil
from repro.synth import codegen


@pytest.fixture(autouse=True)
def _fresh_codegen_stats():
    codegen.reset_stats()
    yield


@pytest.fixture(autouse=True)
def _restore_repro_logger():
    root = logging.getLogger("repro")
    handlers, level = root.handlers[:], root.level
    propagate, configured = root.propagate, logutil._configured
    yield
    root.handlers[:] = handlers
    root.setLevel(level)  # also drops the loggers' cached level checks
    root.propagate = propagate
    logutil._configured = configured
