"""Session-wide pytest hooks and shared fixtures.

The hooks name the numeric environment in the log: the shuffle orders and
the metrics.csv digests the tests pin are exact for one numpy, its BLAS and
one BLAS thread, so a digest failure is placed by those three.
"""

import os
import threading

import numpy as np
import pytest

from fedsim import federation


@pytest.fixture
def train_calls(monkeypatch):
    """The `local_train` calls rounds make, as (first device id, device
    count, whether the call ran on the thread that ran the round)."""
    calls = []
    original = federation.local_train
    caller = threading.get_ident()

    def recorded(model, shards, *args):
        out = args[-1]  # the call's rows of the model bank
        first = (out.ctypes.data - out.base.ctypes.data) // out.strides[0]
        calls.append((first, len(shards), threading.get_ident() == caller))
        return original(model, shards, *args)

    monkeypatch.setattr(federation, "local_train", recorded)
    return calls


def _environment() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    return (
        f"numpy {np.__version__}, BLAS {blas.get('name', '?')} {blas.get('version', '?')}, "
        f"OPENBLAS_NUM_THREADS={threads}"
    )


def pytest_report_header(config):
    return _environment()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # -q, as CI runs the suite, hides the header
    if config.get_verbosity() < 0:
        terminalreporter.write_line(_environment())
