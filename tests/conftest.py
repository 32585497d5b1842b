"""Session-wide pytest hooks: name the numeric environment in the log.

The shuffle orders and the metrics.csv digests the tests pin are exact for
one numpy, its BLAS and one BLAS thread, so a digest failure is placed by
those three.
"""

import os

import numpy as np


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
