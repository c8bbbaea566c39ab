"""pytest hooks shared by the radarmon tests: every log names the NN engine configuration that ran."""

import os

from radarmon import nn


def _engine() -> str:
    blas = ", ".join(f"{v}={os.environ.get(v, '(unset)')}" for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"))
    return f"radarmon nn engine: {nn._WORKERS} worker thread(s); {blas}"


def pytest_report_header(config):
    return _engine()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if config.get_verbosity() < 0:  # -q leaves the header out
        terminalreporter.write_line(_engine())
