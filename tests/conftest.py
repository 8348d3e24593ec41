import time

import pytest

import payload_sums


@pytest.fixture(scope="session")
def criterion_9_runs():
    """Two runs of criterion 9's small-config payloads, and their time."""
    t0 = time.perf_counter()
    runs = [payload_sums.payloads() for _ in range(2)]
    return runs, time.perf_counter() - t0
