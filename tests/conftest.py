"""Fixtures shared by the test modules."""

import pytest

from tracekit import linop


@pytest.fixture
def band_workers(monkeypatch):
    """force(n): a fresh band pool of n threads, whatever the machine's
    CPUs, shut down after the test."""

    def force(workers):
        monkeypatch.setattr(linop, "_cpu_count", lambda: workers + 1)
        monkeypatch.setattr(linop, "_pool", (None, 0, None))

    yield force
    if linop._pool[2] is not None:
        linop._pool[2].shutdown()
