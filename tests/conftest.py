"""Shared pytest fixtures for the repro test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils.naming import reset_names


@pytest.fixture(autouse=True)
def _fresh_names():
    """Keep generated symbol names deterministic across tests."""
    reset_names()
    yield
    reset_names()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(seed=12345)


@pytest.fixture
def journal_events(monkeypatch):
    """``("append" | "close", journal)`` for every checkpoint-journal call, in order."""
    from repro.dse.resilience import CheckpointJournal

    events = []
    real_append, real_close = CheckpointJournal.append, CheckpointJournal.close

    def append(self, digest, result):
        events.append(("append", self))
        real_append(self, digest, result)

    def close(self):
        events.append(("close", self))
        real_close(self)

    monkeypatch.setattr(CheckpointJournal, "append", append)
    monkeypatch.setattr(CheckpointJournal, "close", close)
    return events
