"""Shared fixtures."""

import pytest

from repro.mmu import array_engine


@pytest.fixture
def batch_every_segment(monkeypatch):
    """Lift the array engine's batch floor, so every segment an
    array-engine algorithm serves is offered to its batch kernel, however
    short (e.g. a 53-access multi-tenant quantum). Returns the list of
    offers, ``True`` for each segment the kernel served."""
    offers = []
    real_try = array_engine.try_run

    def spy(mm, segment):
        ledger = real_try(mm, segment)
        offers.append(ledger is not None)
        return ledger

    monkeypatch.setattr(array_engine, "_batch_floor", lambda mm: 0)
    monkeypatch.setattr(array_engine, "try_run", spy)
    return offers
