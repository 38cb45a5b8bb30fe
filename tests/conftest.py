"""Shared fixtures."""

import pytest


@pytest.fixture
def block_entries(monkeypatch):
    """A callable that sets ``BLOCK_ENTRIES`` in every module that sizes row
    blocks or the samplers' state stores with it, for the rest of the
    test."""
    from rowpick import decompose, linalg, samplers, sketch

    def set_to(value):
        for module in (linalg, sketch, decompose, samplers):
            monkeypatch.setattr(module, "BLOCK_ENTRIES", value)

    return set_to
