"""Shared fixtures."""

import pytest


@pytest.fixture
def block_entries(monkeypatch):
    """A callable that sets ``BLOCK_ENTRIES`` in every module that sizes row
    blocks with it, for the rest of the test."""
    from rowpick import decompose, linalg, sketch

    def set_to(value):
        for module in (linalg, sketch, decompose):
            monkeypatch.setattr(module, "BLOCK_ENTRIES", value)

    return set_to
