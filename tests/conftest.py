"""Shared pytest fixtures."""

import gc

import pytest


@pytest.fixture(autouse=True)
def _unfreeze_heap():
    """`otlab.cli.main` freezes the heap of a process about to exit; a test
    that calls it in this process would leave pytest's heap unscanned by
    the collector for the rest of the session."""
    yield
    gc.unfreeze()
