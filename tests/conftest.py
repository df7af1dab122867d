"""Shared pytest fixtures for the MPF reproduction test suite."""

from __future__ import annotations

import contextlib

import pytest

from repro.core import chains, ops
from repro.testing import DirectRunner, make_view


@pytest.fixture
def view():
    """A freshly formatted small segment."""
    return make_view()


@pytest.fixture
def runner(view):
    """A :class:`repro.testing.DirectRunner` over the ``view`` fixture."""
    return DirectRunner(view)


@pytest.fixture
def poll_loop(monkeypatch):
    """``with poll_loop():`` runs every poll wait through
    :func:`repro.core.ops.poll_receive`'s per-check loop, even on an
    engine-driven view: no section is built, which is the route a ring
    circuit takes.  The section-vs-loop identity tests compare against
    it inside one run."""

    @contextlib.contextmanager
    def loop():
        with monkeypatch.context() as patch:
            patch.setattr(ops, "_make_poll_section", lambda *args: None)
            yield

    return loop


@pytest.fixture
def python_chains(monkeypatch):
    """Every block-chain walk and lock section of the message path on
    the Python reference kernels (:data:`repro.core.chains.PYTHON`),
    whichever set this host built."""
    monkeypatch.setattr(chains, "ACTIVE", chains.PYTHON)
    return chains.PYTHON
