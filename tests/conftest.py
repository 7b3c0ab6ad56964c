"""Shared fixtures for the CCAL reproduction test suite."""

from __future__ import annotations

import os

import pytest

from repro.core import (
    Event,
    Guarantee,
    LayerInterface,
    Rely,
    shared_prim,
    simple_event_prim,
)
from repro.machine import lx86_interface
from repro.objects.sched import CpuMap
from repro.objects.ticket_lock import lock_guarantee, lock_rely


DOMAIN = [1, 2]
LOCK = "q0"

#: When set to a directory, the whole pytest run is observed and its
#: JSONL event stream + Chrome trace are written there at session end.
#: CI sets this so failing runs upload the artifacts for diagnosis.
CAPTURE_ENV = "REPRO_OBS_CAPTURE"


def pytest_configure(config):
    if os.environ.get(CAPTURE_ENV):
        from repro import obs

        obs.enable()


def pytest_sessionfinish(session, exitstatus):
    capture_dir = os.environ.get(CAPTURE_ENV)
    if not capture_dir:
        return
    from repro import obs

    os.makedirs(capture_dir, exist_ok=True)
    obs.write_jsonl(os.path.join(capture_dir, "events.jsonl"))
    obs.write_chrome_trace(os.path.join(capture_dir, "trace.json"))
    obs.write_collapsed(os.path.join(capture_dir, "session.collapsed"))
    obs.write_speedscope(
        os.path.join(capture_dir, "session.speedscope.json"), "pytest session"
    )


@pytest.fixture
def obs_off():
    """Run the test with observability off, then resume a session capture.

    The byte-identity contract covers obs-off certificates.  Obs-on ones
    carry provenance that legitimately differs between the runs a test
    compares: worker count, wall time, cache hit or miss.
    """
    from repro import obs

    obs.disable()
    yield
    if os.environ.get(CAPTURE_ENV):
        obs.enable(reset=False)


@pytest.fixture
def lock_base():
    """``Lx86`` over two CPUs with the ticket-lock rely/guarantee."""
    return lx86_interface(
        DOMAIN,
        rely=lock_rely(DOMAIN, [LOCK]),
        guar=lock_guarantee(DOMAIN, [LOCK]),
    )


@pytest.fixture
def plain_base():
    """``Lx86`` over two CPUs with trivial rely/guarantee."""
    return lx86_interface(DOMAIN)


@pytest.fixture
def toy_interface():
    """A tiny interface with one shared event primitive ``ping``."""
    return LayerInterface(
        "Toy",
        DOMAIN,
        {"ping": simple_event_prim("ping")},
    )


@pytest.fixture
def single_cpu_threads():
    """Three threads on one CPU, thread 1 running."""
    return CpuMap({1: 0, 2: 0, 3: 0}), {0: 1}


@pytest.fixture
def dual_cpu_threads():
    """Two threads on each of two CPUs."""
    return CpuMap({1: 0, 2: 0, 3: 1, 4: 1}), {0: 1, 1: 3}
