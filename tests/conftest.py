import dataclasses
import os

import pytest

from ammhedge import get_preset


def scaled(scn, n_paths):
    return dataclasses.replace(scn, sim=dataclasses.replace(scn.sim, n_paths=n_paths))


@pytest.fixture(scope="session")
def baseline():
    return get_preset("baseline")


@pytest.fixture
def two_cpus(monkeypatch):
    # two usable CPUs, so two workers start two processes on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
