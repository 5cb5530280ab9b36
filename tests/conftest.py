import dataclasses
import os

import numpy as np
import pytest

import ammhedge.montecarlo as mc
from ammhedge import get_preset


def scaled(scn, n_paths):
    return dataclasses.replace(scn, sim=dataclasses.replace(scn.sim, n_paths=n_paths))


def streamed_paths(market, jump, horizon_days, dt_days, n_paths, seed, n_workers):
    """The paths as the streamed runs draw them: the blocks of mc._path_blocks
    at n_workers, stacked, to hold against mc.generate_path_matrix."""
    blocks = list(mc._path_blocks(market, jump, horizon_days, dt_days, n_paths, seed,
                                  task=lambda lo, a, b: (a, b), n_workers=n_workers))
    return np.concatenate([a for a, _ in blocks]), np.concatenate([b for _, b in blocks])


@pytest.fixture(scope="session")
def baseline():
    return get_preset("baseline")


@pytest.fixture
def two_cpus(monkeypatch):
    # two usable CPUs, so two workers start two processes on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
