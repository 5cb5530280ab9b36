import dataclasses
import os

import numpy as np
import pytest

import ammhedge.montecarlo as mc
from ammhedge import PositionParams, RateParams, SimConfig, get_preset


def scaled(scn, n_paths):
    return dataclasses.replace(scn, sim=dataclasses.replace(scn.sim, n_paths=n_paths))


def _steps(horizon_days, dt_days):
    """The step count of the grid, as mc._pass_record works it out for a run."""
    return mc._pass_record(RateParams(), PositionParams(horizon_days=horizon_days),
                           SimConfig(dt_days=dt_days)).steps


def generate_path_matrix(market, jump, horizon_days, dt_days, n_paths, seed):
    """All paths as two (n_paths, steps+1) column-major arrays of price
    relatives: mc._generate_block per block of mc.BLOCK paths, drawn in this
    process and stacked. The whole-matrix reference that the streamed runs
    are held to.

    Column-major, each step's prices across all paths are contiguous: the
    accounting loop reads one column per step.
    """
    steps = _steps(horizon_days, dt_days)
    rel_a = np.empty((n_paths, steps + 1), order="F")
    rel_b = np.empty((n_paths, steps + 1), order="F")
    for bi, lo in enumerate(range(0, n_paths, mc.BLOCK)):
        rel_a[lo:lo + mc.BLOCK], rel_b[lo:lo + mc.BLOCK] = mc._generate_block(
            market, jump, steps, dt_days, seed, bi, min(mc.BLOCK, n_paths - lo))
    return rel_a, rel_b


def streamed_paths(market, jump, horizon_days, dt_days, n_paths, seed, n_workers):
    """The paths as the streamed runs draw them: the blocks of mc._path_blocks
    at n_workers, stacked, to hold against generate_path_matrix."""
    steps = _steps(horizon_days, dt_days)
    blocks = list(mc._path_blocks(market, jump, steps, dt_days, n_paths, seed,
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
