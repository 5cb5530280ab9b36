import dataclasses

import pytest

from ammhedge import get_preset


def scaled(scn, n_paths):
    return dataclasses.replace(scn, sim=dataclasses.replace(scn.sim, n_paths=n_paths))


@pytest.fixture(scope="session")
def baseline():
    return get_preset("baseline")

