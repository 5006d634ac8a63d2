import os
from pathlib import Path

import pytest

import revfree
from revfree import (
    field_make,
    incidence_matrix,
    lift_code,
    plane_build,
    plane_permutation_code,
)


@pytest.fixture(scope="session", autouse=True)
def revfree_on_child_path():
    """Child interpreters started by the tests import the same revfree."""
    root = str(Path(revfree.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        paths = [root, os.environ.get("PYTHONPATH")]
        mp.setenv("PYTHONPATH", os.pathsep.join(filter(None, paths)))
        yield


@pytest.fixture(scope="session")
def fano_plane():
    return plane_build(field_make(2, 1))


@pytest.fixture(scope="session")
def fano_incidence(fano_plane):
    return incidence_matrix(fano_plane)


@pytest.fixture(scope="session")
def fano_code24(fano_incidence):
    return plane_permutation_code(fano_incidence)


@pytest.fixture(scope="session")
def lifted_fano_code(fano_code24):
    return lift_code(fano_code24, 14)
