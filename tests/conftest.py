import numpy as np
import pytest

from g4motions import catalog, checks, mechanics
from g4motions.catalog import GroupId
from g4motions.geometry import SampleCloud

N_POINTS = 200
SEED = 42


@pytest.fixture(scope="session")
def models():
    """One default-parameter model per catalog entry."""
    return {gid: catalog.get_group(gid) for gid in GroupId}


@pytest.fixture(scope="session")
def samples(models):
    """Seeded (points, momenta) per entry, shared across the suite."""
    out = {}
    for gid, model in models.items():
        out[gid] = mechanics.sample_phase_points(model, N_POINTS, SEED)
    return out


@pytest.fixture(scope="session")
def clouds(models, samples):
    """One sample cloud per entry over the shared (points, momenta)."""
    return {gid: SampleCloud(models[gid], *samples[gid]) for gid in GroupId}


@pytest.fixture(scope="session")
def tol():
    return checks.ToleranceConfig()
