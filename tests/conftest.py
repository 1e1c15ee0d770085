import os
import pathlib

import numpy as np
import pytest

import ptmatrix as pt

from _seeds import UNBROKEN_SEEDS

# pytest finds the package through pythonpath = ["src"] (pyproject.toml); the
# tests that start `python -m ptmatrix.cli` in a subprocess need it too
_SRC = str(pathlib.Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC] + [x for x in os.environ.get("PYTHONPATH", "").split(os.pathsep) if x and x != _SRC]
)


def unbroken_system(dim: int, m_plus: int, m_minus: int, index: int) -> pt.PTSystem:
    """Seeded random system known (and re-verified) to be unbroken."""
    seed = UNBROKEN_SEEDS[(dim, m_plus, m_minus)][index]
    sys = pt.random_pt_system(dim, (m_plus, m_minus), seed)
    data = pt.classify_phase(sys)
    assert data.phase is pt.Phase.UNBROKEN, (dim, m_plus, m_minus, seed)
    return sys


def unbroken_systems(dim: int, m_plus: int, m_minus: int, count: int):
    seeds = UNBROKEN_SEEDS[(dim, m_plus, m_minus)]
    assert len(seeds) >= count, f"seed list too short for {(dim, m_plus, m_minus)}"
    for i in range(count):
        yield unbroken_system(dim, m_plus, m_minus, i)


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)
