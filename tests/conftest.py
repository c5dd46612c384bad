import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(__file__))

from gmnslab import spectral as sp


@pytest.fixture(scope="session")
def basis1():
    return sp.build_basis(1)


@pytest.fixture(scope="session")
def basis2():
    return sp.build_basis(2)


@pytest.fixture(scope="session")
def basis3():
    return sp.build_basis(3)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def single_mode_field(basis, k, pol=0, coeff=1.0 + 0.0j):
    """Field with one (mode, polarization) coefficient set."""
    idx = int(np.where((basis.modes == k).all(axis=1))[0][0])
    c = np.zeros((basis.n_half_modes, 2), dtype=np.complex128)
    c[idx, pol] = coeff
    return sp.SpectralField(basis, c), idx
