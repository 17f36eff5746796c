import numpy as np
import pytest
from scipy.linalg import expm

from qbmlab.gaussian import CovarianceMatrix

from oracles import symplectic_form


def random_symplectic(rng: np.random.Generator, n_modes: int, scale: float = 0.7) -> np.ndarray:
    """Symplectic matrix expm(Omega H) from a random quadratic Hamiltonian H."""
    h = rng.standard_normal((2 * n_modes, 2 * n_modes))
    h = 0.5 * (h + h.T) * scale
    return expm(symplectic_form(n_modes) @ h)


def random_state(rng: np.random.Generator, n_modes: int, pure: bool = False) -> CovarianceMatrix:
    """Random valid Gaussian state: symplectic conjugation of a thermal state."""
    if pure:
        nus = np.full(n_modes, 0.5)
    else:
        nus = 0.5 + rng.uniform(0.0, 2.0, size=n_modes)
    diag = np.repeat(nus, 2)
    t = random_symplectic(rng, n_modes)
    return CovarianceMatrix(t @ np.diag(diag) @ t.T)


def two_mode_squeezed(s: float) -> CovarianceMatrix:
    """Two-mode squeezed vacuum; PT symplectic spectrum is exp(-+2s)/2."""
    c = 0.5 * np.cosh(2 * s)
    q = 0.5 * np.sinh(2 * s)
    data = np.array(
        [
            [c, 0.0, q, 0.0],
            [0.0, c, 0.0, -q],
            [q, 0.0, c, 0.0],
            [0.0, -q, 0.0, c],
        ]
    )
    return CovarianceMatrix(data)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
