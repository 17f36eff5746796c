import numpy as np
import pytest
from scipy.linalg import expm

import qbmlab.gaussian as gaussian_mod
from qbmlab.gaussian import WILLIAMSON_RTOL, CovarianceMatrix, _factor, _scales, take_counts

from oracles import loop_williamson, symplectic_form


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


def assert_pairs_match_loop(stack: np.ndarray) -> dict:
    """gaussian._williamson's pairing of a stack against the pair-by-pair loop (oracles.loop_williamson); returns its counts.

    No fallback, nu and the mixed counts bit for bit, the loop's defects
    within WILLIAMSON_RTOL, the same pairing_repairs; and each matrix's rows
    are orthonormal pairs (a_j, b_j) with K b_j = nu_j a_j, zero past its own.
    """
    take_counts()
    nu, n_mixed, basis = gaussian_mod._williamson(stack, _factor(stack), _scales(stack))
    counts = take_counts()
    nu_o, n_mixed_o, defect_o, repairs_o = loop_williamson(stack)
    assert counts["williamson_fallbacks"] == 0
    assert nu.tobytes() == nu_o.tobytes() and n_mixed.tolist() == n_mixed_o.tolist()
    assert np.all(defect_o[~np.isnan(defect_o)] <= WILLIAMSON_RTOL)
    assert counts["pairing_repairs"] == repairs_o
    _, form, _ = _factor(stack)
    for i, m in enumerate(n_mixed.tolist()):
        rows = basis[i, : 2 * m]
        assert np.max(np.abs(rows @ rows.T - np.eye(2 * m)), initial=0.0) <= WILLIAMSON_RTOL
        image = (form[i] @ rows[1::2].T).T - nu[i, ::-1][:m, None] * rows[0::2]
        assert np.max(np.abs(image), initial=0.0) <= WILLIAMSON_RTOL * nu[i, -1]
        assert not np.any(basis[i, 2 * m :])
    return counts


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
