"""Dense complex-Hermitian linear algebra for small matrices.

Everything the interference game needs: eigendecomposition through
LAPACK's Hermitian eigensolver (`numpy.linalg.eigh`), and positive-definite
solves and log-determinants on top of it.  Each public function validates
its input once; the positive-definite ones refuse a smallest eigenvalue at
or below 1e-12 * ||A||_F.
"""

from __future__ import annotations

import math

import numpy as np

_HERM_ATOL = 1e-10
_PD_REL_FLOOR = 1e-12


def _hermitian(a) -> np.ndarray:
    """Complex copy of a square, finite, Hermitian `a`, symmetrized exactly."""
    A = np.asarray(a, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {A.shape}")
    scale = float(np.abs(A).max())
    if not math.isfinite(scale):
        raise ValueError("non-finite entries")
    AH = A.conj().T
    dev = float(np.abs(A - AH).max())
    if dev > _HERM_ATOL * max(1.0, scale):
        raise ValueError(f"matrix is not Hermitian (deviation {dev:.3e})")
    return 0.5 * (A + AH)


def _require_pd(lam: np.ndarray) -> None:
    # ||A||_F is the 2-norm of A's eigenvalues; hypot scales, so it does not
    # underflow to 0 for tiny eigenvalues.
    if lam[0] <= _PD_REL_FLOOR * math.hypot(*lam):
        raise ValueError(f"matrix not positive definite (min eigenvalue {lam[0]:.3e})")


def frobenius_norm(a) -> float:
    """||A||_F, computed with scaling so tiny entries do not underflow."""
    return math.hypot(*np.abs(np.asarray(a, dtype=complex)).ravel())


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary eigenvector matrix U) with
    A = U diag(lam) U^H.  Raises ValueError on non-square, empty,
    non-finite or non-Hermitian input.
    """
    A = _hermitian(a)
    n = A.shape[0]
    if n == 1:
        return np.array([A[0, 0].real]), np.eye(1, dtype=complex)
    if not A.any():
        return np.zeros(n), np.eye(n, dtype=complex)
    lam, U = np.linalg.eigh(A)
    return lam, U


def psd_solve(a, b) -> np.ndarray:
    """Solve A X = B for Hermitian positive-definite A via eigendecomposition."""
    lam, U = herm_eig(a)
    _require_pd(lam)
    Y = U.conj().T @ np.asarray(b, dtype=complex)
    return U @ (Y.T / lam).T


def logdet_psd(a) -> float:
    """Natural-log determinant of a Hermitian positive-definite matrix."""
    lam, _ = herm_eig(a)
    _require_pd(lam)
    return float(np.sum(np.log(lam)))
