"""Dense complex-Hermitian linear algebra for small matrices, or stacks of them.

Everything the interference game needs: eigendecomposition through LAPACK's
Hermitian eigensolver (`numpy.linalg.eigh`), and positive-definite solves and
log-determinants on top of it.  Each public function takes a matrix or a
(..., n, n) stack, makes one LAPACK call and validates each matrix once (the
positive-definite ones refuse a smallest eigenvalue at or below 1e-12 ||A||_F);
a stack member equals the one-matrix call bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_HERM_ATOL = 1e-10
_PD_REL_FLOOR = 1e-12


def conj_t(a: np.ndarray) -> np.ndarray:
    """A^H of every matrix of a stack (the last two axes)."""
    return np.conj(a).swapaxes(-1, -2)


class IllConditioned(ValueError):
    """A matrix too near singular: its least eigenvalue at the positive-definite floor, or past a cond guard."""


def _require_pd(lam: np.ndarray, scale=1.0) -> None:
    # ||A||_F is the 2-norm of the eigenvalues (hypot does not underflow); `scale` lowers the floor.
    low = lam[..., 0]
    bad = low <= _PD_REL_FLOOR * scale * np.hypot.reduce(lam, axis=-1)
    if bad.any():
        raise IllConditioned(f"matrix not positive definite (min eigenvalue {low[bad].min():.3e})")


def herm_eig(a) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition A = U diag(lam) U^H of a Hermitian matrix or of each of a stack.

    Returns (eigenvalues ascending, unitary U), shaped (..., n) and (..., n, n).
    Raises ValueError on non-square, empty, non-finite or non-Hermitian input."""
    A = np.asarray(a, dtype=complex)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2] or A.size == 0:
        raise ValueError(f"expected non-empty square matrices, got shape {A.shape}")
    absA = np.abs(A)  # one pass: finiteness, then each matrix's tolerance when needed
    if not math.isfinite(absA.max()):
        raise ValueError("non-finite entries")
    AH = conj_t(A)
    dev = np.abs(A - AH)
    worst = dev.max()
    if not worst <= _HERM_ATOL:  # else every matrix is within its own tolerance
        dev = dev.max(axis=(-2, -1))
        bad = dev > _HERM_ATOL * np.maximum(absA.max(axis=(-2, -1)), 1.0)
        if bad.any():
            raise ValueError(f"matrix is not Hermitian (deviation {dev[bad].max():.3e})")
    if worst:  # symmetrized exactly; an exactly Hermitian A is its own symmetrization
        A = 0.5 * (A + AH)
    if A.shape[-1] == 1:
        return A[..., 0].real.copy(), np.ones(A.shape, dtype=complex)
    return np.linalg.eigh(A)  # exactly (0, I) for an all-zero matrix


def psd_solve(a, b) -> np.ndarray:
    """Solve A X = B, B (..., n, p) or (n,), for Hermitian positive-definite A (or a stack)."""
    lam, U = herm_eig(a)
    _require_pd(lam)
    B = np.asarray(b, dtype=complex)
    Y = conj_t(U) @ (B[:, None] if B.ndim == 1 else B)
    X = U @ (Y / lam[..., :, None])
    return X[..., 0] if B.ndim == 1 else X


def logdet_psd(a):
    """Natural-log determinant of a Hermitian positive-definite matrix (float), or of a stack."""
    lam, _ = herm_eig(a)
    _require_pd(lam)
    out = np.log(lam).sum(axis=-1)
    return float(out) if out.ndim == 0 else out
