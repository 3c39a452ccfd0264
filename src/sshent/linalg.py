"""Real-symmetric eigendecomposition with validated inputs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SYMMETRY_RTOL = 1e-12


class NumericalError(ValueError):
    """A computation failed or produced values its invariants rule out.

    Subclasses ``ValueError`` so callers that reject bad input and bad
    numerics alike keep working; the CLI tells the two apart (exit 2).
    """


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def residual(self, matrix: np.ndarray) -> float:
        """Max-norm residual ``|A v - lambda v|`` over all pairs."""
        r = matrix @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.max(np.abs(r)))

    def orthonormality_defect(self) -> float:
        v = self.eigenvectors
        g = v.T @ v - np.eye(v.shape[1])
        return float(np.max(np.abs(g)))


def eigh_symmetric(matrix: np.ndarray) -> EigenSystem:
    """Diagonalize a real symmetric matrix.

    Rejects inputs whose asymmetry exceeds ``SYMMETRY_RTOL`` relative to the
    max-norm; the symmetric part is what gets diagonalized.  Non-convergence
    of the underlying solver is re-raised as ``NumericalError`` with the
    matrix scale attached.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(float(np.max(np.abs(a))), 1.0)
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"matrix is not symmetric: asymmetry {asym:.3e} exceeds "
            f"{SYMMETRY_RTOL:.1e} * {scale:.3e}"
        )
    sym = 0.5 * (a + a.T)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            f"eigensolver did not converge (matrix scale {scale:.3e}): {err}"
        ) from err
    return EigenSystem(eigenvalues=w, eigenvectors=v)
