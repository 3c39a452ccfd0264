"""Singular value decomposition of a chiral chain's hopping block."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class NumericalError(ValueError):
    """A computation failed or produced values its invariants rule out.

    Subclasses ``ValueError`` so callers that reject bad input and bad
    numerics alike keep working; the CLI tells the two apart (exit 2).
    """


@dataclass(frozen=True)
class ChiralSystem:
    """Singular triples of a hopping block ``T = u @ diag(s) @ v.T``.

    ``singular_values`` descend; column ``i`` of ``u`` and of ``v`` belong to
    ``singular_values[i]``.  For the hopping matrix ``[[0, T], [T^T, 0]]`` each
    triple gives the pair of modes ``(u_i, +-v_i) / sqrt(2)`` at energies
    ``+-s_i``, and a triple with ``s_i = 0`` two zero modes, ``u_i`` on the
    first sublattice and ``v_i`` on the second.
    """

    singular_values: np.ndarray
    u: np.ndarray
    v: np.ndarray


def chiral_svd(block: np.ndarray) -> ChiralSystem:
    """Singular triples of a square hopping block.

    Non-convergence of the underlying solver is re-raised as
    ``NumericalError`` with the block scale attached.
    """
    t = np.asarray(block, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("expected a square matrix")
    try:
        u, s, vt = np.linalg.svd(t)
    except np.linalg.LinAlgError as err:
        scale = max(float(np.max(np.abs(t))), 1.0)
        raise NumericalError(
            f"eigensolver did not converge (SVD of the {t.shape[0]}x{t.shape[0]} "
            f"hopping block, scale {scale:.3e}): {err}"
        ) from err
    # C order, so a window's rows are contiguous
    return ChiralSystem(singular_values=s, u=u, v=np.ascontiguousarray(vt.T))
