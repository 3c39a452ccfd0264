"""Singular triples of a chiral chain's hopping block from one ``eigh``."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Singular values above this fraction of the largest come from the Gram
# block's eigenvalues; below it, sqrt of an eigenvalue is noise of about
# sqrt(eps) * s_max, so those triples are resolved in their own subspace.
ZERO_SPLIT = 1e-4


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


@dataclass(frozen=True)
class BandedBlock:
    """An L x L hopping block as its two bands: ``T[r, r] = diag[r]`` plus
    ``T[r, r - 1 mod L] = sub[r]``, with a ring's wrap bond at ``sub[0]``.
    ``T^T T`` then costs O(L) and ``T @ V`` two scaled row shifts."""

    diag: np.ndarray
    sub: np.ndarray

    def gram(self) -> np.ndarray:
        """``T^T T``: column ``i`` of ``T`` holds ``diag[i]`` and ``sub[i + 1]``."""
        n = self.diag.size
        r, up = np.arange(n), np.roll(self.sub, -1)
        g = np.zeros((n, n))
        g[r, r] = self.diag**2 + up**2
        off = up * np.roll(self.diag, -1)
        # np.add.at: on rings of one or two cells the terms share entries
        np.add.at(g, (r, (r + 1) % n), off)
        np.add.at(g, ((r + 1) % n, r), off)
        return g

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        u = self.diag[:, None] * v
        u[1:] += self.sub[1:, None] * v[:-1]
        u[0] += self.sub[0] * v[-1]
        return u


def chiral_svd(block: np.ndarray | BandedBlock) -> ChiralSystem:
    """Singular triples of a square hopping block, dense or banded.

    One ``eigh`` of the Gram block ``T^T T`` gives ``v`` and, for the
    triples above ``ZERO_SPLIT * s_max``, ``s = sqrt(w)`` and
    ``u = T v / s``.  The trailing near-zero triples are resolved in their
    own subspace, from the triples of a small block, so their singular
    values are never read off the noisy eigenvalues.  ``v`` is in C order,
    so a window's rows are contiguous.  Non-convergence of the eigensolver
    is re-raised as ``NumericalError`` with the block scale attached.
    """
    if isinstance(block, BandedBlock):
        n, entries = block.diag.size, np.concatenate([block.diag, block.sub])
    else:
        block = entries = np.asarray(block, dtype=float)
        if block.ndim != 2 or block.shape[0] != block.shape[1]:
            raise ValueError("expected a square matrix")
        n = block.shape[0]
    try:
        return _triples(block)
    except np.linalg.LinAlgError as err:
        scale = max(float(np.max(np.abs(entries))), 1.0)
        raise NumericalError(
            f"eigensolver did not converge (eigh of the Gram block of the "
            f"{n}x{n} hopping block, scale {scale:.3e}): {err}"
        ) from err


def _triples(t: np.ndarray | BandedBlock) -> ChiralSystem:
    w, v = np.linalg.eigh(t.gram() if isinstance(t, BandedBlock) else t.T @ t)
    s = np.sqrt(np.maximum(w[::-1], 0.0))
    v = np.ascontiguousarray(v[:, ::-1])
    u = t @ v
    filled = int(np.count_nonzero(s > ZERO_SPLIT * s.max(initial=0.0)))
    u[:, :filled] /= s[:filled]
    if filled < s.size:
        # The trailing columns of u hold T V0.  U0, an orthonormal basis of the
        # complement of the filled u, spans T V0, so the triples of the small
        # block U0^T T V0 rotate U0 and V0 into singular pairs and give their
        # singular values.  With nothing filled every singular value is 0
        # and any orthonormal U0 will do.
        u0 = _complement(u[:, :filled], s.size - filled)
        if filled:
            inner = _triples(u0.T @ u[:, filled:])
            s[filled:] = inner.singular_values
            u0 = u0 @ inner.u
            v[:, filled:] = v[:, filled:] @ inner.v
        u[:, filled:] = u0
    return ChiralSystem(singular_values=s, u=u, v=v)


def _complement(q: np.ndarray, k: int) -> np.ndarray:
    """``k`` orthonormal columns orthogonal to the orthonormal columns of
    ``q``, which with them span the whole space.

    Pivoted Gram-Schmidt on the columns of ``I - q q^T``: only the diagonal
    and the column picked are formed, so the cost is O(k n f) for ``q`` of
    shape ``(n, f)``.  Each pick is orthogonalized twice against ``q`` and
    the columns picked before it.
    """
    n = q.shape[0]
    basis = np.empty((n, k))
    weight = 1.0 - np.einsum("ij,ij->i", q, q)  # squared norms of the columns
    for j in range(k):
        pivot = int(np.argmax(weight))
        col = -(q @ q[pivot])
        col[pivot] += 1.0
        done = basis[:, :j]
        for _ in range(2):
            col -= q @ (q.T @ col)
            col -= done @ (done.T @ col)
        col /= np.linalg.norm(col)
        basis[:, j] = col
        weight -= col * col
    return basis
