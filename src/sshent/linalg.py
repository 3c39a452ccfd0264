"""The filled sea of a chiral chain's hopping block ``T``: the band of
``Q = U_f V_f^T`` over its filled singular triples, and its zero columns.

``eigh_sea`` takes the singular triples of ``T`` from one ``eigh`` of the
Gram block ``T^T T``, resolves the near-zero ones in their own subspace, and
multiplies the band out of the filled ones.  ``groundstate.filled_sea``
hands it the whole chain, or the ring of the chain's defect neighbourhoods.
"""

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
class FilledSea:
    """What the correlation matrices of a chiral chain need of its filled
    triples, the ``filled`` singular triples of ``T`` above a threshold.

    ``band`` holds ``-Q / 2`` for ``Q = U_f V_f^T`` in block rows of
    ``width`` cells: row ``r`` holds the ``3 * width`` cells from
    ``(r // width - 1) * width`` on, modulo ``L``, and the entries less than
    ``width`` columns from the row's own cell are the ones a window of up to
    ``width`` cells reads.  ``rows`` gives, for each band row, the row of the
    solved ring whose entries it holds, shifted along the band to its own
    column offset (``np.arange`` where the chain itself was solved): at each
    distance from its own cell, band row ``r`` holds the bytes of ring row
    ``rows[r]`` at that distance from its cell.  So the bytes of the
    ``C_AB`` block of a window on ``cells`` depend on ``rows[cells]`` alone.
    ``u0`` and ``v0`` (``L x k``) are the zero columns,
    paired so that ``T v0 = u0 diag(splittings)``, the splittings descending.
    Where ``groundstate.filled_sea`` solved a compressed ring, the splittings
    are that ring's: its defects sit closer, so a distant pair splits more
    (4.0e-33 on the benchmark's N = 2000 ring, whose own pair splits by
    about 3.0e-136), far below the threshold either way; a rule that reads
    splittings reads these.
    """

    width: int
    filled: int
    band: np.ndarray
    rows: np.ndarray
    u0: np.ndarray
    v0: np.ndarray
    splittings: np.ndarray


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


def eigh_sea(block: BandedBlock, width: int, threshold: float) -> FilledSea:
    """The filled sea from the singular triples of ``_triples``: those above
    ``threshold`` are filled, and each block row of ``width`` cells of the
    band is one GEMM of its rows of ``u`` against the rows of ``v`` it spans;
    the rows past the last cell are zeros.  Non-convergence of the
    eigensolver is re-raised as ``NumericalError`` with the block scale
    attached."""
    n = block.diag.size
    try:
        s, u, v = _triples(block)
    except np.linalg.LinAlgError as err:
        scale = max(float(np.max(np.abs(np.concatenate([block.diag, block.sub])))), 1.0)
        raise NumericalError(
            f"eigensolver did not converge (eigh of the Gram block of the "
            f"{n}x{n} hopping block, scale {scale:.3e}): {err}"
        ) from err
    filled = int(np.count_nonzero(s > threshold))
    uf, vf = u[:, :filled], v[:, :filled]
    band = np.zeros((-(-n // width) * width, 3 * width))
    for i0 in range(0, n, width):
        rows = band[i0 : min(i0 + width, n)]
        np.matmul(uf[i0 : i0 + width], vf[np.arange(i0 - width, i0 + 2 * width) % n].T, out=rows)
        rows *= -0.5
    return FilledSea(width=width, filled=filled, band=band, rows=np.arange(band.shape[0]),
                     u0=u[:, filled:].copy(), v0=v[:, filled:].copy(),
                     splittings=s[filled:].copy())


def _triples(t: np.ndarray | BandedBlock) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Singular triples ``(s, u, v)`` of a square block ``T = u diag(s) v^T``,
    banded or (the small block of the zero columns) dense, ``s`` descending.

    One ``eigh`` of the Gram block ``T^T T`` gives ``v`` and, for the
    triples above ``ZERO_SPLIT * s_max``, ``s = sqrt(w)`` and
    ``u = T v / s``.  The trailing near-zero triples are resolved in their
    own subspace, from the triples of a small block, so their singular
    values are never read off the noisy eigenvalues.  ``v`` is in C order,
    so a window's rows are contiguous.  For the hopping matrix
    ``[[0, T], [T^T, 0]]`` each triple gives the pair of modes
    ``(u_i, +-v_i) / sqrt(2)`` at energies ``+-s_i``, and a triple with
    ``s_i = 0`` two zero modes, ``u_i`` on the first sublattice and ``v_i`` on
    the second.
    """
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
            s[filled:], inner_u, inner_v = _inner_triples(u0.T @ u[:, filled:])
            u0 = u0 @ inner_u
            v[:, filled:] = v[:, filled:] @ inner_v
        u[:, filled:] = u0
    return s, u, v


def _inner_triples(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_triples`` of the small block of the zero columns, with ``u``
    orthonormalized.  Each ``u_i = T v_i / s_i`` carries an error of about
    eps * s_max / s_i, which the splittings of two or more zero triples, far
    apart in size, would leave in the zero-column projector; the QR factor of
    ``u`` (signs kept) is orthonormal to rounding.  One column is left as it is."""
    s, u, v = _triples(block)
    if block.shape[0] < 2:
        return s, u, v
    q, r = np.linalg.qr(u)
    return s, q * np.sign(np.diag(r)), v


def _complement(q: np.ndarray, k: int) -> np.ndarray:
    """``k`` orthonormal columns, as ``(n, k)``, orthogonal to the orthonormal
    columns of ``q`` (``(n, f)``), which with them span the whole space: pivoted
    Gram-Schmidt on the columns of the projector ``P = I - q q^T``, at a cost of
    O(k n f).

    Each pick is the column of largest remaining weight (the diagonal of
    ``P``, its columns' squared norms), ``P e``, projected twice more and
    orthogonalized twice against the columns picked before it; only that
    column of ``P`` is formed.
    """
    weight = 1.0 - np.einsum("ij,ij->i", q, q)
    basis = np.zeros((weight.size, k))
    for j in range(k):
        col = np.zeros(weight.size)
        col[int(np.argmax(weight))] = 1.0
        col -= q @ (q.T @ col)
        done = basis[:, :j]
        for _ in range(2):
            col -= q @ (q.T @ col)
            col -= done @ (done.T @ col)
        col /= np.linalg.norm(col)
        basis[:, j] = col
        weight -= col * col
    return basis
