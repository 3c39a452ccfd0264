"""The filled sea of a chiral chain's hopping block ``T``: the band of its
polar factor and its zero columns.

Two solves give the same ``FilledSea``.  ``eigh_sea`` takes the singular
triples of ``T`` from one ``eigh`` of the Gram block ``T^T T``
(``chiral_svd``) and multiplies the band out of them.  ``polar_sea`` never
forms an L x L array: it runs the Newton-Schulz iteration for the polar
factor on ``T`` kept block-tridiagonal, which is exact up to the decay of
the filled sea's correlations over a block (N. J. Higham, *Functions of
Matrices*, ch. 8; S. Goedecker, Rev. Mod. Phys. 71, 1085 (1999)), with the
scaled first steps of J. Chen and E. Chow, "A Newton-Schulz variant for
improving the initial convergence in matrix sign computation" (2014).
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from . import lanes

# Singular values above this fraction of the largest come from the Gram
# block's eigenvalues; below it, sqrt of an eigenvalue is noise of about
# sqrt(eps) * s_max, so those triples are resolved in their own subspace.
ZERO_SPLIT = 1e-4

# Newton-Schulz steps before the polar solve gives up.  Its gapped part takes
# 6 steps at delta = 0.3, 7 at delta = 0.1, 8 at delta = 0.05 and one at
# |delta| = 1 (the start scales the largest singular value to at most 1, and
# the scaled steps carry the gap edge up from delta).  A singular value below
# 1e-4 t, 5e-5 of the scale, grows by at most 1.5 alpha a step and needs 27
# steps to be filled at delta = 0.1 (28 at 0.3, 30 at 1, 24 at 0.01), so none
# is at the cap for delta >= 0.002, where blocks of 36 xi = 9000 cells put
# 15 GB in X alone; a split pair from about 1e-8 t to 2.4e-3 t (1.3e-3 t at
# delta = 0.1) is still moving at the cap.
POLAR_MAX_STEPS = 20
# the iteration ends on a step that moves no stored entry by more than this:
# the next step would move them by about its square, at rounding
POLAR_STOP = 1e-8
# the squared Frobenius norm of the converged factor counts the filled
# triples; a fractional part above this is a half-filled triple
POLAR_TRACE_TOL = 1e-6


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
class FilledSea:
    """What the correlation matrices of a chiral chain need of its filled
    triples, the ``filled`` singular triples of ``T`` above a threshold.

    ``band`` holds ``-Q / 2`` for ``Q = U_f V_f^T`` in block rows of
    ``width`` cells: row ``r`` holds the ``3 * width`` cells from
    ``(r // width - 1) * width`` on, modulo ``L``, and the entries with
    ``|r - c| < width`` (ring distance) are the ones a window of up to
    ``width`` cells reads.  ``u0`` and ``v0`` (``L x k``) are the zero columns,
    paired so that ``T v0 = u0 diag(splittings)``, the splittings descending.
    ``steps`` counts the Newton-Schulz steps of ``polar_sea``; 0 means the
    sea came from ``chiral_svd``.
    """

    width: int
    filled: int
    band: np.ndarray
    u0: np.ndarray
    v0: np.ndarray
    splittings: np.ndarray
    steps: int = 0


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
            inner = _inner_triples(u0.T @ u[:, filled:])
            s[filled:] = inner.singular_values
            u0 = u0 @ inner.u
            v[:, filled:] = v[:, filled:] @ inner.v
        u[:, filled:] = u0
    return ChiralSystem(singular_values=s, u=u, v=v)


def _inner_triples(block: np.ndarray) -> ChiralSystem:
    """``_triples`` of the small block of the zero columns, with ``u``
    orthonormalized.  Each ``u_i = T v_i / s_i`` carries an error of about
    eps * s_max / s_i, which the splittings of two or more zero triples, far
    apart in size, would leave in the zero-column projector; the QR factor of
    ``u`` (signs kept) is orthonormal to rounding.  One column is left as it is."""
    inner = _triples(block)
    if block.shape[0] < 2:
        return inner
    q, r = np.linalg.qr(inner.u)
    return ChiralSystem(singular_values=inner.singular_values, u=q * np.sign(np.diag(r)),
                        v=inner.v)


def _pivoted_basis(project: Callable[[np.ndarray], np.ndarray], weight: np.ndarray,
                   k: int) -> np.ndarray:
    """``k`` orthonormal columns, as ``(n, k)``, spanning the range of a
    projector ``P``: pivoted Gram-Schmidt on its columns.

    ``project`` applies ``P`` to a column, and ``weight`` holds the squared
    norms of its columns, the diagonal of ``P`` (updated in place).  Each
    pick is the column of largest remaining weight, ``P e``, projected twice
    more and orthogonalized twice against the columns picked before it; only
    that column of ``P`` is formed.
    """
    basis = np.zeros((weight.size, k))
    for j in range(k):
        col = np.zeros(weight.size)
        col[int(np.argmax(weight))] = 1.0
        col = project(col)
        done = basis[:, :j]
        for _ in range(2):
            col = project(col)
            col -= done @ (done.T @ col)
        col /= np.linalg.norm(col)
        basis[:, j] = col
        weight -= col * col
    return basis


def _complement(q: np.ndarray, k: int) -> np.ndarray:
    """``k`` orthonormal columns orthogonal to the orthonormal columns of
    ``q``, which with them span the whole space: ``_pivoted_basis`` of
    ``I - q q^T``, at a cost of O(k n f) for ``q`` of shape ``(n, f)``."""
    weight = 1.0 - np.einsum("ij,ij->i", q, q)
    return _pivoted_basis(lambda col: col - q @ (q.T @ col), weight, k)


def eigh_sea(block: BandedBlock, width: int, threshold: float) -> FilledSea:
    """The filled sea from the triples of ``chiral_svd``: those above
    ``threshold`` are filled, and each block row of ``width`` cells of the
    band is one GEMM of its rows of ``u`` against the rows of ``v`` it spans."""
    chiral = chiral_svd(block)
    s, u, v = chiral.singular_values, chiral.u, chiral.v
    filled = int(np.count_nonzero(s > threshold))
    n = s.size
    uf, vf = u[:, :filled], v[:, :filled]
    band = np.empty((-(-n // width) * width, 3 * width))
    for i0 in range(0, n, width):
        rows = band[i0 : min(i0 + width, n)]
        np.matmul(uf[i0 : i0 + width], vf[np.arange(i0 - width, i0 + 2 * width) % n].T, out=rows)
        rows *= -0.5
    return FilledSea(width=width, filled=filled, band=band, u0=u[:, filled:].copy(),
                     v0=v[:, filled:].copy(), splittings=s[filled:].copy())


class _Blocks:
    """A cyclic block-tridiagonal layout of ``n`` cells: ``count`` blocks of
    ``n // count`` or one more cells, each padded to ``size`` slots.  The
    padding slots are zero rows and columns, which every product here keeps
    zero, so the padded matrices act on the cells exactly as unpadded ones.
    A matrix is a ``(3, count + 2, size, size)`` array: blocks ``(i, i - 1)``,
    ``(i, i)`` and ``(i, i + 1)`` of block row ``i`` at row ``i + 1``, with
    rows 0 and ``count + 1`` mirroring the last and the first (``_wrap``), so
    a block row's neighbours across the wrap are slices too.  A symmetric
    matrix keeps only its diagonal and upper blocks, ``(2, count + 2, size,
    size)``."""

    def __init__(self, n: int, count: int):
        sizes = np.full(count, n // count)
        sizes[: n % count] += 1
        self.count, self.size = count, int(sizes[0])
        self.block = np.repeat(np.arange(count), sizes)
        self.pos = np.arange(n) - (np.cumsum(sizes) - sizes)[self.block]

    def matrix(self, slots: int = 3) -> np.ndarray:
        """A zero matrix, general (3 slots) or symmetric (2)."""
        return np.zeros((slots, self.count + 2, self.size, self.size))

    def place(self, rows: np.ndarray, cols: np.ndarray) -> tuple:
        """Flat index of the entries ``(rows, cols)`` in a matrix, and whether
        each lies in its three stored blocks."""
        bi, bj = self.block[rows], self.block[cols]
        slot = (bj - bi + 1) % self.count
        inside = slot < 3
        row = (slot * (self.count + 2) + bi + 1) * self.size + self.pos[rows]
        return np.where(inside, row * self.size + self.pos[cols], 0), inside

    def band(self, x: np.ndarray, width: int) -> np.ndarray:
        """``FilledSea.band`` of the matrix ``x``: ``-x / 2`` on the entries
        in its stored blocks, 0 off them, rows past the last cell repeating
        it.  A band row's cells depend only on its block row of ``width``,
        so the rows of one block row that lie in one block share one column
        index each: the index is a row part plus its run's column part."""
        n = self.block.size
        rows = np.minimum(np.arange(-(-n // width) * width), n - 1)
        bi, brow = self.block[rows], np.arange(rows.size) // width
        start = np.flatnonzero(np.r_[True, (brow[1:] != brow[:-1]) | (bi[1:] != bi[:-1])])
        cols = ((brow[start] - 1)[:, None] * width + np.arange(3 * width)) % n
        slot = (self.block[cols] - bi[start, None] + 1) % self.count
        inside = slot < 3
        col_part = np.where(inside, slot * ((self.count + 2) * self.size**2) + self.pos[cols], 0)
        run = np.repeat(np.arange(start.size), np.diff(np.append(start, rows.size)))
        row_part = ((bi + 1) * self.size + self.pos[rows]) * self.size
        return np.where(inside[run], -0.5 * x.take(row_part[:, None] + col_part[run]), 0.0)

    def vectors(self, x: np.ndarray) -> np.ndarray:
        """Columns ``x`` (``n x k``) as ``(count, size, k)`` padded blocks."""
        out = np.zeros((self.count, self.size, x.shape[1]))
        out[self.block, self.pos] = x
        return out

    def halves(self, work: Callable[[int, int], None]) -> None:
        """``work(a, b)`` on the block rows ``a .. b - 1`` of each half of
        the matrix rows, the two halves on two lanes.  Each block row's GEMMs
        are the same calls whichever half holds it, so the bits are one
        lane's."""
        mid = 1 + self.count // 2
        lanes.beside(lambda: work(1, mid), lambda: work(mid, self.count + 1))


def _t(a: np.ndarray) -> np.ndarray:
    return a.transpose(0, 2, 1)


def _wrap(a: np.ndarray) -> None:
    """Refresh the mirror rows of a padded matrix from the rows they mirror."""
    a[:, 0] = a[:, -2]
    a[:, -1] = a[:, 1]


def _gram(x: np.ndarray, g: np.ndarray, a: int, b: int) -> None:
    """Rows ``a .. b - 1`` of ``X^T X`` into the symmetric ``g``, the blocks
    two apart dropped.  Each diagonal term is ``c^T c`` of one view, which
    numpy computes as a symmetric rank-k update."""
    lo, di, up = x
    diag, upper = g[0, a:b], g[1, a:b]
    np.matmul(_t(up[a - 1 : b - 1]), up[a - 1 : b - 1], out=diag)
    diag += _t(di[a:b]) @ di[a:b]
    diag += _t(lo[a + 1 : b + 1]) @ lo[a + 1 : b + 1]
    np.matmul(_t(di[a:b]), up[a:b], out=upper)
    upper += _t(lo[a + 1 : b + 1]) @ di[a + 1 : b + 1]


def _times(x: np.ndarray, m: np.ndarray, out: np.ndarray, a: int, b: int) -> None:
    """Rows ``a .. b - 1`` of ``X M`` into ``out``, for ``M`` symmetric, the
    blocks two apart dropped.  Only these rows of ``X`` are read."""
    lo, di, up = x[0, a:b], x[1, a:b], x[2, a:b]
    diag, upper = m
    np.matmul(lo, diag[a - 1 : b - 1], out=out[0, a:b])
    out[0, a:b] += di @ _t(upper[a - 1 : b - 1])
    np.matmul(lo, upper[a - 1 : b - 1], out=out[1, a:b])
    out[1, a:b] += di @ diag[a:b]
    out[1, a:b] += up @ _t(upper[a:b])
    np.matmul(di, upper[a:b], out=out[2, a:b])
    out[2, a:b] += up @ diag[a + 1 : b + 1]


def _ring(v: np.ndarray) -> np.ndarray:
    """Blocks ``v`` with the last before the first and the first after the
    last: ``_ring(v)[i + slot]`` is block ``i + slot - 1``, cyclically."""
    return np.concatenate([v[-1:], v, v[:1]])


def _apply(x: np.ndarray, v: np.ndarray, transpose: bool = False) -> np.ndarray:
    """``X v``, or ``X^T v``, for columns ``v`` as ``(count, size, k)`` blocks."""
    ring = _ring(v)
    if transpose:
        return _t(x[2, :-2]) @ ring[:-2] + _t(x[1, 1:-1]) @ v + _t(x[0, 2:]) @ ring[2:]
    return x[0, 1:-1] @ ring[:-2] + x[1, 1:-1] @ v + x[2, 1:-1] @ ring[2:]


def _range_basis(x: np.ndarray, k: int, pad: np.ndarray, left: bool) -> np.ndarray:
    """``k`` orthonormal columns spanning the range of the projector
    ``P = I - X X^T`` (``left``) or ``I - X^T X``: ``_pivoted_basis`` of
    ``P``, applied to a column as two block-tridiagonal products.  Slots
    where ``pad`` is set are never picked."""
    shape = pad.shape + (1,)
    if left:
        weight = 1.0 - np.einsum("abij,abij->bi", x[:, 1:-1], x[:, 1:-1])
    else:
        cols = (x[2, :-2], x[1, 1:-1], x[0, 2:])  # the blocks of each block column
        weight = 1.0 - sum(np.einsum("bij,bij->bj", c, c) for c in cols)
    weight = weight.ravel()
    weight[pad.ravel()] = 0.0

    def project(col: np.ndarray) -> np.ndarray:
        return col - _apply(x, _apply(x, col.reshape(shape), left), not left).ravel()

    return _pivoted_basis(project, weight, k).reshape(pad.shape + (k,))


def _gershgorin_norm(block: BandedBlock) -> float:
    """``sqrt`` of the largest absolute row sum of ``T^T T``, at least
    ``||T||`` and equal to it (``2 t``) on SSH bands."""
    d, up = np.abs(block.diag), np.abs(np.roll(block.sub, -1))
    off = up * np.roll(d, -1)  # |(T^T T)[i, i + 1]|
    return math.sqrt(float(np.max(d * d + up * up + off + np.roll(off, 1))))


def polar_sea(block: BandedBlock, width: int, threshold: float, cells: int,
              edge: float) -> FilledSea | None:
    """The filled sea from the polar factor of ``T``, or None where it does
    not settle: no convergence in ``POLAR_MAX_STEPS`` steps, a fractional
    filled count, or a zero column above ``threshold``.

    From ``X = T / s``, ``s`` the Gershgorin bound of ``||T||``, the scaled
    Newton-Schulz step ``X <- (alpha / 2) X (3 I - alpha^2 X^T X)`` carries a
    lower bound ``l`` of the band's singular values, ``edge / s`` at the start
    for the bulk band edge ``edge``: ``alpha = sqrt(3 / (1 + l + l^2))`` maps
    ``[l, 1]`` into ``[l', 1]``, ``l' = (alpha / 2) l (3 - alpha^2 l^2)``, and
    from ``l > 1 - 1e-3`` on ``alpha = 1`` gives the plain step.  No singular
    value leaves ``[0, 1]``; those below ``l`` (in-gap and split zero-mode
    triples) grow by about ``1.5 alpha`` a step, so the filled ones reach 1
    and the near-zero ones stay near 0, and ``X`` tends to ``Q``.  ``X`` is
    kept block-tridiagonal over blocks of at least ``cells >= width`` cells,
    each product being a few batched GEMMs of those blocks on two lanes.  The
    trace of ``X^T X`` counts the filled triples; pivoted Gram-Schmidt on
    ``I - X^T X`` and ``I - X X^T``, each applied to a column as two products
    with ``X``, gives the zero columns, which the small block ``u0^T T v0``
    pairs and measures as in ``chiral_svd``.  Their remnant in ``X`` is
    projected out before the band is read.
    """
    n = block.diag.size
    lay = _Blocks(n, n // cells)
    cell = np.arange(n)
    x, g, step = lay.matrix(), lay.matrix(2), lay.matrix()
    scale = _gershgorin_norm(block)
    for cols, values in ((cell, block.diag), ((cell - 1) % n, block.sub)):
        np.put(x, lay.place(cell, cols)[0], values / scale)
    _wrap(x)
    eye = np.eye(lay.size)
    low, moved = min(edge / scale, 1.0), {}

    def gram(a: int, b: int) -> None:
        # the step moves X by X M, M = (3 alpha / 2 - 1) I - (alpha^3 / 2) X^T X
        _gram(x, g, a, b)
        g[:, a:b] *= -0.5 * alpha**3
        g[0, a:b] += (1.5 * alpha - 1.0) * eye

    def update(a: int, b: int) -> None:
        _times(x, g, step, a, b)
        x[:, a:b] += step[:, a:b]
        moved[a] = max(step[:, a:b].max(), -step[:, a:b].min())

    for steps in range(1, POLAR_MAX_STEPS + 1):
        alpha = math.sqrt(3.0 / (1.0 + low + low * low)) if low <= 1.0 - 1e-3 else 1.0
        low *= 0.5 * alpha * (3.0 - (alpha * low) ** 2)
        lay.halves(gram)
        _wrap(g)
        lay.halves(update)
        _wrap(x)
        if max(moved.values()) <= POLAR_STOP:
            break
    else:
        return None
    # summed per slot: x[slot, 1:-1] is contiguous, so np.vdot copies nothing
    trace = sum(float(np.vdot(x[slot, 1:-1], x[slot, 1:-1])) for slot in range(3))
    filled = round(trace)
    if abs(trace - filled) > POLAR_TRACE_TOL:
        return None
    k = n - filled
    pad = np.ones((lay.count, lay.size), dtype=bool)
    pad[lay.block, lay.pos] = False
    u0, v0 = (_range_basis(x, k, pad, left)[lay.block, lay.pos] for left in (True, False))
    try:
        inner = _inner_triples(u0.T @ (block @ v0))
    except np.linalg.LinAlgError:
        return None
    if k and inner.singular_values[0] > threshold:
        return None
    u0, v0 = u0 @ inner.u, v0 @ inner.v
    if k:
        # X -= (X v0) v0^T on the stored blocks
        vb = lay.vectors(v0)
        xv = _apply(x, vb)
        ring = _ring(vb)
        for slot in range(3):
            x[slot, 1:-1] -= xv @ _t(ring[slot : slot + lay.count])
    return FilledSea(width=width, filled=filled, band=lay.band(x, width), u0=u0, v0=v0,
                     splittings=inner.singular_values, steps=steps)
