"""Ground-state mode selection and windowed correlation matrices.

The many-body states of interest are Slater determinants of single-particle
modes.  The chain is bipartite, every bond joining an odd to an even site, so
its modes follow from the singular triples ``(s_i, u_i, v_i)`` of the hopping
block alone (``linalg.ChiralSystem``, from one ``eigh`` of the Gram block
``T^T T``): a triple with ``s_i`` above ``NEAR_ZERO_THRESHOLD * t`` fills the
mode ``(u_i, -v_i) / sqrt(2)`` at energy ``-s_i``.  A triple below it is a
zero-mode pair, exactly polarized by sublattice: ``u_0`` on the odd sites,
``v_0`` on the even ones.  ``chiral_svd`` resolves the near-zero triples in
their own subspace, so the zero-mode splitting compared with the threshold
is accurate to rounding, not the ``1e-8`` noise of ``sqrt`` of an
eigenvalue.  With two defects that pair is excluded from the filled sea
("below half" filling, L-1 modes); occupying a zero mode is always an
explicit choice carried by the policy, because the physical state is a
chosen superposition of the two localized modes.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from .entanglement import clamp_lambdas
from .linalg import ChiralSystem
from .model import ChainSpec, defect_sites, defects_in_window, window_sites

BELOW_HALF = "below_half"
HALF = "half"

NEAR_ZERO_THRESHOLD = 1e-4  # in units of the hopping t
# windows per stacked eigvalsh call: amortizes the call overhead while the
# stack (16 windows of 40 x 40 at ell = 20) stays in cache
SPECTRA_CHUNK = 16


@dataclass(frozen=True)
class ZeroModePair:
    """The two localized zero-mode wavefunctions and their superposition.

    ``psi1`` lives on the first defect, ``psi2`` on the second.  The occupied
    superposition is ``sqrt(1-p) psi1 + e^{i phi} sqrt(p) psi2``: ``p`` is the
    weight on the *second* defect, so a window around the first defect sees an
    added correlation eigenvalue ``1 - p``.  The phase ``phi`` only enters
    windowed correlations through cross terms of the two envelopes, which are
    exponentially small in the defect separation; tests assert invariance.
    """

    psi1: np.ndarray
    psi2: np.ndarray
    p: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("hybridization weight must lie in [0, 1]")

    def with_weight(self, p: float, phi: float = 0.0) -> "ZeroModePair":
        return replace(self, p=p, phi=phi)


@dataclass(frozen=True)
class OccupationPolicy:
    """Which single-particle modes are filled.

    ``below_half`` fills the strictly negative-energy modes only (for a
    two-defect chain that is L-1 modes, both zero modes empty).  ``half``
    additionally occupies either the full negative band (defect-free chain)
    or the explicit ``zero_mode`` superposition (defect chain).
    """

    filling: str = BELOW_HALF
    zero_mode: ZeroModePair | None = None

    def __post_init__(self):
        if self.filling not in (BELOW_HALF, HALF):
            raise ValueError(f"unknown filling {self.filling!r}")
        if self.filling == BELOW_HALF and self.zero_mode is not None:
            raise ValueError("below_half filling cannot occupy a zero mode")

    @classmethod
    def below_half(cls) -> "OccupationPolicy":
        return cls(filling=BELOW_HALF)

    @classmethod
    def half(cls, zero_mode: ZeroModePair | None = None) -> "OccupationPolicy":
        return cls(filling=HALF, zero_mode=zero_mode)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Two-point function ``<c_i^dag c_j>`` restricted to an interval of cells."""

    start_cell: int
    n_cells: int
    matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        lam = np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T))
        return clamp_lambdas(lam)

    def trace(self) -> float:
        return float(np.trace(self.matrix))


def correlation_spectra(mats: Iterable[CorrelationMatrix], count: int, n_cells: int) -> np.ndarray:
    """``CorrelationMatrix.eigenvalues`` of each of ``count`` windows of
    ``n_cells`` cells, bit for bit, as a ``(count, 2 * n_cells)`` stack.

    The symmetric parts are written into a preallocated stack of
    ``SPECTRA_CHUNK`` windows, which takes one ``eigvalsh`` call, and the
    whole result one ``clamp_lambdas`` call.
    """
    size = 2 * n_cells
    lam = np.empty((count, size))
    stack = np.empty((min(count, SPECTRA_CHUNK), size, size))
    for i, cm in zip(range(count), mats, strict=True):
        j = i % SPECTRA_CHUNK
        np.add(cm.matrix, cm.matrix.T, out=stack[j])
        stack[j] *= 0.5
        if j == SPECTRA_CHUNK - 1 or i == count - 1:
            lam[i - j : i + 1] = np.linalg.eigvalsh(stack[: j + 1])
    return clamp_lambdas(lam)


def localized_zero_modes(chiral: ChiralSystem, spec: ChainSpec) -> ZeroModePair:
    """The zero-mode pair of a two-defect chain, one mode on each defect.

    The pair is the near-zero singular triple: ``u_0`` on the odd sites and
    ``v_0`` on the even ones, each localized on one defect.  Assigning each
    site to its nearest defect (ring metric on cells), psi1 is the one of the
    two with the larger weight on defect 1's region.
    """
    if len(spec.defects) != 2:
        raise ValueError("localized zero modes need exactly two defects")
    zero = chiral.singular_values <= NEAR_ZERO_THRESHOLD * spec.hopping
    found = 2 * int(np.count_nonzero(zero))
    if found != 2:
        raise ValueError(
            f"expected 2 near-zero modes below {NEAR_ZERO_THRESHOLD:g}*t, found {found}"
        )
    n = spec.n_sites
    odd = np.zeros(n)
    odd[0::2] = chiral.u[:, -1]
    even = np.zeros(n)
    even[1::2] = chiral.v[:, -1]

    anchors = [sites[len(sites) // 2] - 1 for _, sites in defect_sites(spec)]
    site = np.arange(n)

    def ring_dist(a):
        d = np.abs(site - a)
        return np.minimum(d, n - d) if spec.boundary == "periodic" else d

    region1 = ring_dist(anchors[0]) <= ring_dist(anchors[1])
    if float(np.sum(odd[region1] ** 2)) >= float(np.sum(even[region1] ** 2)):
        psi1, psi2 = odd, even
    else:
        psi1, psi2 = even, odd
    return ZeroModePair(psi1=_fix_sign(psi1), psi2=_fix_sign(psi2))


def _fix_sign(psi: np.ndarray) -> np.ndarray:
    """``psi`` in place with a deterministic sign, and returned.

    The first site whose magnitude is within a relative ``1e-6`` of the
    largest is positive.  A mode with two extreme entries of equal magnitude
    (a trimer-like zero mode) then gets the same sign from any solver, where
    "largest entry positive" would pick between the two by rounding.
    """
    mag = np.abs(psi)
    if psi[int(np.argmax(mag >= (1.0 - 1e-6) * mag.max()))] < 0:
        psi *= -1.0
    return psi


def filled_triples(chiral: ChiralSystem, spec: ChainSpec, policy: OccupationPolicy) -> int:
    """Number of filled singular triples (excluding any explicit zero mode).

    They are the leading columns of ``chiral.u`` and ``chiral.v``; the rest
    are zero modes.  Checks that the policy is consistent with the spectrum.
    """
    filled = int(np.count_nonzero(chiral.singular_values > NEAR_ZERO_THRESHOLD * spec.hopping))
    n_def = len(spec.defects)
    if n_def:
        expected = spec.n_cells - (n_def + 1) // 2
        if filled != expected:
            raise ValueError(
                f"found {filled} strictly negative modes, expected {expected}"
            )
        if policy.filling == HALF and policy.zero_mode is None:
            raise ValueError(
                "half filling with defects requires an explicit zero-mode occupation"
            )
    elif policy.zero_mode is not None:
        raise ValueError("the chain has no defects to host a zero mode")
    elif policy.filling == BELOW_HALF:
        # excludes open-chain edge modes too; on a gapped ring this is half filling
        if filled not in (spec.n_cells, spec.n_cells - 1):
            raise ValueError(
                "band states reach the near-zero window; dimerization too small"
            )
    elif filled != spec.n_cells:
        # zero modes (open-chain edge modes) sit on the Fermi level
        raise ValueError("half filling is ambiguous: Fermi level not in a gap")
    return filled


def correlation_matrix(
    chiral: ChiralSystem,
    spec: ChainSpec,
    policy: OccupationPolicy,
    window: tuple[int, int],
) -> CorrelationMatrix:
    """Correlation matrix of the interval ``[m, m + ell - 1]`` (cells).

    The window may contain at most one defect.  When the policy occupies a
    hybridized zero mode, its projector is added with the phase entering only
    through the real interference term; the imaginary part is antisymmetric
    and of the same exponentially small order as the interference itself.
    """
    start_cell, n_cells = window
    inside = defects_in_window(spec, start_cell, n_cells)
    if len(inside) > 1 and n_cells < spec.n_cells:
        # the full ring is allowed as a purity diagnostic
        raise ValueError(
            f"window contains {len(inside)} defects; at most one is supported"
        )
    filled = filled_triples(chiral, spec, policy)
    c = _sea_correlations(chiral, filled, _window_rows(spec, start_cell, n_cells))
    if policy.filling == HALF and policy.zero_mode is not None:
        sites = window_sites(spec, start_cell, n_cells)
        c = _add_zero_mode(c, policy.zero_mode, _zero_mode_outer(policy.zero_mode, sites))
    return CorrelationMatrix(start_cell=start_cell, n_cells=n_cells, matrix=c)


def zero_mode_correlations(
    chiral: ChiralSystem,
    spec: ChainSpec,
    pair: ZeroModePair,
    window: tuple[int, int],
    weights: list[float],
) -> list[CorrelationMatrix]:
    """``correlation_matrix`` at half filling for each zero-mode weight ``p``
    in ``weights``, equal to it bit for bit.

    The filled sea and the zero modes' outer products do not depend on the
    weight, so they are computed once and only their weighted sum per weight.
    """
    sea = correlation_matrix(chiral, spec, OccupationPolicy.below_half(), window)
    outer = _zero_mode_outer(pair, window_sites(spec, *window))
    return [
        replace(sea, matrix=_add_zero_mode(sea.matrix, pair.with_weight(p), outer))
        for p in weights
    ]


def _window_rows(spec: ChainSpec, start_cell: int, n_cells: int) -> slice | np.ndarray:
    """Rows of ``u`` and ``v`` (0-based cells) of a validated window: a slice,
    or the wrapped cells' indices for a window across the cell-1 seam."""
    first = start_cell - 1
    if first + n_cells <= spec.n_cells:
        return slice(first, first + n_cells)
    return np.arange(first, first + n_cells) % spec.n_cells


def _sea_correlations(chiral: ChiralSystem, filled: int, rows: slice | np.ndarray) -> np.ndarray:
    """Filled-sea correlations of the window cells ``rows``, in site order.

    With ``A``/``B`` the window's odd/even sites and ``Z`` the zero columns,
    ``C_AA = (I - Z_A Z_A^T) / 2``, ``C_BB = (I - Z_B Z_B^T) / 2`` and
    ``C_AB = -U_A V_B^T / 2`` over the filled columns.
    """
    u, v = chiral.u[rows], chiral.v[rows]
    ell = u.shape[0]
    eye = np.eye(ell)
    zu, zv = u[:, filled:], v[:, filled:]
    cab = -0.5 * (u[:, :filled] @ v[:, :filled].T)
    c = np.empty((2 * ell, 2 * ell))
    c[0::2, 0::2] = 0.5 * (eye - zu @ zu.T)
    c[1::2, 1::2] = 0.5 * (eye - zv @ zv.T)
    c[0::2, 1::2] = cab
    c[1::2, 0::2] = cab.T
    return c


def _zero_mode_outer(
    zm: ZeroModePair, sites: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Window outer products of the two zero modes: 11, 22 and 12 + 21."""
    w1 = zm.psi1[sites]
    w2 = zm.psi2[sites]
    return np.outer(w1, w1), np.outer(w2, w2), np.outer(w1, w2) + np.outer(w2, w1)


def _add_zero_mode(
    c: np.ndarray, zm: ZeroModePair, outer: tuple[np.ndarray, np.ndarray, np.ndarray]
) -> np.ndarray:
    """``c`` plus the projector on the occupied zero-mode superposition, from
    the window's ``_zero_mode_outer``."""
    o11, o22, o12 = outer
    p, phi = zm.p, zm.phi
    c = c + (1.0 - p) * o11 + p * o22
    cross = math.sqrt(p * (1.0 - p)) * math.cos(phi)
    return c + cross * o12
