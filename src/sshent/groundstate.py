"""Ground-state mode selection and windowed correlation matrices.

The many-body states of interest are Slater determinants built from the
single-particle eigenmodes.  With two defects present the near-zero pair is
excluded from the filled sea ("below half" filling, L-1 modes); occupying a
zero mode is always an explicit choice carried by the policy, because the
numerically hybridized near-zero eigenvectors are an arbitrary basis of a
(near-)degenerate 2d space and the physical state is a chosen superposition
of the two *localized* modes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .entanglement import clamp_lambdas
from .linalg import EigenSystem
from .model import ChainSpec, defect_sites, defects_in_window, window_sites

BELOW_HALF = "below_half"
HALF = "half"

NEAR_ZERO_THRESHOLD = 1e-4  # in units of the hopping t


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


def localized_zero_modes(eig: EigenSystem, spec: ChainSpec) -> ZeroModePair:
    """Rotate the near-zero eigenvector pair onto the two defects.

    The two numerically obtained near-zero eigenvectors span the zero-mode
    space but are an arbitrary rotation of the localized modes.  Assigning
    each site to its nearest defect (ring metric on cells), psi1 is the
    rotation angle that maximizes the weight on defect 1's region -- a
    closed-form 2x2 maximization -- and psi2 is its orthogonal complement.
    """
    if len(spec.defects) != 2:
        raise ValueError("localized zero modes need exactly two defects")
    idx = np.nonzero(np.abs(eig.eigenvalues) < NEAR_ZERO_THRESHOLD * spec.hopping)[0]
    if idx.size != 2:
        raise ValueError(
            f"expected 2 near-zero modes below {NEAR_ZERO_THRESHOLD:g}*t, found {idx.size}"
        )
    v1 = eig.eigenvectors[:, idx[0]]
    v2 = eig.eigenvectors[:, idx[1]]

    anchors = [sites[len(sites) // 2] - 1 for _, sites in defect_sites(spec)]
    site = np.arange(spec.n_sites)
    n = spec.n_sites

    def ring_dist(a):
        d = np.abs(site - a)
        return np.minimum(d, n - d) if spec.boundary == "periodic" else d

    region1 = ring_dist(anchors[0]) <= ring_dist(anchors[1])

    a = float(np.sum(v1[region1] ** 2))
    b = float(np.sum(v1[region1] * v2[region1]))
    c = float(np.sum(v2[region1] ** 2))
    theta = 0.5 * math.atan2(2.0 * b, a - c)
    psi1 = math.cos(theta) * v1 + math.sin(theta) * v2
    psi2 = -math.sin(theta) * v1 + math.cos(theta) * v2
    # atan2 pins a stationary point; pick the branch that maximizes region-1 weight
    if float(np.sum(psi1[region1] ** 2)) < float(np.sum(psi2[region1] ** 2)):
        psi1, psi2 = psi2, -psi1
    # deterministic sign: largest-magnitude amplitude positive
    for psi in (psi1, psi2):
        jmax = int(np.argmax(np.abs(psi)))
        if psi[jmax] < 0:
            psi *= -1.0
    return ZeroModePair(psi1=psi1, psi2=psi2)


def occupied_orbitals(
    eig: EigenSystem,
    spec: ChainSpec,
    policy: OccupationPolicy,
    sites: np.ndarray | None = None,
) -> np.ndarray:
    """Columns of the filled extended modes (excluding any explicit zero mode).

    ``sites`` (0-based, in the order wanted) restricts the rows before the
    columns are selected, so a window copies only its own ``2 ell x N_occ``
    block; without it every site is returned.
    """
    energies = eig.eigenvalues
    n_def = len(spec.defects)
    if n_def:
        occ = energies < -NEAR_ZERO_THRESHOLD * spec.hopping
        expected = spec.n_cells - (n_def + 1) // 2
        if int(occ.sum()) != expected:
            raise ValueError(
                f"found {int(occ.sum())} strictly negative modes, expected {expected}"
            )
        if policy.filling == HALF and policy.zero_mode is None:
            raise ValueError(
                "half filling with defects requires an explicit zero-mode occupation"
            )
    elif policy.zero_mode is not None:
        raise ValueError("the chain has no defects to host a zero mode")
    elif policy.filling == BELOW_HALF:
        # excludes open-chain edge modes too; on a gapped ring this is half filling
        occ = energies < -NEAR_ZERO_THRESHOLD * spec.hopping
        if int(occ.sum()) not in (spec.n_cells, spec.n_cells - 1):
            raise ValueError(
                "band states reach the near-zero window; dimerization too small"
            )
    else:
        occ = energies < 0.0
        if int(occ.sum()) != spec.n_cells:
            raise ValueError("half filling is ambiguous: Fermi level not in a gap")
    if sites is None:
        return eig.eigenvectors[:, occ]
    # a single gather with no 2 ell x N intermediate, C-ordered like a row
    # slice of the full block
    return eig.eigenvectors[np.ix_(sites, occ)]


def correlation_matrix(
    eig: EigenSystem,
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
    sites = window_sites(spec, start_cell, n_cells)
    v = occupied_orbitals(eig, spec, policy, sites=sites)
    c = v @ v.T
    if policy.filling == HALF and policy.zero_mode is not None:
        c = _add_zero_mode(c, policy.zero_mode, sites)
    return CorrelationMatrix(start_cell=start_cell, n_cells=n_cells, matrix=c)


def zero_mode_correlations(
    eig: EigenSystem,
    spec: ChainSpec,
    pair: ZeroModePair,
    window: tuple[int, int],
    weights: list[float],
) -> list[CorrelationMatrix]:
    """``correlation_matrix`` at half filling for each zero-mode weight ``p``
    in ``weights``, equal to it bit for bit.

    The filled sea does not depend on the weight, so its ``v @ v.T`` is
    computed once and only the zero-mode projector is added per weight.
    """
    sea = correlation_matrix(eig, spec, OccupationPolicy.below_half(), window)
    sites = window_sites(spec, *window)
    return [
        replace(sea, matrix=_add_zero_mode(sea.matrix, pair.with_weight(p), sites))
        for p in weights
    ]


def _add_zero_mode(c: np.ndarray, zm: ZeroModePair, sites: np.ndarray) -> np.ndarray:
    """``c`` plus the projector on the occupied zero-mode superposition."""
    w1 = zm.psi1[sites]
    w2 = zm.psi2[sites]
    p, phi = zm.p, zm.phi
    c = c + (1.0 - p) * np.outer(w1, w1) + p * np.outer(w2, w2)
    cross = math.sqrt(p * (1.0 - p)) * math.cos(phi)
    return c + cross * (np.outer(w1, w2) + np.outer(w2, w1))
