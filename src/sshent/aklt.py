"""Spin-resolved entanglement of a valence-bond chain joined to a product chain.

A ring made of an AKLT half and a trivial product-state half hosts two
interfaces carrying emergent spin-1/2 modes, mirroring the fully dimerized
fermion chain: the product region plays the trivial phase, the AKLT bulk the
topological phase, and an interval over an interface the defect case.  The
resolved charge is the interval's total spin-z.  The four global ground
states (singlet + triplet of the two interface spins) correspond to the
fourfold near-half-filling degeneracy of the fermion chain; hybridizing the
two spin-0 states with weight ``p`` maps onto the occupied two-defect zero
mode through ``eta = 2 sqrt(p (1 - p))``.
"""

from __future__ import annotations

import math

import numpy as np

from .entanglement import EMPTY_SECTOR_THRESHOLD, ChargeResolvedTable

TRIVIAL_PRODUCT = "trivial_product"
AKLT_BULK = "aklt_bulk"
DEFECT_INTERFACE = "defect_interface"

TRIPLET = "triplet_pm1"
HYBRID = "hybrid"

_CASES = (TRIVIAL_PRODUCT, AKLT_BULK, DEFECT_INTERFACE)


def eta_from_weight(p: float) -> float:
    """Polarization ``eta = 2 sqrt(p(1-p))`` of the hybridized spin-0 pair."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    return 2.0 * math.sqrt(p * (1.0 - p))


def hybrid_interface_rdm(p: float) -> np.ndarray:
    """4x4 reduced density matrix of the two spin-1/2 modes in a defect interval.

    Basis (up up, down up, up down, down down); the hybridized spin-0 ground
    state polarizes the pair by ``eta``:
    ``rho = I/4 - (eta/4) diag(1, 1, -1, -1)``.
    """
    eta = eta_from_weight(p)
    return np.diag([(1.0 - eta) / 4.0] * 2 + [(1.0 + eta) / 4.0] * 2)


def hybrid_sector_entropy(eta: float, n: float) -> float:
    """Closed-form spin-0-sector entropy of the hybrid defect interval."""
    hi, lo = (1.0 + eta) / 2.0, (1.0 - eta) / 2.0
    if n == 1.0:
        out = 0.0
        for w in (hi, lo):
            if w > 0.0:
                out -= w * math.log(w)
        return out
    return math.log(hi**n + lo**n) / (1.0 - n)


def aklt_entropies(
    case: str, ground_state: str = TRIPLET, n: float = 1.0, p: float | None = None
) -> ChargeResolvedTable:
    """Spin-z-resolved table of an interval of the AKLT/product ring.

    Charges are interval spin-z values relative to the all-zero product
    reference; for the triplet states the defect-interval labels {0, 1} carry
    the interface spin of the ``+1`` triplet.  The hybrid state is only
    distinct from the triplet values when the interval contains an interface,
    and is rejected elsewhere.  For the hybrid case the closed forms are
    cross-checked against direct diagonalization of the explicit 4x4 reduced
    density matrix.
    """
    if case not in _CASES:
        raise ValueError(f"unknown case {case!r}")
    if ground_state not in (TRIPLET, HYBRID):
        raise ValueError(f"unknown ground state {ground_state!r}")
    if not n > 0:
        raise ValueError("Renyi index must be positive")
    if ground_state == HYBRID:
        if case != DEFECT_INTERFACE:
            raise ValueError("hybrid ground state only applies to a defect interval")
        if p is None:
            raise ValueError("hybrid ground state needs a weight p")
        eta = eta_from_weight(p)
        rho = hybrid_interface_rdm(p)
        # spin-z blocks of the 4x4 matrix in the (uu, du, ud, dd) basis
        block = {1: rho[:1, :1], 0: rho[1:3, 1:3], -1: rho[3:, 3:]}
        probs, zn, vn, renyi = [], [], [], []
        for jz in (-1, 0, 1):
            lam = np.linalg.eigvalsh(block[jz])
            zq = float(np.sum(lam))
            probs.append(zq)
            zn.append(float(np.sum(lam**n)))
            if zq <= EMPTY_SECTOR_THRESHOLD:
                vn.append(0.0)
                renyi.append(0.0)
                continue
            norm = lam / zq
            vn.append(float(-np.sum(norm * np.log(np.maximum(norm, 1e-300)))))
            if n == 1.0:
                renyi.append(vn[-1])
            else:
                renyi.append(math.log(float(np.sum(norm**n))) / (1.0 - n))
        closed = hybrid_sector_entropy(eta, n)
        got = renyi[1]
        if abs(got - closed) > 1e-12 or max(abs(vn[0]), abs(vn[2])) > 1e-12:
            raise AssertionError(
                "4x4 density matrix disagrees with the closed forms: "
                f"sector 0 {got!r} vs {closed!r}"
            )
        return ChargeResolvedTable.from_sectors(n, [-1, 0, 1], zn, probs, renyi, vn)
    if case == TRIVIAL_PRODUCT:
        return ChargeResolvedTable.from_sectors(n, [0], [1.0], [1.0], [0.0], [0.0])
    if case == AKLT_BULK:
        # the spin-0 sector holds two equally weighted states at every n
        zn = [4.0**-n, 2.0 * 4.0**-n, 4.0**-n]
        sre = [0.0, math.log(2.0), 0.0]
        return ChargeResolvedTable.from_sectors(n, [-1, 0, 1], zn, [0.25, 0.5, 0.25], sre, sre)
    # defect interval, triplet ground state: one cut valence bond plus a
    # polarized interface spin shifting the labels
    zn = [2.0**-n, 2.0**-n]
    return ChargeResolvedTable.from_sectors(n, [0, 1], zn, [0.5, 0.5], [0.0, 0.0], [0.0, 0.0])
