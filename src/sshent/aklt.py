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

from . import entanglement as ent
from .entanglement import _TINY, EMPTY_SECTOR_THRESHOLD
from .linalg import NumericalError

TRIVIAL_PRODUCT = "trivial_product"
AKLT_BULK = "aklt_bulk"
DEFECT_INTERFACE = "defect_interface"

TRIPLET = "triplet_pm1"
HYBRID = "hybrid"

_CASES = (TRIVIAL_PRODUCT, AKLT_BULK, DEFECT_INTERFACE)
# the interval spin-z sectors, in the order of every grid row
JZ = (-1, 0, 1)


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


def _log_power_sum(weights: np.ndarray, n: float) -> float:
    """``log sum w^n`` of weights in ``[0, 1]``: the direct sum where it stays
    in the normal range, else (at large ``n``) with ``max(w)^n`` factored out."""
    total = float(np.sum(weights**n))
    if total >= _TINY:
        return math.log(total)
    top = float(np.max(weights))
    return n * math.log(top) + math.log(float(np.sum((weights / top) ** n)))


def hybrid_sector_entropy(eta: float, n: float) -> float:
    """Closed-form spin-0-sector entropy of the hybrid defect interval."""
    hi, lo = (1.0 + eta) / 2.0, (1.0 - eta) / 2.0
    if n == 1.0:
        out = 0.0
        for w in (hi, lo):
            if w > 0.0:
                out -= w * math.log(w)
        return out
    return _log_power_sum(np.array([hi, lo]), n) / (1.0 - n)


def _sectors(case: str, ground_state: str, n: float, p: float | None):
    """``Z_1``, ``Z_n``, ``S(q)`` and ``S_n(q)`` at ``jz = -1, 0, 1``, and
    the interval's two edge spins as fermion-like modes: occupation 1/2 for a
    free spin (a cut valence bond), 1 for a polarized one."""
    if case == TRIVIAL_PRODUCT:
        return [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0] * 3, [0.0] * 3, [1.0, 1.0]
    if case == AKLT_BULK:
        # the spin-0 sector holds two equally weighted states at every n
        sre = [0.0, math.log(2.0), 0.0]
        return [0.25, 0.5, 0.25], [4.0**-n, 2.0 * 4.0**-n, 4.0**-n], sre, sre, [0.5, 0.5]
    if ground_state == TRIPLET:
        # one cut valence bond plus a polarized interface spin shifting the labels
        return [0.0, 0.5, 0.5], [0.0, 2.0**-n, 2.0**-n], [0.0] * 3, [0.0] * 3, [0.5, 1.0]
    eta = eta_from_weight(p)
    rho = hybrid_interface_rdm(p)
    # spin-z blocks of the 4x4 matrix in the (uu, du, ud, dd) basis
    block = {1: rho[:1, :1], 0: rho[1:3, 1:3], -1: rho[3:, 3:]}
    probs, zn, vn, renyi = [], [], [], []
    for jz in JZ:
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
        renyi.append(vn[-1] if n == 1.0 else _log_power_sum(norm, n) / (1.0 - n))
    closed = hybrid_sector_entropy(eta, n)
    got = renyi[1]
    if abs(got - closed) > 1e-12 or max(abs(vn[0]), abs(vn[2])) > 1e-12:
        raise AssertionError(
            "4x4 density matrix disagrees with the closed forms: "
            f"sector 0 {got!r} vs {closed!r}"
        )
    # rho = (I/2) x diag((1 - eta)/2, (1 + eta)/2)
    return probs, zn, vn, renyi, [0.5, (1.0 + eta) / 2.0]


def aklt_grid(specs, n_list) -> dict[str, np.ndarray]:
    """The sector grid over ``jz = -1, 0, 1`` of every ``(case, ground_state,
    p)`` in ``specs`` (one row each) and index in ``n_list``, with the
    partition functions ``zn`` and the Renyi totals ``total_renyi``.

    The hybrid state is only distinct from the triplet values when the
    interval contains an interface, and is rejected elsewhere; its sectors
    are cross-checked against direct diagonalization of the explicit 4x4
    reduced density matrix.  A Renyi total is that of the interval's two edge
    spins, as a lattice total is that of its modes, and like a lattice table
    the grid refuses an index at which a spin's factor computes to 0: a free
    spin's ``(1/2)^n + (1/2)^n`` does from ``n = 1075``.
    """
    shape = (len(specs), len(n_list), len(JZ))
    z1, vn = np.zeros(shape[::2]), np.zeros(shape[::2])
    zn, renyi = np.zeros(shape), np.zeros(shape)
    total_renyi = np.zeros(shape[:2])
    for i, (case, ground_state, p) in enumerate(specs):
        if case not in _CASES:
            raise ValueError(f"unknown case {case!r}")
        if ground_state not in (TRIPLET, HYBRID):
            raise ValueError(f"unknown ground state {ground_state!r}")
        if not all(n > 0 for n in n_list):
            raise ValueError("Renyi index must be positive")
        if ground_state == HYBRID:
            if case != DEFECT_INTERFACE:
                raise ValueError("hybrid ground state only applies to a defect interval")
            if p is None:
                raise ValueError("hybrid ground state needs a weight p")
        for j, n in enumerate(n_list):
            z1[i], zn[i, j], vn[i], renyi[i, j], spins = _sectors(case, ground_state, n, p)
            if n == 1.0:
                continue
            with np.errstate(invalid="ignore"):
                total, zero = ent._total_renyi_rows(np.array(spins), n)
            total_renyi[i, j] = total
            if zero or not math.isfinite(total):
                raise NumericalError(
                    f"Renyi entropies at n = {n:g} leave double range: the edge-spin "
                    f"factors of {case} ({ground_state}) underflow to 0"
                )
    return {
        "q": np.array(JZ), "occupied": z1 > EMPTY_SECTOR_THRESHOLD, "z1": z1, "vn": vn,
        "zn": zn, "renyi": renyi, "total_renyi": total_renyi,
    }

