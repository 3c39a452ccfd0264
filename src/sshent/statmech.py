"""Average-charge-constrained entanglement Hamiltonian diagnostics.

Projecting the reduced density matrix onto a charge sector can be mimicked by
a fictitious chemical potential ``mu`` shifting the single-particle
pseudo-energies, fixed self-consistently so the mean charge hits the sector
label.  Because the shift rescales all probabilities within one sector by a
common factor, the exact sector entropies are independent of ``mu`` -- which
is what ties equipartition (and its breakdown) to gaps and degeneracies of
the pseudo-energy spectrum: fluctuations are suppressed when ``mu`` lands in
a gap and maximal when it lands on a (near-)degenerate level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import (
    charge_resolved_table,
    occupations_from_levels,
    ChargeResolvedTable,
)

DEGENERACY_THRESHOLD = 1e-6
_BRACKET_PAD = 40.0


def _prepare_levels(spectrum: np.ndarray) -> tuple[np.ndarray, int]:
    """Strip ``+-inf`` sentinels; frozen occupied levels carry integer charge."""
    eps = np.asarray(spectrum, dtype=float)
    if np.any(np.isnan(eps)):
        raise ValueError("spectrum contains NaN")
    frozen_occupied = int(np.sum(np.isneginf(eps)))
    finite = eps[np.isfinite(eps)]
    return finite, frozen_occupied


def mean_occupation(spectrum: np.ndarray, mu: float) -> float:
    """Total mean charge ``sum 1/(exp(eps - mu) + 1)`` over finite levels."""
    finite, frozen = _prepare_levels(spectrum)
    return float(np.sum(occupations_from_levels(finite, mu))) + frozen


def solve_mu(spectrum: np.ndarray, q_target: float) -> float:
    """Chemical potential pinning the mean charge to ``q_target``.

    The occupation is strictly increasing in ``mu``, so bisection on
    ``[min eps - 40, max eps + 40]`` converges unconditionally; 200 halvings
    reach machine precision.
    """
    finite, frozen = _prepare_levels(spectrum)
    if finite.size == 0:
        raise ValueError("no finite levels to constrain")
    target = q_target - frozen
    if not 0.0 < target < finite.size:
        raise ValueError(
            f"target charge {q_target} outside the achievable open interval "
            f"({frozen}, {frozen + finite.size})"
        )
    lo = float(finite.min()) - _BRACKET_PAD
    hi = float(finite.max()) + _BRACKET_PAD
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if float(np.sum(occupations_from_levels(finite, mid))) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def constrained_entropy(spectrum: np.ndarray, mu: float) -> float:
    """Free-fermion entropy of the ``mu``-shifted spectrum.

    Sum of binary entropies of the Fermi factors ``f(eps - mu)``; a level
    sitting exactly at ``mu`` contributes log 2.
    """
    finite, _ = _prepare_levels(spectrum)
    f = occupations_from_levels(finite, mu)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = -f * np.log(f) - (1.0 - f) * np.log(1.0 - f)
    return float(np.sum(np.nan_to_num(terms)))


def charge_table_at_mu(spectrum: np.ndarray, mu: float) -> ChargeResolvedTable:
    """Exact charge-resolved table of the ``mu``-shifted spectrum.

    Charges are counted over the finite levels only; frozen occupied levels
    would shift every label by a constant.
    """
    finite, _ = _prepare_levels(spectrum)
    return charge_resolved_table(occupations_from_levels(finite, mu), 1.0)


@dataclass(frozen=True)
class SectorReport:
    """Per-sector diagnostics of the constrained spectrum."""

    q: int
    mu: float
    constrained_entropy: float
    reconstructed_entropy: float
    sector_entropy: float
    nearest_level_distance: float
    mu_at_level: bool
    level_degenerate: bool
    sre_mu_drift: float


def equipartition_report(
    spectrum: np.ndarray,
    q_values: list[int],
) -> list[SectorReport]:
    """Constrained-entropy diagnostics for a range of charge sectors.

    For each target charge: the solving ``mu``, the constrained entropy, its
    reconstruction from the exact charge decomposition (the two must agree to
    numerical precision), the exact sector entropy, and whether ``mu`` sits
    in a gap or at a (near-degenerate) level.  ``sre_mu_drift`` is the largest
    deviation of any common sector entropy from its ``mu = 0`` value -- zero
    up to roundoff, by construction.
    """
    finite, _ = _prepare_levels(spectrum)
    base = charge_table_at_mu(finite, 0.0)
    reports = []
    for q in q_values:
        mu = solve_mu(finite, float(q))
        s_tilde = constrained_entropy(finite, mu)
        table = charge_table_at_mu(finite, mu)
        recon = table.config_entropy + table.fluct_entropy
        try:
            sector = table.sre_v(q)
        except KeyError:
            sector = math.nan
        drift = 0.0
        for qq, s, pq in zip(table.charges, table.sre_vn, table.probabilities):
            if pq < 1e-8:
                continue
            try:
                qi = base.sector(int(qq))
            except KeyError:
                continue
            if base.probabilities[qi] < 1e-8:
                continue
            drift = max(drift, abs(s - base.sre_vn[qi]))
        dist = float(np.min(np.abs(finite - mu)))
        nearest = finite[int(np.argmin(np.abs(finite - mu)))]
        partner = np.abs(finite - nearest)
        degenerate = bool(np.sum(partner < DEGENERACY_THRESHOLD) > 1)
        reports.append(
            SectorReport(
                q=q,
                mu=mu,
                constrained_entropy=s_tilde,
                reconstructed_entropy=recon,
                sector_entropy=sector,
                nearest_level_distance=dist,
                mu_at_level=dist < DEGENERACY_THRESHOLD,
                level_degenerate=degenerate,
                sre_mu_drift=drift,
            )
        )
    return reports
