"""Entanglement measures of a free-fermion interval from its correlation spectrum.

Every quantity here is a function of the correlation-matrix eigenvalues
``lambda_i`` in ``[0, 1]``.  The interval's reduced density matrix factorizes
over modes, so the partition function restricted to a charge sector ``q`` is
the coefficient of ``x^q`` in ``prod_i [(1-lambda_i)^n + lambda_i^n x]``;
that polynomial convolution is exact because the subsystem charge has integer
spectrum.  Fourier quadrature over the flux angle is kept only as a test
oracle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError

EMPTY_SECTOR_THRESHOLD = 1e-14
_LAMBDA_SLACK = 1e-10


def clamp_lambdas(lambdas: np.ndarray, slack: float = _LAMBDA_SLACK) -> np.ndarray:
    """Clip eigenvalues to [0, 1]; out-of-range beyond ``slack`` means a bad eigensolve."""
    lam = np.asarray(lambdas, dtype=float)
    if lam.size and (lam.min() < -slack or lam.max() > 1.0 + slack):
        raise NumericalError(
            f"correlation eigenvalues outside [0, 1] beyond tolerance: "
            f"min {lam.min():.3e}, max {lam.max():.3e}"
        )
    return np.clip(lam, 0.0, 1.0)


@dataclass(frozen=True)
class EntanglementSpectrum:
    """Correlation eigenvalues and the matching single-particle pseudo-energies.

    ``epsilons[i] = log((1 - lambda_i) / lambda_i)``, with ``+-inf`` sentinels
    at ``lambda in {0, 1}``.
    """

    lambdas: np.ndarray
    epsilons: np.ndarray

    @classmethod
    def from_lambdas(cls, lambdas: np.ndarray) -> "EntanglementSpectrum":
        lam = clamp_lambdas(lambdas)
        with np.errstate(divide="ignore"):
            eps = np.log(1.0 - lam) - np.log(lam)
        return cls(lambdas=lam, epsilons=eps)


def occupations_from_levels(epsilons: np.ndarray, mu: float = 0.0) -> np.ndarray:
    """Fermi factors ``1 / (exp(eps - mu) + 1)``; inverse of the spectrum map."""
    eps = np.asarray(epsilons, dtype=float)
    return 0.5 * (1.0 - np.tanh(0.5 * (eps - mu)))


def _xlogx(x: np.ndarray) -> np.ndarray:
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def _xlogx_scalar(x: float) -> float:
    return x * math.log(x) if x > 0.0 else 0.0


def total_vn(lambdas: np.ndarray) -> float:
    """Von Neumann entropy, ``-sum [lam log lam + (1-lam) log(1-lam)]``."""
    lam = clamp_lambdas(lambdas)
    return float(-np.sum(_xlogx(lam) + _xlogx(1.0 - lam)))


def total_renyi(lambdas: np.ndarray, n: float) -> float:
    """Renyi entropy ``(1/(1-n)) sum log(lam^n + (1-lam)^n)``; n = 1 is rejected."""
    if not n > 0:
        raise ValueError("Renyi index must be positive")
    if n == 1.0:
        raise ValueError("Renyi index 1 is the von Neumann limit; use total_vn")
    lam = clamp_lambdas(lambdas)
    return float(np.sum(np.log(lam**n + (1.0 - lam) ** n)) / (1.0 - n))


def charged_moment(lambdas: np.ndarray, n: float, alpha: float) -> complex:
    """Flux-resolved moment ``prod [lam^n e^{i alpha} + (1-lam)^n]``.

    Accumulated as a sum of complex logs so that long products neither
    underflow nor overflow; an exactly zero factor short-circuits to 0.
    """
    if not n > 0:
        raise ValueError("Renyi index must be positive")
    lam = clamp_lambdas(lambdas)
    log_sum = 0.0 + 0.0j
    phase = cmath.exp(1j * alpha)
    for lv in lam:
        factor = lv**n * phase + (1.0 - lv) ** n
        if factor == 0:
            return 0.0 + 0.0j
        log_sum += cmath.log(factor)
    return cmath.exp(log_sum)


def _scaled_convolve(coeffs: np.ndarray, factor: np.ndarray, log_scale: float) -> tuple[np.ndarray, float]:
    out = np.convolve(coeffs, factor)
    peak = out.max()
    if peak > 0.0:
        out /= peak
        log_scale += math.log(peak)
    return out, log_scale


def srpf(lambdas: np.ndarray, n: float) -> np.ndarray:
    """Charge-resolved partition functions ``Z_n(q)`` for ``q = 0 .. len(lambdas)``.

    Coefficients of ``prod_i [(1-lam_i)^n + lam_i^n x]``, built by repeated
    convolution with per-step peak factored out to control underflow.
    """
    if not n > 0:
        raise ValueError("Renyi index must be positive")
    lam = clamp_lambdas(lambdas)
    coeffs = np.ones(1)
    log_scale = 0.0
    for lv in lam:
        factor = np.array([(1.0 - lv) ** n, lv**n])
        coeffs, log_scale = _scaled_convolve(coeffs, factor, log_scale)
    return coeffs * math.exp(log_scale)


def srpf_with_vn_derivative(lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities ``Z_1(q)`` and ``G(q) = -d/dn Z_n(q)|_{n=1}``.

    One pass of the product rule: alongside the running polynomial ``P`` we
    carry ``D = dP/dn`` at ``n = 1``, using ``d/dn[(1-lam)^n + lam^n x] =
    (1-lam)log(1-lam) + lam log(lam) x``.  Both coefficient sets are
    nonnegative term-by-term (after the overall sign of ``G``), so no
    cancellation occurs.
    """
    lam = clamp_lambdas(lambdas)
    p = np.ones(1)
    d = np.zeros(1)
    for lv in lam:
        f = np.array([1.0 - lv, lv])
        fp = np.array([_xlogx_scalar(1.0 - lv), _xlogx_scalar(lv)])
        d = np.convolve(d, f) + np.convolve(p, fp)
        p = np.convolve(p, f)
    g = -d
    return p, g


def sre_renyi_from_partitions(z_n_q: float, z_1_q: float, n: float) -> float:
    """Sector Renyi entropy ``(1/(1-n)) log[Z_n(q) / Z_1(q)^n]``."""
    if n == 1.0:
        raise ValueError("Renyi index 1 is the von Neumann limit")
    if z_1_q < EMPTY_SECTOR_THRESHOLD:
        raise ValueError("sector probability below the empty-sector threshold")
    return (math.log(z_n_q) - n * math.log(z_1_q)) / (1.0 - n)


def sre_vn_from_partitions(z_1_q: float, g_q: float) -> float:
    """Sector von Neumann entropy ``G(q)/Z_1(q) + log Z_1(q)``."""
    if z_1_q < EMPTY_SECTOR_THRESHOLD:
        raise ValueError("sector probability below the empty-sector threshold")
    return g_q / z_1_q + math.log(z_1_q)


def config_fluct_split(probabilities: np.ndarray, sector_vn: np.ndarray) -> tuple[float, float]:
    """Configuration and fluctuation parts: ``S_c = sum p S(q)``, ``S_f = -sum p log p``."""
    p = np.asarray(probabilities, dtype=float)
    s = np.asarray(sector_vn, dtype=float)
    s_c = float(np.sum(p * s))
    s_f = float(-np.sum(_xlogx(p)))
    return s_c, s_f


@dataclass(frozen=True)
class ChargeResolvedTable:
    """Per-charge-sector partition functions, probabilities, and entropies.

    Only sectors whose probability exceeds the empty-sector threshold appear;
    the entropy of an empty sector is undefined, not zero.  ``renyi_index = 1``
    means the Renyi columns hold the von Neumann values.
    """

    renyi_index: float
    charges: np.ndarray
    partition: np.ndarray
    probabilities: np.ndarray
    sre_renyi: np.ndarray
    sre_vn: np.ndarray
    total_renyi: float
    total_vn: float
    config_entropy: float
    fluct_entropy: float
    mean_charge: float

    @classmethod
    def from_sectors(
        cls, n: float, charges, partition, probabilities, sre_renyi, sre_vn
    ) -> "ChargeResolvedTable":
        """Table from per-sector values, with totals derived from the sectors.

        Sectors at or below ``EMPTY_SECTOR_THRESHOLD`` are dropped; the total
        entropy is ``S_c + S_f`` and, for ``n != 1``, the Renyi total is
        ``log(sum Z_n(q)) / (1 - n)``.
        """
        probs = np.asarray(probabilities, dtype=float)
        keep = probs > EMPTY_SECTOR_THRESHOLD
        charges = np.asarray(charges, dtype=int)[keep]
        zn = np.asarray(partition, dtype=float)[keep]
        probs = probs[keep]
        vn = np.asarray(sre_vn, dtype=float)[keep]
        s_c, s_f = config_fluct_split(probs, vn)
        if n == 1.0:
            tot_renyi = s_c + s_f
        else:
            tot_renyi = math.log(float(np.sum(zn))) / (1.0 - n)
        return cls(
            renyi_index=n,
            charges=charges,
            partition=zn,
            probabilities=probs,
            sre_renyi=np.asarray(sre_renyi, dtype=float)[keep],
            sre_vn=vn,
            total_renyi=tot_renyi,
            total_vn=s_c + s_f,
            config_entropy=s_c,
            fluct_entropy=s_f,
            mean_charge=float(np.sum(charges * probs)),
        )

    def sector(self, q: int) -> int:
        idx = np.nonzero(self.charges == q)[0]
        if idx.size == 0:
            raise KeyError(f"charge sector {q} is empty or absent")
        return int(idx[0])

    def probability(self, q: int) -> float:
        return float(self.probabilities[self.sector(q)])

    def sre(self, q: int) -> float:
        return float(self.sre_renyi[self.sector(q)])

    def sre_v(self, q: int) -> float:
        return float(self.sre_vn[self.sector(q)])


def charge_resolved_table(lambdas: np.ndarray, n: float) -> ChargeResolvedTable:
    """Assemble the full charge-resolved table for one interval spectrum.

    Sectors are filtered as in ``ChargeResolvedTable.from_sectors``, but the
    totals and the mean charge come exactly from the spectrum itself.
    """
    lam = clamp_lambdas(lambdas)
    z1, g = srpf_with_vn_derivative(lam)
    zn = srpf(lam, n) if n != 1.0 else z1
    occupied = z1 > EMPTY_SECTOR_THRESHOLD
    charges = np.nonzero(occupied)[0]
    probs = z1[occupied]
    zn_occ = zn[occupied]
    vn = np.array(
        [sre_vn_from_partitions(z1[q], g[q]) for q in charges]
    )
    if n == 1.0:
        renyi = vn.copy()
        tot_renyi = total_vn(lam)
    else:
        renyi = np.array(
            [sre_renyi_from_partitions(zn[q], z1[q], n) for q in charges]
        )
        tot_renyi = total_renyi(lam, n)
    s_c, s_f = config_fluct_split(probs, vn)
    return ChargeResolvedTable(
        renyi_index=n,
        charges=charges,
        partition=zn_occ,
        probabilities=probs,
        sre_renyi=renyi,
        sre_vn=vn,
        total_renyi=tot_renyi,
        total_vn=total_vn(lam),
        config_entropy=s_c,
        fluct_entropy=s_f,
        mean_charge=float(np.sum(lam)),
    )
