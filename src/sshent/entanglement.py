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


def clamp_lambdas(lambdas: np.ndarray) -> np.ndarray:
    """Clip eigenvalues to [0, 1]; NaN, or out-of-range beyond ``_LAMBDA_SLACK``,
    means a bad eigensolve."""
    lam = np.asarray(lambdas, dtype=float)
    lo, hi = -_LAMBDA_SLACK, 1.0 + _LAMBDA_SLACK
    # min and max propagate NaN, and every comparison with NaN is false
    if lam.size and not (lam.min() >= lo and lam.max() <= hi):
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


def _rows(lam: np.ndarray) -> np.ndarray:
    """``lam`` as a ``(W, M)`` stack: one spectrum per row, ``M`` modes each."""
    return lam.reshape(math.prod(lam.shape[:-1]), lam.shape[-1])


def _total_vn_rows(lam: np.ndarray) -> np.ndarray:
    return -np.sum(_xlogx(lam) + _xlogx(1.0 - lam), axis=-1)


def _total_renyi_rows(lam: np.ndarray, n: float) -> np.ndarray:
    return np.sum(np.log(lam**n + (1.0 - lam) ** n), axis=-1) / (1.0 - n)


def total_vn(lambdas: np.ndarray) -> float:
    """Von Neumann entropy, ``-sum [lam log lam + (1-lam) log(1-lam)]``."""
    return float(_total_vn_rows(clamp_lambdas(lambdas)))


def total_renyi(lambdas: np.ndarray, n: float) -> float:
    """Renyi entropy ``(1/(1-n)) sum log(lam^n + (1-lam)^n)``; n = 1 is rejected."""
    if not n > 0:
        raise ValueError("Renyi index must be positive")
    if n == 1.0:
        raise ValueError("Renyi index 1 is the von Neumann limit; use total_vn")
    return float(_total_renyi_rows(clamp_lambdas(lambdas), n))


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


# The sector kernels below run on a (W, M) stack of spectra and must give,
# row by row, the same bits as one np.convolve per mode.  The mode factors
# therefore use the scalar ``**`` and ``math.log`` element by element (array
# ``**`` takes square/SIMD fast paths and ``np.log`` differs from ``math.log``
# in the last ulp); elementwise ``*``, ``+``, ``/`` and ``max`` are exact
# matches of their scalar forms.


def _scalar_pow(x: np.ndarray, n: float) -> np.ndarray:
    return np.array([v**n for v in x.ravel().tolist()]).reshape(x.shape)


def _scalar_log(x: np.ndarray) -> np.ndarray:
    return np.array([math.log(v) for v in x.ravel().tolist()]).reshape(x.shape)


def _scalar_xlogx(x: np.ndarray) -> np.ndarray:
    """``x * math.log(x)``, and 0 at ``x = 0``."""
    return x * _scalar_log(np.where(x > 0.0, x, 1.0))


def _padded(w: int, m: int, constant: float) -> np.ndarray:
    """Coefficient rows with a zero column either side of room for ``m + 1``
    coefficients; the running polynomial starts as ``constant``."""
    buf = np.zeros((w, m + 2))
    buf[:, 1] = constant
    return buf


def _srpf_rows(lam: np.ndarray, n: float) -> np.ndarray:
    """``srpf`` of every row of a clamped ``(W, M)`` stack."""
    w, m = lam.shape
    f0, f1 = _scalar_pow(1.0 - lam, n), _scalar_pow(lam, n)
    coeffs = _padded(w, m, 1.0)
    peaks = np.empty((w, m))
    for j in range(m):
        # c_k f0 + c_{k-1} f1 for k = 0 .. j + 1, written in place of c
        cur, low = coeffs[:, 1 : j + 3], coeffs[:, : j + 2]
        shifted = low * f1[:, j, None]
        cur *= f0[:, j, None]
        cur += shifted
        peak = cur.max(axis=1, keepdims=True)
        np.divide(cur, peak, out=cur, where=peak > 0.0)
        peaks[:, j] = peak[:, 0]
    logs = _scalar_log(np.where(peaks > 0.0, peaks, 1.0))
    log_scale = np.zeros(w)
    for j in range(m):
        log_scale += logs[:, j]
    scale = np.array([math.exp(v) for v in log_scale.tolist()])
    return coeffs[:, 1:] * scale[:, None]


def _srpf_vn_rows(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``srpf_with_vn_derivative`` of every row of a clamped ``(W, M)`` stack."""
    w, m = lam.shape
    f0, f1 = 1.0 - lam, lam
    fp0, fp1 = _scalar_xlogx(f0), _scalar_xlogx(f1)
    p = _padded(w, m, 1.0)
    d = _padded(w, m, 0.0)
    for j in range(m):
        a, b = f0[:, j, None], f1[:, j, None]
        p_cur, p_low = p[:, 1 : j + 3], p[:, : j + 2]
        d_cur, d_low = d[:, 1 : j + 3], d[:, : j + 2]
        # D <- D * f + P * f', then P <- P * f, each in place
        shifted = d_low * b
        d_cur *= a
        d_cur += shifted
        from_p = p_cur * fp0[:, j, None]
        from_p += p_low * fp1[:, j, None]
        d_cur += from_p
        shifted = p_low * b
        p_cur *= a
        p_cur += shifted
    return p[:, 1:], -d[:, 1:]


def srpf(lambdas: np.ndarray, n: float) -> np.ndarray:
    """Charge-resolved partition functions ``Z_n(q)`` for ``q = 0 .. M``.

    Coefficients of ``prod_i [(1-lam_i)^n + lam_i^n x]`` over the last axis
    (``M`` modes; leading axes are a stack of spectra), built one mode at a
    time with each row's peak factored out per step to control underflow.
    """
    if not n > 0:
        raise ValueError("Renyi index must be positive")
    lam = clamp_lambdas(lambdas)
    return _srpf_rows(_rows(lam), n).reshape(lam.shape[:-1] + (-1,))


def srpf_with_vn_derivative(lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities ``Z_1(q)`` and ``G(q) = -d/dn Z_n(q)|_{n=1}``.

    One pass of the product rule over the last axis: alongside the running
    polynomial ``P`` we carry ``D = dP/dn`` at ``n = 1``, using
    ``d/dn[(1-lam)^n + lam^n x] = (1-lam)log(1-lam) + lam log(lam) x``.
    Both coefficient sets are nonnegative term-by-term (after the overall
    sign of ``G``), so no cancellation occurs.
    """
    lam = clamp_lambdas(lambdas)
    z1, g = _srpf_vn_rows(_rows(lam))
    shape = lam.shape[:-1] + (-1,)
    return z1.reshape(shape), g.reshape(shape)


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


def charge_resolved_tables(lambdas: np.ndarray, n_list) -> list[list[ChargeResolvedTable]]:
    """Charge-resolved tables of a ``(W, M)`` stack of interval spectra.

    ``tables[w][i]`` belongs to row ``w`` at Renyi index ``n_list[i]``.
    Sectors are filtered as in ``ChargeResolvedTable.from_sectors``, but the
    totals and the mean charge come exactly from the spectrum itself.
    ``Z_1``, ``G``, the von Neumann columns and totals are computed once per
    row and shared by every index.
    """
    for n in n_list:
        if not n > 0:
            raise ValueError("Renyi index must be positive")
    lam = _rows(clamp_lambdas(lambdas))
    z1, g = _srpf_vn_rows(lam)
    occupied = z1 > EMPTY_SECTOR_THRESHOLD
    log_z1 = _scalar_log(np.where(occupied, z1, 1.0))
    vn = np.divide(g, z1, out=np.zeros_like(g), where=occupied) + log_z1
    tot_vn = _total_vn_rows(lam)
    mean = np.sum(lam, axis=-1)
    per_n = []
    for n in n_list:
        if n == 1.0:
            per_n.append((n, z1, vn, tot_vn))
            continue
        zn = _srpf_rows(lam, n)
        log_zn = _scalar_log(np.where(occupied, zn, 1.0))
        renyi = (log_zn - n * log_z1) / (1.0 - n)
        per_n.append((n, zn, renyi, _total_renyi_rows(lam, n)))
    tables = []
    for w in range(lam.shape[0]):
        charges = np.flatnonzero(occupied[w])
        s_c, s_f = config_fluct_split(z1[w, charges], vn[w, charges])
        tables.append([
            ChargeResolvedTable(
                renyi_index=n,
                charges=charges,
                partition=zn[w, charges],
                probabilities=z1[w, charges],
                sre_renyi=renyi[w, charges],
                sre_vn=vn[w, charges],
                total_renyi=float(tot_renyi[w]),
                total_vn=float(tot_vn[w]),
                config_entropy=s_c,
                fluct_entropy=s_f,
                mean_charge=float(mean[w]),
            )
            for n, zn, renyi, tot_renyi in per_n
        ])
    return tables


def charge_resolved_table(lambdas: np.ndarray, n: float) -> ChargeResolvedTable:
    """The charge-resolved table of one interval spectrum (see ``charge_resolved_tables``)."""
    return charge_resolved_tables(lambdas, [n])[0][0]
