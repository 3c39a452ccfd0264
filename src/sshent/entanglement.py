"""Entanglement measures of a free-fermion interval from its correlation spectrum.

Every quantity here is a function of the correlation-matrix eigenvalues
``lambda_i`` in ``[0, 1]``.  The interval's reduced density matrix factorizes
over modes, so the partition function restricted to a charge sector ``q`` is
the coefficient of ``x^q`` in ``prod_i [(1-lambda_i)^n + lambda_i^n x]``;
that polynomial convolution is exact because the subsystem charge has integer
spectrum.  Fourier quadrature over the flux angle is kept only as a test
oracle.

Every producer of charge-resolved tables (the lattice stacks here, the
closed forms and zero-mode sweeps in ``asymptotics``, the spin tables in
``aklt``) fills one per-sector grid: labels ``q``, ``occupied``, ``Z_1(q)``
and ``S(q)`` per row, ``S_n(q)`` per row and index.  ``sector_columns``
turns a grid into the scan columns, with ``S_c`` and ``S_f`` as masked row
sums; ``sector_table`` views one row and index of a grid as a
``ChargeResolvedTable``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .linalg import NumericalError

EMPTY_SECTOR_THRESHOLD = 1e-14
_TINY = np.finfo(float).tiny  # the smallest normal double
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


def occupations_from_levels(epsilons: np.ndarray, mu: float = 0.0) -> np.ndarray:
    """Fermi factors ``1 / (exp(eps - mu) + 1)``; inverse of the spectrum map."""
    eps = np.asarray(epsilons, dtype=float)
    return 0.5 * (1.0 - np.tanh(0.5 * (eps - mu)))


def _xlogx(x: np.ndarray) -> np.ndarray:
    """``x log x``, and 0 at ``x = 0``."""
    return x * np.log(np.where(x > 0.0, x, 1.0))


def _rows(lam: np.ndarray) -> np.ndarray:
    """``lam`` as a ``(W, M)`` stack: one spectrum per row, ``M`` modes each."""
    return lam.reshape(math.prod(lam.shape[:-1]), lam.shape[-1])


def _total_vn_rows(lam: np.ndarray) -> np.ndarray:
    return -np.sum(_xlogx(lam) + _xlogx(1.0 - lam), axis=-1)


def _total_renyi_rows(lam: np.ndarray, n: float) -> tuple[np.ndarray, np.ndarray]:
    """``(1/(1-n)) sum log(lam^n + (1-lam)^n)`` over the last axis, and
    whether each row has a mode factor ``lam^n + (1-lam)^n`` that computes to
    0.  A factor below the normal range takes its log as
    ``n log hi + log1p((lo/hi)^n)``, hi and lo the larger and the smaller of
    lam and 1 - lam; the other modes keep the direct sum and its bits."""
    factor = lam**n + (1.0 - lam) ** n
    low = factor < _TINY
    logs = np.log(np.maximum(factor, _TINY))
    zero = np.zeros(lam.shape[:-1], bool)
    if low.any():
        hi, lo = np.maximum(lam[low], 1.0 - lam[low]), np.minimum(lam[low], 1.0 - lam[low])
        logs[low] = n * np.log(hi) + np.log1p((lo / hi) ** n)
        zero = np.any(factor == 0.0, axis=-1)
    return np.sum(logs, axis=-1) / (1.0 - n), zero


def total_vn(lambdas: np.ndarray) -> float:
    """Von Neumann entropy, ``-sum [lam log lam + (1-lam) log(1-lam)]``."""
    return float(_total_vn_rows(clamp_lambdas(lambdas)))


def total_renyi(lambdas: np.ndarray, n: float) -> float:
    """Renyi entropy ``(1/(1-n)) sum log(lam^n + (1-lam)^n)``; n = 1 is rejected."""
    if not n > 0:
        raise ValueError("Renyi index must be positive")
    if n == 1.0:
        raise ValueError("Renyi index 1 is the von Neumann limit; use total_vn")
    with np.errstate(invalid="ignore"):
        total = float(_total_renyi_rows(clamp_lambdas(lambdas), n)[0])
    if not math.isfinite(total):
        raise NumericalError(f"Renyi entropies at n = {n:g} leave double range: total {total}")
    return total


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


def _modes(lam: np.ndarray) -> np.ndarray:
    """A ``(W, M)`` stack mode-major: its ``(M, W)`` transpose, C-contiguous,
    so that one mode of every window is one contiguous row."""
    return np.ascontiguousarray(lam.T)


def _padded(m: int, w: int, constant: float) -> np.ndarray:
    """Mode-major coefficient rows ``(M + 2, W)``: a zero row either side of
    room for ``m + 1`` coefficients; the running polynomial starts as
    ``constant``."""
    buf = np.zeros((m + 2, w))
    buf[1] = constant
    return buf


def _window_major(buf: np.ndarray) -> np.ndarray:
    """Coefficients ``q = 0 .. M`` of a padded mode-major buffer as a
    C-contiguous ``(W, M + 1)`` array."""
    return np.ascontiguousarray(buf[1:].T)


def _srpf_rows(modes: np.ndarray, n: float) -> np.ndarray:
    """``srpf`` of every window of a clamped mode-major ``(M, W)`` stack, as
    ``(W, M + 1)`` rows."""
    m, w = modes.shape
    f0, f1 = (1.0 - modes) ** n, modes**n
    coeffs = _padded(m, w, 1.0)
    shifted = np.empty_like(coeffs)
    # each step's peak, 1 where it is 0 (every coefficient is then 0)
    peaks = np.empty((m, w))
    for j in range(m):
        # c_k f0 + c_{k-1} f1 for k = 0 .. j + 1, written in place of c
        cur, low, tmp = coeffs[1 : j + 3], coeffs[: j + 2], shifted[: j + 2]
        np.multiply(low, f1[j], out=tmp)
        cur *= f0[j]
        cur += tmp
        peak = cur.max(axis=0)
        np.copyto(peak, 1.0, where=peak <= 0.0)
        cur /= peak
        peaks[j] = peak
    # summed along the rows of a C-contiguous (W, M) array, in the order of a
    # row-major recursion's sum
    log_scale = np.sum(np.log(np.ascontiguousarray(peaks.T)), axis=1)
    return _window_major(coeffs) * np.exp(log_scale)[:, None]


def _log_srpf_rows(modes: np.ndarray, n: float) -> np.ndarray:
    """``log Z_n(q)`` of every window of a clamped mode-major ``(M, W)``
    stack, as ``(W, M + 1)`` rows: the recursion of ``_srpf_rows`` on the
    logs, ``log Z_q <- logaddexp(log Z_q + n log(1 - lam), log Z_{q-1} +
    n log lam)``.  Slower, but no sector leaves double range before its log
    does; ``_srpf_rows`` factors out only each step's peak, so at large ``n``
    the sectors far below it underflow to 0."""
    m, w = modes.shape
    # at n near the largest double, n log(lam) overflows to -inf: the
    # caller's range check classifies the rows it spoils
    with np.errstate(divide="ignore", over="ignore"):
        f0, f1 = n * np.log1p(-modes), n * np.log(modes)
    logs = np.full((m + 1, w), -np.inf)
    logs[0] = 0.0
    for j in range(m):
        # both sides are read before the in-place write of q = 1 .. j + 1
        np.logaddexp(logs[1 : j + 2] + f0[j], logs[: j + 1] + f1[j], out=logs[1 : j + 2])
        logs[0] += f0[j]
    return np.ascontiguousarray(logs.T)


def _srpf_vn_rows(modes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``srpf_with_vn_derivative`` of every window of a clamped mode-major
    ``(M, W)`` stack, as ``(W, M + 1)`` rows."""
    m, w = modes.shape
    f0, f1 = 1.0 - modes, modes
    fp0, fp1 = _xlogx(f0), _xlogx(f1)
    p = _padded(m, w, 1.0)
    d = _padded(m, w, 0.0)
    tmp, from_p = np.empty_like(p), np.empty_like(p)
    for j in range(m):
        a, b = f0[j], f1[j]
        p_cur, p_low = p[1 : j + 3], p[: j + 2]
        d_cur, d_low = d[1 : j + 3], d[: j + 2]
        t, fp = tmp[: j + 2], from_p[: j + 2]
        # D <- D * f + P * f', then P <- P * f, each in place
        np.multiply(d_low, b, out=t)
        d_cur *= a
        d_cur += t
        np.multiply(p_cur, fp0[j], out=fp)
        fp += np.multiply(p_low, fp1[j], out=t)
        d_cur += fp
        np.multiply(p_low, b, out=t)
        p_cur *= a
        p_cur += t
    g = _window_major(d)
    return _window_major(p), np.negative(g, out=g)


def srpf(lambdas: np.ndarray, n: float) -> np.ndarray:
    """Charge-resolved partition functions ``Z_n(q)`` for ``q = 0 .. M``.

    Coefficients of ``prod_i [(1-lam_i)^n + lam_i^n x]`` over the last axis
    (``M`` modes; leading axes are a stack of spectra), built one mode at a
    time with each row's peak factored out per step to control underflow.
    """
    if not n > 0:
        raise ValueError("Renyi index must be positive")
    lam = clamp_lambdas(lambdas)
    return _srpf_rows(_modes(_rows(lam)), n).reshape(lam.shape[:-1] + (-1,))


def srpf_with_vn_derivative(lambdas: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probabilities ``Z_1(q)`` and ``G(q) = -d/dn Z_n(q)|_{n=1}``.

    One pass of the product rule over the last axis: alongside the running
    polynomial ``P`` we carry ``D = dP/dn`` at ``n = 1``, using
    ``d/dn[(1-lam)^n + lam^n x] = (1-lam)log(1-lam) + lam log(lam) x``.
    Both coefficient sets are nonnegative term-by-term (after the overall
    sign of ``G``), so no cancellation occurs.
    """
    lam = clamp_lambdas(lambdas)
    z1, g = _srpf_vn_rows(_modes(_rows(lam)))
    shape = lam.shape[:-1] + (-1,)
    return z1.reshape(shape), g.reshape(shape)


@dataclass(frozen=True)
class ChargeResolvedTable:
    """Per-charge-sector partition functions, probabilities, and entropies of
    one row and index of a producer's grid, as ``sector_table`` builds it.

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


def sector_columns(grid: dict[str, np.ndarray], rows: np.ndarray | None = None) -> dict:
    """The scan columns of a per-sector grid: one entry per occupied sector of
    every window and index, in ``(window, n_index, q)`` order.

    ``grid`` holds the sector labels ``q`` ``(Q,)``, ``occupied``, ``z1``
    and ``vn`` ``(W, Q)`` and ``renyi`` ``(W, N, Q)``; a producer with its own
    row total passes it as ``S`` ``(W,)``, otherwise ``S = S_c + S_f``.
    ``S_c = sum Z_1 S(q)`` and ``S_f = -sum Z_1 log Z_1`` are sums over the
    occupied sectors.  Window ``i`` reads grid row ``rows[i]`` (row ``i``
    without ``rows``).
    """
    occupied, z1, renyi = grid["occupied"], grid["z1"], grid["renyi"]
    # the occupied sectors of a row are contiguous (a lattice Z_1 is
    # log-concave in q; the closed-form and AKLT grids are checked against
    # compacted sums), and a masked sum over one run adds exactly as over the
    # run alone
    s_c = np.sum(z1 * grid["vn"], axis=1, where=occupied)
    s_f = -np.sum(_xlogx(z1), axis=1, where=occupied)
    total = grid["S"] if "S" in grid else s_c + s_f
    if rows is not None:
        occupied = occupied[rows]
    window, n_index, j = np.nonzero(
        np.broadcast_to(occupied[:, None, :], occupied.shape[:1] + renyi.shape[1:])
    )
    row = window if rows is None else rows[window]
    return {
        "window": window,
        "n_index": n_index,
        "q": grid["q"][j],
        "Z1": z1[row, j],
        "S_n": renyi[row, n_index, j],
        "S": total[row],
        "S_c": s_c[row],
        "S_f": s_f[row],
    }


def sector_table(grid: dict[str, np.ndarray], n: float) -> ChargeResolvedTable:
    """The table of a one-row grid at its one index ``n``: its columns from
    ``sector_columns``, ``partition`` from the grid's ``zn`` ``(1, 1, Q)``.

    At ``n = 1`` the Renyi total is ``S``.  A producer with its own Renyi
    total or mean charge passes ``total_renyi`` ``(1, 1)`` or ``mean``
    ``(1,)``; otherwise they come from the occupied sectors,
    ``log(sum Z_n(q)) / (1 - n)`` and ``sum q Z_1(q)``.
    """
    cols = sector_columns(grid)
    keep = grid["occupied"][0]
    charges, probs, total = cols["q"], cols["Z1"], float(cols["S"][0])
    partition = grid["zn"][0, 0, keep]
    if n == 1.0:
        total_renyi = total
    elif "total_renyi" in grid:
        total_renyi = float(grid["total_renyi"][0, 0])
    else:
        z = float(np.sum(partition))
        if not z > 0.0:
            raise NumericalError(
                f"Renyi entropies at n = {n:g} leave double range: the sector "
                f"partition functions sum to {z!r}"
            )
        total_renyi = math.log(z) / (1.0 - n)
    return ChargeResolvedTable(
        renyi_index=n,
        charges=charges,
        partition=partition,
        probabilities=probs,
        sre_renyi=cols["S_n"],
        sre_vn=grid["vn"][0, keep],
        total_renyi=total_renyi,
        total_vn=total,
        config_entropy=float(cols["S_c"][0]),
        fluct_entropy=float(cols["S_f"][0]),
        mean_charge=float(grid["mean"][0]) if "mean" in grid else float(np.sum(charges * probs)),
    )


def _tabulate(lambdas: np.ndarray, n_list, names: np.ndarray | None = None) -> dict:
    """The per-sector grid of a ``(W, M)`` stack of spectra over
    ``q = 0 .. M``, with the lattice's own row totals ``S``, ``total_renyi``
    and ``mean`` and the partition functions ``zn``.  ``Z_1``, ``G`` and the
    von Neumann columns are shared by every index.  An error names spectrum
    ``i`` as ``names[i]`` (as ``i`` without ``names``)."""
    for n in n_list:
        if not n > 0:
            raise ValueError("Renyi index must be positive")
    lam = _rows(clamp_lambdas(lambdas))
    modes = _modes(lam)
    z1, g = _srpf_vn_rows(modes)
    occupied = z1 > EMPTY_SECTOR_THRESHOLD
    log_z1 = np.log(np.where(occupied, z1, 1.0))
    vn = np.divide(g, z1, out=np.zeros_like(g), where=occupied) + log_z1
    total_vn = _total_vn_rows(lam)
    shape = (lam.shape[0], len(n_list), lam.shape[1] + 1)
    zn, renyi = np.empty(shape), np.empty(shape)
    total_renyi = np.empty(shape[:2])
    for j, n in enumerate(n_list):
        if n == 1.0:
            zn[:, j], renyi[:, j], total_renyi[:, j] = z1, vn, total_vn
            continue
        zn[:, j] = _srpf_rows(modes, n)
        # at large n, (1 - lam)^n + lam^n can underflow to 0, and near the
        # largest double n log Z_1 overflows: the range check below
        # classifies what they spoil instead of warning about it
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            log_zn = np.log(np.where(occupied, zn[:, j], 1.0))
            # an occupied sector whose Z_n(q) left the normal range takes its
            # log from the log recursion, run on the rows that hold one
            low = occupied & (zn[:, j] < _TINY)
            rows = np.flatnonzero(low.any(axis=1))
            if rows.size:
                logs = _log_srpf_rows(np.ascontiguousarray(modes[:, rows]), n)
                log_zn[rows] = np.where(low[rows], logs, log_zn[rows])
            renyi[:, j] = (log_zn - n * log_z1) / (1.0 - n)
            # a spectrum with a mode factor that computes to 0 has Z_n = 0
            # in double precision: the table refuses it
            total_renyi[:, j], zero = _total_renyi_rows(lam, n)
            total_renyi[zero, j] = np.inf
        finite = np.isfinite(total_renyi[:, j]) & np.all(np.isfinite(renyi[:, j]), axis=1)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise NumericalError(
                f"Renyi entropies at n = {n:g} leave double range: the partition "
                f"functions of spectrum {bad if names is None else int(names[bad])} "
                f"underflow to 0"
            )
    return {
        "q": np.arange(shape[2]), "occupied": occupied, "z1": z1, "vn": vn,
        "zn": zn, "renyi": renyi, "S": total_vn, "total_renyi": total_renyi,
        "mean": np.sum(lam, axis=1),
    }


def charge_resolved_tables(
    lambdas: np.ndarray, n_list, rows: np.ndarray | None = None
) -> dict[str, np.ndarray]:
    """Charge-resolved tables of a ``(W, M)`` stack of interval spectra, as
    the ``sector_columns`` of their grid: ``window`` is the row of
    ``lambdas``, ``n_index`` the position in ``n_list``, ``S_n`` the von
    Neumann value at ``n = 1`` and ``S`` the total from the spectrum.  With
    ``rows``, only the spectra ``lambdas[rows]`` are tabulated: ``window``
    is then the position in ``rows``, and an error names a spectrum by its
    row of ``lambdas``."""
    if rows is None:
        return sector_columns(_tabulate(lambdas, n_list))
    return sector_columns(_tabulate(np.asarray(lambdas)[rows], n_list, rows))


def charge_resolved_table(lambdas: np.ndarray, n: float) -> ChargeResolvedTable:
    """The charge-resolved table of one interval spectrum: the one-row case
    of ``charge_resolved_tables``, equal to its row bit for bit."""
    return sector_table(_tabulate(lambdas, [n]), n)
