"""Closed-form entanglement of large intervals in a gapped dimerized chain.

Three interval cases are covered: both boundaries cutting strong bonds
(topological), both cutting weak bonds (trivial), and one of each (interval
straddling a defect).  The building block is the entanglement spectrum of a
half-infinite interval, which is equidistant with spacing
``eps = pi K(k')/K(k)`` where ``k = (1-delta)/(1+delta)``: levels ``2 l eps``
for a strong-bond cut, ``(2l-1) eps`` for a weak-bond cut, and the combined
``l eps`` for an interval containing a defect.  Resummation of the resulting
products gives theta-function expressions for the charged moments; their
flux Fourier transform collapses to Gaussian-weighted theta constants.  All
results are exact up to terms exponentially small in the interval length over
the correlation length.

``dq`` always denotes the sector charge minus the interval's cell count
(``dq = q - ell``).
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Iterator
from contextlib import contextmanager
from functools import lru_cache, partial

import numpy as np

from . import entanglement as ent
from .entanglement import EMPTY_SECTOR_THRESHOLD, ChargeResolvedTable
from .linalg import NumericalError
from .model import DEFECT, TOPOLOGICAL, TRIVIAL
from .specialfn import EllipticParams, theta2, theta3

STRONG = "strong"
WEAK = "weak"

DQ_TRUNCATION = 12  # Gaussian tails beyond |dq| = 12 are < 1e-100 for delta >= 0.2
_DQS = np.arange(-DQ_TRUNCATION, DQ_TRUNCATION + 1)
# entries kept by each memoized closed form: a scan needs a few hundred
_CLOSED_FORM_CACHE = 4096

_CASES = (TOPOLOGICAL, TRIVIAL, DEFECT)


def _check_case(case: str) -> None:
    if case not in _CASES:
        raise ValueError(f"unknown interval case {case!r}")


def _log(x: float) -> float:
    """``math.log`` of a closed-form quantity that is positive in exact
    arithmetic: 0 (an underflow) is a ``NumericalError``, not a domain error."""
    if not x > 0.0:
        raise NumericalError(f"a closed form underflows to {x!r}")
    return math.log(x)


@contextmanager
def _double_range(n: float) -> Iterator[None]:
    """Raise an underflow, overflow or division by zero of the closed forms at
    Renyi index ``n`` as a ``NumericalError`` that names ``n``."""
    try:
        yield
    except (ArithmeticError, NumericalError) as err:
        raise NumericalError(
            f"closed forms at Renyi index n = {n:g} leave double range: {err}"
        ) from err


def _modulus_factor(case: str, n: float, params: EllipticParams) -> float:
    """The (k, k', k_n, k_n')-dependent prefactor of each closed form, to power 1/3."""
    k, kp = params.k, params.k_prime
    kn, knp = params.modulus_at(n)
    if case == TOPOLOGICAL:
        ratio = kp**n / (kn * knp * k ** (2.0 * n))
    elif case == TRIVIAL:
        ratio = (k * kp) ** n / (kn * knp)
    else:
        ratio = kp**n / (kn * knp * k ** (n / 2.0))
    return ratio ** (1.0 / 3.0)


def boundary_moment(bond: str, n: float, alpha: float, params: EllipticParams) -> float:
    """Charged-moment contribution of a single interval boundary.

    Real by construction (theta functions at real argument).  The overall
    charge phase is deliberately left out: it counts the infinitely many
    negative levels of a half-infinite interval and only becomes well defined
    once the two boundaries are combined and the mean subsystem charge fixes
    it.
    """
    if bond not in (STRONG, WEAK):
        raise ValueError(f"unknown bond type {bond!r}")
    if not n > 0:
        raise ValueError("replica index must be positive")
    zn = params.nome_at(n)
    kn, knp = params.modulus_at(n)
    k, kp = params.k, params.k_prime
    if bond == STRONG:
        ratio = (kp**n / (kn * knp * k ** (2.0 * n))) ** (1.0 / 6.0)
        th = theta2(alpha / 2.0, zn)
    else:
        ratio = ((k * kp) ** n / (kn * knp)) ** (1.0 / 6.0)
        th = theta3(alpha / 2.0, zn)
    return 2.0 ** (-(n - 1.0) / 3.0) * ratio * th / theta3(0.0, zn)


def mean_charge(case: str, ell: int) -> float:
    """Mean interval charge just below half filling: ell, or ell - 1/2 with a defect."""
    _check_case(case)
    return ell - 0.5 if case == DEFECT else float(ell)


def charged_moment_asymptotic(
    case: str, n: float, alpha: float, ell: int, params: EllipticParams
) -> complex:
    """Closed-form charged moment of an ``ell``-cell interval."""
    _check_case(case)
    zn = params.nome_at(n)
    t3 = theta3(0.0, zn)
    pref = 4.0 ** (-(n - 1.0) / 3.0) * _modulus_factor(case, n, params)
    if case == TOPOLOGICAL:
        angular = (theta2(alpha / 2.0, zn) / t3) ** 2
    elif case == TRIVIAL:
        angular = (theta3(alpha / 2.0, zn) / t3) ** 2
    else:
        angular = theta2(alpha / 2.0, zn) * theta3(alpha / 2.0, zn) / t3**2
    return cmath.exp(1j * alpha * mean_charge(case, ell)) * pref * angular


@lru_cache(maxsize=_CLOSED_FORM_CACHE)
def srpf_asymptotic(case: str, n: float, dq: int, params: EllipticParams) -> float:
    """Closed-form charge-resolved partition function at charge offset ``dq``.

    Topological and trivial intervals depend on ``dq`` only through a Gaussian
    envelope and the parity of ``dq``; an interval with a defect is a plain
    Gaussian centered at ``dq = -1/2``.
    """
    _check_case(case)
    if not n > 0:
        raise ValueError("replica index must be positive")
    eps = params.spacing
    zn = params.nome_at(n)
    t3sq = theta3(0.0, zn) ** 2
    mod = _modulus_factor(case, n, params)
    if case == DEFECT:
        gauss = math.exp(-0.5 * n * eps * (dq + 0.5) ** 2)
        return (
            gauss
            * theta2(0.0, math.exp(-n * eps / 2.0))
            / (4.0 ** ((2.0 * n + 1.0) / 6.0) * t3sq)
            * mod
        )
    gauss = math.exp(-0.5 * n * eps * dq * dq)
    z2n = math.exp(-2.0 * n * eps)
    odd = dq % 2 != 0
    if case == TOPOLOGICAL:
        th = theta3(0.0, z2n) if odd else theta2(0.0, z2n)
    else:
        th = theta2(0.0, z2n) if odd else theta3(0.0, z2n)
    return gauss / (4.0 ** ((n - 1.0) / 3.0) * t3sq) * th * mod


def sre_offset(n: float, params: EllipticParams) -> float:
    """Charge-independent part shared by all closed-form sector entropies."""
    if n == 1.0:
        raise ValueError("offset is defined away from the replica limit")
    k, kp = params.k, params.k_prime
    kn, knp = params.modulus_at(n)
    z1 = params.nome_at(1.0)
    zn = params.nome_at(n)
    arg = (
        theta3(0.0, z1) ** (2.0 * n)
        / theta3(0.0, zn) ** 2
        * ((k * kp) ** n / (4.0 ** (n - 1.0) * kn * knp)) ** (1.0 / 3.0)
    )
    return _log(arg) / (1.0 - n)


@lru_cache(maxsize=_CLOSED_FORM_CACHE)
def sre_asymptotic(case: str, n: float, dq: int, params: EllipticParams) -> float:
    """Closed-form sector Renyi entropy at charge offset ``dq``.

    Defect intervals are exactly equipartitioned; topological and trivial
    intervals are equipartitioned within each parity class of ``dq``, with the
    two classes' values swapping between the two phases.
    """
    _check_case(case)
    if n == 1.0:
        raise ValueError("use sre_vn_asymptotic for the von Neumann value")
    eps = params.spacing
    if case == DEFECT:
        num = 2.0 ** (n - 1.0) * theta2(0.0, math.exp(-n * eps / 2.0))
        den = theta2(0.0, math.exp(-eps / 2.0)) ** n
        return sre_offset(n, params) + _log(num / den) / (1.0 - n)
    z2n = math.exp(-2.0 * n * eps)
    z2 = math.exp(-2.0 * eps)
    odd = dq % 2 != 0
    use_t3 = (case == TOPOLOGICAL) == odd
    if use_t3:
        ratio = theta3(0.0, z2n) / theta3(0.0, z2) ** n
    else:
        ratio = theta2(0.0, z2n) / theta2(0.0, z2) ** n
    return sre_offset(n, params) + _log(ratio) / (1.0 - n)


@lru_cache(maxsize=_CLOSED_FORM_CACHE)
def sre_vn_asymptotic(case: str, dq: int, params: EllipticParams) -> float:
    """Von Neumann sector entropy by Richardson-extrapolated replica derivative.

    ``S(q) = -d/dn [Z_n(q) / Z_1(q)^n]`` at ``n = 1``; central differences at
    steps 1e-3 and 5e-4 are combined to cancel the quadratic error term.
    """
    _check_case(case)
    z1q = srpf_asymptotic(case, 1.0, dq, params)

    def ratio(n: float) -> float:
        return srpf_asymptotic(case, n, dq, params) / z1q**n

    def central(h: float) -> float:
        return (ratio(1.0 + h) - ratio(1.0 - h)) / (2.0 * h)

    d1 = central(1e-3)
    d2 = central(5e-4)
    return -(4.0 * d2 - d1) / 3.0


def half_cut_spectrum(params: EllipticParams, count: int, cut: str = DEFECT) -> np.ndarray:
    """Equidistant pseudo-energies for one cut, symmetric truncation at index ``count``.

    ``strong``: ``2 l eps``; ``weak``: ``(2l - 1) eps``; ``defect`` (interval
    containing a defect, i.e. one strong and one weak boundary combined):
    ``l eps``.
    """
    if count < 1:
        raise ValueError("count must be at least 1")
    eps = params.spacing
    if cut == STRONG:
        ls = np.arange(-count, count + 1)
        return 2.0 * eps * ls
    if cut == WEAK:
        ls = np.arange(-count + 1, count + 1)
        return eps * (2.0 * ls - 1.0)
    if cut == DEFECT:
        ls = np.arange(-count, count + 1)
        return eps * ls.astype(float)
    raise ValueError(f"unknown cut {cut!r}")


def bulk_defect_spectrum(params: EllipticParams, ell: int) -> np.ndarray:
    """Bulk pseudo-energies of a finite ``ell``-cell interval over a defect.

    ``eps (l - ell)`` for ``l = 1 .. 2 ell - 1``: the equidistant defect
    spectrum truncated to the 2 ell - 1 extended modes of the interval.  The
    outermost levels of a real interval deviate from this; comparisons should
    stay away from the spectrum edges.
    """
    if ell < 1:
        raise ValueError("interval length must be at least 1 cell")
    return params.spacing * (np.arange(1, 2 * ell) - ell).astype(float)


def added_pseudo_energy(p: float) -> float:
    """Pseudo-energy of the extra level from an occupied two-defect zero mode.

    The level's correlation eigenvalue seen by a window around the first
    defect is ``1 - p``, hence ``log(p / (1 - p))``; ``-inf``/``+inf`` at the
    fully localized extremes.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return math.log(p / (1.0 - p))


def crossing_weight(dq: int, params: EllipticParams) -> float:
    """Weight ``p`` at which the added level crosses bulk level ``eps * dq``.

    Solves ``log(p/(1-p)) = eps * dq``; the sector ``q = ell + dq`` attains its
    maximal entropy excess (log 2) exactly at this degeneracy.
    """
    return 1.0 / (1.0 + math.exp(-params.spacing * dq))


def zero_mode_excess_vn(p: float) -> float:
    """Binary entropy ``-p log p - (1-p) log(1-p)``."""
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def zero_mode_srpf(p: float, n: float, dq: int, params: EllipticParams) -> float:
    """Defect-interval partition functions with an occupied hybridized zero mode.

    ``Z_n^(p)(q) = p^n Z_n^def(q) + (1-p)^n Z_n^def(q - 1)``: the added level
    contributes charge 1 with amplitude weight ``1 - p``.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    base = srpf_asymptotic(DEFECT, n, dq, params)
    shifted = srpf_asymptotic(DEFECT, n, dq - 1, params)
    return _zero_mode_mix(p, n, base, shifted)


def _zero_mode_mix(p: float, n: float, base: float, shifted: float) -> float:
    pn = p**n if p > 0.0 else 0.0
    qn = (1.0 - p) ** n if p < 1.0 else 0.0
    return pn * base + qn * shifted


@lru_cache(maxsize=_CLOSED_FORM_CACHE)
def _defect_srpf_column(n: float, params: EllipticParams) -> tuple[float, ...]:
    """``srpf_asymptotic(DEFECT, n, dq, params)`` at ``dq = -DQ_TRUNCATION - 1
    .. DQ_TRUNCATION``, every value a zero-mode table reads at any weight."""
    dqs = range(-DQ_TRUNCATION - 1, DQ_TRUNCATION + 1)
    return tuple(srpf_asymptotic(DEFECT, n, dq, params) for dq in dqs)


def _zero_mode_excess_at_dq(p: float, n: float, dq: int, params: EllipticParams) -> float:
    # log-space: (p^n + (1-p)^n e^{n eps dq}) / (p + (1-p) e^{eps dq})^n
    eps = params.spacing
    lp = math.log(p) if p > 0.0 else -math.inf
    lq = math.log(1.0 - p) if p < 1.0 else -math.inf
    num = np.logaddexp(n * lp, n * lq + n * eps * dq)
    den = n * np.logaddexp(lp, lq + eps * dq)
    return float(num - den) / (1.0 - n)


def zero_mode_sre(p: float, n: float, dq: int, params: EllipticParams) -> float:
    """Sector Renyi entropy of a defect interval with an occupied zero mode."""
    if n == 1.0:
        raise ValueError("use zero_mode_sre_vn for the von Neumann value")
    if not 0.0 <= p <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    base = sre_asymptotic(DEFECT, n, dq, params)
    if p in (0.0, 1.0):
        return base
    return base + _zero_mode_excess_at_dq(p, n, dq, params)


def zero_mode_sre_vn(p: float, dq: int, params: EllipticParams) -> float:
    """Sector von Neumann entropy with an occupied zero mode.

    The excess over the equipartitioned defect value is the binary entropy of
    the Fermi factor of the added level measured from bulk level ``eps * dq``;
    it peaks at log 2 on the crossing.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    base = sre_vn_asymptotic(DEFECT, dq, params)
    if p in (0.0, 1.0):
        return base
    x = added_pseudo_energy(p) - params.spacing * dq
    f = 0.5 * (1.0 - math.tanh(0.5 * x))
    return base + zero_mode_excess_vn(f)


def dimerized_lambdas(case: str, ell: int, zero_mode_p: float | None = None) -> np.ndarray:
    """Exact correlation eigenvalues of an ``ell``-cell interval at full dimerization.

    Counting cut strong bonds: each contributes an eigenvalue 1/2; whole
    dimers inside give pairs {1, 0}; an interval over a defect has one cut
    bond and, if the zero mode is occupied with outside weight ``p``, an
    additional eigenvalue ``1 - p``.
    """
    _check_case(case)
    if ell < 2:
        raise ValueError("interval must span at least 2 cells")
    if zero_mode_p is not None and case != DEFECT:
        raise ValueError("a zero-mode weight only applies to the defect case")
    if case == TRIVIAL:
        lam = [1.0] * ell + [0.0] * ell
    elif case == TOPOLOGICAL:
        lam = [0.5, 0.5] + [1.0] * (ell - 1) + [0.0] * (ell - 1)
    elif zero_mode_p is None:
        lam = [0.5] + [1.0] * (ell - 1) + [0.0] * ell
    else:
        if not 0.0 <= zero_mode_p <= 1.0:
            raise ValueError("weight must lie in [0, 1]")
        lam = [0.5, 1.0 - zero_mode_p] + [1.0] * (ell - 1) + [0.0] * (ell - 1)
    return np.asarray(lam)


def case_grid(cases, n_list, params: EllipticParams, ell: int) -> dict[str, np.ndarray]:
    """The closed-form sector grid of every case in ``cases`` (one row each)
    and index in ``n_list``, over ``q = ell + dq`` for ``|dq| <=
    DQ_TRUNCATION``, with the partition functions ``zn`` besides the grid
    ``ent.sector_columns`` reads.

    Empty sectors are dropped before any entropy is evaluated: the von
    Neumann closed forms divide by ``Z_1(q)``.  Each (case, n) evaluates its
    closed forms in the order of a one-table call, so the first to leave
    double range is the same.
    """
    shape = (len(cases), len(n_list), _DQS.size)
    z1, vn = np.zeros(shape[::2]), np.zeros(shape[::2])
    zn, renyi = np.zeros(shape), np.zeros(shape)
    for c, case in enumerate(cases):
        _check_case(case)
        for j, n in enumerate(n_list):
            with _double_range(n):
                z1[c] = [srpf_asymptotic(case, 1.0, dq, params) for dq in _DQS.tolist()]
                keep = z1[c] > EMPTY_SECTOR_THRESHOLD
                dqs = _DQS[keep].tolist()
                zn[c, j, keep] = [srpf_asymptotic(case, n, dq, params) for dq in dqs]
                vn[c, keep] = [sre_vn_asymptotic(case, dq, params) for dq in dqs]
                renyi[c, j, keep] = (
                    vn[c, keep] if n == 1.0
                    else [sre_asymptotic(case, n, dq, params) for dq in dqs]
                )
    return {
        "q": _DQS + ell, "occupied": z1 > EMPTY_SECTOR_THRESHOLD,
        "z1": z1, "vn": vn, "zn": zn, "renyi": renyi,
    }


def asymptotic_table(case: str, n: float, params: EllipticParams, ell: int) -> ChargeResolvedTable:
    """Closed-form charge-resolved table for an ``ell``-cell interval: the
    one-case, one-index ``case_grid``."""
    grid = case_grid([case], [n], params, ell)
    with _double_range(n):
        return ent.sector_table(grid, n)


def _math_map(fn, x: np.ndarray) -> np.ndarray:
    """``fn`` (a ``math`` function) of every value of ``x``: the scalar
    closed forms' rounding, which numpy's vectorized functions need not keep."""
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _zero_mode_sectors(ps, n_list, params: EllipticParams, ell: int) -> dict[str, np.ndarray]:
    """The sector grid of the zero-mode tables of every weight in ``ps`` (one
    row each) and index in ``n_list``, over ``q = ell + dq`` for ``|dq| <=
    DQ_TRUNCATION``.

    Every value is the one ``zero_mode_srpf`` (at ``n = 1``),
    ``zero_mode_sre`` or ``zero_mode_sre_vn`` gives for its weight and
    ``dq``, bit for bit: the same ``math`` calls per value, with numpy only
    for the arithmetic.
    """
    ps = np.asarray(ps, dtype=float).reshape(-1)
    if not np.all((ps >= 0.0) & (ps <= 1.0)):
        raise ValueError("weight must lie in [0, 1]")
    for n in n_list:
        if not n > 0:
            raise ValueError("replica index must be positive")
    eps = params.spacing
    col = np.array(_defect_srpf_column(1.0, params))
    # p^1 = p and (1 - p)^1 = 1 - p in _zero_mode_mix
    z1 = ps[:, None] * col[1:] + (1.0 - ps)[:, None] * col[:-1]
    keep = z1 > EMPTY_SECTOR_THRESHOLD
    # a sector no weight occupies is never evaluated: its closed forms may divide by 0
    used = keep.any(axis=0)

    def base(closed_form) -> np.ndarray:
        out = np.zeros(_DQS.size)
        out[used] = [closed_form(dq) for dq in _DQS[used].tolist()]
        return np.tile(out, (ps.size, 1))

    # the excess over the defect values, at the occupied cells of 0 < p < 1
    inside = (ps > 0.0) & (ps < 1.0)
    cells = np.flatnonzero(keep & inside[:, None])
    row, dq = np.divmod(cells, _DQS.size)
    dq = _DQS[dq].astype(float)
    lp, lq, added = np.zeros((3, ps.size))
    lp[inside] = _math_map(math.log, ps[inside])
    lq[inside] = _math_map(math.log, 1.0 - ps[inside])
    added[inside] = _math_map(math.log, ps[inside] / (1.0 - ps[inside]))
    lp, lq, added = lp[row], lq[row], added[row]

    # zero_mode_sre_vn: the binary entropy of the added level's Fermi factor
    f = 0.5 * (1.0 - _math_map(math.tanh, 0.5 * (added - eps * dq)))
    mixed = (f != 0.0) & (f != 1.0)
    g = f[mixed]
    excess = np.zeros(f.size)
    excess[mixed] = -g * _math_map(math.log, g) - (1.0 - g) * _math_map(math.log, 1.0 - g)
    vn = base(partial(sre_vn_asymptotic, DEFECT, params=params))
    vn.flat[cells] += excess

    renyi = np.empty((ps.size, len(n_list), _DQS.size))
    for j, n in enumerate(n_list):
        if n == 1.0:
            renyi[:, j] = vn
            continue
        # zero_mode_sre: _zero_mode_excess_at_dq in log space
        num = np.logaddexp(n * lp, n * lq + n * eps * dq)
        den = n * np.logaddexp(lp, lq + eps * dq)
        with _double_range(n):
            values = base(partial(sre_asymptotic, DEFECT, n, params=params))
        values.flat[cells] += (num - den) / (1.0 - n)
        renyi[:, j] = values
    return {"q": _DQS + ell, "occupied": keep, "z1": z1, "vn": vn, "renyi": renyi}


def zero_mode_tables(ps, n_list, params: EllipticParams, ell: int) -> dict[str, np.ndarray]:
    """Closed-form zero-mode tables of every weight in ``ps`` and index in
    ``n_list``, as the ``ent.sector_columns`` of their grid: ``window`` is
    the weight's position in ``ps``."""
    return ent.sector_columns(_zero_mode_sectors(ps, n_list, params, ell))

