"""Complete elliptic integrals, Jacobi theta functions, and nome inversion.

These carry the closed-form side of the library.  Conventions:

* ``complete_elliptic_k(k)`` is ``K(k) = int_0^1 dx / sqrt((1-x^2)(1-k^2 x^2))``
  with the *modulus* ``k`` as argument (not the parameter ``m = k^2``).
* ``theta2(w, z)`` and ``theta3(w, z)`` are the Jacobi theta functions
  ``theta_2(w|z) = sum_m z^((m+1/2)^2) e^(i(2m+1)w)`` and
  ``theta_3(w|z) = sum_m z^(m^2) e^(2imw)`` at real argument ``w`` and real
  nome ``z`` in ``[0, 1)``; both are real there.
* ``level_spacing(k) = pi K(k') / K(k)`` is the pseudo-energy spacing of the
  entanglement spectrum of a half-infinite interval in a gapped dimerized
  chain with modulus ``k = (1-delta)/(1+delta)``; ``modulus_from_spacing`` is
  its inverse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

_NOME_CAP = 0.999  # larger nomes lose precision silently; never needed here
_REL_TAIL = 1e-16


def _agm(a: float, b: float) -> float:
    """Arithmetic-geometric mean; quadratic convergence, capped against ulp stalls."""
    for _ in range(80):
        if abs(a - b) <= 4e-16 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return 0.5 * (a + b)


def complete_elliptic_k(k: float) -> float:
    """Complete elliptic integral of the first kind, ``pi / (2 AGM(1, k'))``."""
    if not 0.0 <= k < 1.0:
        raise ValueError("modulus must lie in [0, 1); the integral diverges at 1")
    return math.pi / (2.0 * _agm(1.0, math.sqrt((1.0 - k) * (1.0 + k))))


def _check_nome(nome: float) -> None:
    if not 0.0 <= nome <= _NOME_CAP:
        raise ValueError(f"nome must lie in [0, {_NOME_CAP}], got {nome}")


def theta2(omega: float, nome: float) -> float:
    """theta_2(omega | nome) summed until the tail is negligible."""
    _check_nome(nome)
    if nome == 0.0:
        return 0.0
    total = 0.0
    for m in range(0, 4000):
        term = 2.0 * nome ** ((m + 0.5) ** 2) * math.cos((2 * m + 1) * omega)
        total += term
        if nome ** ((m + 1.5) ** 2) * 2.0 < _REL_TAIL * max(abs(total), 1e-300):
            break
    return total


def theta3(omega: float, nome: float) -> float:
    """theta_3(omega | nome) summed until the tail is negligible."""
    _check_nome(nome)
    total = 1.0
    for m in range(1, 4000):
        term = 2.0 * nome ** (m * m) * math.cos(2 * m * omega)
        total += term
        if nome ** ((m + 1) ** 2) * 2.0 < _REL_TAIL * max(abs(total), 1e-300):
            break
    return total


def theta2_product(omega: float, nome: float) -> float:
    """Product representation of theta_2; series/product agreement is a cross-check."""
    _check_nome(nome)
    if nome == 0.0:
        return 0.0
    total = 2.0 * nome**0.25 * math.cos(omega)
    c = 2.0 * math.cos(2.0 * omega)
    for l in range(1, 100000):
        z2 = nome ** (2 * l)
        total *= (1.0 - z2) * (1.0 + c * z2 + z2 * z2)
        if z2 < 1e-17:
            break
    return total


def theta3_product(omega: float, nome: float) -> float:
    """Product representation of theta_3."""
    _check_nome(nome)
    total = 1.0
    c = 2.0 * math.cos(2.0 * omega)
    for l in range(1, 100000):
        z2 = nome ** (2 * l)
        zodd = nome ** (2 * l - 1)
        total *= (1.0 - z2) * (1.0 + c * zodd + zodd * zodd)
        if z2 < 1e-17:
            break
    return total


def level_spacing(k: float) -> float:
    """pi K(k') / K(k); strictly decreasing in the modulus k.

    Written as ``pi AGM(1, k') / AGM(1, k)`` so that no ``1 - k^2``
    cancellation occurs on the small-modulus side; accurate down to
    k values far below 1e-15, which large spacings require.
    """
    if not 0.0 < k < 1.0:
        raise ValueError("modulus must lie in (0, 1)")
    kp = math.sqrt((1.0 - k) * (1.0 + k))
    return math.pi * _agm(1.0, kp) / _agm(1.0, k)


@lru_cache(maxsize=4096)
def modulus_from_spacing(spacing: float) -> tuple[float, float]:
    """Invert ``spacing = pi K(k')/K(k)`` for ``k`` by bisection.

    The map is a bijection (0, inf) -> (0, 1), so the root is unique; halving
    [0, 1] pins it to machine precision.  A halving is a function of
    ``(lo, hi)`` alone, so the first one that leaves them as they were would
    leave them so for good: the loop stops there, after about 55 halvings
    (200 at most).  Memoized: parameter scans hit the same few spacings over
    and over.
    """
    if not spacing > 0.0:
        raise ValueError("level spacing must be positive")
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0 or mid >= 1.0:
            break
        if level_spacing(mid) > spacing:
            if mid == lo:
                break
            lo = mid
        elif mid == hi:
            break
        else:
            hi = mid
    k = 0.5 * (lo + hi)
    return k, math.sqrt((1.0 - k) * (1.0 + k))


def euler_product_residual(nome: float) -> float:
    """Residual of the identity linking ``prod (1 - z^{2l})`` to ``theta_3(z)``.

    For a nome ``z`` realized by some modulus ``k`` (i.e. ``z = exp(-pi
    K(k')/K(k))``), the infinite product equals
    ``[k k' / (4 sqrt(z))]^(1/6) theta_3(z)``.  Returns the absolute
    difference of the two sides.
    """
    if not 0.0 < nome <= _NOME_CAP:
        raise ValueError(f"nome must lie in (0, {_NOME_CAP}]")
    prod = 1.0
    for l in range(1, 100000):
        z2 = nome ** (2 * l)
        prod *= 1.0 - z2
        if z2 < 1e-17:
            break
    k, kp = modulus_from_spacing(-math.log(nome))
    rhs = (k * kp / (4.0 * math.sqrt(nome))) ** (1.0 / 6.0) * theta3(0.0, nome)
    return abs(prod - rhs)


@dataclass(frozen=True)
class EllipticParams:
    """Elliptic data attached to a dimerization strength.

    ``k = (1-delta)/(1+delta)`` is the modulus, ``spacing`` the pseudo-energy
    spacing ``pi K(k')/K(k)`` that controls every closed form here.
    """

    delta: float
    k: float
    k_prime: float
    spacing: float

    @classmethod
    def from_dimerization(cls, delta: float) -> "EllipticParams":
        if not 0.0 < delta < 1.0:
            raise ValueError("closed forms require dimerization in (0, 1)")
        k = (1.0 - delta) / (1.0 + delta)
        kp = math.sqrt((1.0 - k) * (1.0 + k))
        return cls(delta=delta, k=k, k_prime=kp, spacing=level_spacing(k))

    def modulus_at(self, n: float) -> tuple[float, float]:
        """Modulus pair ``(k_n, k_n')`` whose level spacing is ``n * spacing``."""
        if not n > 0.0:
            raise ValueError("replica index must be positive")
        return modulus_from_spacing(n * self.spacing)

    def nome_at(self, n: float) -> float:
        """Nome ``exp(-n * spacing)``."""
        return math.exp(-n * self.spacing)
