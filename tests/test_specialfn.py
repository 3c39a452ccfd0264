import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sshent import specialfn as sf

from oracles import elliptic_integral_quadrature, modulus_from_spacing_200


def test_elliptic_k_at_zero():
    assert sf.complete_elliptic_k(0.0) == pytest.approx(math.pi / 2, abs=1e-15)


def test_elliptic_k_vs_quadrature():
    for k in (0.2, 0.5385, 0.9):
        want = elliptic_integral_quadrature(k)
        assert sf.complete_elliptic_k(k) == pytest.approx(want, rel=1e-10)


def test_elliptic_k_diverges_monotonically():
    assert sf.complete_elliptic_k(0.999) > sf.complete_elliptic_k(0.99) > sf.complete_elliptic_k(0.9)
    with pytest.raises(ValueError):
        sf.complete_elliptic_k(1.0)


def test_theta_special_values():
    assert sf.theta3(0.0, 0.0) == 1.0
    assert sf.theta2(0.0, 0.0) == 0.0
    for z in (0.1, 0.5, 0.9):
        assert sf.theta2(math.pi / 2.0, z) == pytest.approx(0.0, abs=1e-14)


def test_theta_rejects_large_nome():
    for fn in (sf.theta2, sf.theta3):
        with pytest.raises(ValueError):
            fn(0.0, 0.9995)
    with pytest.raises(ValueError):
        sf.theta3(0.0, 1.0)


def test_theta_series_vs_product_spot():
    assert sf.theta2(0.3, 0.4) == pytest.approx(sf.theta2_product(0.3, 0.4), abs=1e-12)
    assert sf.theta3(0.3, 0.4) == pytest.approx(sf.theta3_product(0.3, 0.4), abs=1e-12)


@given(
    st.floats(min_value=0.0, max_value=math.pi, allow_nan=False),
    st.floats(min_value=0.0, max_value=0.95, allow_nan=False),
)
@settings(max_examples=200, deadline=None)
def test_theta_series_vs_product(omega, nome):
    scale = max(1.0, abs(sf.theta3(omega, nome)))
    assert abs(sf.theta2(omega, nome) - sf.theta2_product(omega, nome)) < 1e-12 * scale
    assert abs(sf.theta3(omega, nome) - sf.theta3_product(omega, nome)) < 1e-12 * scale


@given(st.floats(min_value=0.01, max_value=0.6, allow_nan=False))
@settings(max_examples=100, deadline=None)
def test_theta3_minimum_at_half_period(nome):
    """theta3(w|z) >= theta3(pi/2|z) > 0; positivity every denominator relies on.

    Nomes used here are exp(-n*spacing) <= 0.2 or so; beyond ~0.6 the
    alternating series at the half period cancels below double precision.
    """
    floor = sf.theta3(math.pi / 2.0, nome)
    assert floor > 0.0
    for omega in (0.0, 0.4, 1.1, 2.0):
        assert sf.theta3(omega, nome) >= floor - 1e-14


def test_spacing_round_trip():
    for delta in (0.1, 0.3, 0.5, 0.7, 0.9):
        k = (1.0 - delta) / (1.0 + delta)
        spacing = sf.level_spacing(k)
        k_back, kp_back = sf.modulus_from_spacing(spacing)
        assert k_back == pytest.approx(k, abs=1e-10)
        assert k_back**2 + kp_back**2 == pytest.approx(1.0, abs=1e-12)


def test_spacing_self_consistency_n1():
    params = sf.EllipticParams.from_dimerization(0.3)
    k1, _ = params.modulus_at(1.0)
    assert k1 == pytest.approx(params.k, abs=1e-10)


def test_modulus_nome_theta_identity():
    """k_n equals [theta2/theta3]^2 at the matching nome."""
    params = sf.EllipticParams.from_dimerization(0.3)
    for n in (1.0, 2.0, 3.0):
        kn, _ = params.modulus_at(n)
        z = params.nome_at(n)
        ident = (sf.theta2(0.0, z) / sf.theta3(0.0, z)) ** 2
        assert kn == pytest.approx(ident, abs=1e-10)


def test_modulus_vanishes_at_large_spacing():
    # k ~ 4 exp(-spacing/2) in this regime
    k10, _ = sf.modulus_from_spacing(10.0)
    k20, _ = sf.modulus_from_spacing(20.0)
    assert k20 < k10 < 3e-2
    assert k10 == pytest.approx(4.0 * math.exp(-5.0), rel=2e-4)
    assert k20 == pytest.approx(4.0 * math.exp(-10.0), rel=2e-8)


def test_spacing_increases_with_dimerization():
    deltas = np.arange(0.1, 0.95, 0.1)
    spacings = [sf.EllipticParams.from_dimerization(d).spacing for d in deltas]
    assert all(s > 0 for s in spacings)
    assert all(b > a for a, b in zip(spacings, spacings[1:]))


def test_euler_product_identity():
    for delta in (0.3, 0.7):
        params = sf.EllipticParams.from_dimerization(delta)
        assert sf.euler_product_residual(params.nome_at(1.0)) <= 1e-10


def test_euler_product_small_nome_limit():
    # both sides approach 1
    assert sf.euler_product_residual(1e-9) < 1e-8


def test_params_validation():
    with pytest.raises(ValueError):
        sf.EllipticParams.from_dimerization(1.0)
    with pytest.raises(ValueError):
        sf.modulus_from_spacing(0.0)


def test_modulus_inversion_stops_where_the_halvings_do():
    """The inversion stops at the first halving that leaves (lo, hi) as they
    were; every later one would too, so it returns the bits of 200 halvings,
    on a spacing grid from 1e-3 to 200 and the spacings scans invert."""
    spacings = np.geomspace(1e-3, 200.0, 5000).tolist()
    for delta in (0.05, 0.1, 0.3, 0.6, 0.9):
        base = sf.EllipticParams.from_dimerization(delta).spacing
        spacings += [n * base for n in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 7.5, 10.0)]
    invert = sf.modulus_from_spacing.__wrapped__  # not the memo
    assert [invert(s) for s in spacings] == [modulus_from_spacing_200(s) for s in spacings]
