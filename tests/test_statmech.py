import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sshent import asymptotics as asym
from sshent import entanglement as ent
from sshent import statmech as sm
from sshent.specialfn import EllipticParams


def doubled_weak_spectrum(params, l_max=10):
    half = asym.half_cut_spectrum(params, l_max, "weak")
    return np.sort(np.concatenate([half, half]))


def test_mu_pinning_trivial_spectrum(params03):
    spectrum = doubled_weak_spectrum(params03)
    ell = spectrum.size // 2
    assert sm.solve_mu(spectrum, ell) == pytest.approx(0.0, abs=1e-10)
    assert sm.solve_mu(spectrum, ell + 1) == pytest.approx(params03.spacing, abs=1e-10)


def test_mu_single_level():
    assert sm.solve_mu(np.array([0.0]), 0.5) == pytest.approx(0.0, abs=1e-12)


def test_mu_respects_constraint(params03):
    spectrum = asym.bulk_defect_spectrum(params03, 10)
    for q in (8, 9, 10, 11):
        mu = sm.solve_mu(spectrum, q)
        assert np.sum(ent.occupations_from_levels(spectrum, mu)) == pytest.approx(q, abs=1e-10)


def test_mu_out_of_range_rejected():
    spectrum = np.array([-1.0, 0.0, 1.0])
    for bad in (-0.5, 0.0, 3.0, 3.5):
        with pytest.raises(ValueError):
            sm.solve_mu(spectrum, bad)


def test_sentinel_levels_carry_integer_charge():
    spectrum = np.array([-np.inf, -np.inf, -1.0, 1.0, np.inf])
    mu = sm.solve_mu(spectrum, 3.0)
    assert mu == pytest.approx(0.0, abs=1e-10)
    # a -inf level is occupied and a +inf level empty at every mu
    assert np.sum(ent.occupations_from_levels(spectrum, mu)) == pytest.approx(3.0, abs=1e-10)


def test_level_at_mu_contributes_log2():
    assert sm.constrained_entropy(np.array([1.7]), 1.7) == pytest.approx(
        math.log(2.0), abs=1e-14
    )
    assert sm.constrained_entropy(np.array([0.0]), 40.0) == pytest.approx(0.0, abs=1e-12)
    assert sm.constrained_entropy(np.array([0.0]), -40.0) == pytest.approx(0.0, abs=1e-12)


def test_fluctuation_reconstruction_near_dimerized():
    """S(q = ell+1) ~ 2 S_tilde - 3 log 2 on the doubled weak spectrum.

    The relation neglects entropy carried by levels away from mu, which at
    delta = 0.5 contributes a few times 1e-3.
    """
    params = EllipticParams.from_dimerization(0.5)
    spectrum = doubled_weak_spectrum(params)
    ell = spectrum.size // 2
    mu = sm.solve_mu(spectrum, ell + 1)
    assert mu == pytest.approx(params.spacing, abs=1e-10)
    s_tilde = sm.constrained_entropy(spectrum, mu)
    s_exact = sm.charge_table_at_mu(spectrum, 0.0).sre_v(ell + 1)
    assert 2.0 * s_tilde - 3.0 * math.log(2.0) == pytest.approx(s_exact, abs=0.02)
    assert s_exact == pytest.approx(math.log(2.0), abs=0.02)


def test_decomposition_closes(params03):
    spectrum = doubled_weak_spectrum(params03)
    for mu in (0.0, params03.spacing, 1.3, -2.0):
        table = sm.charge_table_at_mu(spectrum, mu)
        recon = table.config_entropy + table.fluct_entropy
        assert sm.constrained_entropy(spectrum, mu) == pytest.approx(recon, abs=1e-8)


@given(
    st.lists(
        st.floats(min_value=-8.0, max_value=8.0, allow_nan=False),
        min_size=2,
        max_size=12,
    ),
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_decomposition_closes_on_random_spectra(levels, mu):
    spectrum = np.asarray(levels)
    table = sm.charge_table_at_mu(spectrum, mu)
    recon = table.config_entropy + table.fluct_entropy
    assert sm.constrained_entropy(spectrum, mu) == pytest.approx(recon, abs=1e-8)


def test_sector_entropies_mu_invariant(params03):
    spectrum = doubled_weak_spectrum(params03)
    base = sm.charge_table_at_mu(spectrum, 0.0)
    for mu in (params03.spacing, 0.7, -1.9):
        table = sm.charge_table_at_mu(spectrum, mu)
        for q, s, pq in zip(table.charges, table.sre_vn, table.probabilities):
            if pq < 1e-8:
                continue
            try:
                i = base.sector(int(q))
            except KeyError:
                continue
            if base.probabilities[i] < 1e-8:
                continue
            assert s == pytest.approx(base.sre_vn[i], abs=1e-10)


def test_nondegenerate_equidistant_spectrum_equipartitions(params03):
    """The mu-shifted defect spectrum looks the same for every target charge."""
    spectrum = asym.bulk_defect_spectrum(params03, 10)
    reports = sm.equipartition_report(spectrum, [8, 9, 10, 11, 12])
    values = [r.sector_entropy for r in reports]
    assert max(values) - min(values) < 1e-6
    for r in reports:
        assert not r.mu_at_level or abs(r.q - 10) > 1  # mu sits in gaps near center
        assert r.sre_mu_drift < 1e-10
        assert abs(r.constrained_entropy - r.reconstructed_entropy) < 1e-8


def test_doubled_spectrum_alternates(params03):
    """Doubly degenerate levels enhance odd charge offsets."""
    spectrum = doubled_weak_spectrum(params03)
    ell = spectrum.size // 2
    reports = {r.q: r for r in sm.equipartition_report(spectrum, [ell, ell + 1, ell + 2, ell + 3])}
    assert reports[ell + 1].sector_entropy > reports[ell].sector_entropy
    assert reports[ell + 3].sector_entropy > reports[ell + 2].sector_entropy
    assert reports[ell + 1].sector_entropy == pytest.approx(
        reports[ell + 3].sector_entropy, abs=1e-3
    )
    assert reports[ell + 1].mu_at_level and reports[ell + 1].level_degenerate
    assert not reports[ell].mu_at_level


def test_added_level_maximum_at_degeneracy(params03):
    """S(q) over the added-level position peaks where it crosses eps*dq."""
    eps = params03.spacing
    bulk = asym.bulk_defect_spectrum(params03, 8)
    ell = 8
    for dq in (0, 1):
        q = ell + dq
        grid = eps * dq + np.linspace(-1.5, 1.5, 61)
        values = []
        for zero_level in grid:
            spectrum = np.sort(np.append(bulk, zero_level))
            values.append(sm.charge_table_at_mu(spectrum, 0.0).sre_v(q))
        best = grid[int(np.argmax(values))]
        assert best == pytest.approx(eps * dq, abs=grid[1] - grid[0])


def test_mu_bracketing_with_added_level(params03):
    """mu stays between the neighboring bulk levels for any added-level position."""
    eps = params03.spacing
    bulk = asym.bulk_defect_spectrum(params03, 8)
    ell = 8
    for dq in (-1, 0, 1):
        q = ell + dq
        for zero_level in (-3.0 * eps, -0.3, 0.9, 2.5 * eps):
            spectrum = np.sort(np.append(bulk, zero_level))
            mu = sm.solve_mu(spectrum, q)
            assert eps * (dq - 1) - 1e-9 < mu < eps * (dq + 1) + 1e-9
