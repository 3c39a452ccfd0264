import decimal
import math

import numpy as np
import pytest

from sshent import aklt
from sshent import asymptotics as asym
from sshent.entanglement import EMPTY_SECTOR_THRESHOLD
from sshent.linalg import NumericalError

LOG2 = math.log(2.0)


def test_trivial_product_interval():
    t = aklt.aklt_entropies(aklt.TRIVIAL_PRODUCT, aklt.TRIPLET, 2.0)
    assert list(t.charges) == [0]
    assert t.total_vn == pytest.approx(0.0, abs=1e-14)
    assert t.total_renyi == pytest.approx(0.0, abs=1e-14)
    np.testing.assert_allclose(t.sre_renyi, 0.0, atol=1e-14)


def test_bulk_interval_mirrors_topological_phase():
    for n in (1.0, 2.0, 3.0):
        t = aklt.aklt_entropies(aklt.AKLT_BULK, aklt.TRIPLET, n)
        assert t.total_renyi == pytest.approx(2 * LOG2, abs=1e-13)
        assert t.sre(0) == pytest.approx(LOG2, abs=1e-13)
        assert t.sre(1) == 0.0 and t.sre(-1) == 0.0
        np.testing.assert_allclose(t.probabilities, [0.25, 0.5, 0.25], atol=1e-14)
    t = aklt.aklt_entropies(aklt.AKLT_BULK, aklt.TRIPLET, 1.0)
    assert t.config_entropy == pytest.approx(0.5 * LOG2, abs=1e-13)
    assert t.fluct_entropy == pytest.approx(1.5 * LOG2, abs=1e-13)


def test_interface_interval_triplet():
    for n in (1.0, 2.0):
        t = aklt.aklt_entropies(aklt.DEFECT_INTERFACE, aklt.TRIPLET, n)
        assert t.total_renyi == pytest.approx(LOG2, abs=1e-13)
        np.testing.assert_allclose(t.probabilities, [0.5, 0.5], atol=1e-14)
        np.testing.assert_allclose(t.sre_renyi, 0.0, atol=1e-13)
        assert t.config_entropy == pytest.approx(0.0, abs=1e-13)
        assert t.fluct_entropy == pytest.approx(LOG2, abs=1e-13)


def test_hybrid_interface_closed_forms():
    for p in (0.1, 0.25, 0.5, 0.7):
        eta = aklt.eta_from_weight(p)
        for n in (1.0, 2.0, 3.0):
            t = aklt.aklt_entropies(aklt.DEFECT_INTERFACE, aklt.HYBRID, n, p=p)
            want0 = aklt.hybrid_sector_entropy(eta, n)
            assert t.sre(0) == pytest.approx(want0, abs=1e-12)
            want_total = LOG2 + aklt.hybrid_sector_entropy(eta, n)
            assert t.total_renyi == pytest.approx(want_total, abs=1e-12)


def test_hybrid_limits():
    """eta = 0 reproduces the bulk values; eta = 1 collapses the pair."""
    t0 = aklt.aklt_entropies(aklt.DEFECT_INTERFACE, aklt.HYBRID, 2.0, p=0.0)
    assert aklt.eta_from_weight(0.0) == 0.0
    assert t0.sre(0) == pytest.approx(LOG2, abs=1e-13)
    assert t0.total_vn == pytest.approx(2 * LOG2, abs=1e-13)
    t1 = aklt.aklt_entropies(aklt.DEFECT_INTERFACE, aklt.HYBRID, 2.0, p=0.5)
    assert aklt.eta_from_weight(0.5) == 1.0
    assert t1.sre(0) == pytest.approx(0.0, abs=1e-13)
    assert t1.total_vn == pytest.approx(LOG2, abs=1e-13)


def test_rdm_diagonalization_matches_closed_form_grid():
    """Explicit 4x4 density matrix against the closed forms across an eta grid."""
    for eta in np.arange(0.1, 0.95, 0.1):
        p = 0.5 * (1.0 - math.sqrt(1.0 - eta * eta))
        assert aklt.eta_from_weight(p) == pytest.approx(eta, abs=1e-12)
        rho = aklt.hybrid_interface_rdm(p)
        lam = np.sort(np.linalg.eigvalsh(rho))
        want = np.sort([(1 - eta) / 4] * 2 + [(1 + eta) / 4] * 2)
        np.testing.assert_allclose(lam, want, atol=1e-12)
        for n in (2.0, 3.0):
            s_direct = math.log(float(np.sum(lam**n))) / (1.0 - n)
            t = aklt.aklt_entropies(aklt.DEFECT_INTERFACE, aklt.HYBRID, n, p=p)
            assert t.total_renyi == pytest.approx(s_direct, abs=1e-12)


def test_excess_matches_fermion_zero_mode():
    """The eta excess equals the fermionic excess at eigenvalue pair (1+-eta)/2."""
    for eta in np.arange(0.0, 1.0001, 0.125):
        p_pair = (1.0 + eta) / 2.0
        for n in (2.0, 3.0):
            aklt_excess = aklt.hybrid_sector_entropy(eta, n)
            assert aklt_excess == pytest.approx(
                asym.zero_mode_excess_renyi(p_pair, n), abs=1e-12
            )
        assert aklt.hybrid_sector_entropy(eta, 1.0) == pytest.approx(
            asym.zero_mode_excess_vn(p_pair), abs=1e-12
        )


def test_hybrid_requires_interface_case():
    with pytest.raises(ValueError, match="defect interval"):
        aklt.aklt_entropies(aklt.AKLT_BULK, aklt.HYBRID, 2.0, p=0.3)
    with pytest.raises(ValueError, match="weight"):
        aklt.aklt_entropies(aklt.DEFECT_INTERFACE, aklt.HYBRID, 2.0)


def test_probabilities_sum_to_one():
    for case in (aklt.TRIVIAL_PRODUCT, aklt.AKLT_BULK, aklt.DEFECT_INTERFACE):
        t = aklt.aklt_entropies(case, aklt.TRIPLET, 2.0)
        assert float(np.sum(t.probabilities)) == pytest.approx(1.0, abs=1e-14)
    t = aklt.aklt_entropies(aklt.DEFECT_INTERFACE, aklt.HYBRID, 2.0, p=0.2)
    assert float(np.sum(t.probabilities)) == pytest.approx(1.0, abs=1e-14)


def test_hybrid_drops_sectors_at_the_empty_threshold():
    """Near p = 1/2 the jz = +1 sector weighs 5e-15: it is empty, not listed."""
    for n in (1.0, 2.0):
        t = aklt.aklt_entropies(aklt.DEFECT_INTERFACE, aklt.HYBRID, n, p=0.5000001)
        assert list(t.charges) == [-1, 0]
        assert np.all(t.probabilities > EMPTY_SECTOR_THRESHOLD)
        assert t.total_vn == t.config_entropy + t.fluct_entropy


def _log_power_sum_decimal(weights, n, digits=50):
    """``log sum w^n`` in ``digits``-digit decimal arithmetic."""
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        total = sum(decimal.Decimal(w) ** decimal.Decimal(n) for w in weights)
        return float(total.ln())


@pytest.mark.parametrize("n, p", [(1074.0, 1e-6), (1074.0, 1e-4), (1200.0, 0.001)])
def test_hybrid_sector_where_the_direct_sum_underflows(n, p):
    """Where hi^n + lo^n leaves the normal range, the spin-0 sector takes its
    log with hi^n factored out: it used to lose digits in subnormals or raise
    a "math domain error" ValueError at 0."""
    eta = aklt.eta_from_weight(p)
    hi, lo = (1.0 + eta) / 2.0, (1.0 - eta) / 2.0
    assert hi**n + lo**n < np.finfo(float).tiny
    want = _log_power_sum_decimal([hi, lo], n) / (1.0 - n)
    assert aklt.hybrid_sector_entropy(eta, n) == pytest.approx(want, rel=1e-13)
    if n < 1075.0:
        t = aklt.aklt_entropies(aklt.DEFECT_INTERFACE, aklt.HYBRID, n, p=p)
        assert t.sre(0) == pytest.approx(want, rel=1e-13)
        # the Renyi total of the two edge spins, one free, one at (hi, lo):
        # both factors are subnormal at n = 1074
        total = _log_power_sum_decimal([0.5, 0.5], n) + _log_power_sum_decimal([hi, lo], n)
        assert t.total_renyi == pytest.approx(total / (1.0 - n), abs=1e-12)


def test_renyi_total_beyond_double_range_is_a_numerical_error():
    """From n = 1075 a free edge spin's (1/2)^n + (1/2)^n underflows, as a
    lattice mode at 1/2 does; at n = 1200 and p = 0.001 the table used to
    raise a "math domain error" ValueError."""
    with pytest.raises(NumericalError, match="n = 1200 leave double range"):
        aklt.aklt_entropies(aklt.DEFECT_INTERFACE, aklt.HYBRID, 1200.0, p=0.001)
    with pytest.raises(NumericalError, match="n = 1075 leave double range"):
        aklt.aklt_entropies(aklt.AKLT_BULK, aklt.TRIPLET, 1075.0)
    t = aklt.aklt_entropies(aklt.AKLT_BULK, aklt.TRIPLET, 1074.0)
    assert t.total_renyi == pytest.approx(2 * LOG2, abs=1e-13)
