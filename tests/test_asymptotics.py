import cmath
import dataclasses
import math

import numpy as np
import pytest

from sshent import asymptotics as asym
from sshent import entanglement as ent
from sshent import groundstate as gs
from sshent import model
from sshent.linalg import NumericalError
from sshent.specialfn import EllipticParams

from conftest import DEFECT_WINDOW, ELL, TOP_WINDOW, TRIV_WINDOW, sea_of, two_defect_chain
from oracles import zero_mode_table_loop

CASES = ("topological", "trivial", "defect")
CASE_WINDOWS = {
    "topological": TOP_WINDOW,
    "trivial": TRIV_WINDOW,
    "defect": DEFECT_WINDOW,
}

LOG2 = math.log(2.0)


def lattice_lambdas(sea, spec, window):
    policy = gs.OccupationPolicy.below_half()
    return gs.correlation_matrix(sea, spec, policy, window).eigenvalues()


# ------------------------------------------------------------- dimerized


def test_dimerized_totals():
    for n in (1.0, 2.0, 3.0):
        assert asym.dimerized_table("trivial", 20, n).total_renyi == pytest.approx(0.0, abs=1e-14)
        assert asym.dimerized_table("topological", 20, n).total_renyi == pytest.approx(2 * LOG2, abs=1e-13)
        assert asym.dimerized_table("defect", 20, n).total_renyi == pytest.approx(LOG2, abs=1e-13)


def test_dimerized_sector_values():
    t = asym.dimerized_table("topological", 20, 2.0)
    assert t.sre(20) == pytest.approx(LOG2, abs=1e-13)
    assert t.sre(19) == pytest.approx(0.0, abs=1e-13)
    assert t.sre(21) == pytest.approx(0.0, abs=1e-13)
    np.testing.assert_allclose(
        [t.probability(q) for q in (19, 20, 21)], [0.25, 0.5, 0.25], atol=1e-14
    )
    d = asym.dimerized_table("defect", 20, 3.0)
    assert list(d.charges) == [19, 20]
    np.testing.assert_allclose(d.sre_renyi, 0.0, atol=1e-13)
    np.testing.assert_allclose(d.partition, [0.125, 0.125], atol=1e-14)
    assert d.config_entropy == pytest.approx(0.0, abs=1e-13)
    assert d.fluct_entropy == pytest.approx(LOG2, abs=1e-13)
    top = asym.dimerized_table("topological", 20, 1.0)
    assert top.config_entropy == pytest.approx(0.5 * LOG2, abs=1e-13)
    assert top.fluct_entropy == pytest.approx(1.5 * LOG2, abs=1e-13)


def test_dimerized_zero_mode_variants():
    for n in (1.0, 2.0):
        t = asym.dimerized_table("defect", 20, n, zero_mode_p=0.5)
        assert t.total_vn == pytest.approx(2 * LOG2, abs=1e-13)
        for p in (0.0, 1.0):
            t = asym.dimerized_table("defect", 20, n, zero_mode_p=p)
            assert t.total_vn == pytest.approx(LOG2, abs=1e-13)
    t = asym.dimerized_table("defect", 20, 2.0, zero_mode_p=0.3)
    np.testing.assert_allclose(
        [t.probability(q) for q in (19, 20, 21)],
        [0.3 / 2, 1.0 / 2, 0.7 / 2],
        atol=1e-14,
    )
    assert t.sre(20) == pytest.approx(asym.zero_mode_excess_renyi(0.3, 2.0), abs=1e-13)


def test_zero_mode_excess_closed_forms():
    assert asym.zero_mode_excess_vn(0.5) == pytest.approx(LOG2, abs=1e-15)
    assert asym.zero_mode_excess_renyi(0.5, 3.0) == pytest.approx(LOG2, abs=1e-14)
    assert asym.zero_mode_excess_vn(0.0) == 0.0
    assert asym.zero_mode_excess_renyi(1.0, 2.0) == 0.0


# ------------------------------------------------------- boundary moments


def test_strong_boundary_vanishes_at_alpha_pi(params03):
    assert asym.boundary_moment("strong", 2.0, math.pi, params03) == pytest.approx(0.0, abs=1e-14)


def test_strong_boundary_dimerized_limit():
    params = EllipticParams.from_dimerization(0.999)
    for n in (1.0, 2.0, 3.0):
        got = asym.boundary_moment("strong", n, 0.0, params)
        assert got == pytest.approx(2.0 ** (1.0 - n), abs=1e-6)


def test_defect_moment_factorizes(params03):
    for n in (1.0, 2.0):
        for alpha in (0.0, 0.3, 1.2, -2.0):
            prod = (
                asym.boundary_moment("strong", n, alpha, params03)
                * asym.boundary_moment("weak", n, alpha, params03)
                * cmath.exp(1j * alpha * (ELL - 0.5))
            )
            direct = asym.charged_moment_asymptotic("defect", n, alpha, ELL, params03)
            assert abs(prod - direct) < 1e-12


def test_phase_moduli_match_boundary_products(params03):
    for case, parts in (
        ("topological", ("strong", "strong")),
        ("trivial", ("weak", "weak")),
    ):
        z = asym.charged_moment_asymptotic(case, 2.0, 0.9, ELL, params03)
        prod = (
            asym.boundary_moment(parts[0], 2.0, 0.9, params03)
            * asym.boundary_moment(parts[1], 2.0, 0.9, params03)
        )
        assert abs(z) == pytest.approx(abs(prod), abs=1e-12)


# ---------------------------------------------------- charged moments


def test_charged_moment_vs_lattice(sea03, chain03, params03):
    for case, window in CASE_WINDOWS.items():
        lam = lattice_lambdas(sea03, chain03, window)
        for n in (1.0, 2.0, 3.0):
            lat = ent.charged_moment(lam, n, 0.0)
            ana = asym.charged_moment_asymptotic(case, n, 0.0, ELL, params03)
            assert abs(lat - ana) / abs(ana) < 1e-4
        for alpha in (0.6, -1.4):
            lat = ent.charged_moment(lam, 2.0, alpha)
            ana = asym.charged_moment_asymptotic(case, 2.0, alpha, ELL, params03)
            assert abs(lat - ana) < 1e-3


def test_charged_moment_dimerized_limits():
    params = EllipticParams.from_dimerization(0.9999)
    alpha, ell = 0.7, 12
    for n in (1.0, 2.0, 3.0):
        top = asym.charged_moment_asymptotic("topological", n, alpha, ell, params)
        want = cmath.exp(1j * alpha * ell) * (
            4.0**-n * cmath.exp(1j * alpha) + 2.0 * 4.0**-n + 4.0**-n * cmath.exp(-1j * alpha)
        )
        assert abs(top - want) < 1e-7
        triv = asym.charged_moment_asymptotic("trivial", n, alpha, ell, params)
        assert abs(triv - cmath.exp(1j * alpha * ell)) < 1e-7
        dfct = asym.charged_moment_asymptotic("defect", n, alpha, ell, params)
        want = (
            cmath.exp(1j * alpha * (ell - 0.5))
            * 2.0**-n
            * (cmath.exp(1j * alpha / 2) + cmath.exp(-1j * alpha / 2))
        )
        assert abs(dfct - want) < 1e-7


def test_defect_moment_modulus_continuity(params03):
    hi = asym.charged_moment_asymptotic("defect", 2.0, 2 * math.pi - 1e-9, ELL, params03)
    lo = asym.charged_moment_asymptotic("defect", 2.0, -1e-9, ELL, params03)
    assert abs(hi) == pytest.approx(abs(lo), abs=1e-7)


# ---------------------------------------------------------- SRPF / SRE


def test_srpf_vs_lattice_absolute(sea03, chain03, params03):
    for case, window in CASE_WINDOWS.items():
        lam = lattice_lambdas(sea03, chain03, window)
        for n in (1.0, 2.0, 3.0):
            zq = ent.srpf(lam, n)
            for dq in range(-2, 3):
                ana = asym.srpf_asymptotic(case, n, dq, params03)
                assert abs(zq[ELL + dq] - ana) < 1e-4


def test_srpf_asymptotic_sum_rule(params03):
    for case in CASES:
        for n in (1.0, 2.0, 3.0):
            total = sum(asym.srpf_asymptotic(case, n, dq, params03) for dq in range(-12, 13))
            z0 = asym.charged_moment_asymptotic(case, n, 0.0, ELL, params03).real
            assert total == pytest.approx(z0, abs=1e-10)


def test_probabilities_normalized(params03):
    for case in CASES:
        t = asym.asymptotic_table(case, 2.0, params03, ELL)
        assert float(np.sum(t.probabilities)) == pytest.approx(1.0, abs=1e-10)
        want = ELL - 0.5 if case == "defect" else float(ELL)
        assert t.mean_charge == pytest.approx(want, abs=1e-8)


def test_sre_closed_form_equals_partition_ratio(params03):
    for case in CASES:
        for n in (0.7, 2.0, 3.0):
            for dq in range(-2, 3):
                a = asym.sre_asymptotic(case, n, dq, params03)
                zn = asym.srpf_asymptotic(case, n, dq, params03)
                z1 = asym.srpf_asymptotic(case, 1.0, dq, params03)
                b = (math.log(zn) - n * math.log(z1)) / (1.0 - n)
                assert a == pytest.approx(b, abs=1e-11)


def test_parity_equipartition_structure(params03):
    """Defect sectors all equal; phase sectors equal within parity, swapped across phases."""
    for n in (2.0, 3.0):
        d0 = asym.sre_asymptotic("defect", n, 0, params03)
        for dq in range(-2, 3):
            assert asym.sre_asymptotic("defect", n, dq, params03) == pytest.approx(d0, abs=1e-12)
        t_even = asym.sre_asymptotic("topological", n, 0, params03)
        t_odd = asym.sre_asymptotic("topological", n, 1, params03)
        assert asym.sre_asymptotic("topological", n, 2, params03) == pytest.approx(t_even, abs=1e-12)
        assert asym.sre_asymptotic("topological", n, -1, params03) == pytest.approx(t_odd, abs=1e-12)
        assert asym.sre_asymptotic("trivial", n, 1, params03) == pytest.approx(t_even, abs=1e-12)
        assert asym.sre_asymptotic("trivial", n, 0, params03) == pytest.approx(t_odd, abs=1e-12)


def test_sre_vn_matches_lattice_at_center(sea03, chain03, params03):
    lam = lattice_lambdas(sea03, chain03, DEFECT_WINDOW)
    table = ent.charge_resolved_table(lam, 1.0)
    assert asym.sre_vn_asymptotic("defect", 0, params03) == pytest.approx(
        table.sre_v(ELL), abs=1e-4
    )


def test_sre_vn_dimerized_limit():
    params = EllipticParams.from_dimerization(0.9999)
    assert asym.sre_vn_asymptotic("topological", 0, params) == pytest.approx(LOG2, abs=1e-7)
    assert asym.sre_vn_asymptotic("trivial", 0, params) == pytest.approx(0.0, abs=1e-7)
    assert asym.sre_vn_asymptotic("defect", 0, params) == pytest.approx(0.0, abs=1e-7)


def test_sre_vn_defect_charge_independent(params03):
    base = asym.sre_vn_asymptotic("defect", 0, params03)
    for dq in (-2, -1, 1, 2):
        assert asym.sre_vn_asymptotic("defect", dq, params03) == pytest.approx(base, abs=1e-10)


def test_consistency_grid():
    """Lattice and closed forms agree across delta, n, and charge offset.

    Partition functions agree absolutely at the stated exponential accuracy.
    Sector entropies of a defect interval amplify the window-edge tails in
    charge-suppressed sectors, so their bound carries the measured
    edge-distance rate exp(-(ell-2)/xi) with an order-20 prefactor.
    """
    for delta in (0.2, 0.3, 0.5):
        params = EllipticParams.from_dimerization(delta)
        xi = model.localization_length(delta)
        spec = two_defect_chain(delta)
        sea = sea_of(spec)
        z_bound = max(1e-4, 5.0 * math.exp(-ELL / xi))
        for case, window in CASE_WINDOWS.items():
            lam = lattice_lambdas(sea, spec, window)
            s_bound = z_bound
            if case == "defect":
                s_bound = max(z_bound, 25.0 * math.exp(-(ELL - 2) / xi))
            for n in (1.0, 2.0, 3.0):
                zq = ent.srpf(lam, n)
                table = ent.charge_resolved_table(lam, n)
                for dq in range(-2, 3):
                    ana_z = asym.srpf_asymptotic(case, n, dq, params)
                    assert abs(zq[ELL + dq] - ana_z) <= z_bound
                    if n == 1.0:
                        ana_s = asym.sre_vn_asymptotic(case, dq, params)
                        assert abs(table.sre_v(ELL + dq) - ana_s) <= s_bound
                    else:
                        ana_s = asym.sre_asymptotic(case, n, dq, params)
                        assert abs(table.sre(ELL + dq) - ana_s) <= s_bound


# ------------------------------------------------------------ spectra


def test_half_cut_spectra_shapes(params03):
    eps = params03.spacing
    d = asym.half_cut_spectrum(params03, 3, "defect")
    np.testing.assert_allclose(d, eps * np.arange(-3, 4), atol=1e-14)
    s = asym.half_cut_spectrum(params03, 3, "strong")
    np.testing.assert_allclose(s, 2 * eps * np.arange(-3, 4), atol=1e-14)
    w = asym.half_cut_spectrum(params03, 3, "weak")
    np.testing.assert_allclose(w, eps * np.array([-5, -3, -1, 1, 3, 5]), atol=1e-14)
    assert int(np.sum(s == 0.0)) == 1
    doubled = np.concatenate([s, s])  # finite topological interval
    assert int(np.sum(doubled == 0.0)) == 2


def test_bulk_defect_spectrum_window(params03):
    b = asym.bulk_defect_spectrum(params03, 5)
    np.testing.assert_allclose(b, params03.spacing * np.arange(-4, 5), atol=1e-14)


def test_defect_spectrum_matches_lattice(sea03, chain03, params03):
    lam = np.sort(lattice_lambdas(sea03, chain03, DEFECT_WINDOW))
    with np.errstate(divide="ignore"):
        eps_lat = np.log((1.0 - lam) / np.clip(lam, 1e-300, None))
    middle = np.sort(eps_lat[np.argsort(np.abs(eps_lat))[:11]])
    lam_got = 1.0 / (np.exp(middle) + 1.0)
    lam_want = 1.0 / (np.exp(params03.spacing * np.arange(-5, 6)) + 1.0)
    np.testing.assert_allclose(lam_got, lam_want, atol=1e-4)


def test_spacing_round_trip_through_modulus(params03):
    from sshent.specialfn import level_spacing

    for n in (1.0, 2.0, 3.0):
        kn, _ = params03.modulus_at(n)
        assert level_spacing(kn) == pytest.approx(n * params03.spacing, rel=1e-10)


# ----------------------------------------------------------- zero modes


def test_crossing_weight_matches_degeneracy(params03):
    eps = params03.spacing
    for dq in (-2, -1, 0, 1, 2):
        p_star = asym.crossing_weight(dq, params03)
        assert asym.added_pseudo_energy(p_star) == pytest.approx(eps * dq, abs=1e-12)


def test_zero_mode_sre_maximum_at_crossing(params03):
    for dq in (-1, 0, 1, 2):
        p_star = asym.crossing_weight(dq, params03)
        base = asym.zero_mode_sre_vn(p_star, dq, params03)
        assert base - asym.sre_vn_asymptotic("defect", dq, params03) == pytest.approx(
            LOG2, abs=1e-12
        )
        for p in (p_star * 0.9, p_star + 0.1 * (1 - p_star)):
            assert asym.zero_mode_sre_vn(p, dq, params03) < base


def test_zero_mode_reflection_symmetry(params03):
    """p <-> 1-p combined with dq <-> -dq leaves the table invariant.

    Follows from the two-term structure of the partition functions and the
    dq <-> -1-dq symmetry of the bare defect Gaussian.
    """
    for p in (0.1, 0.3, 0.45):
        for dq in (-2, -1, 0, 1):
            a = asym.zero_mode_sre_vn(p, dq, params03)
            b = asym.zero_mode_sre_vn(1.0 - p, -dq, params03)
            assert a == pytest.approx(b, abs=1e-12)
            za = asym.zero_mode_srpf(p, 2.0, dq, params03)
            zb = asym.zero_mode_srpf(1.0 - p, 2.0, -dq, params03)
            assert za == pytest.approx(zb, abs=1e-12)
    # the bare defect Gaussian itself reflects about its center -1/2
    for dq in (-3, -1, 0, 2):
        assert asym.srpf_asymptotic("defect", 2.0, dq, params03) == pytest.approx(
            asym.srpf_asymptotic("defect", 2.0, -1 - dq, params03), abs=1e-15
        )


def test_zero_mode_srpf_shift_at_extremes(params03):
    for dq in range(-2, 3):
        base = asym.srpf_asymptotic("defect", 2.0, dq, params03)
        assert asym.zero_mode_srpf(1.0, 2.0, dq, params03) == pytest.approx(base, abs=1e-15)
        shifted = asym.srpf_asymptotic("defect", 2.0, dq - 1, params03)
        assert asym.zero_mode_srpf(0.0, 2.0, dq, params03) == pytest.approx(shifted, abs=1e-15)


def test_zero_mode_table_vs_lattice(sea03, chain03, params03, zero_pair03):
    for p in (0.02, 0.1, 0.5, 0.98):
        policy = gs.OccupationPolicy.half(zero_pair03.with_weight(p))
        lam = gs.correlation_matrix(sea03, chain03, policy, DEFECT_WINDOW).eigenvalues()
        lat = ent.charge_resolved_table(lam, 1.0)
        ana = asym.zero_mode_table(p, 1.0, params03, ELL)
        for dq in range(-2, 3):
            assert lat.sre_v(ELL + dq) == pytest.approx(ana.sre_v(ELL + dq), abs=1e-3)
            assert lat.probability(ELL + dq) == pytest.approx(
                ana.probability(ELL + dq), abs=1e-4
            )
        assert lat.total_vn == pytest.approx(ana.total_vn, abs=1e-3)


def test_zero_mode_table_reduces_to_dimerized():
    params = EllipticParams.from_dimerization(0.9999)
    for n in (1.0, 2.0):
        for p in (0.3, 0.5):
            t = asym.zero_mode_table(p, n, params, 20)
            d = asym.dimerized_table("defect", 20, n, zero_mode_p=p)
            for q in (19, 20, 21):
                assert t.probability(q) == pytest.approx(d.probability(q), abs=1e-6)
            assert t.total_vn == pytest.approx(d.total_vn, abs=1e-6)


def test_zero_mode_table_at_full_weight_is_the_defect_table(params03):
    """p = 1 leaves the zero mode outside: the same sectors, bit for bit."""
    for n in (1.0, 2.0):
        zm = asym.zero_mode_table(1.0, n, params03, ELL)
        at = asym.asymptotic_table("defect", n, params03, ELL)
        for field in dataclasses.fields(zm):
            got, want = getattr(zm, field.name), getattr(at, field.name)
            assert np.array_equal(got, want), field.name


CLOSED_FORM_CACHES = (
    asym.srpf_asymptotic, asym.sre_asymptotic, asym.sre_vn_asymptotic, asym._defect_srpf_column,
)


def _clear_closed_form_caches():
    for fn in CLOSED_FORM_CACHES:
        fn.cache_clear()


def _cache_misses():
    return [fn.cache_info().misses for fn in CLOSED_FORM_CACHES]


def _zero_mode_tables(params):
    return [asym.zero_mode_table(p, n, params, ELL) for p in (0.0, 0.3, 0.71) for n in (1.0, 2.0)]


def test_zero_mode_table_same_with_cold_and_warm_cache(params03):
    _clear_closed_form_caches()
    cold = _zero_mode_tables(params03)
    warm = _zero_mode_tables(params03)
    assert all(h > 0 for h in (fn.cache_info().hits for fn in CLOSED_FORM_CACHES))
    for a, b in zip(cold, warm):
        for field in dataclasses.fields(a):
            assert np.array_equal(getattr(a, field.name), getattr(b, field.name)), field.name


@pytest.mark.parametrize("n", [0.5, 1.0, 2.0])
def test_zero_mode_table_partitions_are_zero_mode_srpf(params03, n):
    """The table reads the weight-independent defect columns once; its
    partition functions equal ``zero_mode_srpf`` bit for bit."""
    for p in (0.0, 0.002, 0.3, 0.5, 1.0):
        table = asym.zero_mode_table(p, n, params03, ELL)
        want = [asym.zero_mode_srpf(p, n, int(q) - ELL, params03) for q in table.charges]
        probs = [asym.zero_mode_srpf(p, 1.0, int(q) - ELL, params03) for q in table.charges]
        assert table.partition.tolist() == want
        assert table.probabilities.tolist() == probs


def test_closed_form_caches_keep_dimerizations_apart(params03):
    other = EllipticParams.from_dimerization(0.4)
    _clear_closed_form_caches()
    alone = _zero_mode_tables(other)
    misses_alone = _cache_misses()
    _clear_closed_form_caches()
    first = _zero_mode_tables(params03)
    before = _cache_misses()
    after_other = _zero_mode_tables(other)
    # the second dimerization finds none of the first one's entries
    assert [b - a for a, b in zip(before, _cache_misses())] == misses_alone
    for a, b in zip(alone, after_other):
        assert np.array_equal(a.sre_vn, b.sre_vn)
    assert not np.array_equal(first[1].sre_vn, after_other[1].sre_vn)


def _sweep_weights(params):
    crossings = [asym.crossing_weight(dq, params) for dq in range(-3, 4)]
    spread = np.random.default_rng(13).random(120).tolist()
    return [0.0, 1e-12, *crossings, 0.5, 1.0 - 1e-12, 1.0, *spread]


def _same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_list", [[0.5, 1.0, 2.0, 3.0], [2.0, 1.0], [3.0, 0.5, 1.0], [1.0]])
@pytest.mark.parametrize("delta", [0.3, 0.9])
def test_zero_mode_tables_match_the_per_weight_oracle(n_list, delta):
    """Every (p, n) of the batched columns is the per-weight, per-sector
    table of ``oracles.zero_mode_table_loop``, bit for bit, and so is
    ``zero_mode_table``: weights at both ends, within 1e-12 of them and on
    the crossings, with n = 1 anywhere in ``n_list``."""
    params = EllipticParams.from_dimerization(delta)
    weights = _sweep_weights(params)
    cols = asym.zero_mode_tables(weights, n_list, params, ELL)
    # (point, n_index, q) order
    order = np.lexsort((cols["q"], cols["n_index"], cols["window"]))
    assert np.array_equal(order, np.arange(order.size))
    for i, p in enumerate(weights):
        for j, n in enumerate(n_list):
            want = zero_mode_table_loop(p, n, params, ELL)
            rows = (cols["window"] == i) & (cols["n_index"] == j)
            for key, field in [("q", "charges"), ("Z1", "probabilities"), ("S_n", "sre_renyi")]:
                expected = getattr(want, field).astype(cols[key].dtype)
                assert _same_bits(cols[key][rows], expected), (p, n, key)
            for key, total in [("S", want.total_vn), ("S_c", want.config_entropy),
                               ("S_f", want.fluct_entropy)]:
                assert _same_bits(cols[key][rows], np.full(want.charges.size, total)), (p, n, key)
            one = asym.zero_mode_table(p, n, params, ELL)
            for field in dataclasses.fields(one):
                assert _same_bits(getattr(one, field.name), getattr(want, field.name)), field.name


def test_zero_mode_tables_reject_what_the_table_rejects(params03):
    for bad in ([0.5, 1.5], [-0.1], [math.nan]):
        with pytest.raises(ValueError, match="weight must lie in"):
            asym.zero_mode_tables(bad, [1.0], params03, ELL)
    with pytest.raises(ValueError, match="weight must lie in"):
        asym.zero_mode_table(1.5, 1.0, params03, ELL)
    for n in (0.0, -1.0):
        with pytest.raises(ValueError, match="replica index must be positive"):
            asym.zero_mode_tables([0.5], [1.0, n], params03, ELL)
        with pytest.raises(ValueError, match="replica index must be positive"):
            asym.zero_mode_table(0.5, n, params03, ELL)
    empty = asym.zero_mode_tables([], [1.0], params03, ELL)
    assert all(col.size == 0 for col in empty.values())


@pytest.mark.parametrize(
    "build",
    [
        *[pytest.param(lambda n, p, case=case: asym.asymptotic_table(case, n, p, ELL), id=case)
          for case in ("topological", "trivial", "defect")],
        pytest.param(lambda n, p: asym.zero_mode_tables([0.0, 0.4, 1.0], [1.0, n], p, ELL),
                     id="zero-mode-tables"),
        pytest.param(lambda n, p: asym.zero_mode_table(0.4, n, p, ELL), id="zero-mode-table"),
    ],
)
def test_closed_forms_beyond_double_range_are_numerical_errors(build):
    """At n = 1100 a modulus, a theta power or a log argument leaves double
    range: a division by zero, an overflow or a log of 0 used to escape as
    ZeroDivisionError, OverflowError or a "math domain error" ValueError."""
    params = EllipticParams.from_dimerization(0.3)
    with pytest.raises(NumericalError, match="closed forms at Renyi index n = 1100 leave double"):
        build(1100.0, params)
    build(3.0, params)


def test_sector_log_underflow_is_a_numerical_error():
    """The topological sector entropy at n = 100 (delta = 0.3) takes the log
    of a theta ratio that underflows to 0."""
    params = EllipticParams.from_dimerization(0.3)
    with pytest.raises(NumericalError, match="n = 100 .*underflows to 0.0"):
        asym.asymptotic_table("topological", 100.0, params, ELL)
    asym.asymptotic_table("defect", 100.0, params, ELL)
