import math
import re
import warnings
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sshent import aklt
from sshent import asymptotics as asym
from sshent import entanglement as ent
from sshent import groundstate as gs
from sshent.asymptotics import dimerized_lambdas
from sshent.linalg import NumericalError
from sshent.specialfn import EllipticParams

import oracles
from oracles import brute_force_sector_data, srpf_by_flux_quadrature

lambda_arrays = st.lists(
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    min_size=1,
    max_size=8,
).map(np.asarray)

renyi_indices = st.sampled_from([0.5, 2.0, 3.0, 1.7])


def test_total_entropies_dimerized_values():
    top = np.array([0.5, 0.5, 1.0, 1.0, 0.0, 0.0])
    assert ent.total_vn(top) == pytest.approx(2 * math.log(2), abs=1e-14)
    for n in (0.5, 2.0, 3.0):
        assert ent.total_renyi(top, n) == pytest.approx(2 * math.log(2), abs=1e-14)
    defect = np.array([0.5, 1.0, 0.0, 0.0])
    assert ent.total_vn(defect) == pytest.approx(math.log(2), abs=1e-14)
    frozen = np.array([0.0, 1.0, 1.0, 0.0])
    assert ent.total_vn(frozen) == 0.0
    assert ent.total_renyi(frozen, 2.0) == 0.0


def test_total_renyi_where_a_mode_factor_underflows():
    """lam^n + (1 - lam)^n below the normal range takes its log as
    n log max + log1p((min/max)^n): at n = 1100 a mode at 1/2 gives log 2
    instead of +inf and a divide-by-zero warning; the other modes keep the
    direct sum bit for bit."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert ent.total_renyi(np.array([0.5]), 1100.0) == pytest.approx(math.log(2), rel=1e-15)
        lam = np.array([0.5, 0.1, 0.0, 1.0])
        want = (1100.0 * math.log(0.5) + math.log(2.0) + math.log(0.9**1100.0)) / (1.0 - 1100.0)
        assert ent.total_renyi(lam, 1100.0) == pytest.approx(want, rel=1e-14)
    lam = np.random.default_rng(3).random(40)
    for n in (0.5, 2.0, 3.0, 60.0):
        direct = float(np.sum(np.log(lam**n + (1.0 - lam) ** n)) / (1.0 - n))
        assert ent.total_renyi(lam, n) == direct
    with pytest.raises(NumericalError, match="n = inf leave double range"):
        ent.total_renyi(np.array([0.5, 0.2]), math.inf)


def test_total_renyi_rejects_n_one():
    with pytest.raises(ValueError):
        ent.total_renyi(np.array([0.5]), 1.0)


def test_lambda_clamp():
    lam = ent.clamp_lambdas(np.array([-1e-12, 1.0 + 1e-12, 0.3]))
    assert lam.min() == 0.0 and lam.max() == 1.0
    with pytest.raises(ValueError, match="outside"):
        ent.clamp_lambdas(np.array([-1e-3]))


def test_nan_eigenvalue_is_numerical_error():
    nan = float("nan")
    with pytest.raises(NumericalError, match="outside"):
        ent.charge_resolved_table(np.array([0.5, nan, 0.3]), 1.0)
    # one NaN row of a stack fails the whole stack instead of losing its sectors
    with pytest.raises(NumericalError, match="outside"):
        ent.charge_resolved_tables(np.array([[0.5, 0.2, 0.3], [0.5, nan, 0.3]]), [1.0])


def test_spectrum_round_trip():
    lam = np.array([1e-8, 0.3, 0.5, 0.9999, 0.0, 1.0])
    spec = oracles.EntanglementSpectrum.from_lambdas(lam)
    assert spec.epsilons[4] == math.inf and spec.epsilons[5] == -math.inf
    finite = np.isfinite(spec.epsilons)
    back = ent.occupations_from_levels(spec.epsilons[finite])
    np.testing.assert_allclose(back, lam[finite], atol=1e-10)


def test_charged_moment_special_points():
    lam = np.array([0.2, 0.7, 0.4])
    for n in (1.0, 2.0):
        z0 = ent.charged_moment(lam, n, 0.0)
        assert z0.imag == pytest.approx(0.0, abs=1e-14)
        want = math.exp((1.0 - n) * ent.total_renyi(lam, n)) if n != 1.0 else 1.0
        assert z0.real == pytest.approx(want, rel=1e-12)


def test_charged_moment_dimerized_closed_forms():
    ell = 6
    alpha = 0.83
    trivial = np.array([1.0] * ell + [0.0] * ell)
    for n in (1.0, 2.0, 3.0):
        z = ent.charged_moment(trivial, n, alpha)
        want = np.exp(1j * alpha * ell)
        assert z == pytest.approx(want, abs=1e-12)
    defect = np.array([0.5] + [1.0] * (ell - 1) + [0.0] * ell)
    for n in (1.0, 2.0, 3.0):
        z = ent.charged_moment(defect, n, alpha)
        want = (
            np.exp(1j * alpha * (ell - 0.5))
            * 2.0**-n
            * (np.exp(1j * alpha / 2) + np.exp(-1j * alpha / 2))
        )
        assert z == pytest.approx(want, abs=1e-12)


def test_srpf_frozen_two_mode_example():
    """Z_2(q) for lambdas {1/4, 3/4}, enumerated by hand over the 4 patterns."""
    zq = ent.srpf(np.array([0.25, 0.75]), 2.0)
    np.testing.assert_allclose(zq, [0.03515625, 0.3203125, 0.03515625], atol=1e-15)
    table = ent.charge_resolved_table(np.array([0.25, 0.75]), 1.0)
    np.testing.assert_allclose(table.probabilities, [0.1875, 0.625, 0.1875], atol=1e-15)
    assert table.sre_v(1) == pytest.approx(0.3250829733914483, abs=1e-14)


def test_srpf_dimerized_tables():
    ell = 5
    top = np.array([0.5, 0.5] + [1.0] * (ell - 1) + [0.0] * (ell - 1))
    z1 = ent.srpf(top, 1.0)
    np.testing.assert_allclose(z1[ell - 1 : ell + 2], [0.25, 0.5, 0.25], atol=1e-14)
    zn = ent.srpf(top, 3.0)
    np.testing.assert_allclose(
        zn[ell - 1 : ell + 2], [2.0**-6, 2.0**-5, 2.0**-6], atol=1e-14
    )
    defect = np.array([0.5] + [1.0] * (ell - 1) + [0.0] * ell)
    zn = ent.srpf(defect, 2.0)
    np.testing.assert_allclose(zn[ell - 1 : ell + 1], [0.25, 0.25], atol=1e-14)
    assert np.all(zn[: ell - 1] == 0.0) and np.all(zn[ell + 1 :] == 0.0)


@given(lambda_arrays, renyi_indices)
@settings(max_examples=150, deadline=None)
def test_srpf_matches_enumeration(lam, n):
    z_n_brute, z_1_brute, _ = brute_force_sector_data(lam, n)
    np.testing.assert_allclose(ent.srpf(lam, n), z_n_brute, atol=1e-12)
    np.testing.assert_allclose(ent.srpf(lam, 1.0), z_1_brute, atol=1e-12)


@given(lambda_arrays)
@settings(max_examples=100, deadline=None)
def test_sector_vn_matches_enumeration(lam):
    _, z_1, s_brute = brute_force_sector_data(lam, 1.0)
    table = ent.charge_resolved_table(lam, 1.0)
    np.testing.assert_allclose(table.probabilities, z_1[table.charges], atol=1e-12)
    for q in np.flatnonzero(z_1 > 1e-9):
        assert table.sre_v(q) == pytest.approx(s_brute[q], abs=1e-9)


@given(lambda_arrays, renyi_indices)
@settings(max_examples=100, deadline=None)
def test_probability_and_charge_sum_rules(lam, n):
    table = ent.charge_resolved_table(lam, n)
    assert float(np.sum(table.probabilities)) == pytest.approx(1.0, abs=1e-10)
    assert float(np.sum(table.charges * table.probabilities)) == pytest.approx(
        float(np.sum(lam)), abs=1e-10
    )
    assert table.total_vn == pytest.approx(
        table.config_entropy + table.fluct_entropy, abs=1e-10
    )


@given(lambda_arrays, st.sampled_from([1.0, 2.0, 3.0]))
@settings(max_examples=100, deadline=None)
def test_flux_sum_rule(lam, n):
    zq = ent.srpf(lam, n)
    z0 = ent.charged_moment(lam, n, 0.0)
    assert float(np.sum(zq)) == pytest.approx(z0.real, abs=1e-10)
    assert z0.imag == pytest.approx(0.0, abs=1e-12)


@given(
    st.lists(
        st.floats(min_value=0.01, max_value=0.99, allow_nan=False),
        min_size=1,
        max_size=6,
    ).map(np.asarray)
)
@settings(max_examples=60, deadline=None)
def test_sector_vn_vs_replica_derivative(lam):
    """Analytic data against a central difference of Z_n/Z_1^n at n = 1."""
    table = ent.charge_resolved_table(lam, 1.0)
    h = 1e-4
    zp = ent.srpf(lam, 1.0 + h)
    zm = ent.srpf(lam, 1.0 - h)
    for q, z1 in zip(table.charges, table.probabilities):
        if z1 < 1e-6:
            continue
        ratio_p = zp[q] / z1 ** (1.0 + h)
        ratio_m = zm[q] / z1 ** (1.0 - h)
        numeric = -(ratio_p - ratio_m) / (2.0 * h)
        assert table.sre_v(q) == pytest.approx(numeric, abs=1e-6)


def test_srpf_vs_flux_quadrature(rng):
    lam = rng.uniform(0.0, 1.0, size=10)
    for n in (1.0, 2.0, 3.0):
        want = srpf_by_flux_quadrature(lam, n)
        np.testing.assert_allclose(ent.srpf(lam, n), want, atol=1e-8)


def test_empty_sectors_are_absent():
    lam = np.array([1.0, 1.0, 0.0])
    table = ent.charge_resolved_table(lam, 2.0)
    assert list(table.charges) == [2]
    assert table.probability(2) == pytest.approx(1.0)
    with pytest.raises(KeyError):
        table.sre(0)


def _hand_grid(renyi, zn):
    """A one-row grid over q = 0, 1, 2 whose last sector sits at the
    empty-sector threshold."""
    probs = np.array([[0.3, 0.7, ent.EMPTY_SECTOR_THRESHOLD]])
    return {"q": np.arange(3), "occupied": probs > ent.EMPTY_SECTOR_THRESHOLD, "z1": probs,
            "vn": np.array([[0.2, 0.5, 9.0]]), "renyi": np.array([[renyi]]),
            "zn": np.array([[zn]])}


def test_sector_table_conventions():
    """Drop at the empty-sector threshold, S = S_c + S_f, and the two Renyi totals."""
    vn = ent.sector_table(_hand_grid([0.2, 0.5, 9.0], [0.3, 0.7, 1e-14]), 1.0)
    assert list(vn.charges) == [0, 1]
    assert vn.total_vn == vn.config_entropy + vn.fluct_entropy
    assert vn.config_entropy == pytest.approx(0.3 * 0.2 + 0.7 * 0.5, abs=1e-15)
    assert vn.fluct_entropy == pytest.approx(
        -(0.3 * math.log(0.3) + 0.7 * math.log(0.7)), abs=1e-15
    )
    assert vn.total_renyi == vn.total_vn
    assert vn.mean_charge == pytest.approx(0.7, abs=1e-15)
    two = ent.sector_table(_hand_grid([1.0, 2.0, 3.0], [0.1, 0.4, 5.0]), 2.0)
    np.testing.assert_array_equal(two.partition, [0.1, 0.4])
    np.testing.assert_array_equal(two.sre_renyi, [1.0, 2.0])
    assert two.total_renyi == pytest.approx(-math.log(0.5), abs=1e-15)
    assert two.total_vn == vn.total_vn
    with pytest.raises(NumericalError, match="n = 2 leave double range"):
        ent.sector_table(_hand_grid([1.0, 2.0, 3.0], [0.0, 0.0, 5.0]), 2.0)


def test_sector_columns_read_rows_and_a_producer_total():
    """Window i reads grid row rows[i]; a producer's S replaces S_c + S_f."""
    grid = _hand_grid([1.0, 2.0, 3.0], [0.1, 0.4, 5.0])
    two_rows = {key: np.concatenate([v, v[..., ::-1]]) if key != "q" else v
                for key, v in grid.items()}
    cols = ent.sector_columns(two_rows, np.array([1, 0, 1]))
    assert cols["window"].tolist() == [0, 0, 1, 1, 2, 2]
    assert cols["q"].tolist() == [1, 2, 0, 1, 1, 2]
    assert cols["S_n"].tolist() == [2.0, 1.0, 1.0, 2.0, 2.0, 1.0]
    np.testing.assert_array_equal(cols["S"], cols["S_c"] + cols["S_f"])
    own = ent.sector_columns(dict(grid, S=np.array([7.0])))
    assert own["S"].tolist() == [7.0, 7.0]
    assert own["S_c"].tolist() == ent.sector_columns(grid)["S_c"].tolist()


CASES = ["topological", "trivial", "defect"]
ENGINE_N_LIST = [0.5, 1.0, 2.0, 3.0]
AKLT_SPECS = [(case, aklt.TRIPLET, None)
              for case in (aklt.TRIVIAL_PRODUCT, aklt.AKLT_BULK, aklt.DEFECT_INTERFACE)]
AKLT_SPECS += [(aklt.DEFECT_INTERFACE, aklt.HYBRID, p) for p in (0.0, 0.1, 0.5, 0.5000001, 1.0)]


def _closed_form_grids(delta):
    params = EllipticParams.from_dimerization(delta)
    points = [(None, None, case) for case in CASES]
    return (asym.case_grid(CASES, ENGINE_N_LIST, params, 20),
            oracles.closed_form_sectors_by_reference(points, ENGINE_N_LIST, params, 20))


@pytest.mark.parametrize(
    "grids",
    [pytest.param(partial(_closed_form_grids, d), id=f"delta={d:g}")
     for d in np.round(np.arange(0.05, 0.96, 0.05), 2).tolist()]
    + [pytest.param(lambda: (aklt.aklt_grid(AKLT_SPECS, ENGINE_N_LIST),
                             oracles.aklt_sectors_by_reference(AKLT_SPECS, ENGINE_N_LIST)),
                    id="aklt")],
)
def test_sector_columns_equal_the_compacted_reference(grids):
    """The masked row sums of ``sector_columns`` equal the plain sums over the
    compacted occupied sectors bit for bit, and so does every other column:
    the three closed-form cases across delta, and the AKLT specs."""
    grid, want = grids()
    got = ent.sector_columns(grid)
    assert set(got) == set(want)
    for key, col in got.items():
        assert col.dtype == want[key].dtype, key
        assert col.tobytes() == want[key].tobytes(), key


def test_table_renyi_index_one_uses_vn():
    lam = np.array([0.3, 0.6])
    table = ent.charge_resolved_table(lam, 1.0)
    np.testing.assert_allclose(table.sre_renyi, table.sre_vn, atol=0.0)
    assert table.total_renyi == pytest.approx(table.total_vn, abs=0.0)


def test_underflow_control_long_product():
    lam = np.full(40, 0.5)
    zq = ent.srpf(lam, 3.0)
    assert np.all(np.isfinite(zq))
    assert float(np.sum(zq)) == pytest.approx(
        math.exp(-2.0 * ent.total_renyi(lam, 3.0)), rel=1e-10
    )


@given(
    lambda_arrays,
    st.sampled_from([1.0, 2.0, 3.0]),
    st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False),
)
@settings(max_examples=100, deadline=None)
def test_charged_moment_modulus_bounded_by_flux_zero(lam, n, alpha):
    z0 = ent.charged_moment(lam, n, 0.0).real
    assert abs(ent.charged_moment(lam, n, alpha)) <= z0 + 1e-12


def _spectrum_stacks():
    """(W, M) stacks for the batched kernels, keyed by what they exercise."""
    rng = np.random.default_rng(5)
    stacks = {"one-window": rng.uniform(0.0, 1.0, size=(1, 12))}
    stacks["many-windows"] = rng.uniform(0.0, 1.0, size=(9, 16))
    # exact 0/1 eigenvalues, with and without a zero-mode level
    stacks["dimerized"] = np.array(
        [dimerized_lambdas(case, 8) for case in ("topological", "trivial", "defect")]
        + [dimerized_lambdas("defect", 8, zero_mode_p=p) for p in (0.0, 0.3, 1.0)]
    )
    # long products whose rows reach very different per-step peaks
    stacks["long-product"] = np.array(
        [np.full(60, 0.5), rng.uniform(0.0, 1.0, 60), np.full(60, 1e-3), np.full(60, 1.0 - 1e-7)]
    )
    # rows with empty sectors: frozen modes leave whole charge ranges unreachable
    empty = rng.uniform(0.0, 1.0, size=(5, 10))
    empty[:, :6] = [[1.0, 1.0, 1.0, 0.0, 0.0, 0.0]] * 5
    empty[0] = [1.0] * 5 + [0.0] * 5
    stacks["empty-sectors"] = empty
    return stacks


STACKS = _spectrum_stacks()


# Bounds of the array kernels against the np.convolve loops, whose scalar
# mode factors round differently in the last ulp: relative on partition
# values, absolute on entropies.
PARTITION_RTOL = 1e-13
ENTROPY_ATOL = 1e-13


def assert_partitions_close(got, want):
    np.testing.assert_allclose(got, want, rtol=PARTITION_RTOL, atol=0.0)


def vn_rows(stack):
    """``Z_1(q)`` and ``G(q)`` of a ``(W, M)`` stack of spectra, from the
    recursion the tables run."""
    return ent._srpf_vn_rows(ent._modes(ent.clamp_lambdas(stack)))


@pytest.mark.parametrize("name", STACKS)
@pytest.mark.parametrize("n", [0.5, 1.0, 2.0, 3.0])
def test_batched_kernels_match_convolve_loops(name, n):
    stack = STACKS[name]
    zn = ent.srpf(stack, n)
    z1, g = vn_rows(stack)
    assert zn.shape == z1.shape == g.shape == (stack.shape[0], stack.shape[1] + 1)
    for w, lam in enumerate(stack):
        assert_partitions_close(zn[w], oracles.srpf_loop(lam, n))
        want_z1, want_g = oracles.srpf_with_vn_derivative_loop(lam)
        assert_partitions_close(z1[w], want_z1)
        assert_partitions_close(g[w], want_g)
    # the one-window form is the same code on a stack of one
    assert np.array_equal(ent.srpf(stack[-1], n), zn[-1])


RECURSION_STACKS = dict(
    STACKS,
    **{
        "W=1": np.random.default_rng(6).uniform(0.0, 1.0, size=(1, 9)),
        "M=1": np.array([[0.0], [0.3], [0.5], [1.0]]),
        # exact 0 and 1 among generic values, in every position
        "exact-0-1": np.array([[0.0, 0.4, 1.0, 0.7], [1.0, 1.0, 0.2, 0.0], [0.0, 0.0, 0.0, 0.0],
                               [1.0, 1.0, 1.0, 1.0]]),
    },
)


def assert_same_bits(got, want):
    """Equal bit for bit, in a C-contiguous array of the same shape."""
    assert got.flags.c_contiguous
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def assert_kernels_match_row_major(stack, n_list):
    lam = ent.clamp_lambdas(stack)
    modes = ent._modes(lam)
    for n in n_list:
        assert_same_bits(ent._srpf_rows(modes, n), oracles.srpf_rows_row_major(lam, n))
    for got, want in zip(ent._srpf_vn_rows(modes), oracles.srpf_vn_rows_row_major(lam)):
        assert_same_bits(got, want)


@pytest.mark.parametrize("name", RECURSION_STACKS)
def test_mode_major_kernels_equal_the_row_major_recursions(name):
    assert_kernels_match_row_major(RECURSION_STACKS[name], [0.5, 1.0, 2.0, 3.0])


def test_mode_major_kernels_keep_a_zero_running_peak():
    """At n = 1100, 0.5^n underflows to 0: a row of 0.5 has every coefficient
    0 after its first mode, and its peak is skipped in the division and the
    log scale, beside rows whose peaks are not."""
    stack = np.array([np.full(5, 0.5), [0.5, 0.0, 1.0, 0.0, 1.0], [0.0, 1.0, 1.0, 0.0, 0.0]])
    assert not ent._srpf_rows(ent._modes(stack), 1100.0)[0].any()
    assert_kernels_match_row_major(stack, [1100.0, 0.5, 2.0])


@st.composite
def spectrum_stacks(draw):
    w, m = draw(st.integers(1, 6)), draw(st.integers(1, 10))
    values = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0, allow_nan=False))
    return np.array(draw(st.lists(values, min_size=w * m, max_size=w * m))).reshape(w, m)


@given(spectrum_stacks())
@settings(max_examples=100, deadline=None)
def test_mode_major_kernels_equal_the_row_major_recursions_on_random_stacks(stack):
    assert_kernels_match_row_major(stack, [0.5, 1.0, 2.0, 3.0])


def assert_table_close(table, want):
    assert np.array_equal(table.charges, want.charges)
    for field in ("partition", "probabilities"):
        assert_partitions_close(getattr(table, field), getattr(want, field))
    for field in ("sre_renyi", "sre_vn", "total_renyi", "total_vn", "config_entropy",
                  "fluct_entropy", "mean_charge"):
        np.testing.assert_allclose(getattr(table, field), getattr(want, field),
                                   rtol=0.0, atol=ENTROPY_ATOL, err_msg=field)


def table_rows_of(columns, w, j):
    """The entries of window ``w`` and index position ``j`` in the columns."""
    rows = (columns["window"] == w) & (columns["n_index"] == j)
    return {name: col[rows] for name, col in columns.items()}


@pytest.mark.parametrize("name", STACKS)
def test_tables_match_the_per_window_loop(name):
    """The table columns of a stack, and the one-window table, against the
    per-window loop oracle within the stated bounds."""
    stack = STACKS[name]
    n_list = [0.5, 1.0, 2.0, 3.0]
    columns = ent.charge_resolved_tables(stack, n_list)
    order = np.lexsort((columns["q"], columns["n_index"], columns["window"]))
    assert np.array_equal(order, np.arange(order.size))
    for w, lam in enumerate(stack):
        for j, n in enumerate(n_list):
            want = oracles.charge_resolved_table_loop(lam, n)
            assert_table_close(ent.charge_resolved_table(lam, n), want)
            got = table_rows_of(columns, w, j)
            assert np.array_equal(got["q"], want.charges)
            assert_partitions_close(got["Z1"], want.probabilities)
            for key, value in (("S_n", want.sre_renyi), ("S", want.total_vn),
                               ("S_c", want.config_entropy), ("S_f", want.fluct_entropy)):
                np.testing.assert_allclose(got[key], np.broadcast_to(value, got[key].shape),
                                           rtol=0.0, atol=ENTROPY_ATOL, err_msg=key)


def test_tables_equal_single_window_tables(sea03, chain03, below_half):
    """Every row of the batched columns is ``charge_resolved_table`` of that
    window, bit for bit."""
    stack = gs.correlation_spectra(sea03, chain03, below_half, [41, 45, 90, 141, 175], 20)
    columns = ent.charge_resolved_tables(stack, [1, 2])
    for w, lam in enumerate(stack):
        for j, n in enumerate([1, 2]):
            single = ent.charge_resolved_table(lam, n)
            got = table_rows_of(columns, w, j)
            for key, value in (("q", single.charges), ("Z1", single.probabilities),
                               ("S_n", single.sre_renyi), ("S", single.total_vn),
                               ("S_c", single.config_entropy), ("S_f", single.fluct_entropy)):
                assert np.array_equal(got[key], np.broadcast_to(value, got[key].shape)), (n, key)


def test_readme_minimal_session(capsys, sea03, chain03, below_half):
    """The README's minimal session runs as written, on the public names, and
    prints the values the scan engine gives its window (41, 20) at n = 2."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (code,) = re.findall(r"A minimal session:\n\n```python\n(.*?)```", readme, re.S)
    exec(compile(code, "README.md", "exec"), {})
    total_vn, probability, sre = map(float, capsys.readouterr().out.split())
    stack = gs.correlation_spectra(sea03, chain03, below_half, [41], 20)
    cols = ent.charge_resolved_tables(stack, [2.0])
    (row,) = np.flatnonzero(cols["q"] == 20)
    assert total_vn == pytest.approx(cols["S"][row], abs=1e-12)
    assert probability == pytest.approx(cols["Z1"][row], abs=1e-12)
    assert sre == pytest.approx(cols["S_n"][row], abs=1e-12)


@given(lambda_arrays, renyi_indices)
@settings(max_examples=100, deadline=None)
def test_kernels_match_convolve_loops_within_bounds(lam, n):
    assert_partitions_close(ent.srpf(lam, n), oracles.srpf_loop(lam, n))
    (z1,), (g,) = vn_rows(lam[None])
    want_z1, want_g = oracles.srpf_with_vn_derivative_loop(lam)
    assert_partitions_close(z1, want_z1)
    assert_partitions_close(g, want_g)


def test_tables_reject_bad_input():
    with pytest.raises(ValueError, match="positive"):
        ent.charge_resolved_tables(np.full((2, 3), 0.5), [1.0, 0.0])
    with pytest.raises(ValueError, match="outside"):
        ent.charge_resolved_tables(np.array([[0.5, 0.5], [0.5, 1.1]]), [1.0])


def test_underflowing_renyi_index_is_a_numerical_error_without_warnings():
    """At n = 1100, (1 - lam)^n + lam^n underflows to 0 for lam near 1/2: the
    tables raise instead of writing S_n = inf after two RuntimeWarnings."""
    lam = np.array([[0.0, 0.5, 1.0, 0.2], [0.0, 1.0, 1.0, 0.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="n = 1100 leave double range.* spectrum 0 "):
            ent.charge_resolved_tables(lam, [1.0, 1100.0])
        with pytest.raises(NumericalError, match="n = 1100 leave double range"):
            ent.charge_resolved_table(lam[0], 1100.0)
        # the second spectrum is pure: its one sector has Z_n = 1 at every n
        table = ent.charge_resolved_table(lam[1], 1100.0)
    assert np.all(np.isfinite(table.sre_renyi)) and math.isfinite(table.total_renyi)


@pytest.mark.parametrize("n", [30.0, 40.0])
def test_sector_renyi_entropies_where_z_n_underflows(sea03, chain03, below_half, n):
    """On the std400 ring at n = 30 and 40, hundreds of occupied sectors have
    Z_n(q) below the normal range, most of them with a coefficient that
    underflows to 0 beside the row's peak.  Their S_n(q) now comes from the
    log recursion: finite, without warnings, within 1e-10 of 50-digit
    decimal arithmetic; every other value is the product path's, bit for bit."""
    lam = gs.correlation_spectra(sea03, chain03, below_half, range(1, chain03.n_cells + 1), 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        t = ent._tabulate(lam, [n])
        cols = ent.charge_resolved_tables(lam, [n])
    zn = t["zn"][:, 0]
    low = t["occupied"] & (zn < np.finfo(float).tiny)
    assert low.sum() > 300
    assert np.all(np.isfinite(cols["S_n"]))
    with np.errstate(divide="ignore", invalid="ignore"):
        product = (np.log(zn) - n * np.log(t["z1"])) / (1.0 - n)
    normal = t["occupied"] & ~low
    assert t["renyi"][:, 0][normal].tobytes() == product[normal].tobytes()
    windows = np.flatnonzero(low.any(axis=1))
    for w in windows[:: max(1, windows.size // 4)]:
        log_zn = oracles.log_srpf_decimal(lam[w], n)
        q = np.flatnonzero(low[w])
        want = (log_zn[q] - n * np.log(t["z1"][w, q])) / (1.0 - n)
        np.testing.assert_allclose(t["renyi"][w, 0, q], want, rtol=0.0, atol=1e-10)


def test_log_recursion_matches_the_product_recursion():
    """Where nothing underflows, exp of the log recursion is Z_n within 1e-13."""
    rng = np.random.default_rng(7)
    lam = ent.clamp_lambdas(np.sort(rng.uniform(0.0, 1.0, (6, 12)), axis=1))
    modes = ent._modes(lam)
    for n in (0.5, 2.0, 3.0):
        np.testing.assert_allclose(np.exp(ent._log_srpf_rows(modes, n)),
                                   ent._srpf_rows(modes, n), rtol=1e-13, atol=0.0)
