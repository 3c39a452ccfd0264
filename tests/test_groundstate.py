import math

import numpy as np
import pytest

from sshent import entanglement as ent
from sshent import groundstate as gs
from sshent import model

from conftest import (
    DEFECT_WINDOW,
    TOP_WINDOW,
    TRIV_WINDOW,
    open_chain,
    sea_of,
    two_defect_chain,
)
from oracles import (
    assert_routes_match,
    chiral_windows,
    correlation_matrix_full_block,
    dense_correlation_matrix,
    dense_eigensystem,
    dense_localized_zero_modes,
    dense_occupied_orbitals,
    eigvalsh_spectra,
    sweep_route_atol,
    window_sites,
)

SEAM_WINDOW = (195, 10)  # cells 195..200 then 1..4: wraps the cell-1 seam


def sorted_lambdas(sea, spec, policy, window):
    return np.sort(gs.correlation_matrix(sea, spec, policy, window).eigenvalues())


# ---------------------------------------------------------------- windows


def test_dimerized_window_spectra(sea_dimerized, chain_dimerized, below_half):
    ell = 20
    want = {
        TRIV_WINDOW: [0.0] * ell + [1.0] * ell,
        TOP_WINDOW: [0.0] * (ell - 1) + [0.5, 0.5] + [1.0] * (ell - 1),
        DEFECT_WINDOW: [0.0] * ell + [0.5] + [1.0] * (ell - 1),
    }
    for window, lam_want in want.items():
        lam = sorted_lambdas(sea_dimerized, chain_dimerized, below_half, window)
        np.testing.assert_allclose(lam, np.sort(lam_want), atol=1e-10)


def test_dimerized_translation_invariance(sea_dimerized, chain_dimerized, below_half):
    ref = sorted_lambdas(sea_dimerized, chain_dimerized, below_half, (5, 20))
    for m in (2, 11, 23):
        lam = sorted_lambdas(sea_dimerized, chain_dimerized, below_half, (m, 20))
        np.testing.assert_allclose(lam, ref, atol=1e-10)


def test_dimerized_3s_interior_block():
    """The trimer block of the correlation matrix has eigenvalues {1, 0, 0}."""
    spec = two_defect_chain(1.0, kinds=("three_site", "three_site"))
    sea = sea_of(spec)
    cm = gs.correlation_matrix(sea, spec, gs.OccupationPolicy.below_half(), (41, 20))
    sites = list(window_sites(spec, 41, 20))
    trimer = [sites.index(s - 1) for s in model.defect_sites(spec)[0][1]]
    block = cm.matrix[np.ix_(trimer, trimer)]
    np.testing.assert_allclose(
        np.sort(np.linalg.eigvalsh(block)), [0.0, 0.0, 1.0], atol=1e-10
    )
    off = abs(block[0, 1])
    assert off == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)), abs=1e-10)


def test_purity_at_full_window(chain03, zero_pair03):
    sea = sea_of(chain03, chain03.n_cells)
    for policy in (
        gs.OccupationPolicy.below_half(),
        gs.OccupationPolicy.half(zero_pair03.with_weight(0.3)),
    ):
        cm = gs.correlation_matrix(sea, chain03, policy, (1, chain03.n_cells))
        c = cm.matrix
        assert np.max(np.abs(c @ c - c)) < 1e-10


def test_trace_equals_contained_weight(sea03, chain03, below_half):
    cm = gs.correlation_matrix(sea03, chain03, below_half, DEFECT_WINDOW)
    sites = window_sites(chain03, *DEFECT_WINDOW)
    occ = dense_occupied_orbitals(dense_eigensystem(chain03), chain03, below_half)
    assert np.trace(cm.matrix) == pytest.approx(float(np.sum(occ[sites] ** 2)), abs=1e-10)
    assert np.trace(cm.matrix) == pytest.approx(19.5, abs=1e-3)


def test_window_with_two_defects_rejected(sea03, chain03, below_half):
    with pytest.raises(ValueError, match="defects"):
        gs.correlation_matrix(sea03, chain03, below_half, (45, 110))


def test_half_filling_with_defects_needs_explicit_zero_mode(sea03, chain03):
    with pytest.raises(ValueError, match="zero-mode"):
        gs.correlation_matrix(
            sea03, chain03, gs.OccupationPolicy.half(), DEFECT_WINDOW
        )


def test_half_filling_defect_free_chain():
    spec = model.ChainSpec(n_sites=80, dimerization=0.3)
    sea = sea_of(spec)
    cm = gs.correlation_matrix(sea, spec, gs.OccupationPolicy.half(), (3, 10))
    assert np.trace(cm.matrix) == pytest.approx(10.0, abs=1e-9)
    lam = cm.eigenvalues()
    assert lam.min() >= -1e-12 and lam.max() <= 1.0 + 1e-12


# the builder's windows against the rows gathered from the full u and v
GATHER_ATOL = 1e-14


@pytest.mark.parametrize("window", [DEFECT_WINDOW, TOP_WINDOW, TRIV_WINDOW, SEAM_WINDOW])
@pytest.mark.parametrize("p", [None, 0.0, 0.3, 1.0])
def test_window_gather_matches_full_block(sea03, chain03, zero_pair03, p, window):
    """The banded gather gives the full-block matrix within 1e-14; ``p=None``
    is below half filling, otherwise half with the zero mode at p."""
    if p is None:
        policy = gs.OccupationPolicy.below_half()
    else:
        policy = gs.OccupationPolicy.half(zero_pair03.with_weight(p))
    cm = gs.correlation_matrix(sea03, chain03, policy, window)
    ref = correlation_matrix_full_block(chain03, policy, window)
    np.testing.assert_allclose(cm.matrix, ref, rtol=0.0, atol=GATHER_ATOL)


@pytest.mark.parametrize(
    "kinds, window",
    [
        (("one_site", "one_site"), DEFECT_WINDOW),
        (("one_site", "three_site"), (141, 20)),  # holds the three_site defect
        (("three_site", "three_site"), DEFECT_WINDOW),
    ],
)
def test_zero_mode_correlations_equal_correlation_matrix(kinds, window):
    """A weight sweep over one window gives the eigenvalues of
    ``correlation_matrix`` at every weight within ``sweep_route_atol``."""
    spec = two_defect_chain(0.3, kinds)
    sea = sea_of(spec)
    pair = gs.localized_zero_modes(sea, spec)
    weights = [0.0, 0.002, 0.5, 1.0]
    sweep = gs.correlation_spectra(
        sea, spec, gs.OccupationPolicy.half(pair), [window[0]] * 4, window[1], weights
    )
    assert sweep.shape == (len(weights), 2 * window[1])
    for p, lam in zip(weights, sweep):
        policy = gs.OccupationPolicy.half(pair.with_weight(p))
        want = gs.correlation_matrix(sea, spec, policy, window).eigenvalues()
        np.testing.assert_allclose(lam, want, rtol=0.0, atol=sweep_route_atol(window[1]),
                                   err_msg=str(p))


def test_weight_sweep_rejects_bad_weights(sea03, chain03, zero_pair03):
    policy = gs.OccupationPolicy.half(zero_pair03)
    with pytest.raises(ValueError, match="weight"):
        gs.correlation_spectra(sea03, chain03, policy, [41, 41], 20, [0.5, 1.5])


# one window under weights (the sweep route), and windows on different cells,
# which an occupied zero mode refuses after the count
WEIGHT_ROUTES = {"sweep": [41, 41, 41], "per-window": [41, 42, 43]}


@pytest.mark.parametrize("route", WEIGHT_ROUTES)
@pytest.mark.parametrize("call", [gs.correlation_spectra], ids=["spectra"])
@pytest.mark.parametrize("count", [2, 4])
def test_weights_must_match_the_windows(sea03, chain03, zero_pair03, route, call, count):
    """Fewer or more weights than windows are a ``ValueError`` naming both
    counts, whether or not the windows share their cells."""
    policy = gs.OccupationPolicy.half(zero_pair03)
    with pytest.raises(ValueError, match=f"^{count} weights for 3 windows"):
        call(sea03, chain03, policy, WEIGHT_ROUTES[route], 20, [0.5] * count)


@pytest.mark.parametrize("starts", [[90, 91], [41, 42]], ids=["singular-value", "eigvalsh"])
@pytest.mark.parametrize("call", [gs.correlation_spectra], ids=["spectra"])
def test_weights_need_an_occupied_zero_mode(sea03, chain03, below_half, starts, call):
    with pytest.raises(ValueError, match="no zero mode is occupied"):
        call(sea03, chain03, below_half, starts, 20, [0.5, 0.5])


@pytest.mark.parametrize("weights", [None, [0.5, 0.5]], ids=["own-weight", "weights"])
def test_zero_mode_windows_must_cover_the_same_cells(sea03, chain03, zero_pair03, weights):
    """Under an occupied zero mode the spectra are those of one window under
    many weights: windows on different cells are a ``ValueError``."""
    policy = gs.OccupationPolicy.half(zero_pair03)
    with pytest.raises(ValueError, match="^under an occupied zero mode every window must cover "
                                         "the same cells .* not windows at cells 41 and 42$"):
        gs.correlation_spectra(sea03, chain03, policy, [41, 42], 20, weights)


def _reduced_sizes(monkeypatch):
    """Patch ``np.linalg.eigvalsh`` to record the size of the matrices of
    each stacked call; returns the set."""
    sizes = set()
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        if np.ndim(a) == 3:
            sizes.add(np.shape(a)[1])
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return sizes


@pytest.mark.parametrize("ell, first, second", [(20, 41, 141), (4, 48, 148)])
@pytest.mark.parametrize("place", ["first", "second", "far"])
@pytest.mark.parametrize("kinds", [("one_site", "one_site"), ("one_site", "three_site")])
def test_sweep_route_within_atol_of_every_weights_eigvalsh(
    monkeypatch, kinds, place, ell, first, second
):
    """A sweep on the first defect, on the second (one_site or three_site)
    and far from both (cell 90), at phases 0, 0.7 and 2.3 (where the
    zero-mode term has rank 2), stays within ``sweep_route_atol`` of each
    weight's own ``eigvalsh``, from p = 0 to p = 1.  At ell = 20 the
    windows on a defect solve at most 20 of their 40 dimensions per weight,
    the window far from both none; at ell = 4 the Krylov space of a window
    on a defect fills all 8, and the route gives the full matrices' bits."""
    spec = two_defect_chain(0.3, kinds)
    sea = sea_of(spec, ell)
    start = {"first": first, "second": second, "far": 90}[place]
    weights = [0.0, 0.002, 0.3, 0.5, 0.9, 1.0]
    for phi in (0.0, 0.7, 2.3):
        policy = gs.OccupationPolicy.half(gs.localized_zero_modes(sea, spec).with_weight(1.0, phi))
        want = eigvalsh_spectra(sea, spec, policy, [start] * len(weights), ell, weights)
        sizes = _reduced_sizes(monkeypatch)
        got = gs.correlation_spectra(sea, spec, policy, [start] * len(weights), ell, weights)
        monkeypatch.undo()
        np.testing.assert_allclose(got, want, rtol=0.0, atol=sweep_route_atol(ell),
                                   err_msg=str(phi))
        (k,) = sizes
        if place == "far":
            assert k == 0
        elif ell == 20:
            assert k <= 20
        else:
            # the full matrices, so the eigvalsh route's bits
            assert k == 2 * ell and got.tobytes() == want.tobytes()


def test_reversed_weights_give_reversed_rows(sea03, chain03, zero_pair03):
    """Each weight's reduced matrix and solve depend on its weight alone."""
    weights = np.linspace(0.0, 1.0, 2 * gs.SPECTRA_CHUNK + 5)
    policy = gs.OccupationPolicy.half(zero_pair03.with_weight(1.0, 0.7))
    starts = [41] * weights.size
    forward = gs.correlation_spectra(sea03, chain03, policy, starts, 20, weights)
    backward = gs.correlation_spectra(sea03, chain03, policy, starts, 20, weights[::-1])
    assert backward[::-1].tobytes() == forward.tobytes()


@pytest.mark.parametrize("window", [(3, 10), (36, 10)])
def test_window_gather_matches_full_block_defect_free_half(window):
    spec = model.ChainSpec(n_sites=80, dimerization=0.3)
    sea = sea_of(spec)
    policy = gs.OccupationPolicy.half()
    cm = gs.correlation_matrix(sea, spec, policy, window)
    ref = correlation_matrix_full_block(spec, policy, window)
    np.testing.assert_allclose(cm.matrix, ref, rtol=0.0, atol=GATHER_ATOL)


def _ring(kinds=None, filling="below_half", n_sites=400):
    if kinds:
        spec = two_defect_chain(0.3, kinds)
    else:
        spec = model.ChainSpec(n_sites=n_sites, dimerization=0.3)
    return spec, gs.OccupationPolicy(filling=filling)


BUILDER_CASES = {
    # every start of a ring, so windows across the cell-1 seam too
    "one-one": (*_ring(("one_site", "one_site")), 20, range(1, 201)),
    "three-three": (*_ring(("three_site", "three_site")), 20, range(1, 201)),
    "one-three": (*_ring(("one_site", "three_site")), 20, range(1, 201)),
    # ell not dividing L: a short last block row
    "one-one-ell7": (*_ring(("one_site", "one_site")), 7, range(1, 201)),
    "half-filled-ring": (*_ring(filling="half"), 20, range(1, 201)),
    "long-windows": (*_ring(), 120, range(1, 201, 7)),
    "full-ring": (*_ring(), 200, [1, 2, 137, 200]),
    "full-ring-two-defects": (*_ring(("one_site", "three_site")), 200, [1, 99]),
    # both ends of an open chain
    "open-ends": (open_chain(["one_site"]), gs.OccupationPolicy.below_half(), 20, range(1, 182)),
    "small-ring": (*_ring(n_sites=30), 15, range(1, 16)),
    # None: half filling with the zero mode at weight 0.3 on the second defect
    "one-three-zero-mode": (two_defect_chain(0.3, ("one_site", "three_site")), None, 20,
                            range(1, 201)),
}


@pytest.mark.parametrize("name", BUILDER_CASES)
def test_builder_matches_full_block(name):
    """Every window's ``correlation_matrix`` within 1e-14 of the rows
    gathered from the full ``u`` and ``v``; the spectra are one ``eigvalsh``
    of those matrices (bit for bit on that route, within
    ``singular_route_atol`` on the singular-value route), and a window's
    ``eigenvalues`` are its matrix's ``eigvalsh`` bit for bit.  Under an
    occupied zero mode each window is solved on its own."""
    spec, policy, ell, starts = BUILDER_CASES[name]
    starts = list(starts)
    sea = sea_of(spec, ell)
    if policy is None:
        policy = gs.OccupationPolicy.half(gs.localized_zero_modes(sea, spec).with_weight(0.3))
    windows = [gs.correlation_matrix(sea, spec, policy, (m, ell)) for m in starts]
    built = np.stack([cm.matrix for cm in windows])
    assert built.shape == (len(starts), 2 * ell, 2 * ell)
    for m, c in zip(starts, built):
        ref = correlation_matrix_full_block(spec, policy, (m, ell))
        np.testing.assert_allclose(c, ref, rtol=0.0, atol=GATHER_ATOL, err_msg=str(m))
        assert np.array_equal(c, c.T)
    ref = ent.clamp_lambdas(np.linalg.eigvalsh(built))
    own = np.stack([cm.eigenvalues() for cm in windows])
    assert own.tobytes() == ref.tobytes()
    if policy.zero_mode is None:
        lam = gs.correlation_spectra(sea, spec, policy, starts, ell)
        assert_routes_match(lam, ref, chiral_windows(sea, spec, policy, starts, ell), ell)


@pytest.mark.parametrize("kinds", [("one_site", "one_site"), ("one_site", "three_site")])
def test_correlation_spectra_equal_per_window_eigenvalues(kinds):
    """The stacked spectra give every window's eigenvalues (bit for bit on
    the ``eigvalsh`` route, within ``singular_route_atol`` on the other),
    over all windows of a scan and over a zero-mode weight sweep, and the
    builder's matrices are the full-block ones within 1e-14."""
    spec = two_defect_chain(0.3, kinds)
    sea = sea_of(spec)
    policy = gs.OccupationPolicy.below_half()
    starts = range(1, spec.n_cells + 1)
    stacked = gs.correlation_spectra(sea, spec, policy, starts, 20)
    chiral = chiral_windows(sea, spec, policy, starts, 20)
    for m, lam, on_svd in zip(starts, stacked, chiral):
        cm = gs.correlation_matrix(sea, spec, policy, (m, 20))
        ref = correlation_matrix_full_block(spec, policy, (m, 20))
        np.testing.assert_allclose(cm.matrix, ref, rtol=0.0, atol=GATHER_ATOL)
        assert_routes_match(lam[None], cm.eigenvalues()[None], np.array([on_svd]), 20)
    pair = gs.localized_zero_modes(sea, spec)
    weights = [0.0, 0.3, 0.5, 1.0]
    half = gs.OccupationPolicy.half(pair)
    sweep = gs.correlation_spectra(sea, spec, half, [DEFECT_WINDOW[0]] * 4, 20, weights)
    for p, lam in zip(weights, sweep):
        policy = gs.OccupationPolicy.half(pair.with_weight(p))
        ref = correlation_matrix_full_block(spec, policy, DEFECT_WINDOW)
        want = gs.CorrelationMatrix(*DEFECT_WINDOW, ref).eigenvalues()
        np.testing.assert_allclose(lam, want, rtol=0.0, atol=1e-14)


def test_builder_checks_every_window(sea03, chain03, below_half):
    """The two-defect check covers every window of a scan, not only the first."""
    with pytest.raises(ValueError, match="2 defects"):
        gs.correlation_spectra(sea03, chain03, below_half, [1, 2, 45], 110)
    with pytest.raises(ValueError, match="start cell"):
        gs.correlation_spectra(sea03, chain03, below_half, [1, 201], 20)


# ---------------------------------------------------------------- zero modes


def test_localized_modes_orthonormal(zero_pair03):
    assert abs(float(zero_pair03.psi1 @ zero_pair03.psi2)) < 1e-10
    assert float(zero_pair03.psi1 @ zero_pair03.psi1) == pytest.approx(1.0, abs=1e-12)
    assert float(zero_pair03.psi2 @ zero_pair03.psi2) == pytest.approx(1.0, abs=1e-12)


def test_localized_mode_weight_near_defect(zero_pair03):
    weight = sum(
        zero_pair03.psi1[2 * (c - 1)] ** 2 + zero_pair03.psi1[2 * c - 1] ** 2
        for c in range(40, 61)
    )
    assert weight > 0.999


def test_localized_mode_envelope_decay(zero_pair03):
    """Per-cell amplitude falls off as exp(-|m - m_defect| / xi)."""
    xi = model.localization_length(0.3)
    cells = np.arange(52, 62)
    amp = np.array(
        [
            math.hypot(zero_pair03.psi1[2 * (c - 1)], zero_pair03.psi1[2 * c - 1])
            for c in cells
        ]
    )
    slope = np.polyfit(cells.astype(float), np.log(amp), 1)[0]
    assert slope == pytest.approx(-1.0 / xi, rel=0.1)


def test_dimerized_zero_mode_is_single_site(sea_dimerized, chain_dimerized):
    pair = gs.localized_zero_modes(sea_dimerized, chain_dimerized)
    assert np.max(pair.psi1**2) == pytest.approx(1.0, abs=1e-12)
    assert int(np.argmax(pair.psi1**2)) == 99  # site 100, cell 50
    assert int(np.argmax(pair.psi2**2)) == 298  # site 299, cell 150


def test_zero_mode_count_mismatch_rejected(chain03):
    spec = model.ChainSpec(n_sites=80, dimerization=0.3)
    sea = sea_of(spec)
    with pytest.raises(ValueError, match="two defects"):
        gs.localized_zero_modes(sea, spec)


def test_rank_one_update_and_p_invariance(chain03, zero_pair03, below_half):
    """One eigenvalue tracks 1-p, the rest do not move with p."""
    window = (39, 24)  # defect centered; edge tails below the tolerance
    sea03 = sea_of(chain03, window[1])
    base = np.sort(
        gs.correlation_matrix(sea03, chain03, below_half, window).eigenvalues()
    )
    base_rest = np.delete(base, int(np.argmin(np.abs(base))))
    for p in (0.0, 0.25, 0.75, 1.0):
        policy = gs.OccupationPolicy.half(zero_pair03.with_weight(p))
        lam = np.sort(
            gs.correlation_matrix(sea03, chain03, policy, window).eigenvalues()
        )
        i = int(np.argmin(np.abs(lam - (1.0 - p))))
        assert lam[i] == pytest.approx(1.0 - p, abs=1e-6)
        np.testing.assert_allclose(
            np.sort(np.delete(lam, i)), base_rest, atol=1e-6
        )
    # p = 1/2 puts the added level exactly on the intrinsic half-filled one;
    # the avoided-crossing pair still averages to 1/2
    policy = gs.OccupationPolicy.half(zero_pair03.with_weight(0.5))
    lam = np.sort(gs.correlation_matrix(sea03, chain03, policy, window).eigenvalues())
    nearest = lam[np.argsort(np.abs(lam - 0.5))[:2]]
    assert float(np.mean(nearest)) == pytest.approx(0.5, abs=1e-9)


def test_phase_has_no_windowed_effect(sea03, chain03, zero_pair03):
    tables = []
    for phi in (0.0, 0.7, math.pi / 2, math.pi):
        policy = gs.OccupationPolicy.half(zero_pair03.with_weight(0.3, phi=phi))
        lam = gs.correlation_matrix(sea03, chain03, policy, DEFECT_WINDOW).eigenvalues()
        tables.append(ent.charge_resolved_table(lam, 2.0))
    for t in tables[1:]:
        assert t.total_vn == pytest.approx(tables[0].total_vn, abs=1e-6)
        np.testing.assert_allclose(t.probabilities, tables[0].probabilities, atol=1e-6)


def test_fully_localized_zero_mode_shifts_charges(chain03, zero_pair03, below_half):
    """p=0 puts the occupied mode inside: the table shifts by one charge unit.

    Uses the centered 30-cell window so the mode's tail outside the interval
    stays below the 1e-6 tolerance even in the charge-suppressed sectors.
    """
    window = (36, 30)
    sea03 = sea_of(chain03, window[1])
    lam_empty = gs.correlation_matrix(sea03, chain03, below_half, window).eigenvalues()
    policy = gs.OccupationPolicy.half(zero_pair03.with_weight(0.0))
    lam_full = gs.correlation_matrix(sea03, chain03, policy, window).eigenvalues()
    empty = ent.charge_resolved_table(lam_empty, 2.0)
    full = ent.charge_resolved_table(lam_full, 2.0)
    for q in range(28, 33):
        assert full.probability(q + 1) == pytest.approx(
            empty.probability(q), abs=1e-6
        )
        assert full.sre(q + 1) == pytest.approx(empty.sre(q), abs=1e-6)
    assert full.total_vn == pytest.approx(empty.total_vn, abs=1e-6)
    assert full.mean_charge == pytest.approx(empty.mean_charge + 1.0, abs=1e-6)


def test_below_half_excludes_zero_modes(sea03, chain03, below_half):
    assert gs.filled_triples(sea03, chain03, below_half) == chain03.n_cells - 1


def test_below_half_excludes_open_chain_edge_modes(below_half):
    spec = model.ChainSpec(n_sites=80, dimerization=0.5, boundary="open")
    assert int(np.sum(np.abs(dense_eigensystem(spec).eigenvalues) < 1e-4)) == 2  # edge pair
    sea = sea_of(spec)
    assert sea.splittings.size == 1 and sea.splittings[0] < 1e-4  # one triple holds the pair
    assert gs.filled_triples(sea, spec, below_half) == spec.n_cells - 1


def test_negative_dimerization_trivial_ring(below_half):
    """delta = -1: intra-cell dimers; every whole-cell window is trivial."""
    spec = model.ChainSpec(n_sites=40, dimerization=-1.0)
    sea = sea_of(spec)
    assert model.window_case(spec, 3, 6) == "trivial"
    policy = gs.OccupationPolicy.half()
    lam = np.sort(gs.correlation_matrix(sea, spec, policy, (3, 6)).eigenvalues())
    np.testing.assert_allclose(lam, np.sort([0.0] * 6 + [1.0] * 6), atol=1e-12)


def test_zero_mode_policy_needs_defects():
    spec = model.ChainSpec(n_sites=40, dimerization=0.5)
    sea = sea_of(spec)
    fake = gs.ZeroModePair(psi1=np.zeros(40), psi2=np.zeros(40))
    with pytest.raises(ValueError, match="no defects"):
        gs.correlation_matrix(sea, spec, gs.OccupationPolicy.half(fake), (3, 6))


@pytest.mark.parametrize("delta", [0.2, 0.45, -0.6])
def test_half_filled_window_particle_hole_symmetric(delta):
    """Half-filled sea chain: window eigenvalues come in (lam, 1-lam) pairs."""
    spec = model.ChainSpec(n_sites=120, dimerization=delta)
    sea = sea_of(spec)
    lam = np.sort(
        gs.correlation_matrix(
            sea, spec, gs.OccupationPolicy.half(), (7, 15)
        ).eigenvalues()
    )
    np.testing.assert_allclose(lam, np.sort(1.0 - lam), atol=1e-10)


# ------------------------------------------- against the dense N x N eigensolver

KINDS = {
    "one-one": ("one_site", "one_site"),
    "three-three": ("three_site", "three_site"),
    "one-three": ("one_site", "three_site"),
}


DENSE_ORACLE_CHAINS = {
    **{
        f"{name}-{delta:+g}": (two_defect_chain(delta, kinds), "below_half")
        for name, kinds in KINDS.items()
        for delta in (-0.3, 0.05, 0.1, 0.3, 1.0)
    },
    "ring-below": (model.ChainSpec(n_sites=400, dimerization=0.3), "below_half"),
    "ring-half": (model.ChainSpec(n_sites=400, dimerization=0.3), "half"),
    "open": (open_chain(), "below_half"),
    "open-one": (open_chain(["one_site"]), "below_half"),
    "open-three": (open_chain(["three_site"]), "below_half"),
    "big2000": (
        model.ChainSpec(
            n_sites=2000, dimerization=0.3,
            defects=(model.DefectSpec(250), model.DefectSpec(750)),
        ),
        "below_half",
    ),
}


def _worst_window_deviation(spec, policy, dense_policies, weights=None, ell=20):
    """Largest |lambda_chiral - lambda_dense| over every window of ``ell``
    cells: the spectra of all windows under ``policy``, or, with
    ``weights``, of one sweep of them per window, against those under each
    of ``dense_policies`` (one per weight)."""
    sea, eig = sea_of(spec), dense_eigensystem(spec)
    last = spec.n_cells if spec.boundary == "periodic" else spec.n_cells - ell + 1
    starts = range(1, last + 1)
    if weights is None:
        spectra = gs.correlation_spectra(sea, spec, policy, starts, ell)[:, None]
    else:
        spectra = [gs.correlation_spectra(sea, spec, policy, [m] * len(weights), ell, weights)
                   for m in starts]
    occupied = [dense_occupied_orbitals(eig, spec, dense) for dense in dense_policies]
    worst = (0.0, None)
    for m, rows in zip(starts, spectra):
        for lam, orbitals, dense in zip(rows, occupied, dense_policies):
            c = dense_correlation_matrix(orbitals, spec, dense, (m, ell))
            want = np.sort(gs.CorrelationMatrix(m, ell, c).eigenvalues())
            worst = max(worst, (float(np.max(np.abs(lam - want))), m))
    return worst


@pytest.mark.parametrize("name", DENSE_ORACLE_CHAINS)
def test_window_spectra_match_dense_eigensolver(name):
    """Every window's correlation eigenvalues from the singular triples agree
    with those of the dense N x N eigenvectors to 1e-13."""
    spec, filling = DENSE_ORACLE_CHAINS[name]
    policy = gs.OccupationPolicy(filling=filling)
    dev, m = _worst_window_deviation(spec, policy, [policy])
    assert dev <= 1e-13, (dev, m)


@pytest.mark.parametrize("kinds", KINDS)
def test_zero_mode_window_spectra_match_dense_eigensolver(kinds):
    """The same with an occupied zero mode, one sweep of weights from 0 to
    1 per window, each path with its own localized pair."""
    spec = two_defect_chain(0.3, KINDS[kinds])
    pair = gs.localized_zero_modes(sea_of(spec), spec)
    dense_pair = dense_localized_zero_modes(dense_eigensystem(spec), spec)
    weights = [0.0, 0.002, 0.3, 0.5, 1.0]
    dense = [gs.OccupationPolicy.half(dense_pair.with_weight(p)) for p in weights]
    dev, m = _worst_window_deviation(spec, gs.OccupationPolicy.half(pair), dense, weights)
    assert dev <= 1e-13, (dev, m)


@pytest.mark.parametrize("delta", [0.3, -0.3, 1.0 / 3.0])
@pytest.mark.parametrize("kind", ["one_site", "three_site"])
def test_zero_mode_signs_match_dense_eigensolver(kind, delta):
    """The trimer-like modes (three_site at delta > 0, one_site at delta < 0)
    have two extreme entries of equal magnitude; at delta = 1/3 a one_site
    mode's neighbours are exactly half its peak.  Both solvers still give the
    same psi1 and psi2, signs included."""
    spec = two_defect_chain(delta, (kind, kind))
    pair = gs.localized_zero_modes(sea_of(spec), spec)
    dense = dense_localized_zero_modes(dense_eigensystem(spec), spec)
    np.testing.assert_allclose(pair.psi1, dense.psi1, atol=1e-12)
    np.testing.assert_allclose(pair.psi2, dense.psi2, atol=1e-12)


def test_zero_modes_are_sublattice_polarized(zero_pair03):
    """Each zero mode lives on one sublattice: psi1 on the even sites (its
    defect site is site 100), psi2 on the odd ones."""
    assert not zero_pair03.psi1[0::2].any()
    assert not zero_pair03.psi2[1::2].any()
