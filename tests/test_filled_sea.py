"""The filled sea of long chains: the compressed ring against the eigensolve.

``groundstate.filled_sea`` cuts every run of identical cells longer than
``2 R`` down to its first and last ``R`` cells and solves that compressed
ring with ``linalg.eigh_sea``; a chain with no run that long is solved as it
is.  Either way the sea must be the eigensolve's of the whole chain: the
band that windows read, the zero-column projectors, the filled count and the
zero-mode count.
"""

import contextlib
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sshent import cli, linalg, model
from sshent import groundstate as gs

from conftest import ELL, sea_of
from oracles import dense_correlation_matrix, dense_eigensystem, dense_localized_zero_modes
from oracles import dense_occupied_orbitals

SEA_TOL = 1e-13


def big_ring(kinds=("one_site", "one_site"), cells=(250, 750), n_sites=2000, delta=0.3):
    return model.ChainSpec(
        n_sites=n_sites, dimerization=delta,
        defects=tuple(model.DefectSpec(c, k) for c, k in zip(cells, kinds)),
    )


def read_mask(sea, n):
    """The band entries a window of up to ``sea.width`` cells reads: those
    less than ``width`` columns from the row's own cell.  On a ring of fewer
    than ``3 width`` cells a row's columns wrap, and a column ``width`` or
    more along may be a cell nearer than that the other way round; no window
    reads it there."""
    w = sea.width
    rows = np.arange(sea.band.shape[0])[:, None]
    offset = (rows // w - 1) * w + np.arange(3 * w) - rows
    return (np.abs(offset) < w) & (rows < n)


def assert_same_sea(got, want, n):
    assert got.width == want.width
    assert got.filled == want.filled
    np.testing.assert_allclose(got.splittings, want.splittings, rtol=0.0, atol=SEA_TOL)
    mask = read_mask(want, n)
    np.testing.assert_allclose(got.band[mask], want.band[mask], rtol=0.0, atol=SEA_TOL)
    for a, b in ((got.u0, want.u0), (got.v0, want.v0)):
        np.testing.assert_allclose(a @ a.T, b @ b.T, rtol=0.0, atol=SEA_TOL)


def whole_chain_sea(spec, width=ELL):
    return linalg.eigh_sea(model.hopping_bands(spec), width, gs.NEAR_ZERO_THRESHOLD * spec.hopping)


def reach(delta, width=ELL):
    """``R`` of ``filled_sea``."""
    xi = 0.0 if abs(delta) == 1.0 else model.localization_length(delta)
    return math.ceil(gs.ROUNDING_E_FOLDS * xi) + width


@contextlib.contextmanager
def recorded_solves():
    """The cell count of every ring ``filled_sea`` hands to ``eigh_sea``."""
    calls = []
    solve = linalg.eigh_sea

    def spy(block, *args):
        calls.append(block.diag.size)
        return solve(block, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gs, "eigh_sea", spy)
        yield calls


@pytest.fixture
def solves():
    with recorded_solves() as calls:
        yield calls


# ---------------------------------------------------------------- the compressed ring


def test_big2000_solves_a_compressed_ring(solves):
    """The benchmark's large ring: R = 80 at delta = 0.3 and ell = 20, so
    its two runs of identical cells, of 499 and 500 cells, are cut to 160
    cells each.  One eigensolve of that 321-cell ring gives the sea of the
    whole ring's."""
    spec = big_ring()
    sea = sea_of(spec)
    assert reach(0.3) == 80 and solves == [321]
    assert sea.filled == spec.n_cells - 1 and sea.splittings.size == 1
    assert_same_sea(sea, whole_chain_sea(spec), spec.n_cells)


def test_the_standard_rings_keep_the_eigensolve(solves):
    """The N = 400 rings of std400 and zeromode have regions of about 100
    cells, under 2R = 160: the chain itself is solved, byte for byte."""
    spec = big_ring(cells=(50, 150), n_sites=400)
    sea = sea_of(spec)
    assert solves == [spec.n_cells]
    want = whole_chain_sea(spec)
    for field in ("band", "u0", "v0", "splittings"):
        assert getattr(sea, field).tobytes() == getattr(want, field).tobytes(), field


def _chain(n_cells, delta, boundary, kinds, gaps, first):
    cells = first + np.cumsum([0, *gaps[: max(len(kinds) - 1, 0)]])
    return model.ChainSpec(n_sites=2 * n_cells, dimerization=delta, boundary=boundary,
                           defects=tuple(model.DefectSpec(int(c), k) for c, k in zip(cells, kinds)))


@st.composite
def long_chains(draw):
    """A chain with at least one run longer than 2R, so the solve compresses
    it: periodic rings with an even number of defects, or open chains with
    any number.  Defects keep 28 xi from each other and from an open chain's
    ends (45 cells at delta = 0.3), and some pairs are nearer than 2R: a pair
    split above the threshold, or a defect mode hybridized with an edge mode,
    is a filled triple of small s, whose u = T v / s the eigensolve gets only
    to eps * s_max / s (2.6e-13 on the band at s = 0.023), so it would be no
    1e-13 reference."""
    boundary = draw(st.sampled_from(["periodic", "open"]))
    count = draw(st.sampled_from([0, 2, 4] if boundary == "periodic" else [0, 1, 2, 3]))
    kinds = draw(st.lists(st.sampled_from(["one_site", "three_site"]), min_size=count,
                          max_size=count))
    delta = draw(st.sampled_from([0.1, 0.3, -0.3, 0.9, 1.0]))
    xi = 0.0 if abs(delta) == 1.0 else model.localization_length(delta)
    apart, r = max(3, math.ceil(28 * xi)), reach(delta)
    run = draw(st.integers(2 * r + 1, 2 * r + 120))
    gaps = draw(st.lists(st.integers(apart, max(apart, min(2 * r + 40, 1000 // max(count, 1)))),
                         min_size=count, max_size=count))
    first = draw(st.integers(2, 60)) if boundary == "periodic" else apart + 1
    # the cells a defect or an open chain's first cell takes from the long run
    span = sum(gaps[: max(count - 1, 0)]) + 4
    n_cells = first + span + run if count else run + 1
    return _chain(n_cells, delta, boundary, kinds, gaps, first)


@settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(long_chains())
# two zero triples whose splittings (7.8e-13 and 7.9e-15) differ a hundredfold:
# u = T v / s alone leaves 1e-13 in their projector
@example(model.ChainSpec(n_sites=1120, dimerization=-0.3, defects=tuple(
    model.DefectSpec(c) for c in (4, 56, 101, 146))))
# delta = 0.1: one_site and three_site 150 cells apart, one neighbourhood
@example(big_ring(("one_site", "three_site"), (300, 450), 2000, 0.1))
# delta = 0.9 and 1: open chains with a defect of each kind
@example(_chain(400, 0.9, "open", ["one_site", "three_site"], [40], 100))
@example(_chain(300, 1.0, "open", ["three_site"], [], 150))
# no defects
@example(model.ChainSpec(n_sites=800, dimerization=0.3))
@example(model.ChainSpec(n_sites=1000, dimerization=0.1, boundary="open"))
def test_compressed_sea_matches_the_eigensolve(spec):
    """Mixed defect kinds, pairs that share a neighbourhood, rotated patterns,
    open chains with their edge modes, no defects, delta from 0.1 to 1 and
    delta < 0: the sea of the compressed ring is the whole chain's
    eigensolve's within 1e-13 on the band and on the zero-column projectors,
    with the same filled count and zero modes."""
    with recorded_solves() as solved:
        sea = sea_of(spec)
    assert len(solved) == 1 and solved[0] < spec.n_cells, spec
    assert_same_sea(sea, whole_chain_sea(spec), spec.n_cells)
    assert np.all(sea.splittings <= gs.NEAR_ZERO_THRESHOLD * spec.hopping)


def test_wide_windows_keep_the_whole_chain(solves):
    """A 200-cell window on the big ring asks for R = 260, so its 500-cell
    regions are not cut: the chain itself is solved."""
    spec = big_ring()
    sea = sea_of(spec, 200)
    assert reach(0.3, 200) == 260 and solves == [spec.n_cells]
    assert sea.band.tobytes() == whole_chain_sea(spec, 200).band.tobytes()


# ---------------------------------------------------------------- close pairs


def test_close_pair_falls_back_and_is_refused(tmp_path, capsys, solves):
    """Two one_site defects 10 cells apart share one neighbourhood and split
    their pair to 1.5e-3 t, above the threshold.  The eigensolve of the
    compressed ring counts that pair as filled, and the scan exits 1 with the
    count mismatch."""
    spec = big_ring(cells=(250, 260))
    sea = sea_of(spec)
    assert solves[0] < spec.n_cells
    assert sea.filled == spec.n_cells
    chain = json.loads(spec.to_json())
    cfg = {"chain": chain, "window_length": ELL, "m_range": [400, 480], "mode": "lattice",
           "outputs": {"csv_path": str(tmp_path / "scan.csv")}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main(["scan-interval", "--config", str(path)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"config error: found {spec.n_cells} strictly negative modes, expected " \
           f"{spec.n_cells - 1}" in err
    assert not (tmp_path / "scan.csv").exists()


def test_pair_split_below_the_threshold_falls_back(solves):
    """Two one_site defects 16 cells apart split their pair to 3.6e-5 t, just
    below the zero-mode threshold: the eigensolve of the compressed ring
    keeps it a zero-mode pair, measured in its own subspace."""
    spec = big_ring(cells=(250, 266))
    sea = sea_of(spec)
    assert solves[0] < spec.n_cells
    assert sea.filled == spec.n_cells - 1
    assert 3e-5 < sea.splittings[0] < gs.NEAR_ZERO_THRESHOLD * spec.hopping
    assert_same_sea(sea, whole_chain_sea(spec), spec.n_cells)


@pytest.mark.parametrize("width", [0, 201, 10**9])
def test_band_wider_than_the_chain_is_refused(tmp_path, capsys, width):
    """The band is sized by the window length, so that is checked before the
    solve: a billion-cell window is the config error it always was, not a
    band of 10^18 entries."""
    assert cli.main(["scan-interval", "--n-sites", "400", "--delta", "0.3", "--mode", "lattice",
                     "--window-length", str(width), "--csv", str(tmp_path / "s.csv")]) == 1
    assert capsys.readouterr().err == "config error: window length out of range\n"
    with pytest.raises(ValueError, match="window length out of range"):
        gs.filled_sea(big_ring(cells=(50, 150), n_sites=400), width)


# ------------------------------------------- zero modes at N = 2000, dense oracle

ZERO_MODE_WEIGHTS = (0.0, 0.002, 0.5, 1.0)


@pytest.mark.parametrize("kind", ["one_site", "three_site"])
def test_big_ring_zero_modes_match_dense_eigensolver(kind, solves):
    """``localized_zero_modes`` and a zero-mode sweep over the window on the
    first defect, from the compressed ring's sea of an N = 2000 ring: the
    pair equals the dense pair, signs included, and every weight's spectrum
    is the dense one within 1e-13."""
    spec = big_ring((kind, kind))
    sea = sea_of(spec)
    assert len(solves) == 1 and solves[0] < spec.n_cells
    pair = gs.localized_zero_modes(sea, spec)
    eig = dense_eigensystem(spec)
    dense_pair = dense_localized_zero_modes(eig, spec)
    np.testing.assert_allclose(pair.psi1, dense_pair.psi1, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(pair.psi2, dense_pair.psi2, rtol=0.0, atol=1e-12)
    window = (spec.defects[0].cell - ELL // 2 + 1, ELL)
    spectra = gs.correlation_spectra(sea, spec, gs.OccupationPolicy.half(pair),
                                     [window[0]] * len(ZERO_MODE_WEIGHTS), ELL,
                                     ZERO_MODE_WEIGHTS)
    for p, lam in zip(ZERO_MODE_WEIGHTS, spectra):
        policy = gs.OccupationPolicy.half(dense_pair.with_weight(p))
        occupied = dense_occupied_orbitals(eig, spec, policy)
        c = dense_correlation_matrix(occupied, spec, policy, window)
        want = np.sort(gs.CorrelationMatrix(*window, c).eigenvalues())
        np.testing.assert_allclose(lam, want, rtol=0.0, atol=1e-13, err_msg=str(p))


@pytest.mark.parametrize("kind", ["one_site", "three_site"])
def test_big_ring_zero_mode_scan_runs_on_the_polar_sea(kind, tmp_path, solves):
    """A zero-mode scan of the N = 2000 ring runs on the sea of one solve of
    its compressed ring; that sea's band is ``-Q / 2`` for the polar factor
    ``Q`` of the hopping block (its near-null space removed)."""
    spec = big_ring((kind, kind))
    cfg = {"chain": json.loads(spec.to_json()), "window_length": ELL,
           "p_list": list(ZERO_MODE_WEIGHTS), "n_list": [1, 2], "mode": "lattice",
           "outputs": {"csv_path": str(tmp_path / "zm.csv")}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["zero-mode-scan", "--config", str(path)]) == cli.EXIT_OK
    assert len(solves) == 1 and solves[0] < spec.n_cells
