"""The filled sea of long chains: the banded polar solve against the eigensolve.

``groundstate.filled_sea`` runs ``linalg.polar_sea`` on chains of at least
``POLAR_MIN_BLOCKS`` blocks and falls back to ``linalg.eigh_sea`` otherwise
or when the iteration does not settle.  Both must give the same sea: the band
that windows read, the zero-column projectors, the filled count and the
zero-mode count.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from sshent import cli, lanes, linalg, model
from sshent import groundstate as gs

from conftest import ELL, sea_of
from oracles import dense_correlation_matrix, dense_eigensystem, dense_localized_zero_modes
from oracles import band_by_place, dense_occupied_orbitals

SEA_TOL = 1e-13


def big_ring(kinds=("one_site", "one_site"), cells=(250, 750), n_sites=2000, delta=0.3):
    return model.ChainSpec(
        n_sites=n_sites, dimerization=delta,
        defects=tuple(model.DefectSpec(c, k) for c, k in zip(cells, kinds)),
    )


def read_mask(sea, n):
    """The band entries a window of up to ``sea.width`` cells reads."""
    w = sea.width
    rows = np.arange(sea.band.shape[0])[:, None]
    cols = ((rows // w - 1) * w + np.arange(3 * w)) % n
    d = np.abs(rows - cols)
    return (np.minimum(d, n - d) < w) & (rows < n)


def assert_same_sea(got, want, n):
    assert got.width == want.width
    assert got.filled == want.filled
    np.testing.assert_allclose(got.splittings, want.splittings, rtol=0.0, atol=SEA_TOL)
    mask = read_mask(want, n)
    np.testing.assert_allclose(got.band[mask], want.band[mask], rtol=0.0, atol=SEA_TOL)
    for a, b in ((got.u0, want.u0), (got.v0, want.v0)):
        np.testing.assert_allclose(a @ a.T, b @ b.T, rtol=0.0, atol=SEA_TOL)


def polar_and_eigh(spec, width=ELL):
    block = model.hopping_bands(spec)
    threshold = gs.NEAR_ZERO_THRESHOLD * spec.hopping
    delta = abs(spec.dimerization)
    xi = 0.0 if delta == 1.0 else model.localization_length(delta)
    cells = max(width, math.ceil(gs.POLAR_CELLS_PER_XI * xi))
    assert spec.n_cells // cells >= gs.POLAR_MIN_BLOCKS
    return (linalg.polar_sea(block, width, threshold, cells, 2.0 * delta * spec.hopping),
            linalg.eigh_sea(block, width, threshold))


@pytest.fixture
def polar_calls(monkeypatch):
    """Records what every ``polar_sea`` call returned."""
    calls = []
    polar = linalg.polar_sea

    def spy(*args):
        sea = polar(*args)
        calls.append(sea)
        return sea

    monkeypatch.setattr(gs, "polar_sea", spy)
    return calls


# ---------------------------------------------------------------- the polar path


def test_big2000_takes_the_polar_solve(polar_calls):
    """The benchmark's large ring is above the crossover: one polar solve, no
    eigensolve, and the sea the eigensolve would give."""
    spec = big_ring()
    sea = sea_of(spec)
    assert len(polar_calls) == 1 and polar_calls[0] is sea
    assert 0 < sea.steps < linalg.POLAR_MAX_STEPS
    assert sea.filled == spec.n_cells - 1 and sea.splittings.size == 1
    assert_same_sea(sea, linalg.eigh_sea(model.hopping_bands(spec), ELL, 1e-4), spec.n_cells)


def test_the_standard_rings_keep_the_eigensolve(polar_calls):
    """The N = 400 rings of std400 and zeromode make too few blocks."""
    sea = sea_of(big_ring(cells=(50, 150), n_sites=400))
    assert sea.steps == 0 and polar_calls == []


@pytest.mark.parametrize("spec, most", [
    (big_ring(delta=1.0), 1),
    (big_ring(), 6),
    (big_ring(("one_site", "three_site"), (500, 1500), 4000, 0.1), 7),
], ids=["delta1", "big2000", "delta0.1-n4000"])
def test_scaled_steps_settle(spec, most, polar_calls):
    """From the Gershgorin start with the band edge as its lower bound, a
    |delta| = 1 ring (singular values 0 and exactly 1) settles in one step,
    the big ring in at most 6 (9 from the old start) and a delta = 0.1 ring in
    at most 7 (11)."""
    sea = sea_of(spec)
    assert polar_calls == [sea]
    assert 0 < sea.steps <= most
    assert sea.filled == spec.n_cells - 1 and sea.splittings.size == 1


def test_two_lanes_give_the_bits_of_one(monkeypatch):
    """Blocks of 90 cells make 11 block rows, split 5 + 6 between the lanes:
    the sea is the one-lane sea byte for byte."""
    block = model.hopping_bands(big_ring())
    seas = []
    for cpus in (1, 2):
        monkeypatch.setattr(lanes, "usable_cpus", lambda cpus=cpus: cpus)
        seas.append(linalg.polar_sea(block, ELL, 1e-4, 90, 0.6))
    one, two = seas
    assert block.diag.size // 90 == 11 and one.steps == two.steps > 0
    for field in ("band", "u0", "v0", "splittings"):
        assert getattr(one, field).tobytes() == getattr(two, field).tobytes(), field


def _chain(data):
    """A chain above the crossover from drawn parameters: periodic rings with
    an even number of defects, or open chains with any number.  An open
    chain keeps its defects 45 cells from either end, as they keep from each
    other: a defect mode hybridized with an edge mode is a filled triple of
    small s, whose u = T v / s the eigensolve gets only to eps * s_max / s
    (2.6e-13 on the band at s = 0.023), so it would be no 1e-13 reference."""
    n_cells, delta, boundary, kinds, gaps, offset = data
    margin = 45 if boundary == "open" else 2
    defects, cell = [], margin + offset
    for kind, gap in zip(kinds, gaps):
        defects.append(model.DefectSpec(cell, kind))
        cell += gap
    last = n_cells - margin
    if defects and defects[-1].cell > last:
        return None
    return model.ChainSpec(n_sites=2 * n_cells, dimerization=delta, boundary=boundary,
                           defects=tuple(defects))


@st.composite
def long_chains(draw):
    boundary = draw(st.sampled_from(["periodic", "open"]))
    count = draw(st.sampled_from([0, 2, 4] if boundary == "periodic" else [0, 1, 2, 3]))
    kinds = draw(st.lists(st.sampled_from(["one_site", "three_site"]), min_size=count,
                          max_size=count))
    # at least 45 cells apart: a pair's splitting stays below what the
    # iteration sees, so the polar solve settles (closer pairs fall back)
    gaps = draw(st.lists(st.integers(45, 120), min_size=count, max_size=count))
    delta = draw(st.sampled_from([0.3, -0.3, 0.45, -0.6, 1.0, -1.0]))
    n_cells = draw(st.sampled_from([560, 700, 913]))
    offset = draw(st.integers(0, n_cells // 3))  # rotates the pattern around the ring
    spec = _chain((n_cells, delta, boundary, kinds, gaps, offset))
    if spec is None:
        spec = _chain((n_cells, delta, boundary, kinds, gaps, 0))
    return spec


@settings(max_examples=14, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(long_chains())
# two zero triples whose splittings (7.8e-13 and 7.9e-15) differ a hundredfold:
# u = T v / s alone leaves 1e-13 in their projector
@example(model.ChainSpec(n_sites=1120, dimerization=-0.3, defects=tuple(
    model.DefectSpec(c) for c in (4, 56, 101, 146))))
def test_polar_sea_matches_the_eigensolve(spec):
    """Mixed defect kinds, rotated patterns, open chains with their edge
    modes, delta < 0 and |delta| = 1: the polar sea settles and is the
    eigensolve's within 1e-13 on the band and on the zero-column projectors,
    with the same filled count and zero modes."""
    polar, dense = polar_and_eigh(spec)
    assert polar is not None, spec
    assert polar.steps > 0
    assert_same_sea(polar, dense, spec.n_cells)
    assert np.all(polar.splittings <= gs.NEAR_ZERO_THRESHOLD * spec.hopping)


# ---------------------------------------------------------------- fallbacks


@pytest.mark.parametrize("n, count, width", [(997, 7, 13), (1000, 16, 20), (61, 3, 9),
                                               (50, 2, 5), (30, 1, 7)])
def test_band_readout_equals_the_entrywise_gather(n, count, width):
    """The band read by block row has the bits of the gather through
    ``place``, on odd block counts, uneven blocks and n not a multiple of
    the width, down to rings of one and two blocks."""
    lay = linalg._Blocks(n, count)
    x = np.random.default_rng(n).standard_normal((3, count + 2, lay.size, lay.size))
    x[1, 1, 0] = 0.0  # stored zeros read as -0.0, entries off the blocks as 0.0
    got = lay.band(x, width)
    assert got.tobytes() == band_by_place(lay, x, width).tobytes()


def test_too_few_blocks_fall_back(polar_calls):
    """A 200-cell window on the big ring asks for blocks of 200 cells: five
    of them, below the crossover, so the eigensolve runs without a try."""
    spec = big_ring()
    sea = sea_of(spec, 200)
    assert spec.n_cells // 200 < gs.POLAR_MIN_BLOCKS
    assert polar_calls == [] and sea.steps == 0
    want = linalg.eigh_sea(model.hopping_bands(spec), 200, 1e-4)
    assert sea.band.tobytes() == want.band.tobytes()


def test_iteration_cap_falls_back(monkeypatch, polar_calls):
    monkeypatch.setattr(linalg, "POLAR_MAX_STEPS", 3)
    spec = big_ring()
    sea = sea_of(spec)
    assert polar_calls == [None] and sea.steps == 0
    want = linalg.eigh_sea(model.hopping_bands(spec), ELL, 1e-4)
    assert sea.band.tobytes() == want.band.tobytes()
    assert sea.u0.tobytes() == want.u0.tobytes()


def test_fractional_filled_count_falls_back(monkeypatch, polar_calls):
    """The trace check: with no tolerance, the rounding of the trace alone
    is a fractional filled count."""
    monkeypatch.setattr(linalg, "POLAR_TRACE_TOL", 0.0)
    sea = sea_of(big_ring())
    assert polar_calls == [None] and sea.steps == 0


def test_close_pair_falls_back_and_is_refused(tmp_path, capsys, polar_calls):
    """Two one_site defects 10 cells apart split their pair to 1.5e-3, which
    the iteration is still filling at its cap.  The eigensolve counts that
    pair as filled, and the scan exits 1 with the count mismatch."""
    spec = big_ring(cells=(250, 260))
    sea = sea_of(spec)
    assert polar_calls == [None] and sea.steps == 0
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


def test_pair_split_below_the_threshold_falls_back(polar_calls):
    """Two one_site defects 16 cells apart split their pair to 3.6e-5 t, just
    below the zero-mode threshold.  The scaled steps lift it faster than the
    plain ones, but not to 1 by the cap (that takes about 30 steps), so the
    polar solve falls back rather than fill it, and the eigensolve keeps it a
    zero-mode pair."""
    spec = big_ring(cells=(250, 266))
    sea = sea_of(spec)
    assert polar_calls == [None] and sea.steps == 0
    assert sea.filled == spec.n_cells - 1
    assert 3e-5 < sea.splittings[0] < gs.NEAR_ZERO_THRESHOLD * spec.hopping


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
def test_big_ring_zero_modes_match_dense_eigensolver(kind, polar_calls):
    """``localized_zero_modes`` and a zero-mode sweep over the window on the
    first defect, from the polar sea of an N = 2000 ring: the pair equals the
    dense pair, signs included, and every weight's spectrum is the dense one
    within 1e-13."""
    spec = big_ring((kind, kind))
    sea = sea_of(spec)
    assert polar_calls == [sea]
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
def test_big_ring_zero_mode_scan_runs_on_the_polar_sea(kind, tmp_path, polar_calls):
    spec = big_ring((kind, kind))
    cfg = {"chain": json.loads(spec.to_json()), "window_length": ELL,
           "p_list": list(ZERO_MODE_WEIGHTS), "n_list": [1, 2], "mode": "lattice",
           "outputs": {"csv_path": str(tmp_path / "zm.csv")}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["zero-mode-scan", "--config", str(path)]) == cli.EXIT_OK
    assert len(polar_calls) == 1 and polar_calls[0] is not None
