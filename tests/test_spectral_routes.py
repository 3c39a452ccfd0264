"""The three routes of the window spectra: the singular values of C_AB where
the zero columns are below rounding, one reduction of the window for a
sweep of the zero-mode weight, one ``eigvalsh`` per matrix elsewhere.  On
the singular-value route, windows whose cells read the same rows of the
solved ring (``FilledSea.rows``), whose C_AB blocks so have the same bytes,
share one SVD: the same groups as those of the blocks' bytes
(``oracles.svd_sources_by_bytes``), except at |delta| = 1, where the row
groups are finer.  On a chain with a mirror, a window whose mirror image is
given with a lower start cell takes that window's spectrum.

Each case is held to ``oracles.eigvalsh_spectra``, every window's
``eigvalsh``: bit for bit on the ``eigvalsh`` route, within
``oracles.singular_route_atol`` on the singular-value route, shared windows
included, within the ``oracles.mirrored_windows`` bound where a window
takes its mirror image's spectrum, and within ``oracles.sweep_route_atol``
on a sweep.
"""

import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from sshent import cli
from sshent import groundstate as gs
from sshent import model

from conftest import open_chain, sea_of, two_defect_chain
from oracles import (
    assert_routes_match,
    chiral_windows,
    eigvalsh_spectra,
    is_sweep,
    mirrored_windows,
    svd_sources_by_bytes,
)


def _polar_ring():
    """N = 1000: 500 cells, whose two regions the solve cuts to 160 cells
    (the sea's band is that of the polar factor of the hopping block)."""
    return model.ChainSpec(
        n_sites=1000, dimerization=0.3, defects=(model.DefectSpec(125), model.DefectSpec(375))
    )


def _ci_ring():
    """The N = 8000 ring of the CI scan."""
    return model.ChainSpec(n_sites=8000, dimerization=0.3, defects=(
        model.DefectSpec(1000, "one_site"), model.DefectSpec(3000, "three_site")))


def _ring(n_sites):
    """The benchmark's rings: defects at a quarter and three quarters."""
    cells = n_sites // 2
    return model.ChainSpec(
        n_sites=n_sites, dimerization=0.3,
        defects=(model.DefectSpec(cells // 4), model.DefectSpec(3 * cells // 4)),
    )


def _zero_mode(spec, sea):
    return gs.OccupationPolicy.half(gs.localized_zero_modes(sea, spec))


BELOW_HALF = gs.OccupationPolicy.below_half()
SWEEP = list(np.linspace(0.0, 1.0, 37))
# name: spec, policy (a callable of spec and sea), starts, weights, windows on
# the singular-value route, SVDs they take (one per representative), windows
# that take their mirror image's spectrum
CASES = {
    # the eigensolve's sea leaves bulk neighbours more than rounding apart:
    # every window of the route whose mirror image (181 - m, or 381 - m from
    # 181 on) is not below it takes its own SVD, 24 of 48
    "std400": (two_defect_chain(0.3), BELOW_HALF, range(1, 201), None, 48, 24, 100),
    # the compressed ring's bulk blocks have the same bytes within each of the
    # two regions between the defects: two representatives, and 43 of the 87
    # windows that read rows of the ring's neighbourhoods, the others their
    # mirror images
    "polar-ring-1000": (_polar_ring(), BELOW_HALF, range(1, 501), None, 348, 45, 250),
    # no mirror: every window on its own route
    "open-chain": (open_chain(["one_site"]), BELOW_HALF, range(2, 181), None, 92, 92, 0),
    "mixed-ring": (two_defect_chain(0.3, ("one_site", "three_site")), BELOW_HALF,
                   range(1, 201), None, 47, 47, 0),
    # the zero-mode sweep, on the defect and far from it: an occupied zero
    # mode keeps every window off the singular-value route, on the sweep route
    "zero-mode-sweep": (two_defect_chain(0.3), _zero_mode, [41] * 37, SWEEP, 0, 0, 0),
    "zero-mode-far": (two_defect_chain(0.3), _zero_mode, [90] * 37, SWEEP, 0, 0, 0),
}


def _count_svds(monkeypatch):
    """Patch ``np.linalg.svd`` to record the matrices of each batched call,
    those of the singular-value route (a sweep's reduction takes SVDs of
    single matrices); returns the list."""
    calls = []
    svd = np.linalg.svd

    def spy(a, **kw):
        if np.ndim(a) == 3:
            calls.append(np.array(a))
        return svd(a, **kw)

    monkeypatch.setattr(np.linalg, "svd", spy)
    return calls


@pytest.mark.parametrize("name", CASES)
def test_routes_match_every_windows_eigvalsh(monkeypatch, name):
    """Every window of the singular-value route that is not its mirror
    image's takes the spectrum of one SVD'd block, its own or its
    representative's, byte for byte, and stays within
    ``singular_route_atol`` of its own ``eigvalsh``; a mirrored window has
    its image's bytes within its ``mirrored_windows`` bound; a sweep's
    weights stay within ``sweep_route_atol`` of theirs."""
    spec, policy, starts, weights, on_route, svds, mirrored = CASES[name]
    starts = list(starts)
    sea = sea_of(spec)
    if callable(policy):
        policy = policy(spec, sea)
    calls = _count_svds(monkeypatch)
    lam = gs.correlation_spectra(sea, spec, policy, starts, 20, weights)
    chiral = chiral_windows(sea, spec, policy, starts, 20)
    assert chiral.sum() == on_route and sum(map(len, calls)) == svds
    solved = {row.tobytes() for row in lam[chiral]}
    assert len(solved) <= svds
    mirrors = mirrored_windows(sea, spec, policy, starts, 20)
    assert np.count_nonzero(mirrors[0] != np.arange(len(starts))) == mirrored
    assert_routes_match(lam, eigvalsh_spectra(sea, spec, policy, starts, 20, weights), chiral, 20,
                        sweep=is_sweep(policy), mirrors=mirrors)


def test_reversed_windows_give_the_same_bytes():
    """A group's representative, and of a window and its mirror image the
    one whose spectrum both take (250 of the ring's 500 windows), is the
    window with the lowest start cell, so every window's spectrum is the
    same bytes in either order of the windows."""
    spec = _polar_ring()
    sea = sea_of(spec)
    starts = np.arange(1, 501)
    forward = gs.correlation_spectra(sea, spec, BELOW_HALF, starts, 20)
    backward = gs.correlation_spectra(sea, spec, BELOW_HALF, starts[::-1], 20)
    assert backward[::-1].tobytes() == forward.tobytes()


@pytest.mark.parametrize("starts, solves", [
    ([161, 175], 2), ([20, 161], 1), ([161, 20], 1), ([180], 1), ([180, 1], 1), ([185, 196], 1),
])
def test_a_window_shares_with_its_mirror_image_only_when_both_are_given(
    monkeypatch, starts, solves
):
    """On std400 (images 181 - m, or 381 - m from 181 on) a window whose
    image is not given is solved on its own, by its route (161 and 175 by
    ``eigvalsh``, 180 by an SVD); given both, the one with the lower start
    is solved and the other takes its bytes, in either order."""
    spec = two_defect_chain(0.3)
    sea = sea_of(spec)
    count = {"eigvalsh": 0, "svd": 0}
    for name in count:
        solve = getattr(np.linalg, name)

        def spy(a, *args, name=name, solve=solve, **kwargs):
            count[name] += len(a) if np.ndim(a) == 3 else 0
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    lam = gs.correlation_spectra(sea, spec, BELOW_HALF, starts, 20)
    monkeypatch.undo()
    assert count["eigvalsh"] + count["svd"] == solves
    if solves == 1 and len(starts) == 2:
        assert lam[0].tobytes() == lam[1].tobytes()
    assert_routes_match(lam, eigvalsh_spectra(sea, spec, BELOW_HALF, starts, 20),
                        chiral_windows(sea, spec, BELOW_HALF, starts, 20), 20,
                        mirrors=mirrored_windows(sea, spec, BELOW_HALF, starts, 20))


def test_bulk_windows_share_the_bytes_of_their_group(monkeypatch):
    """On the CI scan's N = 8000 ring every window of the singular-value
    route takes the SVD of a block with its own C_AB bytes, and no two SVD'd
    blocks have the same bytes: the bulk windows of each region read one row
    of the compressed ring, so the 3,847 windows of the route take 87
    SVDs."""
    spec = _ci_ring()
    sea = sea_of(spec)
    starts = np.arange(1, spec.n_cells + 1)
    calls = _count_svds(monkeypatch)
    gs.correlation_spectra(sea, spec, BELOW_HALF, starts, 20)
    solved = [block.tobytes() for batch in calls for block in batch]
    assert len(set(solved)) == len(solved) == 87
    chiral = chiral_windows(sea, spec, BELOW_HALF, starts, 20)
    matrices = (gs.correlation_matrix(sea, spec, BELOW_HALF, (int(m), 20)).matrix
                for m in starts[chiral])
    assert {c[0::2, 1::2].tobytes() for c in matrices} == set(solved)


@pytest.mark.parametrize("shares", [True, False], ids=["same-rows", "same-bytes-other-rows"])
def test_windows_share_an_svd_only_when_they_read_the_same_rows(
    monkeypatch, sea03, chain03, below_half, shares
):
    """Two windows of 16 cells of a synthetic sea, at 81 and 121, whose C_AB
    blocks are both ``I / 4``: band rows 121 to 136 hold the bytes of rows
    81 to 96.  Where the sea's ``rows`` say that they read those rows, the
    window at 121 takes the SVD of its representative, the window at 81
    with the lower start cell, whichever comes first; where they name its
    own rows, it takes its own SVD, of the same bytes."""
    ell = 16
    band = np.zeros_like(sea03.band)
    band[80:96, 20:36] = band[120:136, 20:36] = np.eye(ell) / 4
    rows = np.arange(band.shape[0])
    if shares:
        rows[120:136] = rows[80:96]
    sea = replace(sea03, band=band, rows=rows, u0=np.zeros_like(sea03.u0),
                  v0=np.zeros_like(sea03.v0))
    calls = _count_svds(monkeypatch)
    lam = gs.correlation_spectra(sea, chain03, below_half, [121, 81], ell)
    solved = [block.tolist() for batch in calls for block in batch]
    assert solved == [(np.eye(ell) / 4).tolist()] * (1 if shares else 2)
    assert lam[0].tobytes() == lam[1].tobytes()


def _open_ring():
    """The open N = 4000 chain of the CI scan."""
    return model.ChainSpec(n_sites=4000, dimerization=0.3, boundary="open",
                           defects=(model.DefectSpec(1000, "three_site"),))


def _mixed(n_sites, delta=0.3, cells=None):
    """A ring with a one_site and a three_site defect, by default at a
    quarter and three quarters of its cells."""
    cells = cells or (n_sites // 8, 3 * n_sites // 8)
    return model.ChainSpec(n_sites=n_sites, dimerization=delta, defects=(
        model.DefectSpec(cells[0], "one_site"), model.DefectSpec(cells[1], "three_site")))


# name: spec, window length, windows of the singular-value route among all
# start cells, SVDs they would take without the mirror
ROW_GROUP_RINGS = {
    "std400": (_ring(400), 20, 48, 48),
    "mixed-400": (_mixed(400), 20, 47, 47),
    "polar-ring-1000": (_polar_ring(), 20, 348, 89),
    "mixed-1000": (_mixed(1000), 20, 347, 87),
    "big2000": (_ring(2000), 20, 848, 89),
    "ci-8000": (_ci_ring(), 20, 3847, 87),
    "ci-delta-0.1-4000": (_mixed(4000, 0.1, (500, 1500)), 50, 1547, 215),
    "ci-open-4000": (_open_ring(), 20, 1874, 116),
    "defect-free-600": (model.ChainSpec(n_sites=600, dimerization=0.3), 20, 300, 1),
    "defect-free-2000": (model.ChainSpec(n_sites=2000, dimerization=0.3), 20, 1000, 1),
    "delta-0.05-1600": (model.ChainSpec(n_sites=1600, dimerization=0.05, defects=(
        model.DefectSpec(200), model.DefectSpec(600))), 20, 52, 52),
}


def _route_windows(spec, ell, starts):
    """The sea, the windows' cells and the windows of the singular-value
    route among ``starts``, as ``correlation_spectra`` finds them."""
    sea = sea_of(spec, ell)
    cells = gs._window_cells(sea, spec, BELOW_HALF, starts, ell)
    return sea, cells, np.flatnonzero(chiral_windows(sea, spec, BELOW_HALF, starts, ell))


@pytest.mark.parametrize("name", ROW_GROUP_RINGS)
def test_row_groups_equal_the_byte_groups(name):
    """Away from |delta| = 1, the windows that read the same rows of the
    solved ring are the windows whose C_AB blocks have the same bytes: the
    sources equal ``oracles.svd_sources_by_bytes`` entry for entry, with
    the start cells in either order."""
    spec, ell, on_route, svds = ROW_GROUP_RINGS[name]
    last = spec.n_cells - (ell - 1 if spec.boundary == "open" else 0)
    for starts in (np.arange(1, last + 1), np.arange(last, 0, -1)):
        sea, cells, windows = _route_windows(spec, ell, starts)
        source = gs._svd_sources(windows, starts, sea, cells)
        assert windows.size == on_route and np.unique(source).size == svds
        np.testing.assert_array_equal(source, svd_sources_by_bytes(windows, starts, sea, cells))


def test_fully_dimerized_row_groups_refine_the_byte_groups(monkeypatch):
    """At |delta| = 1 the exact dimer blocks repeat across different rows of
    the ring, so windows that read different rows can have the same bytes:
    on the CI N = 2000 ring the 959 windows of the route take 77 SVDs where
    the byte groups would take 2.  Each row group lies inside one byte
    group, and the spectra have the bytes that the byte groups give."""
    spec = _mixed(2000, 1.0, (250, 750))
    starts = np.arange(1, 1001)
    sea, cells, windows = _route_windows(spec, 20, starts)
    source = gs._svd_sources(windows, starts, sea, cells)
    by_bytes = svd_sources_by_bytes(windows, starts, sea, cells)
    assert windows.size == 959 and np.unique(source).size == 77
    assert np.unique(by_bytes).size == 2
    np.testing.assert_array_equal(by_bytes[np.searchsorted(windows, source)], by_bytes)
    lam = gs.correlation_spectra(sea, spec, BELOW_HALF, starts, 20)
    monkeypatch.setattr(gs, "_svd_sources", svd_sources_by_bytes)
    assert gs.correlation_spectra(sea, spec, BELOW_HALF, starts, 20).tobytes() == lam.tobytes()


def test_a_window_just_above_the_bound_takes_eigvalsh(monkeypatch, sea03, chain03, below_half):
    """Zero columns of a single entry z on a window's cells: at z = 2^-26,
    |Z_W|_F^2 / 2 is the unit roundoff exactly and the window takes the
    singular-value route; one ulp above it takes ``eigvalsh``."""
    at = 2.0**-26
    above = np.nextafter(at, 1.0)
    assert 0.5 * at * at == gs.CHIRAL_BOUND < 0.5 * above * above
    u0, v0 = np.zeros_like(sea03.u0), np.zeros_like(sea03.v0)
    u0[84, 0] = at  # cell 85, in the window at 81
    v0[104, 0] = above  # cell 105, in the window at 101
    sea = replace(sea03, u0=u0, v0=v0)
    starts = [81, 101, 121]
    solved = {"eigvalsh": 0, "svd": 0}

    def spy(name):
        solve = getattr(np.linalg, name)

        def run(a, *args, **kwargs):
            solved[name] += len(a)
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, run)

    spy("eigvalsh")
    spy("svd")
    lam = gs.correlation_spectra(sea, chain03, below_half, starts, 20)
    assert solved == {"eigvalsh": 1, "svd": 2}
    chiral = chiral_windows(sea, chain03, below_half, starts, 20)
    assert chiral.tolist() == [True, False, True]
    monkeypatch.undo()
    assert_routes_match(lam, eigvalsh_spectra(sea, chain03, below_half, starts, 20), chiral, 20)


# a sweep's weights beyond any stack of SPECTRA_CHUNK, all in one eigvalsh call
MANY_WEIGHTS = np.linspace(0.0, 1.0, 261)


def _spectra_cases():
    chunk = gs.SPECTRA_CHUNK
    yield pytest.param(_ring(400), None, list(range(1, 201)), id="std400")
    yield pytest.param(_ring(2000), None, list(range(1, 1001)), id="big2000")
    yield pytest.param(_ring(400), None, [41], id="one-window")
    yield pytest.param(_ring(400), None, list(range(30, 30 + chunk - 3)), id="under-one-stack")
    yield pytest.param(_ring(400), None, list(range(1, 1 + 5 * chunk - 2)), id="odd-stacks")
    # one window under 37 weights: the sweep route
    yield pytest.param(_ring(400), 41, np.linspace(0.0, 1.0, 37), id="zero-mode-37")
    yield pytest.param(_ring(400), 141, np.linspace(0.0, 1.0, 37), id="second-defect")
    yield pytest.param(_ring(400), 41, MANY_WEIGHTS, id="zero-mode-three-stacks")
    # far from both defects: no dimension of the window is solved per weight
    yield pytest.param(_ring(400), 90, MANY_WEIGHTS, id="zero-mode-far")


@pytest.mark.parametrize("spec, start, values", _spectra_cases())
def test_window_sets_match_their_routes(spec, start, values):
    """Scans, stack edges and sweeps give one C-ordered row per window: the
    eigvalsh route's a stack at a time, bit for bit, and the singular-value
    and sweep routes' within their bounds."""
    sea = sea_of(spec)
    if start is None:
        policy, starts, weights = BELOW_HALF, values, None
    else:
        policy = _zero_mode(spec, sea)
        starts, weights = [start] * len(values), values
    lam = gs.correlation_spectra(sea, spec, policy, starts, 20, weights)
    assert lam.shape == (len(starts), 40) and lam.flags.c_contiguous
    assert_routes_match(lam, eigvalsh_spectra(sea, spec, policy, starts, 20, weights),
                        chiral_windows(sea, spec, policy, starts, 20), 20,
                        sweep=is_sweep(policy),
                        mirrors=mirrored_windows(sea, spec, policy, starts, 20))


def test_big2000_bulk_windows_share_two_svds(monkeypatch):
    """big2000's 848 singular-value windows take 45 SVDs in one batch: the
    windows of the two regions' bulk share the SVDs of two representatives,
    the windows at cells 1 and 301 (the lowest start cell of each bulk).  Of
    the 87 windows that read rows of the compressed ring's neighbourhoods,
    43 take their own and 44 their mirror image's (981 - m): 800 that of
    181, a bulk window."""
    spec = _ring(2000)
    sea = sea_of(spec)
    calls = _count_svds(monkeypatch)
    lam = gs.correlation_spectra(sea, spec, BELOW_HALF, range(1, 1001), 20)
    assert [len(batch) for batch in calls] == [45]
    chiral = chiral_windows(sea, spec, BELOW_HALF, range(1, 1001), 20)
    assert chiral.sum() == 848
    rows = [row.tobytes() for row in lam[chiral]]
    assert len(set(rows)) == 45
    assert rows.count(lam[0].tobytes()) == 382 and rows.count(lam[300].tobytes()) == 380
    assert lam[799].tobytes() == lam[180].tobytes() == lam[0].tobytes()


def test_a_defect_free_ring_takes_one_svd(monkeypatch):
    """A defect-free N = 600 ring is one run of identical cells with no
    ends, cut to 160 cells: every row is its bulk row, so its 300 windows
    have one C_AB block's bytes and take one SVD."""
    spec = model.ChainSpec(n_sites=600, dimerization=0.3)
    sea = sea_of(spec)
    starts = list(range(1, 301))
    calls = _count_svds(monkeypatch)
    lam = gs.correlation_spectra(sea, spec, BELOW_HALF, starts, 20)
    assert [len(batch) for batch in calls] == [1]
    chiral = chiral_windows(sea, spec, BELOW_HALF, starts, 20)
    assert chiral.all()
    assert_routes_match(lam, eigvalsh_spectra(sea, spec, BELOW_HALF, starts, 20), chiral, 20)


def test_spectra_start_no_thread(monkeypatch):
    """Every route runs on the calling thread."""
    started, start = [], threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start",
                        lambda thread: started.append(thread) or start(thread))
    spec = _ring(2000)
    gs.correlation_spectra(sea_of(spec), spec, BELOW_HALF, range(1, 1001), 20)
    assert started == []


def test_no_windows_give_no_spectra(sea03, chain03, below_half):
    assert gs.correlation_spectra(sea03, chain03, below_half, [], 20).shape == (0, 40)


# ---------------------------------------------------------------- the CLI

CHAIN = {
    "n_sites": 400, "t": 1.0, "delta": 0.3, "boundary": "periodic",
    "defects": [{"cell": 50, "kind": "one_site"}, {"cell": 150, "kind": "one_site"}],
}
SCANS = {
    "scan-interval": {"chain": CHAIN, "window_length": 20, "m_range": [1, 200],
                      "n_list": [1, 2], "mode": "both"},
    "zero-mode-scan": {"chain": CHAIN, "window_length": 20, "window_start": 41,
                       "p_list": [round(0.01 * i, 2) for i in range(1, 100)],
                       "n_list": [1], "mode": "both"},
}


def _run(tmp_path, capsys, command, config):
    cfg = dict(config, outputs={"csv_path": str(tmp_path / "scan.csv"),
                                "json_path": str(tmp_path / "scan.json")})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(path)])
    std = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in tmp_path.glob("scan.*")}
    return rc, std.out, std.err, files


@pytest.mark.parametrize("command", SCANS)
def test_cli_outputs_and_lines(tmp_path, capsys, command):
    rc, out, err, files = _run(tmp_path, capsys, command, SCANS[command])
    assert rc == cli.EXIT_OK and err == ""
    assert sorted(files) == ["scan.csv", "scan.json"]
    rows = files["scan.csv"].count(b"\n") - 2
    # the gate line, then the files in the order they were always written
    assert out.splitlines()[1:] == [
        f"wrote {tmp_path / 'scan.csv'} ({rows} rows)",
        f"wrote {tmp_path / 'scan.json'}",
    ]


FAILURES = {"eigvalsh": "Eigenvalues did not converge", "svd": "SVD did not converge"}


def _failing_solve(monkeypatch, name, m):
    """Make ``np.linalg.<name>`` (``eigvalsh`` or ``svd``) fail with
    numpy's message on the stack or batch that holds the matrix of the
    window at ``m`` on the standard ring (its C_AB block for ``svd``)."""
    spec = two_defect_chain(0.3)
    matrix = gs.correlation_matrix(sea_of(spec), spec, BELOW_HALF, (m, 20)).matrix
    target = matrix[0::2, 1::2] if name == "svd" else matrix
    solve = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        if any(np.array_equal(matrix, target) for matrix in a):
            raise np.linalg.LinAlgError(FAILURES[name])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)


@pytest.mark.parametrize("first_window", [1 + 3 * gs.SPECTRA_CHUNK, 1 + 2 * gs.SPECTRA_CHUNK])
def test_window_solve_failure_is_a_numerical_error(tmp_path, capsys, monkeypatch, first_window):
    """Stacks 2 and 3 of std400's 13, whose windows all take ``eigvalsh``
    (the windows from 91 take their mirror image's spectrum and are not
    solved): the run exits 2 with one line naming the first window of the
    failing stack, and writes no file."""
    _failing_solve(monkeypatch, "eigvalsh", first_window)
    rc, out, err, files = _run(tmp_path, capsys, "scan-interval", SCANS["scan-interval"])
    assert rc == cli.EXIT_VALIDATION and out == "" and files == {}
    first = first_window - 1
    assert err == (
        "numerical error: eigensolver did not converge (eigvalsh of the 40x40 correlation "
        f"matrices of windows {first}..{first + gs.SPECTRA_CHUNK - 1}, the first at cell "
        f"{first_window}): Eigenvalues did not converge\n"
    )
