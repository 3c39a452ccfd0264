"""The three routes of the window spectra: the singular values of C_AB where
the zero columns are below rounding, one reduction of the window for a
sweep of the zero-mode weight, one ``eigvalsh`` per matrix elsewhere.  On
the singular-value route, windows whose C_AB blocks have the same bytes
share one SVD.

Each case is held to ``oracles.eigvalsh_spectra``, every window's
``eigvalsh``: bit for bit on the ``eigvalsh`` route, within
``oracles.singular_route_atol`` on the singular-value route, shared windows
included, and within ``oracles.sweep_route_atol`` on a sweep.
"""

from dataclasses import replace

import numpy as np
import pytest

from sshent import groundstate as gs
from sshent import model

from conftest import open_chain, sea_of, two_defect_chain
from oracles import assert_routes_match, chiral_windows, eigvalsh_spectra, is_sweep


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


def _zero_mode(spec, sea):
    return gs.OccupationPolicy.half(gs.localized_zero_modes(sea, spec))


BELOW_HALF = gs.OccupationPolicy.below_half()
SWEEP = list(np.linspace(0.0, 1.0, 37))
# name: spec, policy (a callable of spec and sea), starts, weights, windows on
# the singular-value route, SVDs they take (one per representative)
CASES = {
    # the eigensolve's sea leaves bulk neighbours more than rounding apart:
    # every window of the route takes its own SVD
    "std400": (two_defect_chain(0.3), BELOW_HALF, range(1, 201), None, 48, 48),
    # the compressed ring's bulk blocks have the same bytes within each of the
    # two regions between the defects: two representatives, and 87 windows
    # that read rows of the ring's neighbourhoods
    "polar-ring-1000": (_polar_ring(), BELOW_HALF, range(1, 501), None, 348, 89),
    "open-chain": (open_chain(["one_site"]), BELOW_HALF, range(2, 181), None, 92, 92),
    "mixed-ring": (two_defect_chain(0.3, ("one_site", "three_site")), BELOW_HALF,
                   range(1, 201), None, 47, 47),
    # the zero-mode sweep, on the defect and far from it: an occupied zero
    # mode keeps every window off the singular-value route, on the sweep route
    "zero-mode-sweep": (two_defect_chain(0.3), _zero_mode, [41] * 37, SWEEP, 0, 0),
    "zero-mode-far": (two_defect_chain(0.3), _zero_mode, [90] * 37, SWEEP, 0, 0),
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
    """Every window of the singular-value route takes the spectrum of one
    SVD'd block, its own or its representative's, byte for byte, and all
    stay within ``singular_route_atol`` of their own ``eigvalsh``; a sweep's
    weights stay within ``sweep_route_atol`` of theirs."""
    spec, policy, starts, weights, on_route, svds = CASES[name]
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
    assert_routes_match(lam, eigvalsh_spectra(sea, spec, policy, starts, 20, weights), chiral, 20,
                        sweep=is_sweep(spec, policy, starts))


def test_reversed_windows_give_the_same_bytes():
    """A group's representative is its window with the lowest start cell, so
    every window's spectrum is the same bytes in either order of the windows."""
    spec = _polar_ring()
    sea = sea_of(spec)
    starts = np.arange(1, 501)
    forward = gs.correlation_spectra(sea, spec, BELOW_HALF, starts, 20)
    backward = gs.correlation_spectra(sea, spec, BELOW_HALF, starts[::-1], 20)
    assert backward[::-1].tobytes() == forward.tobytes()


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
    stacks = gs.correlation_stacks(sea, spec, BELOW_HALF, starts[chiral], 20)
    assert {c[0::2, 1::2].tobytes() for stack in stacks for c in stack} == set(solved)


@pytest.mark.parametrize("step, shares", [(0.0, True), (np.nextafter(0.0, 1.0), False)],
                         ids=["same-bytes", "smallest-subnormal-apart"])
def test_windows_share_an_svd_only_with_the_same_bytes(
    monkeypatch, sea03, chain03, below_half, step, shares
):
    """Two windows of a synthetic sea: at 81 the block ``I / 4`` of 16 cells,
    at 121 the same block with one zero entry set to ``step``.  With the
    same bytes the window at 121 takes the SVD of its representative, the
    window at 81 with the lower start cell, whichever comes first; with that
    entry the smallest subnormal, it takes its own."""
    ell = 16
    no_zero_columns = dict(u0=np.zeros_like(sea03.u0), v0=np.zeros_like(sea03.v0))
    # the band positions of each window's C_AB, read through a band of indices
    ids = replace(sea03, band=np.arange(sea03.band.size, dtype=float).reshape(sea03.band.shape),
                  **no_zero_columns)
    (stack,) = gs.correlation_stacks(ids, chain03, below_half, [81, 121], ell)
    at = stack[:, 0::2, 1::2].astype(np.intp)
    band = np.zeros(sea03.band.size)
    rep = np.eye(ell) / 4
    band[at[0]] = rep
    band[at[1]] = rep
    band[at[1][0, 1]] = step
    sea = replace(sea03, band=band.reshape(sea03.band.shape), **no_zero_columns)
    member = rep.copy()
    member[0, 1] = step
    calls = _count_svds(monkeypatch)
    lam = gs.correlation_spectra(sea, chain03, below_half, [121, 81], ell)
    solved = [block.tolist() for batch in calls for block in batch]
    assert solved == ([rep.tolist()] if shares else [member.tolist(), rep.tolist()])
    if shares:
        assert lam[0].tobytes() == lam[1].tobytes()


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
