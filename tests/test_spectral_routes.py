"""The two routes of the window spectra: the singular values of C_AB where
the zero columns are below rounding, one ``eigvalsh`` per matrix elsewhere.

Each case is held to ``oracles.eigvalsh_spectra``, every window's
``eigvalsh``: bit for bit on the ``eigvalsh`` route and within
``oracles.singular_route_atol`` on the other.
"""

from dataclasses import replace

import numpy as np
import pytest

from sshent import groundstate as gs
from sshent import model

from conftest import open_chain, sea_of, two_defect_chain
from oracles import assert_routes_match, chiral_windows, eigvalsh_spectra


def _polar_ring():
    """N = 1000: 500 cells, 8 blocks of 59, so the polar solve."""
    return model.ChainSpec(
        n_sites=1000, dimerization=0.3, defects=(model.DefectSpec(125), model.DefectSpec(375))
    )


def _zero_mode(spec, sea):
    return gs.OccupationPolicy.half(gs.localized_zero_modes(sea, spec))


BELOW_HALF = gs.OccupationPolicy.below_half()
SWEEP = list(np.linspace(0.0, 1.0, 37))
# name: spec, policy (a callable of spec and sea), starts, weights, windows on
# the singular-value route
CASES = {
    "std400": (two_defect_chain(0.3), BELOW_HALF, range(1, 201), None, 48),
    "polar-ring-1000": (_polar_ring(), BELOW_HALF, range(1, 501), None, 348),
    "open-chain": (open_chain(["one_site"]), BELOW_HALF, range(2, 181), None, 92),
    "mixed-ring": (two_defect_chain(0.3, ("one_site", "three_site")), BELOW_HALF,
                   range(1, 201), None, 47),
    # the zero-mode sweep, on the defect and far from it: an occupied zero
    # mode keeps every window on the eigvalsh route
    "zero-mode-sweep": (two_defect_chain(0.3), _zero_mode, [41] * 37, SWEEP, 0),
    "zero-mode-far": (two_defect_chain(0.3), _zero_mode, [90] * 37, SWEEP, 0),
}


@pytest.mark.parametrize("name", CASES)
def test_routes_match_every_windows_eigvalsh(monkeypatch, name):
    spec, policy, starts, weights, on_svd = CASES[name]
    starts = list(starts)
    sea = sea_of(spec)
    if callable(policy):
        policy = policy(spec, sea)
    batches = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, **kw: batches.append(len(a)) or svd(a, **kw))
    lam = gs.correlation_spectra(sea, spec, policy, starts, 20, weights)
    chiral = chiral_windows(sea, spec, policy, starts, 20)
    assert chiral.sum() == sum(batches) == on_svd
    assert_routes_match(lam, eigvalsh_spectra(sea, spec, policy, starts, 20, weights), chiral, 20)


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
