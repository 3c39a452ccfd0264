"""Scans worked out once per class of windows, against the row path.

``cli._scan`` tabulates, joins and orders one representative point per class
(one case and p, and clamped spectra of the same bytes) and writes every
point's rows as codes into its class's rows.  ``oracles.RowScan`` is the
row path it replaced: the tables of every window, one row table of all
points, joined and sorted row by row.  Both run through the same CLI, so
their files, stdout, stderr and exit codes must be equal byte for byte,
also for ``dimerized``, whose points share m and p.
"""

import json

import numpy as np
import pytest

from sshent import asymptotics as asym
from sshent import cli
from sshent import entanglement as ent
from sshent import groundstate as gs

from oracles import RowScan


def _chain(defects, boundary="periodic", n_sites=400):
    return {
        "n_sites": n_sites, "t": 1.0, "delta": 0.3, "boundary": boundary,
        "defects": [{"cell": c, "kind": k} for c, k in defects],
    }


STD400 = {
    "chain": _chain([(50, "one_site"), (150, "one_site")]),
    "window_length": 20,
    "m_range": [1, 200],
    "n_list": [1, 2],
    "mode": "both",
}
# an N = 1000 ring, whose regions the solve cuts to 160 cells: the bulk
# windows of each region read the same bytes, so their spectra have the
# same bytes (the sea's band is that of the polar factor of the hopping block)
RING1000 = dict(STD400, chain=_chain([(125, "one_site"), (375, "three_site")], n_sites=1000),
                m_range=[1, 500])
ZERO_MODE = {
    "chain": STD400["chain"],
    "window_length": 20,
    "window_start": 141,  # holds the second defect
    "p_list": [0.0, 0.002, 0.1, 0.5, 0.9, 1.0],
    "n_list": [0.5, 2],
    "mode": "both",
}


def _without_m_range(config, **extra):
    config = {k: v for k, v in config.items() if k != "m_range"}
    config.update(extra)
    return config


def _nan_in_trivial_case(monkeypatch):
    """A NaN in the closed-form grid of the trivial case, so the gate fails
    on NaN deviations and names the first in output order."""
    grid = asym.case_grid

    def spoiled(cases, n_list, params, ell):
        out = grid(cases, n_list, params, ell)
        if "trivial" in cases:
            out["renyi"] = out["renyi"].copy()
            out["renyi"][cases.index("trivial"), -1, out["q"] == ell + 1] = np.nan
        return out

    monkeypatch.setattr(asym, "case_grid", spoiled)


def _chunks(stack, batch):
    """Solve the window spectra in stacks of ``stack`` windows and SVD
    batches of ``batch`` blocks."""
    def patch(monkeypatch):
        monkeypatch.setattr(gs, "SPECTRA_CHUNK", stack)
        monkeypatch.setattr(gs, "SVD_CHUNK", batch)
    return patch


SCANS = {
    "std400": ("scan-interval", STD400, None),
    "std400-n05": ("scan-interval", dict(STD400, n_list=[0.5]), None),
    "ring1000-polar": ("scan-interval", RING1000, None),
    "m-list-out-of-order": (
        "scan-interval", _without_m_range(STD400, m_list=[70, 3, 41, 150, 20, 99, 1, 149]), None,
    ),
    "lattice": ("scan-interval", dict(STD400, mode="lattice"), None),
    "asymptotic": ("scan-interval", dict(STD400, mode="asymptotic"), None),
    "open-chain": (
        "scan-interval", dict(STD400, chain=_chain([(60, "one_site")], "open")), None,
    ),
    "mixed-kinds": (
        "scan-interval", dict(STD400, chain=_chain([(50, "one_site"), (150, "three_site")])),
        None,
    ),
    "zero-mode-second-defect": ("zero-mode-scan", ZERO_MODE, None),
    # RING1000's 500 windows in one stack and its 87 SVDs in one batch, and
    # both cut in two, as when the spectra were split over two threads
    "one-lane": ("scan-interval", RING1000, _chunks(500, 500)),
    "two-lanes": ("scan-interval", RING1000, _chunks(250, 44)),
    "nan-gate": ("scan-interval", RING1000, _nan_in_trivial_case),
    # three points at (m, p) = (None, None): their rows interleave by the
    # value of n, not its index, then by point order
    "dimerized": ("dimerized", {}, None),
    "dimerized-tied-points": (
        "dimerized", {"window_length": 12, "n_list": [3, 0.5, 1, 2], "p_list": [0.5, 0.1, 0, 1]},
        None,
    ),
}


# the scans whose gate fails, and what they print
FAILING = {
    "std400-n05": (cli.EXIT_VALIDATION, "bulk-window max |lattice - asymptotic| = 3.305e-03"),
    "zero-mode-second-defect": (cli.EXIT_VALIDATION, "max |lattice - asymptotic| = 1.232e-03"),
    "nan-gate": (cli.EXIT_VALIDATION, "row(s) with a NaN deviation or probability, first at m="),
}


def _run(tmp_path, capsys, command, config):
    cfg = dict(config, outputs={"csv_path": str(tmp_path / "scan.csv"),
                                "json_path": str(tmp_path / "scan.json")})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(path)])
    out = capsys.readouterr()
    files = [(tmp_path / name).read_bytes() for name in ("scan.csv", "scan.json")]
    for name in ("scan.csv", "scan.json"):
        (tmp_path / name).unlink()
    return rc, out.out, out.err, files


@pytest.mark.parametrize("name", SCANS)
def test_class_scan_writes_the_bytes_of_the_row_path(tmp_path, capsys, monkeypatch, name):
    command, config, patch = SCANS[name]
    if patch:
        patch(monkeypatch)
    got = _run(tmp_path, capsys, command, config)
    monkeypatch.setattr(cli, "_scan", RowScan)
    want = _run(tmp_path, capsys, command, config)
    assert got[0] == want[0]
    assert got[1] == want[1]
    assert got[2] == want[2]
    assert got[3][0] == want[3][0]
    assert got[3][1] == want[3][1]
    assert got[0] == FAILING.get(name, (cli.EXIT_OK,))[0]
    if name in FAILING:
        assert FAILING[name][1] in got[1] + got[2]


def test_tables_are_built_once_per_class(tmp_path, capsys, monkeypatch):
    """On the N = 1000 ring the bulk windows of each region share their
    spectra's bytes: the lattice tables get one spectrum per class, 240 of
    the 500 windows, and the closed forms one point per class."""
    tabulated, closed = [], []
    tabulate, scan = ent._tabulate, cli._scan

    def spy_tabulate(lambdas, n_list, names=None):
        tabulated.append(lambdas.shape[0])
        return tabulate(lambdas, n_list, names)

    def spy_scan(points, n_list, ell, lattice, closed_form, source):
        points = list(points)
        spectra = ent.clamp_lambdas(lattice(points))
        distinct = {(case, row.tobytes()) for (*_, case), row in zip(points, spectra)}
        closed.append((len(points), len(distinct)))

        def counted(reps):
            closed.append(len(reps))
            return closed_form(reps)

        return scan(points, n_list, ell, lattice, counted, source)

    monkeypatch.setattr(ent, "_tabulate", spy_tabulate)
    monkeypatch.setattr(cli, "_scan", spy_scan)
    assert _run(tmp_path, capsys, "scan-interval", RING1000)[0] == cli.EXIT_OK
    (windows, distinct), reps = closed
    assert windows == 500 and distinct == 240
    assert tabulated == [distinct] and reps == distinct
