"""Two lanes: the window spectra and the output files are those of one lane.

Every test sets the CPU count it needs by patching ``lanes.usable_cpus``,
so the two-lane paths run (on two threads) on any host.
"""

import json
import os
import sys
import threading

import numpy as np
import pytest

from sshent import cli
from sshent import groundstate as gs
from sshent import lanes
from sshent import model

from conftest import sea_of, two_defect_chain
from oracles import assert_routes_match, chiral_windows, eigvalsh_spectra, is_sweep


@pytest.fixture
def cpus(monkeypatch):
    def use(count):
        monkeypatch.setattr(lanes, "usable_cpus", lambda: count)

    return use


def test_usable_cpus_counts_the_affinity_set(monkeypatch):
    assert 1 <= lanes.usable_cpus() <= (os.cpu_count() or 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert lanes.usable_cpus() == 1
    # where the platform reports no affinity set, the machine's count
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert lanes.usable_cpus() == 1
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert lanes.usable_cpus() == 4


def test_beside_runs_the_other_lane_on_a_second_thread(cpus):
    seen = {}
    cpus(2)
    lanes.beside(lambda: seen.setdefault("main", threading.get_ident()),
                 lambda: seen.setdefault("other", threading.get_ident()))
    assert seen["main"] == threading.get_ident() != seen["other"]
    cpus(1)
    order = []
    lanes.beside(lambda: order.append(threading.get_ident()),
                 lambda: order.append(threading.get_ident()))
    assert order == [threading.get_ident()] * 2


@pytest.mark.parametrize("count", [1, 2])
def test_beside_raises_the_main_lanes_error_first_after_both_end(cpus, count):
    cpus(count)
    ended = []

    def fails(name):
        def run():
            ended.append(name)
            raise KeyError(name)

        return run

    with pytest.raises(KeyError, match="main"):
        lanes.beside(fails("main"), lambda: ended.append("other"))
    # one lane stops at the main lane's error, two lanes join the other first
    assert sorted(ended) == (["main"] if count == 1 else ["main", "other"])
    with pytest.raises(KeyError, match="other"):
        lanes.beside(lambda: None, fails("other"))
    ended.clear()
    with pytest.raises(KeyError, match="main"):
        lanes.beside(fails("main"), fails("other"))


def _ring(n_sites):
    """The benchmark's rings: defects at a quarter and three quarters."""
    cells = n_sites // 2
    return model.ChainSpec(
        n_sites=n_sites, dimerization=0.3,
        defects=(model.DefectSpec(cells // 4), model.DefectSpec(3 * cells // 4)),
    )


def _spectra_cases():
    chunk = gs.SPECTRA_CHUNK
    yield pytest.param(_ring(400), None, list(range(1, 201)), id="std400")
    yield pytest.param(_ring(2000), None, list(range(1, 1001)), id="big2000")
    yield pytest.param(_ring(400), None, [41], id="one-window")
    yield pytest.param(_ring(400), None, list(range(30, 30 + chunk - 3)), id="under-one-stack")
    yield pytest.param(_ring(400), None, list(range(1, 1 + 5 * chunk - 2)), id="odd-stacks")
    # one window under 37 weights: the sweep route, in one stack
    yield pytest.param(_ring(400), 41, np.linspace(0.0, 1.0, 37), id="zero-mode-37")
    yield pytest.param(_ring(400), 141, np.linspace(0.0, 1.0, 37), id="second-defect")
    # in three stacks of the sweep route, the last partial, so on two lanes
    yield pytest.param(_ring(400), 41, np.linspace(0.0, 1.0, 2 * gs.SWEEP_CHUNK + 5),
                       id="zero-mode-three-stacks")
    # far from both defects: no dimension of the window is solved per weight
    yield pytest.param(_ring(400), 90, np.linspace(0.0, 1.0, 2 * gs.SWEEP_CHUNK + 5),
                       id="zero-mode-far")


@pytest.mark.parametrize("spec, start, values", _spectra_cases())
def test_two_lanes_equal_one_lane_bit_for_bit(cpus, monkeypatch, spec, start, values):
    sea = sea_of(spec)
    if start is None:
        policy, starts, weights = gs.OccupationPolicy.below_half(), values, None
    else:
        policy = gs.OccupationPolicy.half(gs.localized_zero_modes(sea, spec))
        starts, weights = [start] * len(values), values
    threads = set()
    eigvalsh = np.linalg.eigvalsh

    def spy(a):
        threads.add(threading.get_ident())
        return eigvalsh(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    spectra = {}
    sweep = is_sweep(spec, policy, starts)
    for count in (1, 2):
        cpus(count)
        threads.clear()
        spectra[count] = gs.correlation_spectra(sea, spec, policy, starts, 20, weights)
        stacks = -(-len(starts) // (gs.SWEEP_CHUNK if sweep else gs.SPECTRA_CHUNK))
        assert len(threads) == (2 if count == 2 and stacks > 1 else 1)
    assert spectra[1].shape == (len(starts), 40)
    assert spectra[1].flags.c_contiguous and spectra[2].flags.c_contiguous
    # the groups of windows that share an SVD are formed before the lane
    # split, so they and their representatives do not depend on the lane count
    assert spectra[1].tobytes() == spectra[2].tobytes()
    # and both are the windows' own spectra: the eigvalsh route's a stack at
    # a time, bit for bit, and the singular-value and sweep routes' within
    # their bounds
    assert_routes_match(spectra[1], eigvalsh_spectra(sea, spec, policy, starts, 20, weights),
                        chiral_windows(sea, spec, policy, starts, 20), 20, sweep=sweep)


def _spy_threads(monkeypatch):
    """Patch ``np.linalg.eigvalsh`` and ``np.linalg.svd`` to record the
    threads they run on, and the size of each SVD batch."""
    threads = {"eigvalsh": set(), "svd": set()}
    batches = []

    def spy(name):
        solve = getattr(np.linalg, name)

        def run(a, *args, **kwargs):
            threads[name].add(threading.get_ident())
            if name == "svd":
                batches.append(len(a))
            return solve(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, run)

    spy("eigvalsh")
    spy("svd")
    return threads, batches


def test_both_routes_run_on_both_lanes(cpus, monkeypatch):
    """On big2000 each half of the windows holds windows of both routes, so
    with two CPUs the eigvalsh stacks and the SVD batches run on two
    threads.  Its 848 singular-value windows take 89 SVDs: the windows of
    the two regions' bulk share the SVDs of two representatives, the windows
    at cells 1 and 301 (the lowest start cell of each bulk), and the 87
    windows that read rows of the compressed ring's neighbourhoods take
    their own.  A defect-free N = 600 ring is one run of identical cells,
    cut to 160 with its ends at the seam: its 300 windows take 120 SVDs,
    one for the windows of its bulk and one each for the 119 windows that
    read rows near the seam."""
    spec = _ring(2000)
    sea = sea_of(spec)
    threads, batches = _spy_threads(monkeypatch)
    cpus(2)
    lam = gs.correlation_spectra(sea, spec, gs.OccupationPolicy.below_half(), range(1, 1001), 20)
    assert [len(t) for t in threads.values()] == [2, 2] and sorted(batches) == [44, 45]
    chiral = chiral_windows(sea, spec, gs.OccupationPolicy.below_half(), range(1, 1001), 20)
    assert chiral.sum() == 848
    rows = [row.tobytes() for row in lam[chiral]]
    assert len(set(rows)) == 89
    assert rows.count(lam[0].tobytes()) == 381 and rows.count(lam[300].tobytes()) == 380

    spec = model.ChainSpec(n_sites=600, dimerization=0.3)
    threads, batches = _spy_threads(monkeypatch)
    gs.correlation_spectra(sea_of(spec), spec, gs.OccupationPolicy.below_half(),
                           range(1, 301), 20)
    assert [len(t) for t in threads.values()] == [0, 2]
    assert sorted(batches) == [51, 69]


def test_lanes_under_frequent_thread_switches(cpus, sea03, chain03, below_half):
    """The two lanes write disjoint rows of one array: with the interpreter
    switching threads every microsecond, the spectra still equal one lane's,
    and no lane thread outlives the call."""
    starts = list(range(1, 201))
    cpus(1)
    want = gs.correlation_spectra(sea03, chain03, below_half, starts, 20)
    cpus(2)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            got = gs.correlation_spectra(sea03, chain03, below_half, starts, 20)
            assert got.tobytes() == want.tobytes()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads


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


def _run(tmp_path, capsys, command, config, name):
    out = tmp_path / name
    out.mkdir()
    # one output path for both runs: the JSON holds the config
    cfg = dict(config, outputs={"csv_path": str(tmp_path / "scan.csv"),
                                "json_path": str(tmp_path / "scan.json")})
    path = out / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(path)])
    std = capsys.readouterr()
    files = {p.name: p.read_bytes() for p in tmp_path.glob("scan.*")}
    for p in tmp_path.glob("scan.*"):
        p.unlink()
    return rc, std.out, std.err, files


@pytest.mark.parametrize("command", SCANS)
def test_cli_outputs_and_lines_are_those_of_one_lane(tmp_path, capsys, cpus, command):
    runs = {}
    for count in (1, 2):
        cpus(count)
        runs[count] = _run(tmp_path, capsys, command, SCANS[command], f"cpus{count}")
    assert runs[1] == runs[2]
    rc, out, err, files = runs[2]
    assert rc == cli.EXIT_OK and err == ""
    assert sorted(files) == ["scan.csv", "scan.json"]
    rows = files["scan.csv"].count(b"\n") - 2
    # the gate line, then the files in the order they were always written
    assert out.splitlines()[1:] == [
        f"wrote {tmp_path / 'scan.csv'} ({rows} rows)",
        f"wrote {tmp_path / 'scan.json'}",
    ]


FAILURES = {"eigvalsh": "Eigenvalues did not converge", "svd": "SVD did not converge"}


def _failing_solve(monkeypatch, name, m, threads):
    """Make ``np.linalg.<name>`` (``eigvalsh`` or ``svd``) fail with
    numpy's message on the stack or batch whose first matrix is that of the
    window at ``m`` on the standard ring (its C_AB block for ``svd``),
    recording the thread it failed on."""
    spec = two_defect_chain(0.3)
    matrix = gs.correlation_matrix(sea_of(spec), spec, gs.OccupationPolicy.below_half(),
                                   (m, 20)).matrix
    target = matrix[0::2, 1::2] if name == "svd" else matrix
    solve = getattr(np.linalg, name)

    def spy(a, *args, **kwargs):
        if np.array_equal(a[0], target):
            threads.append(threading.current_thread() is threading.main_thread())
            raise np.linalg.LinAlgError(FAILURES[name])
        return solve(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, name, spy)


@pytest.mark.parametrize("first_window, batch", [(1, 26), (179, 22)])
def test_singular_value_failure_is_a_numerical_error_on_either_lane(
    tmp_path, capsys, cpus, monkeypatch, first_window, batch
):
    """The 200 windows split 112 + 88: the main lane's singular-value
    windows (cells 1, 2 and 79..102) are one batch, the other lane's (cells
    179..200) another.  Either way the run exits 2 with the one-lane message, naming
    the first window of the failing batch, and writes no file."""
    threads = []
    _failing_solve(monkeypatch, "svd", first_window, threads)
    runs = {}
    for count in (1, 2):
        cpus(count)
        runs[count] = _run(tmp_path, capsys, "scan-interval", SCANS["scan-interval"],
                           f"cpus{count}")
    assert runs[1] == runs[2]
    rc, out, err, files = runs[2]
    assert rc == cli.EXIT_VALIDATION and out == "" and files == {}
    assert err == (
        "numerical error: singular values did not converge (svd of the 20x20 C_AB blocks of "
        f"{batch} windows from window {first_window - 1}, the first at cell {first_window}): "
        "SVD did not converge\n"
    )
    assert threads == [True, first_window < 113]


@pytest.mark.parametrize("first_window", [1 + 10 * gs.SPECTRA_CHUNK, 1 + 2 * gs.SPECTRA_CHUNK])
def test_window_solve_failure_is_a_numerical_error_on_either_lane(
    tmp_path, capsys, cpus, monkeypatch, first_window
):
    """The 200 windows are 13 stacks, split 7 + 6: stack 10 is the other
    lane's, stack 2 the main lane's.  Either way the run exits 2 with the one-lane message, naming
    the first window of the failing stack, and writes no file."""
    threads = []
    _failing_solve(monkeypatch, "eigvalsh", first_window, threads)
    runs = {}
    for count in (1, 2):
        cpus(count)
        runs[count] = _run(tmp_path, capsys, "scan-interval", SCANS["scan-interval"],
                           f"cpus{count}")
    assert runs[1] == runs[2]
    rc, out, err, files = runs[2]
    assert rc == cli.EXIT_VALIDATION and out == "" and files == {}
    first = first_window - 1
    assert err == (
        "numerical error: eigensolver did not converge (eigvalsh of the 40x40 correlation "
        f"matrices of windows {first}..{first + gs.SPECTRA_CHUNK - 1}, the first at cell "
        f"{first_window}): Eigenvalues did not converge\n"
    )
    on_main = first_window <= 7 * gs.SPECTRA_CHUNK
    assert threads == [True, on_main]
