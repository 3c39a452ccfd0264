import csv
import io
import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import oracles

from sshent import asymptotics as asym
from sshent import cli
from sshent import specialfn as sf
from sshent.serialize import render, stream_csv


def base_config(tmp_path, **extra):
    cfg = {
        "chain": {
            "n_sites": 200,
            "t": 1.0,
            "delta": 0.3,
            "boundary": "periodic",
            "defects": [
                {"cell": 25, "kind": "one_site"},
                {"cell": 75, "kind": "one_site"},
            ],
        },
        "window_length": 14,
        "m_range": [40, 44],
        "n_list": [1, 2],
        "mode": "both",
        "outputs": {
            "csv_path": str(tmp_path / "scan.csv"),
            "json_path": str(tmp_path / "scan.json"),
        },
    }
    cfg.update(extra)
    return cfg


def write_config(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def read_rows(csv_path):
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("#schema=")
    header = lines[1].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[2:]]


def test_scan_interval_both_mode(tmp_path):
    cfg = base_config(tmp_path)
    rc = cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)])
    assert rc == 0
    rows = read_rows(tmp_path / "scan.csv")
    assert {r["source"] for r in rows} == {"lattice", "asymptotic"}
    assert all(r["case"] == "trivial" for r in rows)
    # deviations filled on paired rows
    paired = [r for r in rows if r["dev"]]
    assert paired and all(float(r["dev"]) < 1e-3 for r in paired if float(r["Z1_q"]) > 1e-6)
    meta = json.loads((tmp_path / "scan.json").read_text())
    assert meta["schema"] == "1"
    assert len(meta["rows"]) == len(rows)
    assert meta["config_sha256"]


def test_scan_determinism(tmp_path):
    cfg = base_config(tmp_path, mode="lattice")
    path = write_config(tmp_path, cfg)
    assert cli.main(["scan-interval", "--config", path]) == 0
    first = (tmp_path / "scan.csv").read_bytes()
    assert cli.main(["scan-interval", "--config", path]) == 0
    assert (tmp_path / "scan.csv").read_bytes() == first


def test_scan_row_ordering(tmp_path):
    cfg = base_config(tmp_path, mode="lattice")
    cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)])
    rows = read_rows(tmp_path / "scan.csv")
    keys = [(int(r["m"]), int(r["q"]), float(r["n"])) for r in rows]
    assert keys == sorted(keys)


def test_flag_overrides_config(tmp_path):
    cfg = base_config(tmp_path, mode="lattice")
    path = write_config(tmp_path, cfg)
    rc = cli.main(
        ["scan-interval", "--config", path, "--m-start", "41", "--m-stop", "41",
         "--n-list", "2"]
    )
    assert rc == 0
    rows = read_rows(tmp_path / "scan.csv")
    assert {r["m"] for r in rows} == {"41"}
    assert {r["n"] for r in rows} == {"2.0"}


def test_missing_config_is_config_error(tmp_path, capsys):
    rc = cli.main(["scan-interval", "--config", str(tmp_path / "nope.json")])
    assert rc == 1
    assert "config error" in capsys.readouterr().err


def test_bad_mode_is_config_error(tmp_path):
    cfg = base_config(tmp_path, mode="bogus")
    assert cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)]) == 1


def test_validation_failure_exit_code(tmp_path):
    cfg = base_config(tmp_path, tolerance=1e-15)
    rc = cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    assert (tmp_path / "scan.csv").exists()  # files still written


def test_eigensolver_failure_is_numerical_error(tmp_path, monkeypatch, capsys):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    cfg = base_config(tmp_path)
    rc = cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "numerical error: eigensolver did not converge" in err
    assert "Traceback" not in err
    assert not (tmp_path / "scan.csv").exists()


def test_open_chain_half_filling_is_config_error(tmp_path, capsys):
    """The edge-mode pair sits on the Fermi level, so half filling is
    ambiguous; it is refused whatever signs rounding gives its two energies."""
    chain = {"n_sites": 80, "t": 1.0, "delta": 0.3, "boundary": "open"}
    cfg = base_config(tmp_path, chain=chain, window_length=10, m_range=[2, 30], filling="half")
    rc = cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)])
    assert rc == 1
    assert "config error: half filling is ambiguous" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


def test_out_of_range_correlation_eigenvalue_is_numerical_error(
    tmp_path, monkeypatch, capsys
):
    eigvalsh = np.linalg.eigvalsh
    cfg = base_config(tmp_path, mode="lattice")
    path = write_config(tmp_path, cfg)
    # a spectrum shifted past 1, and one with a NaN eigenvalue
    for spoil in (lambda lam: lam + 1e-3, lambda lam: np.where(lam == lam[3], np.nan, lam)):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: spoil(eigvalsh(a)))
        rc = cli.main(["scan-interval", "--config", path])
        assert rc == 2
        err = capsys.readouterr().err
        assert "numerical error: correlation eigenvalues outside [0, 1]" in err
        assert "Traceback" not in err
        assert not (tmp_path / "scan.csv").exists()


def test_zero_mode_scan(tmp_path):
    cfg = base_config(tmp_path)
    cfg.pop("m_range")
    cfg["window_start"] = 19
    cfg["p_list"] = [0.1, 0.5]
    cfg["n_list"] = [1]
    rc = cli.main(["zero-mode-scan", "--config", write_config(tmp_path, cfg)])
    assert rc == 0
    rows = read_rows(tmp_path / "scan.csv")
    assert {r["p"] for r in rows} == {"0.1", "0.5"}
    assert all(r["case"] == "defect" for r in rows)
    lattice_s = {
        (r["p"], r["q"]): float(r["S"]) for r in rows if r["source"] == "lattice"
    }
    # p = 0.5 carries the extra log 2 of the symmetric zero mode
    s_01 = next(v for (p, _), v in lattice_s.items() if p == "0.1")
    s_05 = next(v for (p, _), v in lattice_s.items() if p == "0.5")
    assert s_05 > s_01


def test_window_start_flag_overrides_config(tmp_path):
    cfg = base_config(tmp_path, mode="lattice")
    cfg.pop("m_range")
    cfg["window_start"] = 19  # holds the defect at cell 25
    cfg["p_list"] = [0.5]
    cfg["n_list"] = [1]
    path = write_config(tmp_path, cfg)
    assert cli.main(["zero-mode-scan", "--config", path, "--window-start", "69"]) == 0
    assert {r["m"] for r in read_rows(tmp_path / "scan.csv")} == {"69"}
    assert json.loads((tmp_path / "scan.json").read_text())["config"]["window_start"] == 69


# the gate value of the standard scan (N 400, ell 20, margin 8, tol 1e-3) when
# the bulk margin is measured from each defect's whole footprint and, on an
# open chain, from both chain ends; measured from the anchor cells alone, the
# first two failed at 2.085e-3 and the open chains at 6.971e-1
@pytest.mark.parametrize(
    "boundary, defects, gate",
    [
        ("periodic", [(50, "three_site"), (150, "three_site")], "6.029e-04"),
        ("periodic", [(50, "three_site"), (150, "one_site")], "9.333e-04"),
        ("periodic", [(50, "one_site"), (150, "three_site")], "9.333e-04"),
        ("open", [], "3.373e-04"),
        ("open", [(60, "one_site")], "9.333e-04"),
        ("open", [(60, "three_site")], "6.029e-04"),
    ],
    ids=["three-three", "three-one", "one-three", "open", "open-one", "open-three"],
)
def test_std400_gate_for_both_defect_kinds_and_open_chains(
    tmp_path, capsys, boundary, defects, gate
):
    chain = {
        "n_sites": 400, "t": 1.0, "delta": 0.3, "boundary": boundary,
        "defects": [{"cell": c, "kind": k} for c, k in defects],
    }
    cfg = base_config(tmp_path, chain=chain, window_length=20, m_range=[1, 200])
    rc = cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)])
    out = capsys.readouterr().out
    assert f"bulk-window max |lattice - asymptotic| = {gate} (tol 0.001)" in out
    assert rc == 0


def gate_columns(rows):
    """``_gate``'s columns from row dicts; ``dev`` None is an unpaired row."""
    return {
        "dev": np.array([np.nan if r["dev"] is None else r["dev"] for r in rows]),
        "paired": np.array([r["dev"] is not None for r in rows]),
        "Z1_q": np.array([r["Z1_q"] for r in rows]),
    }


def test_gate_counts_rows_at_the_probability_floor(capsys):
    rows = [
        {"dev": 2e-3, "Z1_q": cli.GATE_PROB_FLOOR},
        {"dev": 5.0, "Z1_q": 0.5 * cli.GATE_PROB_FLOOR},
        {"dev": None, "Z1_q": 1.0},
    ]
    assert cli._gate(gate_columns(rows), 1e-3, "max |d|") == cli.EXIT_VALIDATION
    assert "max |d| = 2.000e-03 (tol 0.001)" in capsys.readouterr().out
    assert cli._gate(gate_columns(rows[1:]), 1e-3, "max |d|") == cli.EXIT_OK


def test_gate_fails_on_nan(capsys):
    nan = float("nan")
    # a NaN met first used to stay the max and hide the 0.5 failure behind it
    rows = [{"dev": nan, "Z1_q": 0.5}, {"dev": 0.5, "Z1_q": 0.5}]
    assert cli._gate(gate_columns(rows), 1e-3, "max |d|") == cli.EXIT_VALIDATION
    out, err = capsys.readouterr()
    assert "max |d| = 5.000e-01" in out
    assert "NaN" in err
    # NaN alone fails, in the deviation or in the probability, above or below the floor
    for bad in (
        {"dev": nan, "Z1_q": 0.5},
        {"dev": nan, "Z1_q": 0.0},
        {"dev": 1e-5, "Z1_q": nan},
        {"dev": None, "Z1_q": nan},
    ):
        rows = [{"dev": 1e-5, "Z1_q": 0.5}, bad, {"dev": 2e-5, "Z1_q": 0.5, "m": 3}]
        assert cli._gate(gate_columns(rows), 1e-3, "max |d|") == cli.EXIT_VALIDATION, bad
        out, err = capsys.readouterr()
        assert "max |d| = 2.000e-05" in out
        assert "1 row(s) with a NaN" in err


def test_gate_names_the_first_nan_row(capsys):
    cols = gate_columns([{"dev": 1e-5, "Z1_q": 0.5}, {"dev": float("nan"), "Z1_q": 0.5}])
    cols.update(m=np.array([3, 4]), p=np.array([np.nan, np.nan]), q=np.array([19, 20]),
                n=np.array([1.0, 2.0]))
    assert cli._gate(cols, 1e-3, "max |d|") == cli.EXIT_VALIDATION
    assert "first at m=4 p=None q=20 n=2.0" in capsys.readouterr().err


def test_zero_mode_scan_needs_defect_window(tmp_path):
    cfg = base_config(tmp_path)
    cfg.pop("m_range")
    cfg["window_start"] = 40
    assert cli.main(["zero-mode-scan", "--config", write_config(tmp_path, cfg)]) == 1


def test_dimerized_command(tmp_path):
    csv = tmp_path / "dim.csv"
    rc = cli.main(
        ["dimerized", "--window-length", "12", "--n-list", "1,2",
         "--p-list", "0.5", "--csv", str(csv)]
    )
    assert rc == 0
    rows = read_rows(csv)
    cases = {r["case"] for r in rows}
    assert cases == {"topological", "trivial", "defect"}
    tops = [r for r in rows if r["case"] == "topological" and r["n"] == "1.0"]
    assert all(float(r["S"]) == pytest.approx(2 * math.log(2), abs=1e-12) for r in tops)
    zm = [r for r in rows if r["p"] == "0.5" and r["q"] == "12" and r["n"] == "1.0"]
    assert zm and float(zm[0]["S_n_q"]) == pytest.approx(math.log(2), abs=1e-12)


def test_scan_dimerized_plateaus(tmp_path):
    """Moving-interval scan at |delta| = 1: entropy plateaus per window case."""
    cfg = base_config(tmp_path, mode="lattice", n_list=[1])
    cfg["chain"]["delta"] = 1.0
    cfg["m_list"] = [5, 19, 45]  # topological, defect, trivial
    rc = cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)])
    assert rc == 0
    rows = read_rows(tmp_path / "scan.csv")
    by_case = {r["case"]: r for r in rows}
    log2 = math.log(2.0)
    assert float(by_case["topological"]["S"]) == pytest.approx(2 * log2, abs=1e-12)
    assert float(by_case["trivial"]["S"]) == pytest.approx(0.0, abs=1e-12)
    assert float(by_case["defect"]["S"]) == pytest.approx(log2, abs=1e-12)
    assert float(by_case["defect"]["S_f"]) == pytest.approx(log2, abs=1e-12)
    assert float(by_case["defect"]["S_c"]) == pytest.approx(0.0, abs=1e-12)


def test_statmech_command(tmp_path):
    csv = tmp_path / "sm.csv"
    rc = cli.main(
        ["statmech", "--delta", "0.3", "--cut", "weak", "--window-length", "20",
         "--csv", str(csv)]
    )
    assert rc == 0
    rows = {int(r["q"]): r for r in read_rows(csv)}
    assert float(rows[20]["mu"]) == pytest.approx(0.0, abs=1e-10)
    assert rows[21]["mu_at_level"] == "true"
    assert all(float(r["sre_mu_drift"]) < 1e-9 for r in rows.values())


def test_aklt_command(tmp_path):
    csv = tmp_path / "aklt.csv"
    rc = cli.main(["aklt", "--n-list", "1,2", "--p-list", "0.5", "--csv", str(csv)])
    assert rc == 0
    rows = read_rows(csv)
    bulk0 = [
        r for r in rows
        if r["aklt_case"] == "aklt_bulk" and r["jz"] == "0" and r["n"] == "1.0"
    ]
    assert bulk0 and float(bulk0[0]["S_n_jz"]) == pytest.approx(math.log(2), abs=1e-12)
    hybrid = [r for r in rows if r["ground_state"] == "hybrid"]
    assert hybrid and all(r["eta"] == "1.0" for r in hybrid)


def test_unwritable_csv_path_is_a_config_error(tmp_path, capsys):
    bad = tmp_path / "missing" / "x.csv"
    rc = cli.main(["dimerized", "--csv", str(bad)])
    assert rc == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert err == f"config error: cannot write {bad}: No such file or directory\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("csv_existed", [False, True])
def test_unwritable_json_path_leaves_no_csv_behind(tmp_path, capsys, csv_existed):
    """Every output is opened before any is written: a bad --json leaves no new
    CSV on disk, and a CSV that was there already is left as it was."""
    csv, bad = tmp_path / "out.csv", tmp_path / "missing" / "out.json"
    if csv_existed:
        csv.write_text("old\n")
    rc = cli.main(["dimerized", "--csv", str(csv), "--json", str(bad)])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: cannot write {bad}: " in capsys.readouterr().err
    assert csv.exists() == csv_existed
    assert not csv_existed or csv.read_text() == "old\n"
    assert not bad.parent.exists()


@pytest.mark.parametrize("json_name", ["X", "./X", "sub/../X"])
def test_one_path_for_csv_and_json_is_a_config_error(tmp_path, capsys, monkeypatch, json_name):
    """The JSON used to replace the CSV written at the same path, after
    "wrote X (42 rows)" and exit 0."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sub").mkdir()
    rc = cli.main(["scan-interval", "--n-sites", "40", "--delta", "0.3",
                   "--csv", "X", "--json", json_name])
    assert rc == cli.EXIT_CONFIG
    out = capsys.readouterr()
    assert out.err == f"config error: outputs X and {json_name} are the same file\n"
    assert "wrote" not in out.out
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sub"]


@pytest.mark.parametrize(
    "command, argv, key",
    [
        ("dimerized", ["--n-list", "1,1"], "n_list"),
        ("dimerized", ["--p-list", "0.5,0.5"], "p_list"),
        ("aklt", ["--n-list", "1,1"], "n_list"),
        ("aklt", ["--p-list", "0.5,0.5"], "p_list"),
    ],
)
def test_dimerized_and_aklt_reject_repeated_values(tmp_path, capsys, command, argv, key):
    """A repeated value used to write each of its rows twice, with exit 0."""
    csv = tmp_path / "out.csv"
    rc = cli.main([command, *argv, "--csv", str(csv)])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: {key} repeats a value" in capsys.readouterr().err
    assert not csv.exists()


def test_dimerized_rejects_an_empty_n_list(tmp_path, capsys):
    """An empty n_list used to write a header-only CSV with exit 0."""
    csv = tmp_path / "out.csv"
    cfg = write_config(tmp_path, {"n_list": []})
    rc = cli.main(["dimerized", "--config", cfg, "--csv", str(csv)])
    assert rc == cli.EXIT_CONFIG
    assert "config error: n_list is empty" in capsys.readouterr().err
    assert not csv.exists()


def test_dimerized_p_list_may_be_empty(tmp_path):
    csv = tmp_path / "out.csv"
    cfg = write_config(tmp_path, {"p_list": []})
    assert cli.main(["dimerized", "--config", cfg, "--csv", str(csv)]) == cli.EXIT_OK
    assert {r["p"] for r in read_rows(csv)} == {""}


CLOSED_FORM_SCANS = {
    "two-defect-ring": lambda cfg: None,
    "defect-free-ring": lambda cfg: cfg["chain"].update(defects=[]),
    "open-chain": lambda cfg: cfg["chain"].update(
        boundary="open", defects=[{"cell": 60, "kind": "one_site"}]
    ),
    "mixed-kinds": lambda cfg: cfg["chain"].update(
        defects=[{"cell": 25, "kind": "one_site"}, {"cell": 75, "kind": "three_site"}]
    ),
    "unsorted-m-list": lambda cfg: cfg.update(m_list=[70, 3, 41, 20, 99, 1]),
    "n-one-not-first": lambda cfg: cfg.update(n_list=[2, 0.5, 1, 3]),
}


@pytest.mark.parametrize("name", CLOSED_FORM_SCANS)
def test_scan_interval_closed_forms_equal_the_per_window_references(tmp_path, monkeypatch, name):
    """``scan-interval`` tabulates each (case, n) it needs once and takes every
    window's closed-form rows from that grid, bit for bit the columns of the
    per-window compacted references."""
    seen, built = {}, []
    scan, grid = cli._scan, asym.case_grid

    def spy_scan(points, n_list, ell, lattice, closed_form, source):
        points = list(points)
        seen.update(points=points, n_list=n_list, ell=ell, closed_form=closed_form)
        return scan(points, n_list, ell, lattice, closed_form, source)

    def spy_grid(cases, n_list, params, ell):
        built.extend((case, n) for case in cases for n in n_list)
        return grid(cases, n_list, params, ell)

    monkeypatch.setattr(cli, "_scan", spy_scan)
    monkeypatch.setattr(asym, "case_grid", spy_grid)
    cfg = base_config(tmp_path, mode="asymptotic", m_range=[1, 100])
    CLOSED_FORM_SCANS[name](cfg)
    assert cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)]) == cli.EXIT_OK
    monkeypatch.undo()

    points, n_list = seen["points"], seen["n_list"]
    cases = {case for *_, case in points}
    assert sorted(built) == sorted((case, n) for case in cases for n in n_list)
    if name == "defect-free-ring":
        assert "defect" not in {case for case, _ in built}
    got = seen["closed_form"](points)
    params = sf.EllipticParams.from_dimerization(0.3)
    want = oracles.closed_form_sectors_by_reference(points, n_list, params, seen["ell"])
    assert set(got) == set(want)
    for key, col in got.items():
        assert col.dtype == want[key].dtype, key
        assert col.tobytes() == want[key].tobytes(), key


def test_selftest_passes():
    assert cli.main(["selftest"]) == 0


def test_render_csv_schema_line():
    buf = io.StringIO()
    stream_csv(buf, "1", render(["a", "b"], {"a": np.array([1]), "b": np.array([float("nan")])}))
    text = buf.getvalue()
    assert text.splitlines()[0] == "#schema=1"
    assert text.splitlines()[2] == "1,"


@pytest.mark.parametrize("key, values", [("m_list", [41, 42, 41]), ("n_list", [1, 2, 1.0])])
def test_scan_interval_rejects_repeated_windows_and_indices(tmp_path, capsys, key, values):
    # a repeated window used to leave its first copy unpaired and out of the gate
    cfg = base_config(tmp_path, **{key: values})
    rc = cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: {key} repeats a value" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


@pytest.mark.parametrize("key, values", [("p_list", [0.1, 0.5, 0.1]), ("n_list", [2, 2])])
def test_zero_mode_scan_rejects_repeated_weights_and_indices(tmp_path, capsys, key, values):
    cfg = base_config(tmp_path, window_start=19, **{key: values})
    cfg.pop("m_range")
    rc = cli.main(["zero-mode-scan", "--config", write_config(tmp_path, cfg)])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: {key} repeats a value" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()



@pytest.mark.parametrize(
    "command, key, mode",
    [
        ("scan-interval", "n_list", "both"),
        ("zero-mode-scan", "n_list", "both"),
        ("zero-mode-scan", "p_list", "both"),
        ("zero-mode-scan", "p_list", "asymptotic"),
    ],
)
def test_empty_index_and_weight_lists_are_config_errors(tmp_path, capsys, command, key, mode):
    """An empty list used to pass a vacuous gate with a header-only CSV, or
    (p_list in both modes) end in numpy's concatenate error."""
    cfg = base_config(tmp_path, mode=mode, **{key: []})
    if command == "zero-mode-scan":
        cfg.pop("m_range")
        cfg["window_start"] = 19
    rc = cli.main([command, "--config", write_config(tmp_path, cfg)])
    assert rc == cli.EXIT_CONFIG
    assert f"config error: {key} is empty" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()

def _with_chain(cfg, **chain):
    cfg["chain"] = dict(cfg["chain"], **chain)
    return cfg


def _with_cell(cfg, cell):
    cfg["chain"]["defects"][0]["cell"] = cell
    return cfg


@pytest.mark.parametrize(
    "command, edit, key",
    [
        ("scan-interval", lambda c: dict(c, window_length=5.5), "window_length"),
        ("scan-interval", lambda c: dict(c, window_length=True), "window_length"),
        ("scan-interval", lambda c: dict(c, m_list=[41.7, 42]), "m_list"),
        ("scan-interval", lambda c: dict(c, m_range=[40, 44.5]), "m_range"),
        ("scan-interval", lambda c: dict(c, m_range=[False, 44]), "m_range"),
        ("scan-interval", lambda c: dict(c, bulk_margin=8.2), "bulk_margin"),
        ("scan-interval", lambda c: _with_chain(c, n_sites=200.6), "n_sites"),
        ("scan-interval", lambda c: _with_chain(c, n_sites="200"), "n_sites"),
        ("scan-interval", lambda c: _with_cell(c, 25.5), "defect cell"),
        ("zero-mode-scan", lambda c: dict(c, window_start=19.5), "window_start"),
        ("zero-mode-scan", lambda c: dict(c, window_length=14.1), "window_length"),
        ("dimerized", lambda c: dict(c, window_length=6.9), "window_length"),
    ],
)
def test_fractional_or_boolean_integers_are_config_errors(tmp_path, capsys, command, edit, key):
    """Integer keys used to be truncated silently (5.5 ran as 5, true as 1)."""
    cfg = edit(base_config(tmp_path))
    if command == "zero-mode-scan":
        cfg.pop("m_range")
    rc = cli.main([command, "--config", write_config(tmp_path, cfg)])
    assert rc == cli.EXIT_CONFIG
    assert f"{key} must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "scan.csv").exists()


def test_integral_floats_are_integers(tmp_path):
    """20.0 is read as 20: the scan is the same as with integer values."""
    texts = []
    for number in (int, float):
        cfg = base_config(tmp_path, window_length=number(14), m_list=[number(40), number(44)],
                          bulk_margin=number(8))
        cfg.pop("m_range")
        cfg["chain"]["n_sites"] = number(200)
        cfg["chain"]["defects"][0]["cell"] = number(25)
        assert cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)]) == 0
        texts.append((tmp_path / "scan.csv").read_text())
    assert texts[0] == texts[1]


def test_runs_import_only_numpy_and_the_standard_library():
    """A scan-interval and a zero-mode-scan in a fresh interpreter import no
    module outside the standard library, numpy and sshent."""
    script = Path(__file__).resolve().parent.parent / "scripts" / "check_runtime_imports.py"
    run = subprocess.run([sys.executable, str(script)], capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def _no_outputs(tmp_path, capsys):
    std = capsys.readouterr()
    assert "Traceback" not in std.err
    assert not list(tmp_path.glob("scan.*"))
    return std


def _zero_mode_config(tmp_path, **extra):
    cfg = base_config(tmp_path, window_start=19, p_list=[0.1, 0.5], n_list=[1])
    cfg.pop("m_range")
    cfg.update(extra)
    return cfg


@pytest.mark.parametrize(
    "command, extra, flags, message",
    [
        ("scan-interval", {}, ["--tolerance", "nan"], "tolerance must be finite and above 0"),
        ("scan-interval", {}, ["--tolerance", "inf"], "tolerance must be finite and above 0"),
        ("scan-interval", {}, ["--tolerance", "-1"], "tolerance must be finite and above 0"),
        ("scan-interval", {}, ["--tolerance", "0"], "tolerance must be finite and above 0"),
        ("scan-interval", {"tolerance": "tight"}, [], "tolerance must be a number"),
        ("scan-interval", {"tolerance": None}, [], "tolerance must be a number"),
        ("scan-interval", {}, ["--bulk-margin", "-2"], "bulk_margin must be at least 0"),
        ("scan-interval", {"bulk_margin": 1.5}, [], "bulk_margin must be an integer"),
        ("scan-interval", {"bulk_margin": None}, [], "bulk_margin must be an integer"),
        # a lattice scan does not gate, but its gate settings are still configuration
        ("scan-interval", {"mode": "lattice"}, ["--tolerance", "nan"], "tolerance must be finite"),
        ("zero-mode-scan", {}, ["--tolerance", "nan"], "tolerance must be finite and above 0"),
        ("zero-mode-scan", {"tolerance": -1e-3}, [], "tolerance must be finite and above 0"),
        ("zero-mode-scan", {"bulk_margin": -1}, [], "bulk_margin must be at least 0"),
        # config lists of the wrong shape used to end in a TypeError traceback,
        # or (m_range [1]) in an unpacking error that named no key
        ("dimerized", {"p_list": 0.3}, [], "p_list must be a list of zero-mode weights, got 0.3"),
        ("dimerized", {"p_list": [None]}, [], "p_list must hold numbers, got [None]"),
        ("zero-mode-scan", {"p_list": 0.3}, [], "p_list must be a list of zero-mode weights"),
        ("zero-mode-scan", {"p_list": [None]}, [], "p_list must hold numbers, got [None]"),
        ("scan-interval", {"m_list": 5}, [], "m_list must be a list of window starts, got 5"),
        ("scan-interval", {"m_range": 5}, [], "m_range must be a list of 2 window starts, got 5"),
        ("scan-interval", {"m_range": [1]}, [], "m_range must be a list of 2 window starts"),
        # a JSON integer beyond float range used to end in an OverflowError traceback
        ("dimerized", {"n_list": [1, 10**400]}, [], "n_list holds a number beyond float range"),
        ("dimerized", {"window_length": 10**400}, [], "window_length is beyond float range"),
    ],
)
def test_bad_gate_settings_are_config_errors(tmp_path, capsys, command, extra, flags, message):
    """A NaN tolerance used to pass every gate; a negative tolerance or
    margin failed the scan as a numerical validation failure.  Config lists
    are read through one helper that names the key."""
    make = _zero_mode_config if command == "zero-mode-scan" else base_config
    path = write_config(tmp_path, make(tmp_path, **extra))
    assert cli.main([command, "--config", path] + flags) == cli.EXIT_CONFIG
    std = _no_outputs(tmp_path, capsys)
    assert std.out == ""
    assert std.err.startswith("config error: ") and message in std.err


def test_default_gate_settings_are_unchanged(tmp_path, capsys):
    path = write_config(tmp_path, base_config(tmp_path))
    assert cli.main(["scan-interval", "--config", path]) == cli.EXIT_OK
    assert "(tol 0.001)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, config_text, message",
    [
        (["--n-list", "inf"], None, "Renyi index must be finite, got inf"),
        ([], '"n_list": [1, 1e400]', "Renyi index must be finite, got inf"),
        ([], '"n_list": 2', "n_list must be a list of Renyi indices, got 2"),
        ([], '"n_list": [1, null]', "n_list must hold numbers, got [1, None]"),
        (["--n-list", "-1"], None, "Renyi index must be positive"),
    ],
)
@pytest.mark.parametrize("command", ["scan-interval", "zero-mode-scan"])
def test_bad_renyi_indices_are_config_errors(tmp_path, capsys, command, argv, config_text, message):
    make = _zero_mode_config if command == "zero-mode-scan" else base_config
    text = json.dumps(make(tmp_path))
    if config_text:
        text = text[:-1] + ", " + config_text + "}"
    path = tmp_path / "cfg.json"
    path.write_text(text)
    assert cli.main([command, "--config", str(path)] + argv) == cli.EXIT_CONFIG
    std = _no_outputs(tmp_path, capsys)
    assert std.err == f"config error: {message}\n"


@pytest.mark.parametrize("command", ["dimerized", "aklt"])
def test_table_commands_check_renyi_indices(capsys, command):
    assert cli.main([command, "--n-list", "1,inf"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == "config error: Renyi index must be finite, got inf\n"


@pytest.mark.parametrize(
    "command, mode, message",
    [
        ("scan-interval", "both", "Renyi entropies at n = 1100 leave double range"),
        ("scan-interval", "lattice", "Renyi entropies at n = 1100 leave double range"),
        ("scan-interval", "asymptotic", "closed forms at Renyi index n = 1100 leave double range"),
        ("zero-mode-scan", "both", "Renyi entropies at n = 1100 leave double range"),
        ("zero-mode-scan", "lattice", "Renyi entropies at n = 1100 leave double range"),
        ("zero-mode-scan", "asymptotic", "closed forms at Renyi index n = 1100 leave double range"),
    ],
)
def test_underflowing_renyi_index_is_a_numerical_error(tmp_path, capsys, command, mode, message):
    """At n = 1100 every (1 - lam)^n + lam^n near lam = 1/2, and the closed
    forms' moduli, underflow.  The scan used to end in a bare
    ZeroDivisionError, or (lattice only) write rows of S_n_q = inf with two
    RuntimeWarnings and exit 0.  The scan-interval windows are topological,
    with two levels near 1/2: sector values alone no longer leave double
    range, and the trivial windows between the defects pass at n = 1100."""
    if command == "zero-mode-scan":
        cfg = _zero_mode_config(tmp_path, mode=mode, n_list=[1, 1100])
    else:
        cfg = base_config(tmp_path, mode=mode, n_list=[1, 1100], m_range=[80, 84])
    path = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--config", path]) == cli.EXIT_VALIDATION
    std = _no_outputs(tmp_path, capsys)
    assert std.out == ""
    assert std.err.startswith(f"numerical error: {message}")


@pytest.mark.parametrize("command", ["scan-interval", "zero-mode-scan"])
def test_largest_double_renyi_index_prints_only_the_error(tmp_path, command):
    """At n = 1e308, n log(lam) overflows in the log recursion and in the
    sector entropies.  The range check classifies those rows, so a fresh
    process prints the one error line and no RuntimeWarning (it printed
    three)."""
    make = _zero_mode_config if command == "zero-mode-scan" else base_config
    cfg = make(tmp_path, mode="lattice", n_list=[1, 1e308])
    if command == "scan-interval":
        cfg["m_range"] = [80, 84]
    path = write_config(tmp_path, cfg)
    src = str(Path(__file__).resolve().parent.parent / "src")
    argv = [command, "--config", path]
    code = f"import sys; from sshent import cli; sys.exit(cli.main({argv!r}))"
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PATH": ""})
    assert run.returncode == cli.EXIT_VALIDATION
    assert run.stderr == ("numerical error: Renyi entropies at n = 1e+308 leave double range: "
                          "the partition functions of spectrum 0 underflow to 0\n")
    assert not list(tmp_path.glob("scan.*"))


def test_std400_lattice_scan_at_large_renyi_indices(tmp_path, capsys):
    """At n = 30 and 40 the std400 lattice scan has hundreds of sectors whose
    Z_n(q) underflows (it exited 2 on them): it now writes finite rows, the
    n = 1 rows as at n_list [1], and exits 0 without warnings."""
    chain = {"n_sites": 400, "t": 1.0, "delta": 0.3, "boundary": "periodic",
             "defects": [{"cell": 50, "kind": "one_site"}, {"cell": 150, "kind": "one_site"}]}
    cfg = base_config(tmp_path, chain=chain, window_length=20, m_range=[1, 200],
                      n_list=[1, 30, 40], mode="lattice")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)]) == cli.EXIT_OK
    rows = read_rows(tmp_path / "scan.csv")
    assert {r["n"] for r in rows} == {"1.0", "30.0", "40.0"}
    assert all(math.isfinite(float(r["S_n_q"])) for r in rows)
    one = [r for r in rows if r["n"] == "1.0"]
    cfg["n_list"] = [1]
    cfg["outputs"] = {"csv_path": str(tmp_path / "one.csv")}
    assert cli.main(["scan-interval", "--config", write_config(tmp_path, cfg)]) == cli.EXIT_OK
    assert one == read_rows(tmp_path / "one.csv")
    capsys.readouterr()


@pytest.mark.parametrize("command", ["dimerized", "aklt"])
def test_table_commands_report_underflow_as_numerical(capsys, command):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main([command, "--n-list", "1100"]) == cli.EXIT_VALIDATION
    std = capsys.readouterr()
    assert std.out == ""
    assert std.err.startswith("numerical error: Renyi entropies at n = 1100 leave double range")


def test_aklt_at_n_600_writes_its_exact_rows(capsys):
    """At n = 600 the bulk sectors' Z_n(q) = 4^-600 underflow, which exited 2
    although no column reads them: the rows are exact and the command exits 0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["aklt", "--n-list", "600", "--p-list", "0.1"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    rows = list(csv.DictReader(lines[1:]))
    bulk = [r for r in rows if r["aklt_case"] == "aklt_bulk"]
    assert [(r["jz"], r["Z1_jz"], r["S_n_jz"]) for r in bulk] == [
        ("-1", "0.25", "0.0"), ("0", "0.5", repr(math.log(2.0))), ("1", "0.25", "0.0"),
    ]
    assert all(math.isfinite(float(r["S_n_jz"])) for r in rows)


def test_a_scan_does_not_load_openssl():
    """The JSON digest comes from the interpreter's builtin SHA-256, so a
    scan's process never maps libcrypto (about 3.5 MB of resident memory)."""
    code = (
        "import sys; from sshent import cli, serialize; "
        "assert serialize.config_digest({'a': 1}); "
        "print('_hashlib' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PATH": ""})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "False\n"


@pytest.mark.parametrize("files", [False, True])
def test_a_closed_stdout_exits_quietly(tmp_path, files):
    """A reader that closes stdout early (``sshent dimerized | head -1``)
    ends the run with ``EXIT_CLOSED_STDOUT`` and nothing on stderr: no
    traceback, and no "Exception ignored" line from the flush at exit.  The
    CSV stream (about 0.5 MB, more than a pipe holds) meets the closed pipe
    after one line; a run with its CSV in a file meets it at its ``wrote``
    line, the file written in full."""
    n_list = ",".join(str(1 + i / 10) for i in range(1000))
    argv = ["dimerized", "--n-list", n_list]
    if files:
        argv += ["--csv", str(tmp_path / "dimerized.csv")]
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = f"import sys; from sshent import cli; sys.exit(cli.main({argv!r}))"
    child = subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE,
                             stderr=subprocess.PIPE, env={"PYTHONPATH": src, "PATH": ""})
    if not files:
        assert child.stdout.readline() == b"#schema=1\n"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait() == cli.EXIT_CLOSED_STDOUT and err == b""
    if files:
        lines = (tmp_path / "dimerized.csv").read_text().splitlines()
        # 3 cases x 2 sectors x 1000 indices, the last row that of the last index
        assert len(lines) == 2 + 6000 and ",100.9," in lines[-1]
