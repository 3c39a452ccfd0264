"""Checks of the benchmark's own workload generation and trace arithmetic.

    python3 -m pytest -q perfbench
"""

import collections
import json
import runpy
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402
from sshent import cli, model  # noqa: E402

SEEDS = [1, 7, 50, 150, 151, 987654321]


def script_config(monkeypatch, tmp_path, script, name):
    """The config file a repository script writes, with its CLI call stubbed out."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "main", lambda argv: 0)
    with pytest.raises(SystemExit) if script == "zero_mode_sweep.py" else nullcontext():
        runpy.run_path(str(ROOT / "scripts" / script))
    cfg = json.loads((tmp_path / "out" / f"{name}.config.json").read_text())
    del cfg["outputs"]
    return cfg


@pytest.mark.parametrize(
    "workload, script, name",
    [
        ("scan-std400", "entropy_profiles.py", "profile_delta03"),
        ("zeromode-sweep", "zero_mode_sweep.py", "zero_mode_sweep"),
    ],
)
def test_default_seed_is_the_script_config(monkeypatch, tmp_path, workload, script, name):
    want = json.dumps(script_config(monkeypatch, tmp_path, script, name), indent=2)
    got = json.dumps(WORKLOADS[workload].config(DEFAULT_SEED), indent=2)
    assert got.encode() == want.encode()


def test_big2000_is_std400_scaled():
    big = WORKLOADS["scan-big2000"].config(DEFAULT_SEED)
    std = WORKLOADS["scan-std400"].config(DEFAULT_SEED)
    std["chain"]["n_sites"] = 2000
    std["chain"]["defects"] = [{"cell": 250, "kind": "one_site"}, {"cell": 750, "kind": "one_site"}]
    std["m_range"] = [1, 1000]
    assert json.dumps(big, indent=2) == json.dumps(std, indent=2)


def case_counts(workload, seed):
    cfg = workload.config(seed)
    spec = model.ChainSpec.from_dict(cfg["chain"])  # validates the defect anchors
    ell = cfg["window_length"]
    if "window_start" in cfg:
        starts = [cfg["window_start"]]
        assert len(model.defects_in_window(spec, starts[0], ell)) == 1
    else:
        lo, hi = cfg["m_range"]
        starts = range(lo, hi + 1)
    return collections.Counter(model.window_case(spec, m, ell) for m in starts)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_rotate_and_keep_case_mix(name):
    w = WORKLOADS[name]
    assert w.offset(DEFAULT_SEED) == 0
    base = case_counts(w, DEFAULT_SEED)
    for seed in SEEDS:
        assert 0 < w.offset(seed) < w.n_cells
        assert w.config(seed) != w.config(DEFAULT_SEED)
        assert case_counts(w, seed) == base


@pytest.mark.parametrize("name", ["scan-std400", "zeromode-sweep"])
def test_seed_keeps_row_count(tmp_path, name):
    w = WORKLOADS[name]
    cfg = w.config(7)
    cfg["outputs"] = {"csv_path": str(tmp_path / "out.csv")}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main([w.command, "--config", str(path)]) == 0
    lines = (tmp_path / "out.csv").read_text().splitlines()
    assert len(lines) - 2 == w.rows


def test_self_times_subtract_child_coverage():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6]
    spans = [
        [0, 0.0, 10.0, -1, None],
        [1, 1.0, 3.0, 0, None],
        [1, 4.0, 8.0, 0, None],
        [2, 5.0, 6.0, 2, None],
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0]


def test_layer_metrics_count_outermost_time_and_gathers():
    names = [tracing.ROOT_SPAN, "groundstate.correlation_matrix", "groundstate.occupied_orbitals"]
    spans = [
        [0, 0.0, 10.0, -1, None],
        [1, 1.0, 4.0, 0, 40],
        [2, 1.5, 3.5, 1, [400 * 199 * 8, 400]],
    ]
    metrics, selfs = tracing.layer_metrics({"names": names, "spans": spans})
    assert metrics["groundstate.correlation_matrix.self_s"][0] == pytest.approx(1.0)
    assert metrics["groundstate.occupied_orbitals.s"][0] == pytest.approx(2.0)
    assert metrics["groundstate.gather_bytes"][0] == 400 * 199 * 8
    assert metrics["groundstate.gather_useful_ratio"][0] == pytest.approx(0.1)
    assert metrics["cli.self_s"][0] == pytest.approx(7.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_benchmark_json_lists_the_traced_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    metrics, _ = tracing.layer_metrics({"names": [], "spans": []})
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    emitted.update({"cli.rows": "count", "trace.scan_s": "s", "trace.overhead_s": "s"})
    assert listed == emitted
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)


def test_times_rescale_to_reference_speed():
    import run

    # calibration took twice its reference time: the host ran at half speed
    assert run.at_reference(1.5, 2 * 6 * run.CAL_REF_S, 6) == pytest.approx(0.75)
    assert run.at_reference(1.5, 123.0, 0) == 1.5  # cal_rounds 0: as measured
