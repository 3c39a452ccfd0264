"""The column writers against the row-dict oracle, value by value and end to end."""

import copy
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from conftest import sea_of, two_defect_chain
from oracles import (
    aklt_rows,
    dimerized_rows,
    emitted_files,
    fill_deviations,
    render_csv,
    render_json,
    scan_rows,
    sort_rows,
    statmech_rows,
    sweep_route_atol,
    table_rows,
    zero_mode_table_loop,
)
from sshent import asymptotics as asym
from sshent import cli, serialize
from sshent import entanglement as ent
from sshent import groundstate as gs
from sshent import statmech as sm
from sshent.specialfn import EllipticParams

nan, inf = float("nan"), float("inf")
STRINGS = ['a"b', "back\\slash", "tab\tnew\nline", "é☃", "", "comma,field", "\x00"]

# one value per row and column, as the row dicts hold it, and the column
# that stands for it: None is NaN in a float column
EDGE_COLUMNS = {
    "f": (
        [-0.0, nan, inf, -inf, 1e-300, 0.0, 0.1],
        np.array([-0.0, nan, inf, -inf, 1e-300, 0.0, 0.1]),
    ),
    "opt": (
        [None, 1.5, None, -2.0, None, 3.0, None],
        np.array([nan, 1.5, nan, -2.0, nan, 3.0, nan]),
    ),
    "i64": ([0, -1, 2**62, 3, -(2**40), 5, 6], np.array([0, -1, 2**62, 3, -(2**40), 5, 6])),
    "i32": (
        [np.int32(v) for v in (0, -7, 2**31 - 1, 1, 2, 3, 4)],
        np.array([0, -7, 2**31 - 1, 1, 2, 3, 4], dtype=np.int32),
    ),
    "u8": (
        [np.uint8(v) for v in (0, 255, 1, 2, 3, 4, 5)],
        np.array([0, 255, 1, 2, 3, 4, 5], dtype=np.uint8),
    ),
    "f32": (
        [np.float32(v) for v in (0.1, -0.0, nan, inf, 1e-30, 3.0, -2.5)],
        np.array([0.1, -0.0, nan, inf, 1e-30, 3.0, -2.5], dtype=np.float32),
    ),
    "bool": (
        [True, False, True, True, False, False, True],
        np.array([1, 0, 1, 1, 0, 0, 1], dtype=bool),
    ),
    "np_bool": (
        [np.bool_(v) for v in (False, True, False, False, True, True, False)],
        np.array([0, 1, 0, 0, 1, 1, 0], dtype=bool),
    ),
    "str": (STRINGS, np.array(STRINGS, dtype=object)),
    # a fixed-width str array drops trailing NULs, so this one holds none
    "unicode": (["x", *STRINGS[-2::-1]], np.array(["x", *STRINGS[-2::-1]])),
}


def assert_same_text(got, want):
    """Equal texts; on a mismatch, name the first differing line only (a full
    diff of megabyte files takes pytest minutes)."""
    if got != want:
        g, w = got.split("\n"), want.split("\n")
        i = next((k for k, (a, b) in enumerate(zip(g, w)) if a != b), min(len(g), len(w)))
        pytest.fail(f"line {i} differs: {g[i:i + 1]} != {w[i:i + 1]} ({len(g)} vs {len(w)} lines)")


def oracle_rows(spec):
    names = list(spec)
    return [dict(zip(names, values)) for values in zip(*(spec[c][0] for c in names))]


def columns_of(spec):
    return {c: col for c, (_, col) in spec.items()}


def write_both(tmp_path, columns, data, payload=None):
    payload = {"schema": "x", "meta": {"when": nan, "n": [1, 2.5]}} if payload is None else payload
    rendering = serialize.render(columns, data)
    serialize.write_csv(str(tmp_path / "t.csv"), "x", rendering)
    serialize.write_json(str(tmp_path / "t.json"), payload, rendering)
    return tuple((tmp_path / f).read_bytes().decode("utf-8") for f in ("t.csv", "t.json"))


def expected_both(columns, rows, payload=None):
    payload = {"schema": "x", "meta": {"when": nan, "n": [1, 2.5]}} if payload is None else payload
    body = {**payload, "rows": [[row.get(c) for c in columns] for row in rows]}
    return render_csv("x", columns, rows), render_json(body)


def test_edge_values_match_the_oracle(tmp_path):
    columns = list(EDGE_COLUMNS)
    rows = oracle_rows(EDGE_COLUMNS)
    csv_text, json_text = write_both(tmp_path, columns, columns_of(EDGE_COLUMNS))
    want_csv, want_json = expected_both(columns, rows)
    assert csv_text == want_csv
    assert json_text == want_json


def test_float_spellings(tmp_path):
    data = {"x": np.array([-0.0, nan, inf, -inf, 1e-300])}
    csv_text, json_text = write_both(tmp_path, ["x"], data, payload={})
    assert csv_text.splitlines()[2:] == ["0.0", "", "inf", "-inf", "1e-300"]
    tokens = ["-0.0", "null", "Infinity", "-Infinity", "1e-300"]
    rows = ",".join(f"\n    [\n      {t}\n    ]" for t in tokens)
    assert json_text == '{\n  "rows": [' + rows + "\n  ]\n}\n"


def test_np_bool_in_the_oracle_is_a_json_bool():
    assert render_json({"rows": [[np.bool_(True), np.bool_(False)]]}) == (
        '{\n  "rows": [\n    [\n      true,\n      false\n    ]\n  ]\n}\n'
    )


def test_zero_rows(tmp_path):
    columns = list(EDGE_COLUMNS)
    data = {c: col[:0] for c, col in columns_of(EDGE_COLUMNS).items()}
    assert write_both(tmp_path, columns, data) == expected_both(columns, [])


def test_rows_across_blocks(tmp_path):
    rng = np.random.default_rng(7)
    n = 2 * serialize.BLOCK_ROWS + 37
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[rng.integers(0, n, 50)] = nan
    x[rng.integers(0, n, 50)] = -0.0
    k = rng.integers(-(2**40), 2**40, n)
    s = np.array(["lattice", "asymptotic", 'q"uote'], dtype=object)[rng.integers(0, 3, n)]
    rows = [{"x": a, "k": b, "s": c} for a, b, c in zip(x.tolist(), k.tolist(), s.tolist())]
    payload = {"rows_before": [], "a": 1, "z": {"rows": []}}
    got = write_both(tmp_path, ["x", "k", "s"], {"x": x, "k": k, "s": s}, payload)
    for text, want in zip(got, expected_both(["x", "k", "s"], rows, payload)):
        assert_same_text(text, want)


def test_stream_csv_writes_the_file_text(tmp_path):
    columns = list(EDGE_COLUMNS)
    buf = io.StringIO()
    serialize.stream_csv(buf, "x", serialize.render(columns, columns_of(EDGE_COLUMNS)))
    assert buf.getvalue() == write_both(tmp_path, columns, columns_of(EDGE_COLUMNS))[0]


def test_signed_zeros_share_a_value_but_not_a_json_spelling(tmp_path):
    x = np.array([0.0, -0.0, 0.0, -0.0])
    part = serialize.render(["x"], {"x": x}).parts[0]
    assert part.codes.tolist() == [0, 1, 0, 1]
    csv_text, json_text = write_both(tmp_path, ["x"], {"x": x}, payload={})
    assert csv_text.splitlines()[2:] == ["0.0"] * 4
    tokens = [line.strip() for line in json_text.splitlines() if "0.0" in line]
    assert tokens == ["0.0", "-0.0"] * 2


def test_object_columns_are_written_as_strings(tmp_path):
    # 1, 1.0 and True are equal keys, but each is written as its own str()
    values = [1, 1.0, True, None, "1", 1]
    csv_text, json_text = write_both(tmp_path, ["o"], {"o": np.array(values, dtype=object)}, {})
    assert csv_text.splitlines()[2:] == ["1", "1.0", "True", "None", "1", "1"]
    assert json.loads(json_text)["rows"] == [["1"], ["1.0"], ["True"], ["None"], ["1"], ["1"]]


# value pools of every dtype the writers take; a column draws its rows from a
# few values, so values repeat within blocks and across block boundaries
_json_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=8)
_POOLS = {
    "f64": (np.float64, st.floats() | st.sampled_from([-0.0, 0.0, nan, inf, -inf, 5e-324])),
    "f32": (np.float32, st.floats(width=32) | st.sampled_from([-0.0, 0.0, nan, inf, -inf])),
    "i64": (np.int64, st.integers(-(2**63), 2**63 - 1) | st.sampled_from([-(2**63), 2**63 - 1])),
    "i32": (np.int32, st.integers(-(2**31), 2**31 - 1)),
    "u8": (np.uint8, st.integers(0, 255)),
    "bool": (bool, st.booleans()),
    "str": (object, _json_text | st.sampled_from(STRINGS)),
    # a fixed-width str array drops trailing NULs
    "unicode": (str, _json_text.filter(lambda t: not t.endswith("\x00"))),
}


@st.composite
def _tables(draw):
    n_rows = draw(st.sampled_from([0, 1, serialize.BLOCK_ROWS, serialize.BLOCK_ROWS + 1])
                  | st.integers(0, 2 * serialize.BLOCK_ROWS + 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = {}
    for i, kind in enumerate(draw(st.lists(st.sampled_from(list(_POOLS)), min_size=1, max_size=6))):
        dtype, values = _POOLS[kind]
        pool = draw(st.lists(values, min_size=1, max_size=6))
        if kind == "f64" and draw(st.booleans()):
            pool += [-0.0, 0.0]
        data[f"{kind}{i}"] = np.array(pool, dtype=dtype)[rng.integers(0, len(pool), n_rows)]
    return data


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_tables())
def test_random_tables_match_the_oracle(tmp_path, data):
    columns = list(data)
    rows = [dict(zip(columns, values)) for values in zip(*(data[c].tolist() for c in columns))]
    got = write_both(tmp_path, columns, data)
    for text, want in zip(got, expected_both(columns, rows)):
        assert_same_text(text, want)
    buf = io.StringIO()
    serialize.stream_csv(buf, "x", serialize.render(columns, data))
    assert buf.getvalue() == got[0]



def test_labels_render_as_their_string_column(tmp_path):
    labels = ["topological", "trivial", 'de"fect', "é☃"]
    codes = np.array([2, 0, 0, 3, 2, 2, 0], dtype=np.int64)
    as_labels = write_both(tmp_path, ["c"], {"c": serialize.Labels(labels, codes)})
    as_strings = write_both(tmp_path, ["c"], {"c": np.array(labels, dtype=object)[codes]})
    assert as_labels == as_strings
    # a label no row takes is written nowhere
    assert "trivial" not in as_labels[0]


def test_float_values_give_nan_one_code():
    """NaNs of any payload share one value; inf, -inf, 0.0 and -0.0 keep
    their own, and codes index the values."""
    other_nan = np.array([0x7FF8000000000001], dtype=np.uint64).view(float)[0]
    col = np.array([nan, 1.5, -0.0, inf, other_nan, 0.0, -inf, nan, 1.5, -nan])
    values, codes = serialize._values(col)
    assert len(values) == 6
    assert np.isnan(values[codes[[0, 4, 7, 9]]]).all()
    assert len(set(codes[[0, 4, 7, 9]].tolist())) == 1
    back = values[codes]
    same = (back == col) & (np.signbit(back) == np.signbit(col))
    assert (same | np.isnan(col)).all()
    for column in (col[~np.isnan(col)], np.array([nan, nan]), np.array([], float)):
        values, codes = serialize._values(column)
        assert values[codes].tobytes() == column.tobytes() or np.isnan(column).all()


def csv_lines(column):
    """The data lines of the CSV of one column."""
    buf = io.StringIO()
    serialize.stream_csv(buf, "x", serialize.render(["x"], {"x": column}))
    return buf.getvalue().split("\n")[2:-1]


def assert_spelled_by_repr(values):
    got = csv_lines(values)
    want = [float.__repr__(v) for v in np.asarray(values, np.float64).tolist()]
    bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), None)
    assert bad is None, f"{want[bad]!r} spelled {got[bad]!r}"
    assert len(got) == len(want)


def test_random_bit_patterns_are_spelled_by_repr():
    """200k finite nonzero doubles of both signs, from their bit patterns."""
    bits = np.random.default_rng(18).integers(0, 2**64, 220_000, dtype=np.uint64, endpoint=False)
    x = bits.view(np.float64)
    assert_spelled_by_repr(x[np.isfinite(x) & (x != 0.0)][:200_000])


def test_short_decimals_are_spelled_by_repr():
    """Doubles read from decimals of up to 15 digits: the shortest spelling
    is that decimal, and s or s + 1 is chosen by the interval's edges."""
    rng = np.random.default_rng(19)
    digits = rng.integers(1, 10**15, 20_000)
    exponents = rng.integers(-330, 300, 20_000)
    assert_spelled_by_repr([float(f"{d}e{e}") for d, e in zip(digits.tolist(), exponents.tolist())])


def test_powers_of_ten_and_two_and_integers_are_spelled_by_repr():
    """Every power of two (from 2^-1074; at 2^-1022 the next double down is as
    near as the next one up, above it nearer), 1e-323 to 1e308, integers
    around 2^53, and the switches between fixed and exponent form."""
    twos = [2.0**e for e in range(-1074, 1024)]
    assert len(twos) == 2098
    tens = [float(f"1e{i}") for i in range(-323, 309)]
    integers = [float(2**53 + i) for i in range(-300, 300)] + [float(i) for i in range(1, 300)]
    switches = [1e-5, 9.999e-5, 1e-4, 1e15, 9999999999999998.0, 1e16]
    edges = twos + tens + integers + switches
    assert_spelled_by_repr(edges + [-v for v in edges])
    assert csv_lines(np.array(switches)) == [
        "1e-05", "9.999e-05", "0.0001", "1000000000000000.0", "9999999999999998.0", "1e+16"]


def test_float_columns_share_kernel_chunks(tmp_path):
    """The finite nonzero values of all float columns go through the kernel
    together, so chunks span columns; each column's fixed values keep their
    rows, and both files match the row-dict oracle."""
    rng = np.random.default_rng(21)
    n = serialize.FLOAT_CHUNK + 300
    a = rng.standard_normal(n) * 10.0 ** rng.integers(-30, 30, n)
    b = np.round(rng.random(n), 3)
    a[::97], b[::89], b[5] = nan, -0.0, inf
    c = np.array([nan, -inf] * (n // 2))
    data = {"a": a, "b": b, "c": c}
    rows = [dict(zip(data, r)) for r in zip(*(col.tolist() for col in data.values()))]
    for text, want in zip(write_both(tmp_path, list(data), data), expected_both(list(data), rows)):
        assert_same_text(text, want)


def test_float32_columns_are_spelled_as_their_float64_values():
    x = np.random.default_rng(20).standard_normal(5000).astype(np.float32) * np.float32(1e-30)
    assert_spelled_by_repr(np.concatenate([x, np.float32([3.4e38, 1e-45, 0.1])]))


def test_float_tables_are_built_on_first_use():
    """Importing builds neither the power-of-ten limbs nor the token layouts,
    and spelling floats loads no numpy.ma (about half a megabyte)."""
    code = (
        "import sys, numpy as np; from sshent import cli, serialize as s; "
        "assert not s._G_READY.any() and s._layouts.cache_info().currsize == 0; "
        "s.render(['x'], {'x': np.array([0.1, 2.0, 1e300])}); "
        "print(int(s._G_READY.sum()), 'numpy.ma' in sys.modules)"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={"PYTHONPATH": src, "PATH": ""})
    assert run.returncode == 0, run.stderr
    assert run.stdout == "3 False\n"


# --- whole CLI runs: the files and stdout against the row-dict path ---


def _chain(defects, boundary="periodic", n_sites=400):
    return {
        "n_sites": n_sites, "t": 1.0, "delta": 0.3, "boundary": boundary,
        "defects": [{"cell": c, "kind": k} for c, k in defects],
    }


STD400 = {
    "chain": _chain([(87, "one_site"), (187, "one_site")]),  # rotated by 37 cells
    "window_length": 20,
    "m_range": [1, 200],
    "n_list": [1, 2],
    "mode": "both",
}
ZERO_MODE = {
    "window_length": 20,
    "window_start": 41,
    "p_list": [0.0, 0.002, 0.1, 0.5, 0.9, 1.0],
    "n_list": [1, 2],
    "mode": "both",
}


def _scan_configs():
    yield pytest.param("scan-interval", STD400, id="std400-rotated")
    for kind in ("one_site", "three_site"):
        chain = _chain([(50, kind), (150, kind)])
        yield pytest.param("zero-mode-scan", dict(ZERO_MODE, chain=chain), id=f"zero-mode-{kind}")
    open_chain = dict(STD400, chain=_chain([(60, "one_site")], "open"), m_range=[1, 120])
    yield pytest.param("scan-interval", open_chain, id="open-chain")
    three_site = _chain([(50, "three_site"), (150, "three_site")])
    yield pytest.param("scan-interval", dict(STD400, chain=three_site, m_range=[30, 70]),
                       id="three-site")
    half = dict(STD400, chain=_chain([]), filling="half", m_range=[1, 60])
    yield pytest.param("scan-interval", half, id="half-filling")


@pytest.fixture
def record(monkeypatch):
    """Run the CLI while recording what the row-dict path makes of its inputs."""
    seen = {}
    scan, emit, report = cli._scan, cli._emit, sm.equipartition_report

    def spy_scan(points, n_list, ell, lattice, closed_form, source):
        points = list(points)
        seen["rows"] = scan_rows(points, n_list, ell, lattice, closed_form)
        return scan(points, n_list, ell, lattice, closed_form, source)

    def spy_emit(config, data, columns, schema):
        seen["emit"] = (copy.deepcopy(config), columns, schema)
        return emit(config, data, columns, schema)

    def spy_report(spectrum, q_values):
        reports = report(spectrum, q_values)
        seen["rows"] = statmech_rows(reports)
        return reports

    monkeypatch.setattr(cli, "_scan", spy_scan)
    monkeypatch.setattr(cli, "_emit", spy_emit)
    monkeypatch.setattr(sm, "equipartition_report", spy_report)
    return seen


def _assert_files_match(tmp_path, seen, rows=None):
    config, columns, schema = seen["emit"]
    rows = seen["rows"] if rows is None else rows
    want_csv, want_json = emitted_files(config, rows, columns, schema)
    assert_same_text((tmp_path / "out.csv").read_text(encoding="utf-8"), want_csv)
    assert_same_text((tmp_path / "out.json").read_text(encoding="utf-8"), want_json)



def test_zero_mode_scan_on_the_second_defect_matches_per_weight_tables(tmp_path):
    """With the window on the second defect, at n = 0.5 and 2, the files are
    those of one lattice table per weight, from the sweep's spectra (each
    within ``sweep_route_atol`` of its weight's ``correlation_matrix``), and
    one per-sector oracle table per weight at the outside weight 1 - p; the
    exit code is the gate's."""
    spec = two_defect_chain(0.3)
    sea = sea_of(spec)
    pair = gs.localized_zero_modes(sea, spec)
    params = EllipticParams.from_dimerization(0.3)
    ell, m, n_list = 20, 141, [0.5, 2.0]
    weights = [0.0, 1e-12, asym.crossing_weight(-1, params), 0.3, 0.5,
               asym.crossing_weight(2, params), 1.0]
    sweep = gs.correlation_spectra(sea, spec, gs.OccupationPolicy.half(pair),
                                   [m] * len(weights), ell, weights)
    rows = []
    for p, lam in zip(weights, sweep):
        policy = gs.OccupationPolicy.half(pair.with_weight(p))
        np.testing.assert_allclose(
            lam, gs.correlation_matrix(sea, spec, policy, (m, ell)).eigenvalues(),
            rtol=0.0, atol=sweep_route_atol(ell))
        for n in n_list:
            at = {"m": m, "case": "defect", "n": n, "ell": ell, "p": p}
            rows += table_rows(ent.charge_resolved_table(lam, n), source="lattice", **at)
            rows += table_rows(zero_mode_table_loop(1.0 - p, n, params, ell),
                               source="asymptotic", **at)
    fill_deviations(rows)
    rows = sort_rows(rows)
    config = dict(ZERO_MODE, chain=_chain([(50, "one_site"), (150, "one_site")]),
                  window_start=m, n_list=n_list, p_list=weights, tolerance=1e-3,
                  outputs={"csv_path": str(tmp_path / "out.csv"),
                           "json_path": str(tmp_path / "out.json")})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = cli.main(["zero-mode-scan", "--config", str(path)])
    gated = [r["dev"] for r in rows if r["dev"] is not None and r["Z1_q"] >= cli.GATE_PROB_FLOOR]
    assert rc == (cli.EXIT_VALIDATION if max(gated) > config["tolerance"] else cli.EXIT_OK)
    want_csv, want_json = emitted_files(config, rows, cli.SCAN_COLUMNS, cli.SCAN_SCHEMA)
    assert_same_text((tmp_path / "out.csv").read_text(encoding="utf-8"), want_csv)
    assert_same_text((tmp_path / "out.json").read_text(encoding="utf-8"), want_json)

@pytest.mark.parametrize("command, config", list(_scan_configs()))
def test_scan_files_match_the_oracle(tmp_path, record, command, config):
    cfg = dict(config, outputs={"csv_path": str(tmp_path / "out.csv"),
                                "json_path": str(tmp_path / "out.json")})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = cli.main([command, "--config", str(path)])
    assert rc == cli.EXIT_OK
    assert any(r["dev"] is not None for r in record["rows"])
    _assert_files_match(tmp_path, record)


def _out_flags(tmp_path):
    return ["--csv", str(tmp_path / "out.csv"), "--json", str(tmp_path / "out.json")]


def test_dimerized_files_match_the_oracle(tmp_path, record):
    argv = ["dimerized", "--window-length", "12", "--n-list", "1,2,3", "--p-list", "0.5,0.1,0,1"]
    assert cli.main(argv + _out_flags(tmp_path)) == 0
    _assert_files_match(tmp_path, record, dimerized_rows(12, [1.0, 2.0, 3.0], [0.5, 0.1, 0.0, 1.0]))


def test_statmech_files_match_the_oracle(tmp_path, record):
    argv = ["statmech", "--delta", "0.3", "--cut", "weak", "--zero-level", "0.0"]
    assert cli.main(argv + _out_flags(tmp_path)) == 0
    assert any(r["level_degenerate"] for r in record["rows"])
    _assert_files_match(tmp_path, record)


def test_aklt_files_match_the_oracle(tmp_path, record):
    argv = ["aklt", "--n-list", "1,2,0.5", "--p-list", "0.5,0,1"]
    assert cli.main(argv + _out_flags(tmp_path)) == 0
    _assert_files_match(tmp_path, record, aklt_rows([1.0, 2.0, 0.5], [0.5, 0.0, 1.0]))


def test_stdout_csv_matches_the_oracle(capsys):
    assert cli.main(["dimerized", "--window-length", "8", "--p-list", "0.5"]) == 0
    want = render_csv(cli.SCAN_SCHEMA, cli.SCAN_COLUMNS, dimerized_rows(8, [1.0, 2.0], [0.5]))
    assert_same_text(capsys.readouterr().out, want)
