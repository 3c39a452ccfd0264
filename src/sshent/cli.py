"""Batch driver: configure chains, run interval/parameter scans, emit CSV/JSON.

Subcommands
-----------
scan-interval   move an interval along the chain; lattice and/or closed forms
zero-mode-scan  fixed defect interval, sweep the zero-mode weight p
dimerized       exact fully dimerized tables
statmech        chemical-potential diagnostics on model spectra
aklt            spin-chain interface tables
selftest        quick end-to-end invariant suite

Exit codes: 0 success, 1 configuration error, 2 numerical-validation failure
(a failed gate, or a ``NumericalError``: an eigensolver that did not
converge, or entropies outside double range), 141 when the reader of stdout
closes it first (``| head``; the status a shell reports for a process ended
by SIGPIPE), which prints nothing more.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import numbers
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__, aklt as aklt_mod, asymptotics as asym
from . import entanglement as ent
from . import groundstate as gs
from . import model
from . import serialize
from . import specialfn as sf
from . import statmech as sm
from .linalg import NumericalError, eigh_sea

SCAN_COLUMNS = [
    "m", "case", "p", "q", "dq", "n",
    "Z1_q", "S_n_q", "S", "S_c", "S_f", "source", "dev",
]
SCAN_SCHEMA = "1"
# paired rows below this sector probability are left out of the gate
GATE_PROB_FLOOR = 1e-6

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_VALIDATION = 2
EXIT_CLOSED_STDOUT = 141


class ConfigError(Exception):
    pass


def _parse_list(text: str, flag: str, parse=float) -> list:
    """The comma-separated values of ``flag``; a token ``parse`` refuses is a
    ConfigError that names ``flag``."""
    try:
        return [parse(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        kind = "integers" if parse is int else "numbers"
        raise ConfigError(
            f"{flag} must be a comma-separated list of {kind}, got {text!r}"
        ) from None


def _load_config(args: argparse.Namespace, defaults: dict) -> dict:
    config = dict(defaults)
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config.update(json.load(fh))
        except (OSError, json.JSONDecodeError) as err:
            raise ConfigError(f"cannot read config {args.config}: {err}") from err
    overrides = {
        "n_sites": getattr(args, "n_sites", None),
        "delta": getattr(args, "delta", None),
        "t": getattr(args, "hopping", None),
        "window_length": getattr(args, "window_length", None),
        "mode": getattr(args, "mode", None),
        "tolerance": getattr(args, "tolerance", None),
        "bulk_margin": getattr(args, "bulk_margin", None),
        "window_start": getattr(args, "window_start", None),
    }
    chain_keys = {"n_sites", "delta", "t"}
    for key, val in overrides.items():
        if val is None:
            continue
        if key in chain_keys:
            config.setdefault("chain", {})[key] = val
        else:
            config[key] = val
    if getattr(args, "n_list", None):
        config["n_list"] = _parse_list(args.n_list, "--n-list")
    if getattr(args, "p_list", None):
        config["p_list"] = _parse_list(args.p_list, "--p-list")
    if getattr(args, "m_start", None) is not None or getattr(args, "m_stop", None) is not None:
        if args.m_start is None or args.m_stop is None:
            raise ConfigError("--m-start and --m-stop must be given together")
        config["m_range"] = [args.m_start, args.m_stop]
    return _add_outputs(config, args)


def _add_outputs(config: dict, args: argparse.Namespace) -> dict:
    if getattr(args, "csv", None):
        config.setdefault("outputs", {})["csv_path"] = args.csv
    if getattr(args, "json_path", None):
        config.setdefault("outputs", {})["json_path"] = args.json_path
    return config


def _chain_from_config(config: dict) -> model.ChainSpec:
    chain = config.get("chain")
    if not isinstance(chain, dict):
        raise ConfigError("config needs a 'chain' object")
    try:
        return model.ChainSpec.from_dict(chain)
    except (KeyError, ValueError, TypeError) as err:
        raise ConfigError(f"bad chain spec: {err}") from err


# a row's source, by index; rows of one (m, p, q, n) key come in this order
SOURCES = ("lattice", "asymptotic", "dimerized")
LATTICE, ASYMPTOTIC, DIMERIZED = range(3)
# a row's window case, by index
CASES = (model.TOPOLOGICAL, model.TRIVIAL, model.DEFECT)


def _config_list(config: dict, key: str, what: str, integers=False, size=None) -> list:
    """``config[key]``, a list of ``what``: floats, or with ``integers`` ints
    (``model.integer``).  It holds ``size`` values or, without ``size``, at
    least one and none twice, as each keys its rows.  A list of another
    shape is a ConfigError that names ``key``."""
    values = config[key]
    if not isinstance(values, list) or size not in (None, len(values)):
        raise ConfigError(f"{key} must be a list of {what}, got {values!r}")
    if not all(isinstance(value, numbers.Real) for value in values):
        raise ConfigError(f"{key} must hold numbers, got {values!r}")
    try:
        parsed = [model.integer(value, key) if integers else float(value) for value in values]
    except OverflowError:
        raise ConfigError(f"{key} holds a number beyond float range") from None
    if size is None and not parsed:
        raise ConfigError(f"{key} is empty")
    if size is None and len(set(parsed)) != len(parsed):
        raise ConfigError(f"{key} repeats a value: {parsed}")
    return parsed


def _renyi_indices(config: dict) -> list[float]:
    """``config["n_list"]``: a list of distinct Renyi indices, each finite and
    positive."""
    n_list = _config_list(config, "n_list", "Renyi indices")
    for n in n_list:
        if not n > 0:
            raise ConfigError("Renyi index must be positive")
        if math.isinf(n):
            raise ConfigError(f"Renyi index must be finite, got {n!r}")
    return n_list


def _gate_settings(config: dict) -> tuple[float, int | None]:
    """The gate's ``tolerance``, finite and above 0, and its ``bulk_margin``,
    an integer of at least 0 (None where the config sets none)."""
    try:
        tol = float(config["tolerance"])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"tolerance must be a number, got {config['tolerance']!r}") from err
    if not (math.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tolerance must be finite and above 0, got {tol!r}")
    margin = None
    if "bulk_margin" in config:
        margin = model.integer(config["bulk_margin"], "bulk_margin")
        if margin < 0:
            raise ConfigError(f"bulk_margin must be at least 0, got {margin}")
    return tol, margin


def _sector_rows(
    sectors: dict[str, np.ndarray], source: int, points: list, n_list: list[float], ell: int
) -> dict[str, np.ndarray]:
    """``SCAN_COLUMNS`` but ``m``, ``case`` and ``source``, unsorted, of sector
    columns from ``SOURCES[source]`` (as ``ent.sector_columns`` gives them:
    ``window`` is the point; ``points`` holds each point's ``(m, p, case)``),
    plus ``point``, ``n_index``, ``paired`` and, one byte a row as
    ``_Scan.columns`` gathers them per output row, ``case_index`` and
    ``source_index`` into ``CASES`` and ``SOURCES``.  An absent ``p`` is NaN,
    which the writers write as they wrote None."""
    point, n_index = sectors["window"], sectors["n_index"]
    _, ps, cases = zip(*points)
    rows = point.size
    case_index = np.array([CASES.index(c) for c in cases], dtype=np.int8)
    return {
        "case_index": case_index[point],
        "p": np.array(ps, dtype=float)[point],
        "q": sectors["q"],
        "dq": sectors["q"] - ell,
        "n": np.array(n_list, dtype=float)[n_index],
        "Z1_q": sectors["Z1"],
        "S_n_q": sectors["S_n"],
        "S": sectors["S"],
        "S_c": sectors["S_c"],
        "S_f": sectors["S_f"],
        "dev": np.full(rows, np.nan),
        "point": point,
        "n_index": n_index,
        "source_index": np.full(rows, source, dtype=np.int8),
        "paired": np.zeros(rows, dtype=bool),
    }


def _fill_deviations(data: dict[str, np.ndarray]) -> None:
    """Join closed-form and lattice rows on (point, n, q): both rows of a pair
    get ``dev = |S_n_q - S_n_q(lattice)|`` and ``paired``."""
    lat = np.flatnonzero(data["source_index"] == LATTICE)
    asy = np.flatnonzero(data["source_index"] == ASYMPTOTIC)
    if not (lat.size and asy.size):
        return
    q = data["q"] - data["q"].min()
    table = data["point"] * (data["n_index"].max() + 1) + data["n_index"]
    key = table * (q.max() + 1) + q
    _, il, ia = np.intersect1d(key[lat], key[asy], assume_unique=True, return_indices=True)
    lat, asy = lat[il], asy[ia]
    dev = np.abs(data["S_n_q"][asy] - data["S_n_q"][lat])
    for rows in (lat, asy):
        data["dev"][rows] = dev
        data["paired"][rows] = True


def _sort_key(col: np.ndarray) -> np.ndarray:
    """``col`` as a sort key: an absent (NaN) m or p sorts first, as -1."""
    return np.where(np.isnan(col), -1.0, col) if col.dtype.kind == "f" else col


def _claim_outputs(paths: list[str]) -> None:
    """Open every output path for writing before any is written; on the first
    that cannot be opened, remove the files this made and raise ConfigError.
    Two paths naming one file are a ConfigError before any is opened: the
    second write would replace the first."""
    real = [os.path.realpath(path) for path in paths]
    for i, path in enumerate(real):
        if path in real[:i]:
            raise ConfigError(f"outputs {paths[real.index(path)]} and {paths[i]} are the same file")
    made = []
    for path in paths:
        existed = os.path.lexists(path)
        try:
            open(path, "ab").close()
        except OSError as err:
            for p in made:
                os.remove(p)
            raise ConfigError(f"cannot write {path}: {err.strerror or err}") from err
        if not existed:
            made.append(path)


def _emit(config: dict, data: dict[str, np.ndarray], columns: list[str], schema: str) -> None:
    """Render the named columns of ``data`` once and write the configured CSV
    and JSON files from it, or the CSV to stdout if neither is configured.
    The columns are taken out of ``data``, so their arrays can be freed."""
    outputs = config.get("outputs", {})
    csv_path = outputs.get("csv_path")
    json_path = outputs.get("json_path")
    _claim_outputs([p for p in (csv_path, json_path) if p])
    rendering = serialize.render(columns, {c: data.pop(c) for c in columns})

    if csv_path:
        serialize.write_csv(csv_path, schema, rendering)
    if json_path:
        payload = {
            "schema": schema,
            "columns": columns,
            "config": config,
            "config_sha256": serialize.config_digest(config),
            "versions": {"sshent": __version__, "numpy": np.__version__},
        }
        serialize.write_json(json_path, payload, rendering)
    if not (csv_path or json_path):
        serialize.stream_csv(sys.stdout, schema, rendering)
    if csv_path:
        print(f"wrote {csv_path} ({rendering.n_rows} rows)")
    if json_path:
        print(f"wrote {json_path}")


def _scan_params(config: dict, spec: model.ChainSpec, command: str) -> sf.EllipticParams | None:
    """Validate the scan mode; elliptic parameters when closed forms are needed."""
    mode = config["mode"]
    if mode not in ("lattice", "asymptotic", "both"):
        raise ConfigError(f"unknown mode {mode!r} for {command}")
    if mode == "lattice":
        return None
    if not 0.0 < spec.dimerization < 1.0:
        raise ConfigError("asymptotic mode requires dimerization in (0, 1)")
    return sf.EllipticParams.from_dimerization(spec.dimerization)


@dataclass(frozen=True)
class _Scan:
    """The rows of a scan, factored by class.  ``table`` holds the rows of
    every class (``_sector_rows`` columns; ``point`` is the class) in
    ``(class, q, n, source)`` order, and ``classes`` the class of every
    point.  Output row ``i`` is table row ``row[i]`` with the ``m`` of point
    ``point[i]``; the output rows are in ``(m, p, q, n, source)`` order, an
    absent m or p first, and rows of equal keys in the order of their
    points."""

    table: dict[str, np.ndarray]
    m: np.ndarray
    classes: np.ndarray
    point: np.ndarray
    row: np.ndarray

    def gate(self, bulk: np.ndarray | None, tol: float, label: str) -> int:
        """``_gate`` over the output rows of the points where ``bulk`` is set
        (of every point without it).  The worst deviation comes from the
        table rows of the classes that hold such a point; the output rows
        are built only to name the first NaN."""
        used = np.zeros(self.classes.max() + 1, dtype=bool)
        used[self.classes if bulk is None else self.classes[bulk]] = True
        keep = used[self.table["point"]]
        data = {name: self.table[name][keep] for name in ("Z1_q", "dev", "paired")}
        if _nan_rows(data).any():
            rows = slice(None) if bulk is None else bulk[self.point]
            data = {name: self.table[name][self.row[rows]]
                    for name in ("Z1_q", "dev", "paired", "p", "q", "n")}
            data["m"] = self.m[self.point[rows]]
        return _gate(data, tol, label)

    def columns(self) -> dict:
        """``SCAN_COLUMNS`` ready to render, each as ``serialize.Labels``:
        ``m`` by point, the others by table row.  The table is emptied, so
        its arrays are freed once the rendering is made."""
        table, row = self.table, self.row
        cols = {
            "m": serialize.Labels(self.m, self.point),
            "case": serialize.Labels(CASES, table["case_index"][row]),
            "source": serialize.Labels(SOURCES, table["source_index"][row]),
        }
        for name in SCAN_COLUMNS:
            if name not in cols:
                cols[name] = serialize.Labels(table.pop(name), row)
        table.clear()
        return cols


def _classes(case_index: np.ndarray, p: np.ndarray, spectra: np.ndarray | None) -> tuple:
    """The first point of every class, and the class of every point: points
    of one case and p, and with ``spectra`` one row of bytes.  Classes are
    numbered in the order of their first points."""
    key = [case_index.view(np.uint64)[:, None], p.view(np.uint64)[:, None]]
    if spectra is not None:
        key.append(spectra.view(np.uint64))
    key = np.concatenate(key, axis=1)
    _, first, inverse = np.unique(
        key.view(np.dtype((np.void, key.shape[1] * key.itemsize))).reshape(-1),
        return_index=True, return_inverse=True,
    )
    return np.sort(first), np.argsort(np.argsort(first))[inverse.reshape(-1)]


def _scan(points, n_list: list[float], ell: int, lattice, closed_form, source: int) -> _Scan:
    """The rows of ``(m, p, case)`` points from their spectra and closed forms.

    ``lattice(points)`` gives the stacked correlation eigenvalues of the
    points' windows, whose rows are labelled ``SOURCES[source]``, and
    ``closed_form(points)`` their closed-form sector columns, as
    ``ent.sector_columns`` gives them; either may be None.  A class is the
    points of one case and p whose clamped spectra (with the lattice) have
    the same bytes, so equal tables, bit for bit.  The tables, the closed
    forms, the join on (class, n, q) and the row order are worked out once
    per class, on its first point; every point then takes its class's rows
    with its own ``m``, and points that share m and p interleave theirs.
    """
    points = list(points)
    ms, ps, cases = zip(*points)
    m = np.array(ms, dtype=float if None in ms else np.int64)
    p = np.array(ps, dtype=float)
    case_index = np.array([CASES.index(c) for c in cases], dtype=np.int64)
    spectra = ent.clamp_lambdas(lattice(points)) if lattice else None
    reps, classes = _classes(case_index, p, spectra)
    rep_points = [points[i] for i in reps.tolist()]
    parts = []
    if lattice:
        sectors = ent.charge_resolved_tables(spectra, n_list, rows=reps)
        del spectra
        parts.append(_sector_rows(sectors, source, rep_points, n_list, ell))
    if closed_form:
        parts.append(_sector_rows(closed_form(rep_points), ASYMPTOTIC, rep_points, n_list, ell))
    # popped and replaced column by column, so each is freed as it is joined
    # and as it is sorted
    table = {name: np.concatenate([part.pop(name) for part in parts]) for name in list(parts[0])}
    _fill_deviations(table)
    order = np.lexsort((table["source_index"], table["n"], table["q"], table["point"]))
    for name, col in table.items():
        table[name] = col[order]
    # each point, in (m, p) order, takes the run of its class's table rows
    counts = np.bincount(table["point"], minlength=reps.size)
    mp = np.stack([_sort_key(m), _sort_key(p)])
    by_point = np.lexsort(mp[::-1])
    of_point = classes[by_point]
    runs = counts[of_point]
    shift = np.repeat((np.cumsum(counts) - counts)[of_point] - (np.cumsum(runs) - runs), runs)
    point, row = np.repeat(by_point, runs), np.arange(shift.size) + shift
    # the runs of points that share m and p (the dimerized cases) merge: one
    # stable sort on (rank of (m, p), rank of (q, n, source)).  Where none
    # do, the runs are in order, and a scan's rows get no per-row key.
    new = (np.diff(mp[:, by_point], prepend=np.nan) != 0).any(axis=0)
    if not new.all():
        rank = np.empty_like(by_point)
        rank[by_point] = np.cumsum(new)
        n_rank = np.argsort(np.argsort(n_list))[table["n_index"]]
        q = table["q"] - table["q"].min()
        rank_qns = (q * len(n_list) + n_rank) * len(SOURCES) + table["source_index"]
        order = np.argsort(rank[point] * (rank_qns.max() + 1) + rank_qns[row], kind="stable")
        point, row = point[order], row[order]
    return _Scan(table=table, m=m, classes=classes, point=point, row=row)


def _nan_rows(data: dict[str, np.ndarray]) -> np.ndarray:
    """Rows with a NaN probability, or paired with a NaN deviation."""
    return np.isnan(data["Z1_q"]) | (data["paired"] & np.isnan(data["dev"]))


def _gate(data: dict[str, np.ndarray], tol: float, label: str) -> int:
    """Worst paired deviation over rows with ``Z1_q >= GATE_PROB_FLOOR``.

    ``data`` holds the columns ``Z1_q``, ``dev`` and ``paired`` (and, for the
    failure message, ``m``, ``p``, ``q`` and ``n``).  A NaN deviation of a
    paired row, or a NaN probability of any row, fails the gate by itself.
    """
    z1, dev, paired = data["Z1_q"], data["dev"], data["paired"]
    nan_rows = np.flatnonzero(_nan_rows(data))
    counted = paired & (z1 >= GATE_PROB_FLOOR) & ~np.isnan(dev)
    worst = float(dev[counted].max()) if counted.any() else 0.0
    print(f"{label} = {worst:.3e} (tol {tol:g})")
    if nan_rows.size:
        at = " ".join(f"{c}={_row_value(data, c, nan_rows[0])}" for c in ("m", "p", "q", "n"))
        print(
            f"numerical validation FAILED: {nan_rows.size} row(s) with a NaN deviation "
            f"or probability, first at {at}",
            file=sys.stderr,
        )
        return EXIT_VALIDATION
    if worst > tol:
        print("numerical validation FAILED", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def _row_value(data: dict[str, np.ndarray], column: str, row: int):
    """One numeric value as a Python number; None for an absent column or a NaN."""
    if column not in data:
        return None
    value = data[column][row].item()
    return None if isinstance(value, float) and math.isnan(value) else value


def run_scan_interval(args: argparse.Namespace) -> int:
    config = _load_config(
        args,
        defaults={
            "window_length": 20,
            "n_list": [1.0, 2.0],
            "mode": "lattice",
            "tolerance": 1e-3,
            "bulk_margin": 8,
            "filling": "below_half",
        },
    )
    spec = _chain_from_config(config)
    ell = model.integer(config["window_length"], "window_length")
    params = _scan_params(config, spec, "scan-interval")
    n_list = _renyi_indices(config)
    tol, margin = _gate_settings(config)
    if "m_list" in config:
        m_values = _config_list(config, "m_list", "window starts", integers=True)
    else:
        lo, hi = (_config_list(config, "m_range", "2 window starts", integers=True, size=2)
                  if "m_range" in config else (1, spec.n_cells))
        m_values = list(range(lo, hi + 1))
    if spec.boundary == model.OPEN:
        # keep both interval boundaries in the interior so case labels exist
        m_values = [m for m in m_values if 2 <= m and m + ell - 1 <= spec.n_cells - 1]
    if not m_values:
        raise ConfigError("empty scan range")
    filling = config.get("filling", "below_half")
    if filling != "below_half":
        if spec.defects:
            raise ConfigError(
                "half filling with defects needs zero-mode-scan, not scan-interval"
            )
        if filling != "half":
            raise ConfigError(f"unknown filling {filling!r}")
    policy = (
        gs.OccupationPolicy.below_half()
        if filling == "below_half"
        else gs.OccupationPolicy.half()
    )

    lattice = closed_form = None
    if config["mode"] != "asymptotic":
        sea = gs.filled_sea(spec, ell)

        def lattice(points: list) -> np.ndarray:
            return gs.correlation_spectra(sea, spec, policy, [m for m, _, _ in points], ell)

    if params is not None:

        def closed_form(points: list) -> dict[str, np.ndarray]:
            """Each case in use is tabulated once; every window reads its
            case's row of that grid."""
            case_index = np.array([CASES.index(c) for *_, c in points], dtype=np.int64)
            # bincount, not np.unique: without return_inverse it takes numpy's hash
            # path, which imports numpy.ma (about 1 MB and 15 ms) on its first call
            used = np.flatnonzero(np.bincount(case_index, minlength=len(CASES)))
            grid = asym.case_grid([CASES[c] for c in used.tolist()], n_list, params, ell)
            return ent.sector_columns(grid, np.searchsorted(used, case_index))

    cases = model.window_cases(spec, m_values, ell)
    points = ((m, None, case) for m, case in zip(m_values, cases))
    scan = _scan(points, n_list, ell, lattice, closed_form, LATTICE)
    status = EXIT_OK
    if config["mode"] == "both":
        bulk = model.edge_distances(spec, m_values, ell) >= margin
        status = scan.gate(bulk, tol, "bulk-window max |lattice - asymptotic|")
    _emit(config, scan.columns(), SCAN_COLUMNS, SCAN_SCHEMA)
    return status


def run_zero_mode_scan(args: argparse.Namespace) -> int:
    config = _load_config(
        args,
        defaults={
            "window_length": 20,
            "n_list": [1.0],
            "p_list": [0.0, 0.1, 0.5, 0.9, 1.0],
            "mode": "both",
            "tolerance": 1e-3,
        },
    )
    spec = _chain_from_config(config)
    if len(spec.defects) != 2:
        raise ConfigError("zero-mode-scan needs a chain with exactly two defects")
    ell = model.integer(config["window_length"], "window_length")
    n_list = _renyi_indices(config)
    p_list = _config_list(config, "p_list", "zero-mode weights")
    params = _scan_params(config, spec, "zero-mode-scan")
    tol, _ = _gate_settings(config)
    default_start = spec.defects[0].cell - ell // 2 + 1
    m = model.integer(config.get("window_start", default_start), "window_start")
    inside = model.defects_in_window(spec, m, ell)
    if len(inside) != 1:
        raise ConfigError(
            f"window ({m}, {ell}) must contain exactly one defect, found {len(inside)}"
        )

    lattice = closed_form = None
    if config["mode"] != "asymptotic":
        sea = gs.filled_sea(spec, ell)
        policy = gs.OccupationPolicy.half(gs.localized_zero_modes(sea, spec))

        def lattice(points: list) -> np.ndarray:
            weights = [p for _, p, _ in points]
            return gs.correlation_spectra(sea, spec, policy, [m] * len(points), ell, weights)

    if params is not None:
        # p is the weight on the *second* defect; if the window holds the
        # second defect, the closed forms see the complementary outside weight
        window_holds_second = inside[0] == spec.defects[1]

        def closed_form(points: list) -> dict[str, np.ndarray]:
            ps = np.array([p for _, p, _ in points])
            p_out = 1.0 - ps if window_holds_second else ps
            return asym.zero_mode_tables(p_out, n_list, params, ell)

    scan = _scan([(m, p, model.DEFECT) for p in p_list], n_list, ell, lattice, closed_form,
                 LATTICE)
    status = EXIT_OK
    if config["mode"] == "both":
        status = scan.gate(None, tol, "max |lattice - asymptotic|")
    _emit(config, scan.columns(), SCAN_COLUMNS, SCAN_SCHEMA)
    return status


def run_dimerized(args: argparse.Namespace) -> int:
    config = _load_config(args, defaults={"window_length": 20, "n_list": [1.0, 2.0]})
    ell = model.integer(config["window_length"], "window_length")
    n_list = _renyi_indices(config)
    p_list = []  # an empty p_list adds no defect points
    if config.get("p_list", []) != []:
        p_list = _config_list(config, "p_list", "zero-mode weights")
    points = [(None, None, case) for case in CASES] + [(None, p, model.DEFECT) for p in p_list]

    def lattice(points: list) -> np.ndarray:
        return np.array([asym.dimerized_lambdas(case, ell, p) for _, p, case in points])

    scan = _scan(points, n_list, ell, lattice, None, DIMERIZED)
    _emit(config, scan.columns(), SCAN_COLUMNS, SCAN_SCHEMA)
    return EXIT_OK


STATMECH_COLUMNS = [
    "q", "mu", "constrained_S", "reconstructed_S", "sre_q",
    "nearest_level_distance", "mu_at_level", "level_degenerate", "sre_mu_drift",
]


def run_statmech(args: argparse.Namespace) -> int:
    if not 0.0 < args.delta < 1.0:
        raise ConfigError("statmech needs dimerization in (0, 1)")
    params = sf.EllipticParams.from_dimerization(args.delta)
    ell = args.window_length
    if args.cut == "defect":
        spectrum = asym.bulk_defect_spectrum(params, ell)
    else:
        half = asym.half_cut_spectrum(params, ell // 2, args.cut)
        spectrum = np.sort(np.concatenate([half, half]))
    if args.zero_level is not None:
        spectrum = np.sort(np.append(spectrum, args.zero_level))
    n_levels = spectrum.size
    center = n_levels // 2 if args.cut != "defect" else ell
    if args.q_list:
        q_values = _parse_list(args.q_list, "--q-list", int)
    else:
        q_values = list(range(center - 2, center + 3))
    q_values = [q for q in q_values if 0 < q < n_levels]
    if not q_values:
        raise ConfigError("no admissible charge targets")
    reports = sm.equipartition_report(spectrum, q_values)
    fields = {
        "q": "q",
        "mu": "mu",
        "constrained_S": "constrained_entropy",
        "reconstructed_S": "reconstructed_entropy",
        "sre_q": "sector_entropy",
        "nearest_level_distance": "nearest_level_distance",
        "mu_at_level": "mu_at_level",
        "level_degenerate": "level_degenerate",
        "sre_mu_drift": "sre_mu_drift",
    }
    data = {col: np.array([getattr(r, f) for r in reports]) for col, f in fields.items()}
    config = {
        "delta": args.delta,
        "cut": args.cut,
        "window_length": ell,
        "zero_level": args.zero_level,
    }
    _emit(_add_outputs(config, args), data, STATMECH_COLUMNS, "statmech-1")
    return EXIT_OK


AKLT_COLUMNS = [
    "aklt_case", "ground_state", "p", "eta", "jz", "n",
    "Z1_jz", "S_n_jz", "S", "S_c", "S_f",
]


def run_aklt(args: argparse.Namespace) -> int:
    config = _load_config(args, defaults={"n_list": [1.0, 2.0], "p_list": [0.1, 0.25, 0.5]})
    n_list = _renyi_indices(config)
    p_list = _config_list(config, "p_list", "hybridization weights")
    specs = [
        (case, aklt_mod.TRIPLET, None)
        for case in (aklt_mod.TRIVIAL_PRODUCT, aklt_mod.AKLT_BULK, aklt_mod.DEFECT_INTERFACE)
    ]
    specs += [(aklt_mod.DEFECT_INTERFACE, aklt_mod.HYBRID, p) for p in p_list]
    sectors = ent.sector_columns(aklt_mod.aklt_grid(specs, n_list))
    etas = [aklt_mod.eta_from_weight(p) if p is not None else None for *_, p in specs]
    cases, states, ps = zip(*specs)
    row = sectors["window"]
    data = {
        "aklt_case": np.array(cases, dtype=object)[row],
        "ground_state": np.array(states, dtype=object)[row],
        "p": np.array(ps, dtype=float)[row],
        "eta": np.array(etas, dtype=float)[row],
        "jz": sectors["q"],
        "n": np.array(n_list, dtype=float)[sectors["n_index"]],
        "Z1_jz": sectors["Z1"],
        "S_n_jz": sectors["S_n"],
        "S": sectors["S"],
        "S_c": sectors["S_c"],
        "S_f": sectors["S_f"],
    }
    _emit(config, data, AKLT_COLUMNS, "aklt-1")
    return EXIT_OK


def run_selftest(args: argparse.Namespace) -> int:
    del args
    checks: list[tuple[str, bool, str]] = []

    def check(name: str, dev: float, tol: float) -> None:
        checks.append((name, dev <= tol, f"dev={dev:.3e} tol={tol:g}"))

    # fully dimerized exactness
    spec = model.ChainSpec(
        n_sites=200, dimerization=1.0,
        defects=(model.DefectSpec(25), model.DefectSpec(75)),
    )
    sea = gs.filled_sea(spec, 10)
    policy = gs.OccupationPolicy.below_half()
    targets = {"trivial": (45, 0.0), "topological": (5, 2 * math.log(2)),
               "defect": (21, math.log(2))}
    dev = 0.0
    for case, (m, s_want) in targets.items():
        lam = gs.correlation_matrix(sea, spec, policy, (m, 10)).eigenvalues()
        table = ent.charge_resolved_table(lam, 2.0)
        dev = max(dev, abs(table.total_vn - s_want), abs(table.total_renyi - s_want))
    check("dimerized totals", dev, 1e-12)

    # special-function identities
    params = sf.EllipticParams.from_dimerization(0.3)
    dev = abs(sf.theta2(0.3, 0.4) - sf.theta2_product(0.3, 0.4))
    dev = max(dev, abs(sf.theta3(0.3, 0.4) - sf.theta3_product(0.3, 0.4)))
    kn, _ = params.modulus_at(2.0)
    z2 = params.nome_at(2.0)
    dev = max(dev, abs(kn - (sf.theta2(0.0, z2) / sf.theta3(0.0, z2)) ** 2))
    dev = max(dev, sf.euler_product_residual(params.nome_at(1.0)))
    check("theta identities", dev, 1e-10)

    # lattice vs closed forms
    spec = model.ChainSpec(
        n_sites=400, dimerization=0.3,
        defects=(model.DefectSpec(50), model.DefectSpec(150)),
    )
    sea = gs.filled_sea(spec, 20)
    dev = 0.0
    for case, m in (("topological", 175), ("trivial", 90), ("defect", 141)):
        lam = gs.correlation_matrix(sea, spec, policy, (m, 20)).eigenvalues()
        lat = ent.charge_resolved_table(lam, 2.0)
        at = asym.asymptotic_table(case, 2.0, params, 20)
        for dq in (-1, 0, 1):
            dev = max(dev, abs(lat.sre(20 + dq) - at.sre(20 + dq)))
    check("lattice vs asymptotics", dev, 1e-3)

    # a weight sweep's reduced window against each weight's own eigvalsh, within
    # the route's bound and as much again for the two solves' backward errors
    pair = gs.localized_zero_modes(sea, spec).with_weight(1.0, 0.7)
    ps = [0.0, 0.3, 1.0]
    sweep = gs.correlation_spectra(sea, spec, gs.OccupationPolicy.half(pair), [41] * 3, 20, ps)
    dev = 0.0
    for p, lam in zip(ps, sweep):
        policy = gs.OccupationPolicy.half(pair.with_weight(p, 0.7))
        want = gs.correlation_matrix(sea, spec, policy, (41, 20)).eigenvalues()
        dev = max(dev, float(np.max(np.abs(lam - want))))
    check("zero-mode sweep vs per-weight eigvalsh", dev, 2 * 40 * gs.SWEEP_BOUND)

    # the banded polar solve against the eigensolve, on a ring of 8 blocks
    spec = model.ChainSpec(
        n_sites=1000, dimerization=0.3,
        defects=(model.DefectSpec(125), model.DefectSpec(375)),
    )
    sea = gs.filled_sea(spec, 20)
    want = eigh_sea(model.hopping_bands(spec), 20, gs.NEAR_ZERO_THRESHOLD * spec.hopping)
    n, w = spec.n_cells, sea.width
    rows = np.arange(sea.band.shape[0])[:, None]
    dist = np.abs(rows - ((rows // w - 1) * w + np.arange(3 * w)) % n)
    read = (np.minimum(dist, n - dist) < w) & (rows < n)  # what windows read
    dev = float(np.max(np.abs(sea.band - want.band)[read]))
    for got, ref in ((sea.u0, want.u0), (sea.v0, want.v0)):
        dev = max(dev, float(np.max(np.abs(got @ got.T - ref @ ref.T))))
    ok = sea.steps > 0 and sea.filled == want.filled and dev <= 1e-13
    checks.append(("polar sea vs eigensolve", ok,
                   f"dev={dev:.3e} tol=1e-13, {sea.steps} Newton-Schulz steps"))

    # exact enumeration oracle at 4 modes
    lam = np.array([0.23, 0.71, 0.05, 0.5])
    zq = ent.srpf(lam, 2.0)
    brute = np.zeros(5)
    for bits in range(16):
        prob = 1.0
        q = 0
        for i in range(4):
            if bits >> i & 1:
                prob *= lam[i]
                q += 1
            else:
                prob *= 1 - lam[i]
        brute[q] += prob**2
    check("enumeration oracle", float(np.max(np.abs(zq - brute))), 1e-12)

    # constrained-spectrum diagnostics
    weak = asym.half_cut_spectrum(params, 10, "weak")
    doubled = np.sort(np.concatenate([weak, weak]))
    ell = doubled.size // 2
    dev = abs(sm.solve_mu(doubled, ell))
    dev = max(dev, abs(sm.solve_mu(doubled, ell + 1) - params.spacing))
    check("chemical potential pinning", dev, 1e-10)

    # the batched zero-mode columns are the scalar closed forms, bit for bit
    n_list, ps = [1.0, 2.0, 0.5], [0.0, asym.crossing_weight(1, params), 1.0]
    batched = asym.zero_mode_tables(ps, n_list, params, 20)
    cols = [batched[k].tolist() for k in ("window", "n_index", "q", "Z1", "S_n")]
    same = bool(cols[0])
    for i, j, q, z1, s_n in zip(*cols):
        p, n, dq = ps[i], n_list[j], q - 20
        if n == 1.0:
            want = asym.zero_mode_sre_vn(p, dq, params)
        else:
            want = asym.zero_mode_sre(p, n, dq, params)
        same &= z1 == asym.zero_mode_srpf(p, 1.0, dq, params) and s_n == want
    checks.append(("batched zero-mode columns", same, "p = 0, a crossing weight, 1; n = 1, 2, 0.5"))

    # one rendering gives the same CSV written alone, beside the JSON, and to stdout
    scan = _scan([(None, None, "topological")], [2.0], 10,
                 lambda points: asym.dimerized_lambdas("topological", 10)[None], None, DIMERIZED)
    rendering = serialize.render(SCAN_COLUMNS, scan.columns())
    with tempfile.TemporaryDirectory() as tmp:
        alone, beside = os.path.join(tmp, "alone.csv"), os.path.join(tmp, "beside.csv")
        serialize.write_csv(alone, SCAN_SCHEMA, rendering)
        serialize.write_json(os.path.join(tmp, "beside.json"), {}, rendering)
        serialize.write_csv(beside, SCAN_SCHEMA, rendering)
        texts = []
        for path in (alone, beside):
            with open(path, encoding="utf-8", newline="") as fh:
                texts.append(fh.read())
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        serialize.stream_csv(sys.stdout, SCAN_SCHEMA, rendering)
    texts.append(stdout.getvalue())
    same = texts[0] == texts[1] == texts[2] and len(texts[0].splitlines()) == 2 + rendering.n_rows
    checks.append(("deterministic rendering", same, "alone, beside the JSON and stdout"))

    # every float is spelled as float.__repr__ spells it: random bit patterns,
    # powers of two and ten, integers near 2^53, the fixed/exponent switches
    bits = np.random.default_rng(18).integers(0, 2**64, 20_000, dtype=np.uint64, endpoint=False)
    edges = [2.0**e for e in range(-1074, 1024)] + [float(f"1e{i}") for i in range(-323, 309)]
    edges += [float(2**53 + i) for i in range(-50, 50)]
    edges += [1e-5, 9.999e-5, 1e-4, 1e15, 9999999999999998.0, 1e16]
    x = bits.view(np.float64)
    x = np.concatenate([x[np.isfinite(x) & (x != 0.0)], edges, np.negative(edges)])
    text = io.StringIO()
    serialize.stream_csv(text, "x", serialize.render(["x"], {"x": x}))
    same = text.getvalue().split("\n")[2:-1] == list(map(float.__repr__, x.tolist()))
    checks.append(("shortest float spelling", same, f"{x.size} values against float.__repr__"))

    failed = 0
    for name, ok, detail in checks:
        print(f"[selftest] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} selftest check(s) failed", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sshent",
        description="Charge-resolved entanglement scans for dimerized chains "
                    "with topological defects",
    )
    parser.add_argument("--version", action="version", version=f"sshent {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--csv", help="CSV output path")
        p.add_argument("--json", dest="json_path", help="JSON output path")
        p.add_argument("--n-sites", type=int)
        p.add_argument("--delta", type=float)
        p.add_argument("--hopping", type=float)
        p.add_argument("--window-length", type=int)
        p.add_argument("--n-list", help="comma-separated Renyi indices (1 = von Neumann)")
        p.add_argument("--tolerance", type=float)

    p_scan = sub.add_parser("scan-interval", help="move an interval along the chain")
    add_common(p_scan)
    p_scan.add_argument("--mode", choices=["lattice", "asymptotic", "both"])
    p_scan.add_argument("--m-start", type=int)
    p_scan.add_argument("--m-stop", type=int)
    p_scan.add_argument("--bulk-margin", type=int)
    p_scan.set_defaults(func=run_scan_interval)

    p_zm = sub.add_parser("zero-mode-scan", help="sweep the zero-mode weight")
    add_common(p_zm)
    p_zm.add_argument("--mode", choices=["lattice", "asymptotic", "both"])
    p_zm.add_argument("--p-list", help="comma-separated weights on the second defect")
    p_zm.add_argument("--window-start", type=int)
    p_zm.set_defaults(func=run_zero_mode_scan)

    p_dim = sub.add_parser("dimerized", help="exact fully dimerized tables")
    add_common(p_dim)
    p_dim.add_argument("--p-list", help="zero-mode weights for the defect case")
    p_dim.set_defaults(func=run_dimerized)

    p_sm = sub.add_parser("statmech", help="chemical-potential diagnostics")
    p_sm.add_argument("--delta", type=float, required=True)
    p_sm.add_argument("--cut", choices=["defect", "strong", "weak"], default="defect")
    p_sm.add_argument("--window-length", type=int, default=20)
    p_sm.add_argument("--zero-level", type=float, default=None)
    p_sm.add_argument("--q-list", help="comma-separated charge targets")
    p_sm.add_argument("--csv")
    p_sm.add_argument("--json", dest="json_path")
    p_sm.set_defaults(func=run_statmech)

    p_aklt = sub.add_parser("aklt", help="spin-chain interface tables")
    p_aklt.add_argument("--n-list")
    p_aklt.add_argument("--p-list", help="hybridization weights")
    p_aklt.add_argument("--csv")
    p_aklt.add_argument("--json", dest="json_path")
    p_aklt.set_defaults(func=run_aklt)

    p_self = sub.add_parser("selftest", help="quick invariant suite")
    p_self.set_defaults(func=run_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = args.func(args)
        # flushed here, so that a reader who closed stdout is met below and
        # not in the interpreter's flush at exit
        sys.stdout.flush()
        return status
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as err:
        print(f"numerical error: {err}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except BrokenPipeError:
        # stdout still holds what the reader did not take: point it at the
        # null device, so the interpreter's flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT


if __name__ == "__main__":
    sys.exit(main())
