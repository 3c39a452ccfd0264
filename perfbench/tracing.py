"""Span tracing of sshent from outside the package, and per-layer aggregation.

``Tracer.install`` replaces each traced function with a wrapper under every
name the package's modules bind it to (so ``cli.eigh_symmetric`` and
``asymptotics.theta2`` are caught as well as ``linalg.eigh_symmetric`` and
``specialfn.theta2``).  Each call records a span ``(name, start, end, parent,
extra)`` in memory; ``Tracer.dump`` writes them when the run ends.
``layer_metrics`` turns a dump into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import json
import os
import sys
import time

ROOT_SPAN = "cli.main"

# span name -> functions recorded under it, as (module, attribute path)
TARGETS = {
    "model.build_hamiltonian": [("sshent.model", "build_hamiltonian")],
    "model.window_case": [("sshent.model", "window_case")],
    "model.window_cells": [("sshent.model", "window_cells")],
    "linalg.eigh_symmetric": [("sshent.linalg", "eigh_symmetric")],
    "groundstate.correlation_matrix": [("sshent.groundstate", "correlation_matrix")],
    "groundstate.occupied_orbitals": [("sshent.groundstate", "occupied_orbitals")],
    "groundstate.eigenvalues": [("sshent.groundstate", "CorrelationMatrix.eigenvalues")],
    "groundstate.localized_zero_modes": [("sshent.groundstate", "localized_zero_modes")],
    "entanglement.charge_resolved_table": [("sshent.entanglement", "charge_resolved_table")],
    "asymptotics.table": [
        ("sshent.asymptotics", "asymptotic_table"),
        ("sshent.asymptotics", "zero_mode_table"),
    ],
    "specialfn.theta": [("sshent.specialfn", "theta2"), ("sshent.specialfn", "theta3")],
    "serialize.write_csv": [("sshent.serialize", "write_csv")],
    "serialize.write_json": [("sshent.serialize", "write_json")],
}


def _gather_extra(args, kwargs, result):
    """occupied_orbitals: bytes and rows of the gathered orbital block."""
    return [int(result.nbytes), int(result.shape[0])]


def _window_extra(args, kwargs, result):
    """correlation_matrix: rows (sites) of the window actually used."""
    return int(result.matrix.shape[0])


def _written_extra(args, kwargs, result):
    """write_csv / write_json: size of the file written (first argument)."""
    return os.path.getsize(args[0] if args else kwargs["path"])


EXTRAS = {
    "groundstate.occupied_orbitals": _gather_extra,
    "groundstate.correlation_matrix": _window_extra,
    "serialize.write_csv": _written_extra,
    "serialize.write_json": _written_extra,
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, start, end, parent, extra]
        self.stack: list[int] = []
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        extra = EXTRAS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if extra is not None:
                span[4] = extra(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in the already imported sshent modules."""
        modules = [m for n, m in sys.modules.items() if n == "sshent" or n.startswith("sshent.")]
        for name, funcs in TARGETS.items():
            for module_name, path in funcs:
                owner = sys.modules.get(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part, None)
                orig = getattr(owner, attr, None)
                if orig is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                wrapper = self.wrap(name, orig)
                setattr(owner, attr, wrapper)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapper)

    def dump(self, path: str, **info) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans,
                       "missing": self.missing, **info}, fh)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover.

    Children of one call never overlap: the scan runs in a single thread
    (the benchmark clears SSHENT_THREADS)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [s[2] - s[1] - c for s, c in zip(spans, covered)]


# (span name, stat) pairs reported as per-layer metrics, named "<span>.<stat>"
LAYER_STATS = [
    ("model.build_hamiltonian", "s"),
    ("model.window_case", "calls"),
    ("model.window_case", "s"),
    ("model.window_cells", "calls"),
    ("model.window_cells", "s"),
    ("linalg.eigh_symmetric", "calls"),
    ("linalg.eigh_symmetric", "s"),
    ("groundstate.correlation_matrix", "calls"),
    ("groundstate.correlation_matrix", "self_s"),
    ("groundstate.occupied_orbitals", "calls"),
    ("groundstate.occupied_orbitals", "s"),
    ("groundstate.eigenvalues", "calls"),
    ("groundstate.eigenvalues", "s"),
    ("groundstate.localized_zero_modes", "s"),
    ("entanglement.charge_resolved_table", "calls"),
    ("entanglement.charge_resolved_table", "s"),
    ("asymptotics.table", "calls"),
    ("asymptotics.table", "self_s"),
    ("specialfn.theta", "calls"),
    ("specialfn.theta", "s"),
    ("serialize.write_csv", "s"),
    ("serialize.write_json", "s"),
]
STAT_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


def layer_metrics(dump: dict) -> tuple[dict, dict]:
    """Per-layer metrics ``{name: (value, unit)}`` of one traced scan, and
    the self time of every span name.

    ``.s`` is the inclusive time of the outermost calls of a name, ``.self_s``
    the time not covered by traced callees, ``.calls`` the call count.
    """
    names, spans = dump["names"], dump["spans"]
    stats = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in [*TARGETS, ROOT_SPAN]}
    gathered = useful = written = 0
    for span, self_s in zip(spans, self_times(spans)):
        name_id, start, end, parent, extra = span
        name = names[name_id]
        st = stats[name]
        st["calls"] += 1
        st["self_s"] += self_s
        p = parent
        while p >= 0 and spans[p][0] != name_id:
            p = spans[p][3]
        if p < 0:
            st["s"] += end - start
        if extra is None:
            continue
        if name == "groundstate.occupied_orbitals":
            nbytes, rows = extra
            gathered += nbytes
            caller = spans[parent] if parent >= 0 else None
            if caller and names[caller[0]] == "groundstate.correlation_matrix":
                useful += nbytes * caller[4] / rows
        elif name.startswith("serialize."):
            written += extra

    metrics = {f"{n}.{stat}": (stats[n][stat], STAT_UNITS[stat]) for n, stat in LAYER_STATS}
    cache = dump.get("modulus_cache") or {"hits": 0, "misses": 0}
    metrics.update({
        # computed from array shapes, not measured memory traffic
        "groundstate.gather_bytes": (gathered, "bytes"),
        "groundstate.gather_useful_ratio": (useful / gathered if gathered else 1.0, "ratio"),
        "specialfn.modulus_cache.hits": (cache["hits"], "count"),
        "specialfn.modulus_cache.misses": (cache["misses"], "count"),
        "cli.self_s": (stats[ROOT_SPAN]["self_s"], "s"),
        "serialize.bytes_written": (written, "bytes"),
    })
    return metrics, {n: st["self_s"] for n, st in stats.items()}
