"""Workload definitions for the sshent benchmark.

Each workload is one ``sshent`` CLI invocation on a fixed chain.  The seed
rotates the periodic ring by a whole number of unit cells: every defect
anchor (and, for ``zeromode-sweep``, the window start) moves by the same
offset.  A rotation by whole cells keeps the bond alternation, so the physics,
the row count and the mix of window cases are unchanged while the CSV row
labels (and hence its digest) move.  Seed 0 is the unrotated configuration,
identical to the one the repository's experiment scripts write.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

DEFAULT_SEED = 0


def _chain(n_sites: int, cells: tuple[int, int]) -> dict:
    return {
        "n_sites": n_sites,
        "t": 1.0,
        "delta": 0.3,
        "boundary": "periodic",
        "defects": [{"cell": c, "kind": "one_site"} for c in cells],
    }


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # CLI subcommand
    base_config: dict  # without "outputs"; seed 0
    rows: int  # CSV data rows every run must emit
    writes_json: bool
    # calibration rounds timed around each scan, about a tenth of its time;
    # 0 reports scan times as measured (see run.py)
    cal_rounds: int

    @property
    def n_cells(self) -> int:
        return self.base_config["chain"]["n_sites"] // 2

    def offset(self, seed: int) -> int:
        """Ring rotation for ``seed``: ``seed mod L``, stepped past any offset
        that would put a defect anchor on the wrap seam (cell 1 or cell L)."""
        n = self.n_cells
        anchors = [d["cell"] for d in self.base_config["chain"]["defects"]]
        off = seed % n
        while any(_rotate(a, off, n) in (1, n) for a in anchors):
            off = (off + 1) % n
        return off

    def config(self, seed: int) -> dict:
        """CLI config for ``seed``, without the ``outputs`` block."""
        cfg = copy.deepcopy(self.base_config)
        n = self.n_cells
        off = self.offset(seed)
        if off == 0:
            return cfg
        defects = cfg["chain"]["defects"]
        for d in defects:
            d["cell"] = _rotate(d["cell"], off, n)
        defects.sort(key=lambda d: d["cell"])
        if "window_start" in cfg:
            cfg["window_start"] = _rotate(cfg["window_start"], off, n)
        return cfg


def _rotate(cell: int, off: int, n_cells: int) -> int:
    return (cell - 1 + off) % n_cells + 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="scan-std400",
            command="scan-interval",
            # the delta = 0.3 run of scripts/entropy_profiles.py
            base_config={
                "chain": _chain(400, (50, 150)),
                "window_length": 20,
                "m_range": [1, 200],
                "n_list": [1, 2],
                "mode": "both",
                "tolerance": 1e-3,
                "bulk_margin": 8,
            },
            rows=7024,
            writes_json=True,
            cal_rounds=6,
        ),
        Workload(
            name="scan-big2000",
            command="scan-interval",
            # the same chain scaled by five; CSV only
            base_config={
                "chain": _chain(2000, (250, 750)),
                "window_length": 20,
                "m_range": [1, 1000],
                "n_list": [1, 2],
                "mode": "both",
                "tolerance": 1e-3,
                "bulk_margin": 8,
            },
            rows=35824,
            writes_json=False,
            # mostly memory-bound gathers, which the host slows unlike the
            # interpreted calibration: rescaling doubled the spread of scan_s
            cal_rounds=0,
        ),
        Workload(
            name="zeromode-sweep",
            command="zero-mode-scan",
            # the config of scripts/zero_mode_sweep.py
            base_config={
                "chain": _chain(400, (50, 150)),
                "window_length": 20,
                "window_start": 41,
                "p_list": [round(0.002 * i, 3) for i in range(1, 500)],
                "n_list": [1],
                "mode": "both",
                "tolerance": 1e-3,
            },
            rows=8982,
            writes_json=True,
            cal_rounds=6,
        ),
    )
}
