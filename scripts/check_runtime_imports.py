"""Check that a CLI run imports nothing outside the standard library, numpy and sshent.

    python scripts/check_runtime_imports.py

Runs one ``scan-interval`` (lattice and closed forms) and one
``zero-mode-scan`` on an N = 400 ring, whose filled sea comes from the
eigensolve of the whole ring (its regions are too short to cut), one
``scan-interval`` on an N = 2000 ring, whose filled sea comes from the
eigensolve of its compressed ring, and one ``dimerized`` and one ``aklt``
table run, in this fresh interpreter, with their CSV and JSON files in a
temporary directory, and lists every top-level module the runs imported
that is not part of the standard library, numpy or sshent, and every
standard-library module in ``HEAVY`` they loaded.  Exit code 0 if there is
none and every run passes; 1 otherwise.  numpy is the only runtime
dependency; scipy and the other test tools must not creep onto the run's
path.
"""

import json
import sys
import tempfile
from pathlib import Path

ALLOWED = {"numpy", "sshent"}
# standard-library modules a run must not load, with what they cost
HEAVY = {"_hashlib": "OpenSSL's libcrypto, about 3.5 MB of resident memory"}
CHAIN = {
    "n_sites": 400, "t": 1.0, "delta": 0.3, "boundary": "periodic",
    "defects": [{"cell": 50, "kind": "one_site"}, {"cell": 150, "kind": "three_site"}],
}
BIG_CHAIN = dict(CHAIN, n_sites=2000, defects=[{"cell": 250, "kind": "one_site"},
                                                {"cell": 750, "kind": "three_site"}])
RUNS = [
    ("scan-interval", {"chain": CHAIN, "window_length": 20, "m_range": [1, 200],
                       "n_list": [1, 2], "mode": "both"}),
    ("zero-mode-scan", {"chain": CHAIN, "window_length": 20, "window_start": 41,
                        "p_list": [0.0, 0.3, 1.0], "n_list": [1], "mode": "both"}),
    ("scan-interval", {"chain": BIG_CHAIN, "window_length": 20, "m_range": [201, 320],
                       "n_list": [1, 2], "mode": "both"}),
    ("dimerized", {"window_length": 20, "n_list": [1, 2, 0.5], "p_list": [0.3, 1.0]}),
    # aklt takes flags, not a config file
    ("aklt", ["--n-list", "1,2,0.5", "--p-list", "0.1,0.5"]),
]


def main() -> int:
    before = set(sys.modules)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from sshent import cli

    with tempfile.TemporaryDirectory() as tmp:
        for i, (command, options) in enumerate(RUNS):
            if isinstance(options, dict):
                path = Path(tmp) / f"{i}.config.json"
                path.write_text(json.dumps(options))
                options = ["--config", str(path)]
            outputs = ["--csv", str(Path(tmp) / f"{i}.csv"), "--json", str(Path(tmp) / f"{i}.json")]
            rc = cli.main([command, *options, *outputs])
            if rc != cli.EXIT_OK:
                print(f"{command} exited {rc}", file=sys.stderr)
                return 1
    imported = {name.partition(".")[0] for name in set(sys.modules) - before}
    foreign = sorted(imported - ALLOWED - set(sys.stdlib_module_names))
    if foreign:
        print(f"the runs imported modules outside the standard library and numpy: {foreign}",
              file=sys.stderr)
        return 1
    heavy = sorted(imported & HEAVY.keys())
    if heavy:
        print("the runs loaded " + "; ".join(f"{m} ({HEAVY[m]})" for m in heavy),
              file=sys.stderr)
        return 1
    print(f"runtime imports: {sorted(imported & ALLOWED)} and the standard library only")
    return 0


if __name__ == "__main__":
    sys.exit(main())
