"""One fresh sshent process, started by run.py for every timed sample.

    python3 child.py SRC probe ROUNDS
    python3 child.py SRC scan SUBCOMMAND CONFIG ROUNDS [SPANS_PATH]

Reports one ``PERFBENCH {json}`` line as the last line of stdout:
``ready`` is the system-wide monotonic clock right after ``sshent.cli`` (and
numpy with it) is imported, so the parent gets set-up time as ``ready`` minus
its own spawn time.  A scan also reports its exit code, the wall time of the
``cli.main`` call and the process's peak RSS.  With SPANS_PATH the scan is
traced and the spans are written there after it ends.

Both kinds also time ``calibrate(ROUNDS)``, a fixed reference computation
that does not touch sshent: a probe once right after the import, a scan once
before and once after ``cli.main``.  The parent divides by it to take the
shared host's momentary speed out of the times (see run.py).
"""

import json
import resource
import sys
import time

CAL_ITERS = 100_000  # dict/int updates per calibration round


def calibrate(rounds: int) -> float:
    """Seconds taken by ``rounds`` rounds of fixed interpreted work (dict and
    integer updates), the kind of work that dominates a scan's Python layers."""
    table, acc = {}, 0
    t0 = time.perf_counter()
    for i in range(rounds * CAL_ITERS):
        table[i & 1023] = acc
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def environment() -> dict:
    import os
    import platform

    import numpy as np

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SSHENT_THREADS")},
        "bytecode_cache": not sys.flags.dont_write_bytecode and sys.pycache_prefix is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
    }


def main(argv: list[str]) -> dict:
    src, kind, *rest = argv
    sys.path.insert(0, src)
    from sshent import cli

    report = {"ready": time.monotonic()}
    if kind == "probe":
        report["cal_s"] = [calibrate(int(rest[0]))]
        report["env"] = environment()
        return report
    command, config, rounds, *spans_path = rest
    report["cal_s"] = [calibrate(int(rounds))]
    cli_argv = [command, "--config", config]
    run = cli.main
    tracer = None
    if spans_path:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        run = tracer.wrap(tracing.ROOT_SPAN, cli.main)
    t0 = time.perf_counter()
    rc = run(cli_argv)
    report["scan_s"] = time.perf_counter() - t0
    report["rc"] = rc
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report["cal_s"].append(calibrate(int(rounds)))
    if tracer is not None:
        from sshent import specialfn

        info = getattr(getattr(specialfn, "modulus_from_spacing", None), "cache_info", None)
        cache = info()._asdict() if info else None
        tracer.dump(spans_path[0], modulus_cache=cache)
    return report


if __name__ == "__main__":
    print("PERFBENCH " + json.dumps(main(sys.argv[1:])), flush=True)
