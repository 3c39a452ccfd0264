"""Two lanes of work on two CPUs: the caller's thread and one more.

The window spectra, a scan's heaviest layer after the solve, are stacked
``eigvalsh`` and batched ``svd`` calls that release the GIL, so a second
thread solves part of the windows beside the first.  Each lane writes only
its own outputs, so what the lanes compute does not depend on whether they
ran together or one after the other.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform
    reports one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def beside(main: Callable[[], None], other: Callable[[], None]) -> None:
    """Run ``other`` on a second thread while this thread runs ``main``, and
    join it; with one usable CPU, run ``main`` and then ``other`` here.

    Either way an exception of ``main`` is raised in preference to one of
    ``other``, and only once both lanes have ended.
    """
    if usable_cpus() < 2:
        main()
        other()
        return
    failed: list[BaseException] = []

    def run() -> None:
        try:
            other()
        except BaseException as err:  # re-raised in the caller's thread
            failed.append(err)

    thread = threading.Thread(target=run, name="sshent-lane")
    thread.start()
    try:
        main()
    finally:
        thread.join()
    if failed:
        raise failed[0]
