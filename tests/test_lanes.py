"""A singular-value batch that does not converge fails as one, wherever its
failing window lies.

The standard ring's 200 windows were once split over two threads, 112 + 88;
their singular-value windows (cells 1, 2 and 79..102, and cells 179..200)
took their SVDs in two batches of 26 and 22, which the test ids keep.  On
one thread the 48 windows are one batch from window 0, so a failure at
either cell names that batch.
"""

import pytest

from sshent import cli

from test_spectral_routes import SCANS, _failing_solve, _run


@pytest.mark.parametrize("cell", [pytest.param(1, id="1-26"), pytest.param(179, id="179-22")])
def test_singular_value_failure_is_a_numerical_error_on_either_lane(
    tmp_path, capsys, monkeypatch, cell
):
    """The run exits 2 with one line naming the batch, and writes no file."""
    _failing_solve(monkeypatch, "svd", cell)
    rc, out, err, files = _run(tmp_path, capsys, "scan-interval", SCANS["scan-interval"])
    assert rc == cli.EXIT_VALIDATION and out == "" and files == {}
    assert err == (
        "numerical error: singular values did not converge (svd of the 20x20 C_AB blocks of "
        "48 windows from window 0, the first at cell 1): SVD did not converge\n"
    )
