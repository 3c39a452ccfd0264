"""Ground-state mode selection and windowed correlation matrices.

The many-body states of interest are Slater determinants of single-particle
modes.  The chain is bipartite, every bond joining an odd to an even site, so
its modes follow from the singular triples ``(s_i, u_i, v_i)`` of the hopping
block ``T`` alone: a triple with ``s_i`` above ``NEAR_ZERO_THRESHOLD * t``
fills the mode ``(u_i, -v_i) / sqrt(2)`` at energy ``-s_i``.  A triple below
it is a zero-mode pair, exactly polarized by sublattice: ``u_0`` on the odd
sites, ``v_0`` on the even ones.  With two defects that pair is excluded from
the filled sea ("below half" filling, L-1 modes); occupying a zero mode is
always an explicit choice carried by the policy, because the physical state
is a chosen superposition of the two localized modes.

A window's correlations need only the band of ``Q = U_f V_f^T`` over the
filled triples and the zero columns: a ``linalg.FilledSea``, which
``filled_sea`` builds from one ``eigh`` of a Gram block ``T^T T``
(``linalg.eigh_sea``), which resolves the near-zero triples in their own
subspace, so the zero-mode splitting compared with the threshold is accurate
to rounding, not the ``1e-8`` noise of ``sqrt`` of an eigenvalue.  The
defects are localized: away from them every cell of a region has the same
two bonds, and its row of ``Q`` is the region's translation-invariant one.
So where a region is long, the solve is of the compressed ring that keeps
only the cells near its ends, and every row deep inside it is a column shift
of one row of that ring.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass, replace

import numpy as np

from .entanglement import clamp_lambdas
from .linalg import BandedBlock, FilledSea, NumericalError, eigh_sea
from .model import ChainSpec, defect_sites, hopping_bands, localization_length, window_defect_counts

BELOW_HALF = "below_half"
HALF = "half"

NEAR_ZERO_THRESHOLD = 1e-4  # in units of the hopping t
# e-foldings that take an entry to the unit roundoff 2^-53.  filled_sea keeps
# this many xi plus a window width of a run's cells at either end, as a zero
# mode falls off as exp(-d / xi) from its defect, and gives a row the run's
# bulk row from half as many xi plus a width on, as the filled sea departs
# from the translation-invariant rows as exp(-2 d / xi).
ROUNDING_E_FOLDS = 53 * math.log(2)
# windows per stacked eigvalsh call: amortizes the call overhead while the
# stack (16 windows of 40 x 40 at ell = 20, 200 kB) stays in cache
SPECTRA_CHUNK = 16
# windows per batched SVD of C_AB blocks: amortizes the call overhead while
# each gather of one batch (128 blocks of 20 x 20 at ell = 20, 400 kB) stays
# small beside the stack buffer
SVD_CHUNK = 8 * SPECTRA_CHUNK
# Without its zero-column terms a window's correlation matrix is
# [[I / 2, C_AB], [C_AB^T, I / 2]], whose spectrum is 1/2 -+ the singular values
# of C_AB.  Those terms, -Z_A Z_A^T / 2 and -Z_B Z_B^T / 2 on the diagonal
# blocks, have norm at most |Z_W|_F^2 / 2, and by Weyl's inequality no
# eigenvalue moves by more: a window with |Z_W|_F^2 / 2 at most the unit
# roundoff takes its spectrum from C_AB alone.
CHIRAL_BOUND = 2.0**-53
# A weight sweep's tolerance, per row of the window's n x n matrix and in
# units of the norm of its weightless part F.  eigvalsh is backward stable:
# its eigenvalues are those of a matrix within a small multiple of n eps |C|_2
# of the one it is given.  The sweep route reduces F to a Krylov space and
# drops what couples it to the complement only where that moves no eigenvalue
# by more than n eps |F|_2 (Weyl), so its spectra stay in that class.
SWEEP_BOUND = 2.0**-52


@dataclass(frozen=True)
class ZeroModePair:
    """The two localized zero-mode wavefunctions and their superposition.

    ``psi1`` lives on the first defect, ``psi2`` on the second.  The occupied
    superposition is ``sqrt(1-p) psi1 + e^{i phi} sqrt(p) psi2``: ``p`` is the
    weight on the *second* defect, so a window around the first defect sees an
    added correlation eigenvalue ``1 - p``.  The phase ``phi`` only enters
    windowed correlations through cross terms of the two envelopes, which are
    exponentially small in the defect separation; tests assert invariance.
    """

    psi1: np.ndarray
    psi2: np.ndarray
    p: float = 1.0
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("hybridization weight must lie in [0, 1]")

    def with_weight(self, p: float, phi: float = 0.0) -> "ZeroModePair":
        return replace(self, p=p, phi=phi)


@dataclass(frozen=True)
class OccupationPolicy:
    """Which single-particle modes are filled.

    ``below_half`` fills the strictly negative-energy modes only (for a
    two-defect chain that is L-1 modes, both zero modes empty).  ``half``
    additionally occupies either the full negative band (defect-free chain)
    or the explicit ``zero_mode`` superposition (defect chain).
    """

    filling: str = BELOW_HALF
    zero_mode: ZeroModePair | None = None

    def __post_init__(self):
        if self.filling not in (BELOW_HALF, HALF):
            raise ValueError(f"unknown filling {self.filling!r}")
        if self.filling == BELOW_HALF and self.zero_mode is not None:
            raise ValueError("below_half filling cannot occupy a zero mode")

    @classmethod
    def below_half(cls) -> "OccupationPolicy":
        return cls(filling=BELOW_HALF)

    @classmethod
    def half(cls, zero_mode: ZeroModePair | None = None) -> "OccupationPolicy":
        return cls(filling=HALF, zero_mode=zero_mode)


@dataclass(frozen=True)
class CorrelationMatrix:
    """Two-point function ``<c_i^dag c_j>`` restricted to an interval of cells."""

    start_cell: int
    n_cells: int
    matrix: np.ndarray

    def eigenvalues(self) -> np.ndarray:
        return clamp_lambdas(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.T)))


def filled_sea(spec: ChainSpec, width: int) -> FilledSea:
    """The filled sea of ``spec`` for windows of up to ``width`` cells, from
    one ``eigh_sea``.

    At ``0 < |delta|`` every run of identical cells (cells with the same two
    bonds: a region between defects or chain ends, with a ring's seam inside
    its region) longer than ``2 R`` is cut to its first and last ``R``
    cells, ``R = ceil(ROUNDING_E_FOLDS xi) + width`` (``xi = 0`` at
    ``|delta| = 1``), and ``eigh_sea`` solves that compressed ring.  A row
    of a cut run within ``ceil(ROUNDING_E_FOLDS xi / 2) + width`` cells of
    either end is its own row of the ring; every other row, and every row
    of a ring of identical cells, which has no ends, is the run's middle
    row, ``R`` cells in, shifted along the band to the row's column offset,
    so all of them read the same bytes at each distance.  The zero
    columns are 0 on the cut cells, and ``filled`` is ``L`` less the ring's
    zero columns.  Where no run is that long, the chain itself is solved.
    """
    if not 1 <= width <= spec.n_cells:
        raise ValueError("window length out of range")
    block = hopping_bands(spec)
    threshold = NEAR_ZERO_THRESHOLD * spec.hopping
    delta = abs(spec.dimerization)
    if delta == 0.0:
        return eigh_sea(block, width, threshold)
    xi = 0.0 if delta == 1.0 else localization_length(delta)
    reach = math.ceil(ROUNDING_E_FOLDS * xi) + width
    near = math.ceil(0.5 * ROUNDING_E_FOLDS * xi) + width
    n = block.diag.size
    # the runs, in ring order from the first cell unlike the one before it
    starts = np.flatnonzero((block.diag != np.roll(block.diag, 1))
                            | (block.sub != np.roll(block.sub, 1)))
    if not starts.size:
        # a ring of identical cells is one run with no ends: every row is bulk
        starts, near = np.zeros(1, dtype=np.intp), 0
    lengths = np.diff(np.append(starts, starts[0] + n))
    cut = lengths > 2 * reach
    if not cut.any():
        return eigh_sea(block, width, threshold)
    # per cell in ring order: its position in its run, and its distance from
    # the run's end (1 on the last cell)
    x = np.arange(n) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    tail = np.repeat(lengths, lengths) - x
    whole = ~np.repeat(cut, lengths)
    cells = (starts[0] + np.arange(n)) % n
    kept = cells[whole | (x < reach) | (tail <= reach)]
    sea = eigh_sea(BandedBlock(diag=block.diag[kept], sub=block.sub[kept]), width, threshold)
    size = np.where(cut, 2 * reach, lengths)
    row = np.empty(-(-n // width) * width, dtype=np.intp)
    row[cells] = np.repeat(np.cumsum(size) - size, lengths) + np.where(
        whole | (x < near), x, np.where(tail <= near, 2 * reach - tail, reach))
    row[n:] = row[n - 1]
    # band row r is the 3 width entries of its ring row that start at its
    # own column offset: ring row i holds offset c - i at column
    # c - i + width + i % width, row r needs it at c - r + width + r % width
    padded = np.concatenate([np.zeros(width), sea.band.ravel(), np.zeros(width)])
    flat = width + 3 * width * row + row % width - np.arange(row.size) % width
    band = np.lib.stride_tricks.sliding_window_view(padded, 3 * width)[flat]
    k = sea.splittings.size
    u0, v0 = np.zeros((n, k)), np.zeros((n, k))
    u0[kept], v0[kept] = sea.u0, sea.v0
    return FilledSea(width=width, filled=n - k, band=band, u0=u0, v0=v0,
                     splittings=sea.splittings)


def localized_zero_modes(sea: FilledSea, spec: ChainSpec) -> ZeroModePair:
    """The zero-mode pair of a two-defect chain, one mode on each defect.

    The pair is the zero columns of the filled sea: ``u_0`` on the odd sites
    and ``v_0`` on the even ones, each localized on one defect.  Assigning each
    site to its nearest defect (ring metric on cells), psi1 is the one of the
    two with the larger weight on defect 1's region.
    """
    if len(spec.defects) != 2:
        raise ValueError("localized zero modes need exactly two defects")
    found = 2 * sea.splittings.size
    if found != 2:
        raise ValueError(
            f"expected 2 near-zero modes below {NEAR_ZERO_THRESHOLD:g}*t, found {found}"
        )
    n = spec.n_sites
    odd = np.zeros(n)
    odd[0::2] = sea.u0[:, -1]
    even = np.zeros(n)
    even[1::2] = sea.v0[:, -1]

    anchors = [sites[len(sites) // 2] - 1 for _, sites in defect_sites(spec)]
    site = np.arange(n)

    def ring_dist(a):
        d = np.abs(site - a)
        return np.minimum(d, n - d) if spec.boundary == "periodic" else d

    region1 = ring_dist(anchors[0]) <= ring_dist(anchors[1])
    if float(np.sum(odd[region1] ** 2)) >= float(np.sum(even[region1] ** 2)):
        psi1, psi2 = odd, even
    else:
        psi1, psi2 = even, odd
    return ZeroModePair(psi1=_fix_sign(psi1), psi2=_fix_sign(psi2))


def _fix_sign(psi: np.ndarray) -> np.ndarray:
    """``psi`` in place with a deterministic sign, and returned.

    The first site whose magnitude is within a relative ``1e-6`` of the
    largest is positive.  A mode with two extreme entries of equal magnitude
    (a trimer-like zero mode) then gets the same sign from any solver, where
    "largest entry positive" would pick between the two by rounding.
    """
    mag = np.abs(psi)
    if psi[int(np.argmax(mag >= (1.0 - 1e-6) * mag.max()))] < 0:
        psi *= -1.0
    return psi


def filled_triples(sea: FilledSea, spec: ChainSpec, policy: OccupationPolicy) -> int:
    """Number of filled singular triples (excluding any explicit zero mode),
    after checking that the policy is consistent with the spectrum."""
    filled = sea.filled
    n_def = len(spec.defects)
    if n_def:
        expected = spec.n_cells - (n_def + 1) // 2
        if filled != expected:
            raise ValueError(
                f"found {filled} strictly negative modes, expected {expected}"
            )
        if policy.filling == HALF and policy.zero_mode is None:
            raise ValueError(
                "half filling with defects requires an explicit zero-mode occupation"
            )
    elif policy.zero_mode is not None:
        raise ValueError("the chain has no defects to host a zero mode")
    elif policy.filling == BELOW_HALF:
        # excludes open-chain edge modes too; on a gapped ring this is half filling
        if filled not in (spec.n_cells, spec.n_cells - 1):
            raise ValueError(
                "band states reach the near-zero window; dimerization too small"
            )
    elif filled != spec.n_cells:
        # zero modes (open-chain edge modes) sit on the Fermi level
        raise ValueError("half filling is ambiguous: Fermi level not in a gap")
    return filled


def correlation_stacks(
    sea: FilledSea,
    spec: ChainSpec,
    policy: OccupationPolicy,
    starts: Sequence[int],
    n_cells: int,
    weights: Sequence[float] | None = None,
) -> Iterator[np.ndarray]:
    """Correlation matrices of the intervals ``[m, m + n_cells - 1]`` (cells),
    ``m`` in ``starts``, in stacks of up to ``SPECTRA_CHUNK`` windows (views of
    one buffer, each overwritten by the next).

    With ``Z`` the zero columns, ``C_AA = (I - Z_A Z_A^T) / 2`` on the odd
    sites, ``C_BB`` likewise on the even ones, and ``C_AB`` is gathered from
    the sea's band, so ``n_cells`` is at most its ``width``.  Cells are taken
    modulo ``L``: windows across the cell-1 seam and the full ring (a purity
    diagnostic, which may hold two defects) take the same path.  An occupied
    zero mode adds its projector, at weight ``weights[i]`` in window ``i`` if
    given; its phase enters only through the real interference term, the
    imaginary part being antisymmetric and as small.  ``weights`` need an
    occupied zero mode and one weight per window (``ValueError`` otherwise).
    """
    chiral, fill, _, _ = _window_builder(sea, spec, policy, starts, n_cells, weights)
    buf = _stack_buffer(chiral.size, n_cells)
    for lo in range(0, chiral.size, SPECTRA_CHUNK):
        out = buf[: min(SPECTRA_CHUNK, chiral.size - lo)]
        fill(out, np.arange(lo, lo + len(out)))
        yield out


def _stack_buffer(size: int, n_cells: int) -> np.ndarray:
    return np.empty((min(size, SPECTRA_CHUNK), 2 * n_cells, 2 * n_cells))


def _window_builder(
    sea: FilledSea,
    spec: ChainSpec,
    policy: OccupationPolicy,
    starts: Sequence[int],
    n_cells: int,
    weights: Sequence[float] | None,
) -> tuple[
    np.ndarray,
    Callable[[np.ndarray, np.ndarray], None],
    Callable[..., np.ndarray],
    Callable[[], tuple[np.ndarray, np.ndarray]] | None,
]:
    """``chiral``, ``fill(out, windows)``, ``block(windows)`` and ``sweep``
    of the windows of ``correlation_stacks``, for ``windows`` an index array
    of them: ``chiral[i]`` says window ``i`` takes its spectrum from its
    C_AB block (``CHIRAL_BOUND``; never under an occupied zero mode),
    ``fill`` writes the windows' correlation matrices into ``out`` and
    ``block`` returns their C_AB blocks in a new array.  Where every window
    covers the same cells under an occupied zero mode (a sweep of its
    weight), ``sweep()`` returns the windows' reduced matrices and the
    eigenvalues no weight enters (``_sweep_reduction``); elsewhere it is
    ``None``."""
    starts = np.asarray(starts, dtype=int)
    zm = policy.zero_mode
    if weights is not None:
        if zm is None:
            raise ValueError("weights were given, but no zero mode is occupied")
        if len(weights) != starts.size:
            raise ValueError(
                f"{len(weights)} weights for {starts.size} windows: give one weight per window"
            )
    counts = window_defect_counts(spec, starts, n_cells)
    if n_cells < spec.n_cells and np.any(counts > 1):
        raise ValueError(
            f"window contains {counts[counts > 1][0]} defects; at most one is supported"
        )
    if n_cells > sea.width:
        raise ValueError(f"a window of {n_cells} cells is wider than the filled sea's band "
                         f"({sea.width} cells)")
    filled_triples(sea, spec, policy)
    if zm is not None:
        p = np.full(starts.size, zm.p) if weights is None else np.asarray(weights, dtype=float)
        if not np.all((p >= 0.0) & (p <= 1.0)):
            raise ValueError("hybridization weight must lie in [0, 1]")
    offsets = np.arange(n_cells)
    cells = (starts[:, None] - 1 + offsets) % spec.n_cells
    width = sea.width
    # row i of a window's C_AB is the n_cells entries of band row r = cells[i]
    # from the column of Q[r, r - i], r % width + width - i
    band_rows = np.lib.stride_tricks.sliding_window_view(sea.band.ravel(), n_cells)
    first = width - offsets
    zeros = sea.u0, sea.v0
    eye = np.eye(n_cells)

    def block(windows: np.ndarray) -> np.ndarray:
        rows = cells[windows]
        return band_rows[rows * (3 * width) + rows % width + first]

    if zm is None:
        zero = np.sum(sea.u0**2, axis=1) + np.sum(sea.v0**2, axis=1)
        chiral = 0.5 * zero[cells].sum(axis=1) <= CHIRAL_BOUND
    else:
        chiral = np.zeros(starts.size, dtype=bool)

    def weightless(out: np.ndarray, windows: np.ndarray) -> None:
        """The part of the windows that no zero-mode weight enters: C_AB and
        the two diagonal blocks."""
        cab = block(windows)
        out[:, 0::2, 1::2] = cab
        out[:, 1::2, 0::2] = cab.transpose(0, 2, 1)
        rows = cells[windows]
        for z, diagonal in zip(zeros, (out[:, 0::2, 0::2], out[:, 1::2, 1::2])):
            zr = z[rows]
            np.subtract(eye, zr @ zr.transpose(0, 2, 1), out=diagonal)
            diagonal *= 0.5

    def envelopes(windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The two zero modes on the windows' sites, one row per window."""
        rows = cells[windows]
        sites = (2 * rows[:, :, None] + np.arange(2)).reshape(len(rows), -1)
        return zm.psi1[sites], zm.psi2[sites]

    def fill(out: np.ndarray, windows: np.ndarray) -> None:
        weightless(out, windows)
        if zm is not None:
            _add_zero_mode(out, _zero_mode_outer(*envelopes(windows)), p[windows], zm.phi)

    sweep = None
    if zm is not None and starts.size and np.all(cells == cells[0]):

        def sweep() -> tuple[np.ndarray, np.ndarray]:
            """One window under many weights: its weightless part and the
            zero modes reduced once, then every weight's reduced matrix."""
            f = np.empty((1, 2 * n_cells, 2 * n_cells))
            weightless(f, np.arange(1))
            w1, w2 = envelopes(np.arange(1))
            t, y, rest = _sweep_reduction(f[0], np.stack([w1[0], w2[0]], axis=1))
            products = _zero_mode_outer(y[None, :, 0], y[None, :, 1])
            reduced = np.empty((starts.size, *t.shape))
            # SPECTRA_CHUNK weights at a time, so the temporaries stay small
            # and are reused: built 128 at a time, zeromode's peak RSS rose by
            # 0.08 MB over one full eigvalsh per weight, where this lowers it
            # by 0.37 MB
            for lo in range(0, starts.size, SPECTRA_CHUNK):
                out = reduced[lo : lo + SPECTRA_CHUNK]
                out[:] = t
                _add_zero_mode(out, products, p[lo : lo + SPECTRA_CHUNK], zm.phi)
            return reduced, rest

    return chiral, fill, block, sweep


def correlation_matrix(
    sea: FilledSea,
    spec: ChainSpec,
    policy: OccupationPolicy,
    window: tuple[int, int],
) -> CorrelationMatrix:
    """Correlation matrix of the interval ``[m, m + ell - 1]`` (cells): the
    one-window case of ``correlation_stacks``."""
    start_cell, n_cells = window
    (stack,) = correlation_stacks(sea, spec, policy, [start_cell], n_cells)
    return CorrelationMatrix(start_cell=start_cell, n_cells=n_cells, matrix=stack[0])


def correlation_spectra(
    sea: FilledSea,
    spec: ChainSpec,
    policy: OccupationPolicy,
    starts: Sequence[int],
    n_cells: int,
    weights: Sequence[float] | None = None,
) -> np.ndarray:
    """Eigenvalues of the windows of ``correlation_stacks``, one row each,
    by one of three routes, and one ``clamp_lambdas`` per scan.

    A window whose zero columns are below ``CHIRAL_BOUND`` takes ``1/2 - s``
    ascending and then ``1/2 + s`` ascending, ``s`` the singular values of
    its C_AB block.  Such windows whose blocks have the same bytes share one
    SVD (``_svd_sources``: each takes the bytes of its group's
    representative, the window of the group with the lowest start cell);
    the representatives and the windows that share with none take theirs
    in batches of up to ``SVD_CHUNK``.  Where every window covers the same
    cells under an occupied zero mode (a sweep of its weight), the window
    is reduced once (``_sweep_reduction``): each weight takes the
    ``eigvalsh`` of its k x k reduced matrix, all in one call, merged with
    the eigenvalues no weight enters and sorted, within ``2 n_cells
    SWEEP_BOUND |F|_2`` of its full matrix's spectrum.  Every other window
    takes its matrix's ``eigvalsh``, one per stack of the windows of a run
    of ``SPECTRA_CHUNK`` that take this route, built in one buffer.

    The groups depend on the set of windows alone and each solve on its own
    matrix alone, so the spectra are the same bits in any order of the
    windows (or weights).  A solve that does not converge is a
    ``NumericalError`` naming the first window of its stack or batch.
    """
    starts = np.asarray(starts, dtype=int)
    chiral, fill, block, sweep = _window_builder(sea, spec, policy, starts, n_cells, weights)
    size = chiral.size
    spectra = np.empty((size, 2 * n_cells))
    source = np.arange(size)
    source[chiral] = _svd_sources(np.flatnonzero(chiral), starts, block, n_cells)
    shared = source != np.arange(size)

    def first_of(windows: np.ndarray) -> str:
        return f"the first at cell {int(starts[windows[0]])}"

    def eigvalsh(windows: np.ndarray, matrices: np.ndarray) -> None:
        rows = matrices.shape[1]
        try:
            spectra[windows, :rows] = np.linalg.eigvalsh(matrices)
        except np.linalg.LinAlgError as err:
            raise NumericalError(
                f"eigensolver did not converge (eigvalsh of the {rows}x{rows} "
                f"correlation matrices of windows {windows[0]}..{windows[-1]}, "
                f"{first_of(windows)}): {err}"
            ) from err

    if sweep is not None:
        reduced, rest = sweep()
        spectra[:, reduced.shape[1] :] = rest
        eigvalsh(np.arange(size), reduced)
        spectra.sort(axis=1)
    else:
        buf = _stack_buffer(size, n_cells)
        for first in range(0, size, SPECTRA_CHUNK):
            windows = first + np.flatnonzero(~chiral[first : first + SPECTRA_CHUNK])
            if windows.size:
                fill(buf[: windows.size], windows)
                eigvalsh(windows, buf[: windows.size])
    own = np.flatnonzero(chiral & ~shared)
    for first in range(0, own.size, SVD_CHUNK):
        windows = own[first : first + SVD_CHUNK]
        try:
            s = np.linalg.svd(block(windows), compute_uv=False)
        except np.linalg.LinAlgError as err:
            raise NumericalError(
                f"singular values did not converge (svd of the {n_cells}x{n_cells} C_AB "
                f"blocks of {windows.size} windows from window {windows[0]}, "
                f"{first_of(windows)}): {err}"
            ) from err
        spectra[windows, :n_cells] = 0.5 - s
        spectra[windows, n_cells:] = 0.5 + s[:, ::-1]
    spectra[shared] = spectra[source[shared]]
    return clamp_lambdas(spectra)


def _svd_sources(
    windows: np.ndarray, starts: np.ndarray, block: Callable[..., np.ndarray], n_cells: int
) -> np.ndarray:
    """For each of the singular-value-route windows ``windows``, the window
    whose singular values it takes: among the windows whose C_AB blocks have
    the same bytes, the one with the lowest start cell (the first given, if
    two share it), so the choice does not depend on the order of the
    windows.  A hash of each block's bits (a wrapping
    integer sum, taken ``SVD_CHUNK`` blocks at a time) proposes the groups,
    and a window joins its group's representative only if its block has the
    representative's bytes; a collision of the hash costs an SVD, never a
    spectrum.  The windows of a run's bulk, which ``filled_sea`` reads from
    one row, have the same bytes."""
    source = windows.copy()
    count = windows.size
    if count < 2:
        return source
    keys = np.empty(count, dtype=np.uint64)
    # odd multipliers of the golden ratio times 2^64, one per entry
    weights = np.arange(1, 2 * n_cells**2, 2, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    for lo in range(0, count, SVD_CHUNK):
        bits = block(windows[lo : lo + SVD_CHUNK]).view(np.uint64)
        keys[lo : lo + SVD_CHUNK] = bits.reshape(len(bits), -1) @ weights
    order = np.lexsort((starts[windows], keys))
    first = np.flatnonzero(np.r_[True, keys[order[1:]] != keys[order[:-1]]])
    rep = np.empty(count, dtype=np.intp)
    rep[order] = np.repeat(order[first], np.diff(np.r_[first, count]))
    candidates = np.flatnonzero(rep != np.arange(count))
    heads, head_of = np.unique(rep[candidates], return_inverse=True)
    head_bits = block(windows[heads]).view(np.uint64)
    for lo in range(0, candidates.size, SVD_CHUNK):
        joins, head = candidates[lo : lo + SVD_CHUNK], head_of[lo : lo + SVD_CHUNK]
        same = np.all(block(windows[joins]).view(np.uint64) == head_bits[head], axis=(1, 2))
        source[joins[same]] = windows[heads[head[same]]]
    return source


def _sweep_reduction(f: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A swept window's weightless matrix ``f`` (n x n) and zero modes ``w``
    (n x 2), reduced to the block Krylov space of ``f`` from ``span(w)``:
    ``(t, y, rest)``, with ``t`` the k x k matrix of ``f`` in an orthonormal
    basis of that space, ``y`` the k x 2 coordinates of ``w`` in it and
    ``rest`` the ascending eigenvalues of ``f`` on its complement.

    Every weight's matrix ``f + w M(p) w^T`` then has the spectrum of
    ``t + y M(p) y^T`` together with ``rest``, to within ``bound = n
    SWEEP_BOUND |f|_2``: a direction of ``w`` is left out only where that
    moves the matrix by at most ``bound`` (by ``s_d (2 |w_kept| + s_d)``, with
    ``s_d`` the largest singular value of ``w`` left out), the block Lanczos
    steps (full reorthogonalization) stop at the first block whose singular
    values are all at most ``bound``, and the reduction stands only if that
    part of ``w`` and the coupling ``|Q_perp^T f Q|_2`` left out together
    stay within ``bound``, so by Weyl's inequality no eigenvalue moves by
    more.  Otherwise, or where the space fills all n dimensions, the result
    is ``(f, w, [])`` itself: every weight's matrix is then the full one,
    bit for bit."""
    n = f.shape[0]
    bound = n * SWEEP_BOUND * np.linalg.norm(f, 2)
    u, s, _ = np.linalg.svd(w, full_matrices=False)
    # leaving out the directions from r on moves the matrix by s[r] (2 |w_kept| + s[r])
    cost = s * (2.0 * np.where(np.arange(s.size) > 0, s[0], 0.0) + s)
    kept = next((r for r in range(s.size) if cost[r] <= bound), s.size)
    left_out = cost[kept] if kept < s.size else 0.0
    q = block = u[:, :kept]
    while block.shape[1] and q.shape[1] < n:
        step = f @ block
        for _ in range(2):
            step -= q @ (q.T @ step)
        directions, sizes, _ = np.linalg.svd(step, full_matrices=False)
        block = directions[:, sizes > bound]
        if block.shape[1]:
            # a direction of a small step carries the rounding of q's: orthogonal again
            block = np.linalg.svd(block - q @ (q.T @ block), full_matrices=False)[0]
            q = np.hstack([q, block])
    k = q.shape[1]
    if k < n:
        basis = np.linalg.qr(q, mode="complete")[0]
        a = basis.T @ f @ basis
        a = 0.5 * (a + a.T)
        coupling = np.linalg.norm(a[k:, :k], 2) if k else 0.0
        if coupling + left_out <= bound:
            return a[:k, :k], basis[:, :k].T @ w, np.linalg.eigvalsh(a[k:, k:])
    return f, w, np.empty(0)


def _zero_mode_outer(
    w1: np.ndarray, w2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Outer products of the two zero modes ``w1`` and ``w2``, one row each
    per window: 11, 22 and 12 + 21."""
    w1, w2 = w1[:, :, None], w2[:, :, None]
    t1, t2 = w1.transpose(0, 2, 1), w2.transpose(0, 2, 1)
    return w1 * t1, w2 * t2, w1 * t2 + w2 * t1


def _add_zero_mode(
    c: np.ndarray, outer: tuple[np.ndarray, np.ndarray, np.ndarray], p: np.ndarray, phi: float
) -> None:
    """Add to each ``c[i]`` the projector on the zero-mode superposition at
    weight ``p[i]`` and phase ``phi``, from the windows' ``_zero_mode_outer``."""
    o11, o22, o12 = outer
    p = p[:, None, None]
    c += (1.0 - p) * o11
    c += p * o22
    c += np.sqrt(p * (1.0 - p)) * math.cos(phi) * o12
