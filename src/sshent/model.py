"""Dimerized free-fermion chains with topological defects.

The chain has ``N = 2L`` sites grouped into ``L`` two-site unit cells; cell
``m`` (1-based) occupies sites ``2m-1`` and ``2m``.  Nearest-neighbour hopping
alternates between ``-t(1-delta)`` and ``-t(1+delta)``: bond ``r`` connects
sites ``r`` and ``r+1`` (bond ``N`` wraps to site 1 under periodic boundary
conditions).  For ``delta > 0`` the default alignment puts the strong bond
between cells, so the uniform chain is in its topological phase.

A defect is a point where the weak/strong alternation reverses.  Two physical
kinds are supported, named after their fully dimerized (``|delta| = 1``)
remnant:

* ``one_site``  -- two consecutive weak bonds; a single site decouples at
  full dimerization and hosts the zero mode.
* ``three_site`` -- two consecutive strong bonds; a trimer survives at full
  dimerization, hosting a zero mode plus one state above and one below the
  bands.

Defects are anchored at a cell index and processed left to right; each one
flips the alternation for all later bonds, so under periodic boundary
conditions only an even number of defects is consistent.  The bond at which
the flip starts is chosen so that the *physical* defect kind is preserved no
matter how many reversals precede it (a naive segment-wise substitution
``delta -> -delta`` would swap the two kinds at every second defect).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .linalg import BandedBlock

ONE_SITE = "one_site"
THREE_SITE = "three_site"
PERIODIC = "periodic"
OPEN = "open"

TOPOLOGICAL = "topological"
TRIVIAL = "trivial"
DEFECT = "defect"


@dataclass(frozen=True)
class DefectSpec:
    """A dimerization-pattern reversal anchored at unit cell ``cell``."""

    cell: int
    kind: str = ONE_SITE

    def __post_init__(self):
        if self.kind not in (ONE_SITE, THREE_SITE):
            raise ValueError(f"unknown defect kind {self.kind!r}")
        if self.cell < 1:
            raise ValueError("defect cell index must be >= 1")


@dataclass(frozen=True)
class ChainSpec:
    """Full description of a dimerized chain.

    Parameters
    ----------
    n_sites : int
        Even number of lattice sites, ``N = 2L``.
    hopping : float
        Overall hopping scale ``t > 0``.
    dimerization : float
        Bond alternation ``delta`` in ``[-1, 1]``.  Positive values put the
        uniform chain in the topological phase; negative values swap the
        trivial/topological labels (and with them the physical character the
        defect ``kind`` labels refer to).
    boundary : str
        ``"periodic"`` or ``"open"``.
    defects : tuple of DefectSpec
        Pattern reversals, with strictly increasing cell indices.
    """

    n_sites: int
    hopping: float = 1.0
    dimerization: float = 0.0
    boundary: str = PERIODIC
    defects: tuple[DefectSpec, ...] = ()

    def __post_init__(self):
        if self.n_sites < 2 or self.n_sites % 2:
            raise ValueError("n_sites must be a positive even integer")
        if not self.hopping > 0:
            raise ValueError("hopping must be positive")
        if not -1.0 <= self.dimerization <= 1.0:
            raise ValueError("dimerization must lie in [-1, 1]")
        if self.boundary not in (PERIODIC, OPEN):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        object.__setattr__(self, "defects", tuple(self.defects))
        cells = [d.cell for d in self.defects]
        # Footprints and flip points must stay clear of the cell-1 wrap seam;
        # the ring is translation invariant, so rotate the chain if needed.
        for d in self.defects:
            last_ok = self.n_cells - 1 if d.kind == ONE_SITE else self.n_cells - 2
            if not 2 <= d.cell <= last_ok:
                raise ValueError(
                    f"defect cell {d.cell} out of the supported range "
                    f"[2, {last_ok}] for kind {d.kind!r}"
                )
        if any(b <= a for a, b in zip(cells, cells[1:])):
            raise ValueError("defect cells must be strictly increasing")
        if self.boundary == PERIODIC and len(self.defects) % 2:
            raise ValueError(
                "periodic boundary requires an even number of defects"
            )
        occupied = [c for cs in self._cell_footprints() for c in cs]
        if len(set(occupied)) != len(occupied):
            raise ValueError("defects overlap")

    @property
    def n_cells(self) -> int:
        return self.n_sites // 2

    def _cell_footprints(self) -> list[tuple[int, ...]]:
        out = []
        for d in self.defects:
            if d.kind == ONE_SITE:
                out.append((d.cell,))
            else:
                out.append((d.cell, d.cell + 1))
        return out

    def to_json(self) -> str:
        return json.dumps(
            {
                "n_sites": self.n_sites,
                "t": self.hopping,
                "delta": self.dimerization,
                "boundary": self.boundary,
                "defects": [{"cell": d.cell, "kind": d.kind} for d in self.defects],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ChainSpec":
        data = json.loads(text)
        return cls.from_dict(data)

    @classmethod
    def from_dict(cls, data: dict) -> "ChainSpec":
        defects = tuple(
            DefectSpec(cell=integer(d["cell"], "defect cell"), kind=str(d.get("kind", ONE_SITE)))
            for d in data.get("defects", ())
        )
        return cls(
            n_sites=integer(data["n_sites"], "n_sites"),
            hopping=float(data.get("t", 1.0)),
            dimerization=float(data["delta"]),
            boundary=str(data.get("boundary", PERIODIC)),
            defects=defects,
        )


def integer(value, key: str) -> int:
    """``value`` as an int: an integer, or a float with an integral value such
    as ``20.0``.  A boolean, a fractional value, a value beyond float range
    or anything else is a ``ValueError`` that names ``key``."""
    try:
        integral = isinstance(value, numbers.Real) and float(value).is_integer()
    except OverflowError:
        raise ValueError(f"{key} is beyond float range") from None
    if isinstance(value, bool) or not integral:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def localization_length(delta: float) -> float:
    """Decay length (in cells) of a defect or edge zero mode, 1/(2 artanh|delta|)."""
    if not 0 < abs(delta) < 1:
        raise ValueError("localization length requires 0 < |delta| < 1")
    return 1.0 / (2.0 * math.atanh(abs(delta)))


def _flip_points(spec: ChainSpec) -> list[int]:
    """1-based bond indices at which the alternation reverses.

    Entering a defect at cell j with an even number of previous reversals
    (base pattern), the flip starts at bond 2j (one_site) or 2j+1
    (three_site); with an odd number, at 2j-1 resp. 2j.  This keeps the
    physical structure around the anchor cell independent of which reversal
    region the defect sits in.
    """
    points = []
    for parity, d in enumerate(spec.defects):
        entering_odd = parity % 2
        if d.kind == ONE_SITE:
            points.append(2 * d.cell - entering_odd)
        else:
            points.append(2 * d.cell + 1 - entering_odd)
    return points


def bond_amplitudes(spec: ChainSpec) -> np.ndarray:
    """Hopping amplitude of every bond.

    Bond ``r`` (0-based index ``r-1`` in the returned array) connects sites
    ``r`` and ``r+1``.  Under periodic boundary conditions the array has
    length ``N`` and the last entry is the wrap bond; open chains have
    ``N - 1`` bonds.
    """
    n_bonds = spec.n_sites if spec.boundary == PERIODIC else spec.n_sites - 1
    return _amplitudes_at(spec, np.arange(1, n_bonds + 1))


def _amplitudes_at(spec: ChainSpec, bonds: np.ndarray) -> np.ndarray:
    """Amplitudes of the 1-based bonds ``bonds``: weak on intra-cell bonds
    (odd ``r``), strong on inter-cell ones, swapped after an odd number of
    flip points at or before ``r``."""
    t, delta = spec.hopping, spec.dimerization
    weak, strong = -t * (1.0 - delta), -t * (1.0 + delta)
    flips = np.zeros(bonds.shape, dtype=int)
    for r0 in _flip_points(spec):
        flips += bonds >= r0
    flipped = flips % 2 == 1
    return np.where((bonds % 2 == 1) ^ flipped, weak, strong)


def hopping_bands(spec: ChainSpec) -> BandedBlock:
    """Sublattice block ``T`` of the hopping matrix (L x L), as its two bands.

    Row ``a`` is the odd site of cell ``a + 1`` and column ``b`` the even
    site of cell ``b + 1``; every bond joins an odd and an even site, so in
    sublattice order the hopping matrix is ``[[0, T], [T^T, 0]]``.  Bond
    ``2a + 1`` sits at ``T[a, a]`` and bond ``2b + 2`` at ``T[b + 1, b]``;
    the periodic wrap bond at ``T[0, L - 1]``.
    """
    amps = bond_amplitudes(spec)
    sub = np.zeros(spec.n_cells)
    sub[1:] = amps[1 : spec.n_sites - 1 : 2]
    if amps.size == spec.n_sites:
        sub[0] = amps[-1]
    return BandedBlock(diag=amps[0::2], sub=sub)


def defect_sites(spec: ChainSpec) -> list[tuple[DefectSpec, tuple[int, ...]]]:
    """1-based site indices making up each defect at full dimerization.

    For a one_site defect this is the single weakly coupled site (the zero
    mode's home); for a three_site defect, the three trimer sites.
    """
    out = []
    for parity, d in enumerate(spec.defects):
        entering_odd = parity % 2
        if d.kind == ONE_SITE:
            sites = (2 * d.cell - entering_odd,)
        else:
            base = 2 * d.cell - entering_odd
            sites = (base, base + 1, base + 2)
        sites = tuple((s - 1) % spec.n_sites + 1 for s in sites)
        out.append((d, sites))
    return out


def _window_ends(spec: ChainSpec, starts: np.ndarray, n_cells: int) -> np.ndarray:
    """Last cell of each interval ``[m, m + n_cells - 1]``, ``m`` in ``starts``,
    wrapped under PBC; a ``ValueError`` if any interval is not on the chain."""
    starts = np.asarray(starts, dtype=int)
    if starts.size and not (1 <= starts.min() and starts.max() <= spec.n_cells):
        raise ValueError("window start cell out of range")
    if not 1 <= n_cells <= spec.n_cells:
        raise ValueError("window length out of range")
    if spec.boundary == OPEN and starts.size and starts.max() + n_cells - 1 > spec.n_cells:
        raise ValueError("window exceeds the open chain")
    return (starts + n_cells - 2) % spec.n_cells + 1


def defects_in_window(spec: ChainSpec, start_cell: int, n_cells: int) -> list[DefectSpec]:
    """Defects whose footprint intersects the window (partial overlaps count)."""
    _window_ends(spec, [start_cell], n_cells)
    return [
        d
        for d, cs in zip(spec.defects, spec._cell_footprints())
        if any((c - start_cell) % spec.n_cells < n_cells for c in cs)
    ]


def window_defect_counts(spec: ChainSpec, starts: np.ndarray, n_cells: int) -> np.ndarray:
    """Number of defects in each window ``(m, n_cells)``, ``m`` in ``starts``,
    counted as in ``defects_in_window``, after its range checks."""
    starts = np.asarray(starts, dtype=int)
    _window_ends(spec, starts, n_cells)
    counts = np.zeros(starts.shape, dtype=int)
    for cells in spec._cell_footprints():
        counts += np.any([(c - starts) % spec.n_cells < n_cells for c in cells], axis=0)
    return counts


def edge_distances(spec: ChainSpec, starts: np.ndarray, n_cells: int) -> np.ndarray:
    """Distance in cells from the edge cells of each interval ``(m, n_cells)``,
    ``m`` in ``starts``, to the nearest defect footprint cell or, on an open
    chain, chain end; ``inf`` if there is none.

    The window cell nearest to a cell outside the window is an edge cell, so
    a distance ``>= margin`` says that every defect lies at least
    ``margin`` cells inside the interval or at least that far outside it.
    """
    starts = np.asarray(starts, dtype=int)
    ends = _window_ends(spec, starts, n_cells)
    features = [c for cs in spec._cell_footprints() for c in cs]
    if spec.boundary == OPEN:
        features += [1, spec.n_cells]
    if not features:
        return np.full(starts.shape, math.inf)
    gaps = np.abs(np.stack([starts, ends])[..., None] - np.array(features))
    if spec.boundary == PERIODIC:
        gaps = np.minimum(gaps, spec.n_cells - gaps)
    return gaps.min(axis=(0, 2)).astype(float)


def mirror_starts(spec: ChainSpec, starts: np.ndarray, n_cells: int) -> np.ndarray | None:
    """The start cell of each interval ``(m, n_cells)``'s mirror image, ``m``
    in ``starts``, or ``None`` when the chain has no mirror.

    A mirror is a site reflection ``s -> c - s`` (sites modulo ``N`` on a
    ring) that maps ``bond_amplitudes`` onto itself exactly, bond ``r`` onto
    bond ``c - 1 - r``, with ``c`` odd, so that it maps cell ``m`` onto cell
    ``(c + 1) / 2 - m`` and an interval onto the one starting at ``((c + 1)
    / 2 - m - n_cells) mod L + 1``, whose sites it lists in reverse order.
    A reflection of a ring maps its defect cores, the pairs of equal
    consecutive bonds, onto each other, so the axes tried take the first
    core's centre site onto each core's; a ring with no core alternates
    its bonds, and any odd ``c`` maps it onto itself.  An open chain's only
    axis is ``c = N + 1``.  Each costs one compare of the amplitudes.
    """
    starts = np.asarray(starts, dtype=int)
    _window_ends(spec, starts, n_cells)
    amps = bond_amplitudes(spec)
    if spec.boundary == OPEN:
        axes = [spec.n_sites + 1]
    else:
        # bond r (0-based r - 1) and bond r + 1 meet at site r + 1
        centres = np.flatnonzero(amps == np.roll(amps, -1)) + 2
        axes = (centres[:1] + centres).tolist() if centres.size else [1]
    bonds = np.arange(amps.size)
    for c in axes:
        if c % 2 and np.array_equal(amps, amps[(c - 3 - bonds) % amps.size]):
            return ((c + 1) // 2 - starts - n_cells) % spec.n_cells + 1
    return None


def window_cases(spec: ChainSpec, starts: np.ndarray, n_cells: int) -> np.ndarray:
    """Classify each interval ``(m, n_cells)``, ``m`` in ``starts``, as
    topological, trivial, or defect-containing (an object array of labels).

    A window holding a defect footprint cell is a defect window.  Otherwise
    the label is read off the two bonds cut by the interval boundaries: two
    strong cuts -> topological, two weak cuts -> trivial, one of each ->
    defect.  Requires ``dimerization != 0``, and on an open chain both cut
    bonds of every defect-free window in the interior.
    """
    if spec.dimerization == 0.0:
        raise ValueError("window case is undefined at zero dimerization")
    starts = np.asarray(starts, dtype=int)
    has_defect = window_defect_counts(spec, starts, n_cells) > 0
    ends = starts + n_cells - 1
    if spec.boundary == OPEN and np.any(~has_defect & ((starts == 1) | (ends >= spec.n_cells))):
        raise ValueError("case labeling needs both window boundaries interior")
    left = (2 * (starts - 1) - 1) % spec.n_sites  # bond entering cell m
    right = (2 * ends - 1) % spec.n_sites
    amps = _amplitudes_at(spec, np.stack([left, right]) + 1)
    weak = abs(spec.hopping) * (1.0 - abs(spec.dimerization))
    strong_cuts = (np.abs(amps) > weak + 1e-15).sum(axis=0)
    labels = np.array([TRIVIAL, DEFECT, TOPOLOGICAL], dtype=object)[strong_cuts]
    labels[has_defect] = DEFECT
    return labels


def window_case(spec: ChainSpec, start_cell: int, n_cells: int) -> str:
    """``window_cases`` of one interval."""
    return window_cases(spec, [start_cell], n_cells)[0]
