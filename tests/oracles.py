"""Independent reference implementations used only to check the library."""

import decimal
import json
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.integrate import quad

import sshent
from sshent import aklt, cli
from sshent import asymptotics as asym
from sshent import entanglement as ent
from sshent import groundstate as gs
from sshent import model
from sshent import serialize
from sshent import specialfn as sf
from sshent.linalg import NumericalError, _triples


def brute_force_sector_data(lambdas, n):
    """Exhaustive enumeration of all occupation patterns, grouped by charge.

    Returns (z_n, z_1, sector_vn) arrays indexed by charge 0..len(lambdas).
    The reduced density matrix of uncorrelated modes is diagonal in the
    occupation basis with probability prod lam^b (1-lam)^(1-b); sector
    entropies come from normalizing within each charge block.
    """
    lam = np.asarray(lambdas, dtype=float)
    size = lam.size
    z_n = np.zeros(size + 1)
    z_1 = np.zeros(size + 1)
    blocks = [[] for _ in range(size + 1)]
    for bits in range(2**size):
        prob = 1.0
        q = 0
        for i in range(size):
            if bits >> i & 1:
                prob *= lam[i]
                q += 1
            else:
                prob *= 1.0 - lam[i]
        z_1[q] += prob
        z_n[q] += prob**n
        blocks[q].append(prob)
    sector_vn = np.full(size + 1, np.nan)
    for q, probs in enumerate(blocks):
        if z_1[q] <= 0.0:
            continue
        p = np.asarray(probs) / z_1[q]
        p = p[p > 0.0]
        sector_vn[q] = float(-np.sum(p * np.log(p)))
    return z_n, z_1, sector_vn


def elliptic_integral_quadrature(k):
    """Adaptive quadrature of the defining integral of K(k).

    Integrated in the x = sin(t) variable, which removes the integrable
    endpoint singularity but is otherwise the same integral.
    """
    val, err = quad(
        lambda t: 1.0 / np.sqrt(1.0 - (k * np.sin(t)) ** 2),
        0.0,
        np.pi / 2.0,
        epsabs=1e-13,
        epsrel=1e-13,
        limit=200,
    )
    assert err < 1e-10
    return val


def modulus_from_spacing_200(spacing):
    """``specialfn.modulus_from_spacing`` as 200 halvings of [0, 1], every one
    of them taken."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= 0.0 or mid >= 1.0:
            break
        if sf.level_spacing(mid) > spacing:
            lo = mid
        else:
            hi = mid
    k = 0.5 * (lo + hi)
    return k, math.sqrt((1.0 - k) * (1.0 + k))


def srpf_by_flux_quadrature(lambdas, n, n_points=4096):
    """Trapezoidal flux integral of the charged moments over [-pi, pi)."""
    lam = np.asarray(lambdas, dtype=float)
    alphas = -np.pi + 2.0 * np.pi * np.arange(n_points) / n_points
    moments = np.ones(n_points, dtype=complex)
    for lv in lam:
        moments *= lv**n * np.exp(1j * alphas) + (1.0 - lv) ** n
    qs = np.arange(lam.size + 1)
    out = np.empty(lam.size + 1)
    for q in qs:
        integrand = moments * np.exp(-1j * alphas * q)
        out[q] = float(np.real(np.sum(integrand))) / n_points
    return out


def bond_amplitudes_loop(spec):
    """Bond amplitudes assigned one bond at a time from the flip parity."""
    n = spec.n_sites
    t, delta = spec.hopping, spec.dimerization
    n_bonds = n if spec.boundary == model.PERIODIC else n - 1
    weak, strong = -t * (1.0 - delta), -t * (1.0 + delta)
    flips = np.zeros(n_bonds + 2, dtype=int)
    for r0 in model._flip_points(spec):
        flips[min(r0, n_bonds + 1):] += 1
    amps = np.empty(n_bonds)
    for r in range(1, n_bonds + 1):
        flipped = flips[r] % 2
        intra = r % 2 == 1
        amps[r - 1] = weak if intra ^ flipped else strong
    return amps


def mirror_axes_by_search(spec):
    """Every odd ``c`` (below ``2 N``) whose reflection ``s -> c - s`` (sites
    modulo ``N`` on a ring) maps every bond of ``bond_amplitudes_loop`` onto
    a bond of the chain with the same amplitude, trying each in turn."""
    amps = bond_amplitudes_loop(spec)
    n = spec.n_sites
    axes = []
    for c in range(1, 2 * n, 2):
        images = [c - 1 - r for r in range(1, amps.size + 1)]
        if spec.boundary == model.PERIODIC:
            images = [(b - 1) % n + 1 for b in images]
        if all(1 <= b <= amps.size and amps[b - 1] == a for a, b in zip(amps, images)):
            axes.append(c)
    return axes


def window_case_from_loop(spec, m, ell):
    """Case label read off the two cut bonds of the full loop amplitude array."""
    if model.defects_in_window(spec, m, ell):
        return model.DEFECT
    amps = bond_amplitudes_loop(spec)
    left = (2 * (m - 1) - 1) % spec.n_sites
    right = (2 * (m + ell - 1) - 1) % spec.n_sites
    weak = abs(spec.hopping) * (1.0 - abs(spec.dimerization))
    cuts_strong = [abs(amps[b]) > weak + 1e-15 for b in (left, right)]
    if all(cuts_strong):
        return model.TOPOLOGICAL
    if not any(cuts_strong):
        return model.TRIVIAL
    return model.DEFECT


def window_cells(spec, start_cell, n_cells):
    """Cells of the interval ``[m, m + ell - 1]``, wrapped under PBC."""
    return [(start_cell - 1 + i) % spec.n_cells + 1 for i in range(n_cells)]


def edge_distance_from_features(spec, m, ell):
    """Smallest gap from the window's two edge cells to a footprint cell or,
    on an open chain, a chain end, one pair at a time; ``inf`` if none."""
    ends = (m, window_cells(spec, m, ell)[-1])
    features = [c for cs in spec._cell_footprints() for c in cs]
    if spec.boundary == model.OPEN:
        features += [1, spec.n_cells]
    gaps = [abs(e - c) for e in ends for c in features]
    if spec.boundary == model.PERIODIC:
        gaps = [min(g, spec.n_cells - g) for g in gaps]
    return min(gaps, default=math.inf)


def defects_in_window_from_cells(spec, m, ell):
    """Defects whose footprint shares a cell with the window, by set intersection."""
    cells = set(window_cells(spec, m, ell))
    return [d for d, cs in zip(spec.defects, spec._cell_footprints()) if cells & set(cs)]


def is_bulk_window_from_anchors(spec, m, ell, margin):
    """Bulk rule measured from each defect's anchor cell: a defect inside the
    window must be ``margin`` cells from both edge cells, one outside it
    ``margin`` cells from every window cell.  Equal to the footprint rule
    when every footprint is its anchor cell (``one_site``) on a ring."""

    def ring_distance(a, b):
        d = abs(a - b)
        return min(d, spec.n_cells - d) if spec.boundary == model.PERIODIC else d

    cells = window_cells(spec, m, ell)
    inside = model.defects_in_window(spec, m, ell)
    for d in spec.defects:
        if d in inside:
            edges = (cells[0], cells[-1])
        else:
            edges = cells
        if min(ring_distance(c, d.cell) for c in edges) < margin:
            return False
    return True


def hopping_block(spec):
    """The chain's L x L sublattice hopping block, dense, from its two bands."""
    bands = model.hopping_bands(spec)
    n = spec.n_cells
    r = np.arange(n)
    t = np.zeros((n, n))
    t[r, r] = bands.diag
    t[r, (r - 1) % n] += bands.sub  # added: on a two-site ring both fall on T[0, 0]
    return t


def window_sites(spec, start_cell, n_cells):
    """0-based site indices of an interval of whole cells, in window order."""
    sites = []
    for c in window_cells(spec, start_cell, n_cells):
        sites.extend((2 * c - 2, 2 * c - 1))
    return np.asarray(sites, dtype=int)


def build_hamiltonian(spec):
    """Single-particle hopping matrix of the chain (real symmetric, N x N),
    from the sublattice block."""
    t = hopping_block(spec)
    h = np.zeros((spec.n_sites, spec.n_sites))
    h[0::2, 1::2] = t
    h[1::2, 0::2] = t.T
    return h


def dispersion_eigenvalues(spec):
    """Sorted exact single-particle energies of the defect-free periodic chain.

    The two bands are ``+-2t sqrt(cos^2(k/2) + delta^2 sin^2(k/2))`` at
    momenta ``k = 2 pi j / L``; the band gap at ``k = pi`` is ``4 t |delta|``.
    """
    if spec.defects or spec.boundary != model.PERIODIC:
        raise ValueError("dispersion applies to the defect-free periodic chain")
    t, delta = spec.hopping, spec.dimerization
    k = 2.0 * np.pi * np.arange(spec.n_cells) / spec.n_cells
    band = 2.0 * t * np.sqrt(np.cos(k / 2) ** 2 + delta**2 * np.sin(k / 2) ** 2)
    return np.sort(np.concatenate([-band, band]))


def hamiltonian_loop(spec):
    """Hopping matrix summed bond by bond; bond r joins sites r and r+1 (mod N)."""
    n = spec.n_sites
    h = np.zeros((n, n))
    for r, a in enumerate(bond_amplitudes_loop(spec), start=1):
        i, j = r - 1, r % n
        h[i, j] += a
        h[j, i] += a
    return h


@lru_cache(maxsize=8)
def chain_triples(spec):
    """The singular triples ``(s, u, v)`` of the chain's hopping block from
    ``linalg._triples``, the eigensolve of ``eigh_sea`` (the chains are
    frozen dataclasses, so a few are kept)."""
    return _triples(model.hopping_bands(spec))


def correlation_matrix_full_block(spec, policy, window):
    """Window correlation matrix from the rows of the window's cells gathered
    out of the full ``u`` and ``v`` of ``chain_triples``, with the zero-mode
    projector added.

    With ``A``/``B`` the window's odd/even sites and ``Z`` the zero columns
    (the triples at or below ``NEAR_ZERO_THRESHOLD * t``),
    ``C_AA = (I - Z_A Z_A^T) / 2``, ``C_BB = (I - Z_B Z_B^T) / 2`` and
    ``C_AB = -U_A V_B^T / 2`` over the filled columns.
    """
    cells = np.asarray(window_cells(spec, *window)) - 1
    s, u, v = chain_triples(spec)
    filled = int(np.count_nonzero(s > gs.NEAR_ZERO_THRESHOLD * spec.hopping))
    u, v = u[cells], v[cells]
    eye = np.eye(cells.size)
    zu, zv = u[:, filled:], v[:, filled:]
    cab = -0.5 * (u[:, :filled] @ v[:, :filled].T)
    c = np.empty((2 * cells.size, 2 * cells.size))
    c[0::2, 0::2] = 0.5 * (eye - zu @ zu.T)
    c[1::2, 1::2] = 0.5 * (eye - zv @ zv.T)
    c[0::2, 1::2] = cab
    c[1::2, 0::2] = cab.T
    return _add_zero_mode_terms(c, policy, window_sites(spec, *window))


def _add_zero_mode_terms(c, policy, sites):
    zm = policy.zero_mode
    if policy.filling == gs.HALF and zm is not None:
        w1, w2 = zm.psi1[sites], zm.psi2[sites]
        p = zm.p
        c = c + (1.0 - p) * np.outer(w1, w1) + p * np.outer(w2, w2)
        cross = math.sqrt(p * (1.0 - p))
        c = c + cross * (np.outer(w1, w2) + np.outer(w2, w1))
    return c


def singular_route_atol(n_cells):
    """How far a window on the singular-value route may be from its matrix's
    ``eigvalsh``: ``n_cells`` eps.  Both solves are backward stable, so they
    differ by a small multiple of the size times eps; seen: at most 11.5 eps
    at 20 cells, 38.5 eps at 120 and 13.7 eps at 200."""
    return n_cells * np.finfo(float).eps


def sweep_route_atol(n_cells):
    """How far a weight of a sweep may be from its full matrix's
    ``eigvalsh``: the route's own bound, ``2 n_cells SWEEP_BOUND`` (the
    weightless part's norm is at most 1), plus the same again for the
    backward errors of the two ``eigvalsh`` solves compared."""
    return 2 * (2 * n_cells) * gs.SWEEP_BOUND


def eigvalsh_spectra(sea, spec, policy, starts, n_cells, weights=None):
    """The windows' spectra as one ``eigvalsh`` of the stack of their
    ``correlation_matrix`` matrices, clamped: the one route every window took
    before the singular-value and sweep routes, bit for bit.  ``weights``
    set the occupied zero mode's weight per window."""
    if weights is None:
        policies = [policy] * len(starts)
    else:
        policies = [gs.OccupationPolicy.half(policy.zero_mode.with_weight(p)) for p in weights]
    matrices = [gs.correlation_matrix(sea, spec, pol, (int(m), n_cells)).matrix
                for m, pol in zip(starts, policies)]
    return ent.clamp_lambdas(np.linalg.eigvalsh(np.stack(matrices)))


def svd_sources_by_bytes(windows, starts, sea, cells):
    """``groundstate._svd_sources`` by the bytes of the windows' C_AB blocks,
    the rule before the sea named its rows: of the windows ``windows`` whose
    blocks have the same bytes, each takes the one with the lowest start
    cell (the first given, if two share it)."""
    source = np.empty_like(windows)
    representatives = {}
    for i in np.argsort(starts[windows], kind="stable"):
        block = gs._blocks(sea, cells[windows[i : i + 1]]).tobytes()
        source[i] = representatives.setdefault(block, windows[i])
    return source


def is_sweep(policy):
    """Whether ``correlation_spectra`` takes the sweep route: a zero mode is
    occupied."""
    return policy.zero_mode is not None


def assert_routes_match(lam, ref, chiral, n_cells, sweep=False, mirrors=None):
    """Spectra ``lam`` against ``eigvalsh_spectra`` ``ref``: the windows of
    the ``eigvalsh`` route bit for bit, those of the singular-value route
    (``chiral``) within ``singular_route_atol`` and those of a sweep
    (``sweep``) within ``sweep_route_atol``.  With ``mirrors``
    (``mirrored_windows``), a window that takes its mirror image's spectrum
    has that window's bytes and lies within its own bound of its own
    ``eigvalsh``; the others are held as above."""
    assert lam.shape == ref.shape
    if sweep:
        np.testing.assert_allclose(lam, ref, rtol=0.0, atol=sweep_route_atol(n_cells))
        return
    solved = np.ones(len(lam), dtype=bool)
    if mirrors is not None:
        rep, atol = mirrors
        solved = rep == np.arange(len(lam))
        assert lam[~solved].tobytes() == lam[rep[~solved]].tobytes()
        gap = np.max(np.abs(lam[~solved] - ref[~solved]), axis=1, initial=0.0)
        assert np.all(gap <= atol[~solved]), (gap / atol[~solved]).max()
    own = solved & ~chiral
    assert lam[own].tobytes() == ref[own].tobytes()
    np.testing.assert_allclose(lam[solved & chiral], ref[solved & chiral], rtol=0.0,
                               atol=singular_route_atol(n_cells))


# how far a window's matrix may be from the reversal of its mirror image's:
# each within the 1e-13 the sea keeps of the dense eigensolve, whose windows
# are exact mirror images
MIRROR_GAP = 2e-13


def mirrored_windows(sea, spec, policy, starts, n_cells):
    """``(rep, atol)``: for each window the index of the window whose
    spectrum it takes by the chain's mirror (``model.mirror_starts``), and
    how far its spectrum may be from its own ``eigvalsh``.

    With no occupied zero mode, a window whose image is given with a lower
    start cell takes the first given window of that start; every other
    window takes its own (``rep`` is its index, ``atol`` 0).  With ``J``
    the reversal of the 2 ``n_cells`` sites, ``C_m'`` and ``J C_m J`` have
    the same exact spectrum, so by Weyl's inequality the mirrored window's
    exact spectrum is within ``|C_m' - J C_m J|_2`` of its image's, and
    each of the two backward-stable solves, of matrices of norm at most 1,
    adds at most ``2 n_cells`` eps: ``atol = |C_m' - J C_m J|_2 + 2 (2
    n_cells) eps``.  Every such pair's matrices agree within
    ``MIRROR_GAP``, so the bound cannot hide a wrong image."""
    starts = [int(m) for m in starts]
    rep = np.arange(len(starts))
    atol = np.zeros(len(starts))
    images = model.mirror_starts(spec, starts, n_cells)
    if policy.zero_mode is not None or images is None:
        return rep, atol
    for i, (m, image) in enumerate(zip(starts, images.tolist())):
        if image < m and image in starts:
            rep[i] = starts.index(image)
            mine = gs.correlation_matrix(sea, spec, policy, (m, n_cells)).matrix
            theirs = gs.correlation_matrix(sea, spec, policy, (image, n_cells)).matrix
            gap = mine - theirs[::-1, ::-1]
            assert np.max(np.abs(gap)) <= MIRROR_GAP, (m, image)
            atol[i] = np.linalg.norm(gap, 2) + 2 * (2 * n_cells) * np.finfo(float).eps
    return rep, atol


def chiral_windows(sea, spec, policy, starts, n_cells):
    """Which windows may take their spectra from the singular values of
    C_AB: no occupied zero mode, and half the squared Frobenius norm of the
    zero columns on the window's cells at most the unit roundoff."""
    starts = np.asarray(starts, dtype=int)
    if policy.zero_mode is not None:
        return np.zeros(starts.size, dtype=bool)
    weights = []
    for m in starts:
        cells = np.asarray(window_cells(spec, int(m), n_cells)) - 1
        z = np.concatenate([sea.u0[cells], sea.v0[cells]])
        weights.append(0.5 * float(np.linalg.norm(z)) ** 2)
    return np.array(weights) <= 2.0**-53


# ------------------------------------------- dense N x N eigensolver reference

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class EigenSystem:
    """Ascending eigenvalues and the matching orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def residual(self, matrix: np.ndarray) -> float:
        """Max-norm residual ``|A v - lambda v|`` over all pairs."""
        r = matrix @ self.eigenvectors - self.eigenvectors * self.eigenvalues
        return float(np.max(np.abs(r)))

    def orthonormality_defect(self) -> float:
        v = self.eigenvectors
        g = v.T @ v - np.eye(v.shape[1])
        return float(np.max(np.abs(g)))


def eigh_symmetric(matrix: np.ndarray) -> EigenSystem:
    """Diagonalize a real symmetric matrix.

    Rejects inputs whose asymmetry exceeds ``SYMMETRY_RTOL`` relative to the
    max-norm; the symmetric part is what gets diagonalized.  Non-convergence
    of the underlying solver is re-raised as ``NumericalError`` with the
    matrix scale attached.
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("expected a square matrix")
    scale = max(float(np.max(np.abs(a))), 1.0)
    asym = float(np.max(np.abs(a - a.T)))
    if asym > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"matrix is not symmetric: asymmetry {asym:.3e} exceeds "
            f"{SYMMETRY_RTOL:.1e} * {scale:.3e}"
        )
    sym = 0.5 * (a + a.T)
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as err:
        raise NumericalError(
            f"eigensolver did not converge (matrix scale {scale:.3e}): {err}"
        ) from err
    return EigenSystem(eigenvalues=w, eigenvectors=v)


def dense_eigensystem(spec):
    return eigh_symmetric(build_hamiltonian(spec))


def dense_occupied_orbitals(eig, spec, policy):
    """Eigenvector columns of the modes below the Fermi level: below
    ``-NEAR_ZERO_THRESHOLD * t``, or below 0 on a half-filled defect-free chain."""
    threshold = gs.NEAR_ZERO_THRESHOLD * spec.hopping
    if spec.defects or policy.filling == gs.BELOW_HALF:
        occ = eig.eigenvalues < -threshold
    else:
        occ = eig.eigenvalues < 0.0
    return eig.eigenvectors[:, occ]


def dense_correlation_matrix(occupied, spec, policy, window):
    """Window correlation matrix ``v v^T`` over the rows of ``occupied``
    (``dense_occupied_orbitals`` for ``policy``), plus any occupied zero-mode
    projector."""
    sites = window_sites(spec, *window)
    v = occupied[sites]
    return _add_zero_mode_terms(v @ v.T, policy, sites)


def dense_localized_zero_modes(eig, spec):
    """The near-zero eigenvector pair rotated onto the two defects: psi1 is
    the rotation angle that maximizes the weight on defect 1's region (sites
    nearest to it), a closed-form 2x2 maximization, and psi2 its orthogonal
    complement; signs by the library's rule."""
    idx = np.nonzero(np.abs(eig.eigenvalues) < gs.NEAR_ZERO_THRESHOLD * spec.hopping)[0]
    assert idx.size == 2, idx
    v1 = eig.eigenvectors[:, idx[0]]
    v2 = eig.eigenvectors[:, idx[1]]
    anchors = [sites[len(sites) // 2] - 1 for _, sites in model.defect_sites(spec)]
    site = np.arange(spec.n_sites)
    n = spec.n_sites

    def ring_dist(a):
        d = np.abs(site - a)
        return np.minimum(d, n - d) if spec.boundary == "periodic" else d

    region1 = ring_dist(anchors[0]) <= ring_dist(anchors[1])
    a = float(np.sum(v1[region1] ** 2))
    b = float(np.sum(v1[region1] * v2[region1]))
    c = float(np.sum(v2[region1] ** 2))
    theta = 0.5 * math.atan2(2.0 * b, a - c)
    psi1 = math.cos(theta) * v1 + math.sin(theta) * v2
    psi2 = -math.sin(theta) * v1 + math.cos(theta) * v2
    # atan2 pins a stationary point; pick the branch that maximizes region-1 weight
    if float(np.sum(psi1[region1] ** 2)) < float(np.sum(psi2[region1] ** 2)):
        psi1, psi2 = psi2, -psi1
    return gs.ZeroModePair(psi1=gs._fix_sign(psi1), psi2=gs._fix_sign(psi2))


@dataclass(frozen=True)
class EntanglementSpectrum:
    """Correlation eigenvalues and the matching single-particle pseudo-energies.

    ``epsilons[i] = log((1 - lambda_i) / lambda_i)``, with ``+-inf`` sentinels
    at ``lambda in {0, 1}``.
    """

    lambdas: np.ndarray
    epsilons: np.ndarray

    @classmethod
    def from_lambdas(cls, lambdas):
        lam = ent.clamp_lambdas(lambdas)
        with np.errstate(divide="ignore"):
            eps = np.log(1.0 - lam) - np.log(lam)
        return cls(lambdas=lam, epsilons=eps)


# ------------------------------------------- L x L hopping-block SVD reference


def svd_chiral(block):
    """Singular triples ``(s, u, v)`` of a square hopping block from LAPACK's
    SVD (gesdd), in the order of ``linalg._triples``: ``s`` descending and
    ``v`` in C order."""
    t = np.asarray(block, dtype=float)
    if t.ndim != 2 or t.shape[0] != t.shape[1]:
        raise ValueError("expected a square matrix")
    try:
        u, s, vt = np.linalg.svd(t)
    except np.linalg.LinAlgError as err:
        scale = max(float(np.max(np.abs(t))), 1.0)
        raise NumericalError(
            f"eigensolver did not converge (SVD of the {t.shape[0]}x{t.shape[0]} "
            f"hopping block, scale {scale:.3e}): {err}"
        ) from err
    return s, u, np.ascontiguousarray(vt.T)


def srpf_loop(lambdas, n):
    """Z_n(q) by one np.convolve per mode, the peak factored out after each."""
    lam = ent.clamp_lambdas(lambdas)
    coeffs = np.ones(1)
    log_scale = 0.0
    for lv in lam:
        coeffs = np.convolve(coeffs, np.array([(1.0 - lv) ** n, lv**n]))
        peak = coeffs.max()
        if peak > 0.0:
            coeffs /= peak
            log_scale += math.log(peak)
    return coeffs * math.exp(log_scale)


def log_srpf_decimal(lambdas, n, digits=50):
    """log Z_n(q), q = 0 .. M, from the coefficients of
    prod_i [(1 - lam_i)^n + lam_i^n x] in 50-digit decimal arithmetic, whose
    exponent range no Renyi index here leaves."""
    ctx = decimal.Context(prec=digits, Emin=-999999999, Emax=999999999)
    power = decimal.Decimal(n)
    coeffs = [decimal.Decimal(1)]
    for lv in ent.clamp_lambdas(lambdas):
        lv = decimal.Decimal(float(lv))
        a, b = ctx.power(1 - lv, power), ctx.power(lv, power)
        new = [decimal.Decimal(0)] * (len(coeffs) + 1)
        for q, c in enumerate(coeffs):
            new[q] = ctx.add(new[q], ctx.multiply(c, a))
            new[q + 1] = ctx.multiply(c, b)
        coeffs = new
    return np.array([float(ctx.ln(c)) if c > 0 else -math.inf for c in coeffs])


def _xlogx_scalar(x):
    return x * math.log(x) if x > 0.0 else 0.0


def srpf_with_vn_derivative_loop(lambdas):
    """Z_1(q) and G(q) by the product rule, one np.convolve pair per mode."""
    lam = ent.clamp_lambdas(lambdas)
    p = np.ones(1)
    d = np.zeros(1)
    for lv in lam:
        f = np.array([1.0 - lv, lv])
        fp = np.array([_xlogx_scalar(1.0 - lv), _xlogx_scalar(lv)])
        d = np.convolve(d, f) + np.convolve(p, fp)
        p = np.convolve(p, f)
    return p, -d


# --- the row-major sector recursions: the same arithmetic as the library's
# mode-major kernels on a (W, M) stack, one strided column block per step ---


def _padded_rows(w, m, constant):
    buf = np.zeros((w, m + 2))
    buf[:, 1] = constant
    return buf


def srpf_rows_row_major(lam, n):
    """``srpf`` of every row of a clamped ``(W, M)`` stack, row-major."""
    w, m = lam.shape
    f0, f1 = (1.0 - lam) ** n, lam**n
    coeffs = _padded_rows(w, m, 1.0)
    peaks = np.empty((w, m))
    for j in range(m):
        cur, low = coeffs[:, 1 : j + 3], coeffs[:, : j + 2]
        shifted = low * f1[:, j, None]
        cur *= f0[:, j, None]
        cur += shifted
        peak = cur.max(axis=1, keepdims=True)
        np.divide(cur, peak, out=cur, where=peak > 0.0)
        peaks[:, j] = peak[:, 0]
    log_scale = np.sum(np.log(np.where(peaks > 0.0, peaks, 1.0)), axis=1)
    return coeffs[:, 1:] * np.exp(log_scale)[:, None]


def srpf_vn_rows_row_major(lam):
    """``Z_1(q)`` and ``G(q)`` of every row of a clamped ``(W, M)`` stack,
    row-major."""
    w, m = lam.shape
    f0, f1 = 1.0 - lam, lam
    fp0, fp1 = ent._xlogx(f0), ent._xlogx(f1)
    p = _padded_rows(w, m, 1.0)
    d = _padded_rows(w, m, 0.0)
    for j in range(m):
        a, b = f0[:, j, None], f1[:, j, None]
        p_cur, p_low = p[:, 1 : j + 3], p[:, : j + 2]
        d_cur, d_low = d[:, 1 : j + 3], d[:, : j + 2]
        shifted = d_low * b
        d_cur *= a
        d_cur += shifted
        from_p = p_cur * fp0[:, j, None]
        from_p += p_low * fp1[:, j, None]
        d_cur += from_p
        shifted = p_low * b
        p_cur *= a
        p_cur += shifted
    return p[:, 1:], -d[:, 1:]


def sre_vn_from_partitions(z_1_q, g_q):
    """Sector von Neumann entropy ``G(q)/Z_1(q) + log Z_1(q)``."""
    return g_q / z_1_q + math.log(z_1_q)


def sre_renyi_from_partitions(z_n_q, z_1_q, n):
    """Sector Renyi entropy ``(1/(1-n)) log[Z_n(q) / Z_1(q)^n]``."""
    return (math.log(z_n_q) - n * math.log(z_1_q)) / (1.0 - n)


def _xlogx(x):
    out = np.zeros_like(x)
    pos = x > 0.0
    out[pos] = x[pos] * np.log(x[pos])
    return out


def charge_resolved_table_loop(lambdas, n):
    """One window's table from the loops above and per-sector scalar entropies."""
    lam = ent.clamp_lambdas(lambdas)
    z1, g = srpf_with_vn_derivative_loop(lam)
    zn = srpf_loop(lam, n) if n != 1.0 else z1
    charges = np.nonzero(z1 > ent.EMPTY_SECTOR_THRESHOLD)[0]
    probs = z1[charges]
    vn = np.array([sre_vn_from_partitions(z1[q], g[q]) for q in charges])
    total_vn = float(-np.sum(_xlogx(lam) + _xlogx(1.0 - lam)))
    if n == 1.0:
        renyi = vn.copy()
        total_renyi = total_vn
    else:
        renyi = np.array([sre_renyi_from_partitions(zn[q], z1[q], n) for q in charges])
        total_renyi = float(np.sum(np.log(lam**n + (1.0 - lam) ** n)) / (1.0 - n))
    s_c, s_f = float(np.sum(probs * vn)), float(-np.sum(_xlogx(probs)))
    return ent.ChargeResolvedTable(
        renyi_index=n,
        charges=charges,
        partition=zn[charges],
        probabilities=probs,
        sre_renyi=renyi,
        sre_vn=vn,
        total_renyi=total_renyi,
        total_vn=total_vn,
        config_entropy=s_c,
        fluct_entropy=s_f,
        mean_charge=float(np.sum(lam)),
    )



def table_from_sectors(n, charges, partition, probabilities, sre_renyi, sre_vn):
    """A table from per-sector values by compaction: sectors at or below the
    empty-sector threshold are dropped, ``S_c`` and ``S_f`` are plain sums
    over the kept sectors, ``S = S_c + S_f``, and the Renyi total is
    ``log(sum Z_n(q)) / (1 - n)`` (``S`` at ``n = 1``)."""
    probs = np.asarray(probabilities, dtype=float)
    keep = probs > ent.EMPTY_SECTOR_THRESHOLD
    charges = np.asarray(charges, dtype=int)[keep]
    zn = np.asarray(partition, dtype=float)[keep]
    probs = probs[keep]
    vn = np.asarray(sre_vn, dtype=float)[keep]
    s_c, s_f = float(np.sum(probs * vn)), float(-np.sum(_xlogx(probs)))
    total_renyi = s_c + s_f if n == 1.0 else math.log(float(np.sum(zn))) / (1.0 - n)
    return ent.ChargeResolvedTable(
        renyi_index=n,
        charges=charges,
        partition=zn,
        probabilities=probs,
        sre_renyi=np.asarray(sre_renyi, dtype=float)[keep],
        sre_vn=vn,
        total_renyi=total_renyi,
        total_vn=s_c + s_f,
        config_entropy=s_c,
        fluct_entropy=s_f,
        mean_charge=float(np.sum(charges * probs)),
    )


def closed_form_table_loop(n, ell, params, srpf, sre, sre_vn):
    """A closed-form table over ``|dq| <= DQ_TRUNCATION`` one sector at a
    time from three per-``dq`` closed forms, ``srpf(n, dq, params)``,
    ``sre(n, dq, params)`` and ``sre_vn(dq, params)``, evaluated on the
    occupied sectors only."""
    dqs = np.arange(-asym.DQ_TRUNCATION, asym.DQ_TRUNCATION + 1)
    probs = np.array([srpf(1.0, int(d), params) for d in dqs])
    keep = probs > ent.EMPTY_SECTOR_THRESHOLD
    dqs, probs = dqs[keep], probs[keep]
    zn = np.array([srpf(n, int(d), params) for d in dqs])
    vn = np.array([sre_vn(int(d), params) for d in dqs])
    renyi = vn if n == 1.0 else np.array([sre(n, int(d), params) for d in dqs])
    return table_from_sectors(n, dqs + ell, zn, probs, renyi, vn)


def asymptotic_table_loop(case, n, params, ell):
    """``asymptotics.asymptotic_table`` one sector at a time."""
    return closed_form_table_loop(
        n, ell, params,
        partial(asym.srpf_asymptotic, case),
        partial(asym.sre_asymptotic, case),
        partial(asym.sre_vn_asymptotic, case),
    )


def zero_mode_table_loop(p, n, params, ell):
    """A zero-mode table one sector at a time, from the per-``dq`` closed
    forms ``zero_mode_sre`` and ``zero_mode_sre_vn``."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("weight must lie in [0, 1]")
    columns = {m: asym._defect_srpf_column(m, params) for m in (1.0, n)}

    def srpf(m, dq, params):
        col = columns[m]
        t = asym.DQ_TRUNCATION
        return asym._zero_mode_mix(p, m, col[dq + t + 1], col[dq + t])

    return closed_form_table_loop(
        n, ell, params,
        srpf,
        partial(asym.zero_mode_sre, p),
        partial(asym.zero_mode_sre_vn, p),
    )


def aklt_table_loop(case, state, n, p=None):
    """An ``aklt.aklt_grid`` table from literal sector values, or for the hybrid
    state from the spin-z blocks of ``hybrid_interface_rdm``; its Renyi
    total is that of the sectors' partition functions."""
    if case == aklt.TRIVIAL_PRODUCT:
        return table_from_sectors(n, [0], [1.0], [1.0], [0.0], [0.0])
    if case == aklt.AKLT_BULK:
        sre = [0.0, math.log(2.0), 0.0]
        zn = [4.0**-n, 2.0 * 4.0**-n, 4.0**-n]
        return table_from_sectors(n, [-1, 0, 1], zn, [0.25, 0.5, 0.25], sre, sre)
    if state == aklt.TRIPLET:
        return table_from_sectors(n, [0, 1], [2.0**-n] * 2, [0.5, 0.5], [0.0] * 2, [0.0] * 2)
    rho = aklt.hybrid_interface_rdm(p)
    probs, zn, vn, renyi = [], [], [], []
    for block in (rho[3:, 3:], rho[1:3, 1:3], rho[:1, :1]):
        lam = np.linalg.eigvalsh(block)
        zq = float(np.sum(lam))
        probs.append(zq)
        zn.append(float(np.sum(lam**n)))
        if zq <= ent.EMPTY_SECTOR_THRESHOLD:
            vn.append(0.0)
            renyi.append(0.0)
            continue
        norm = lam / zq
        vn.append(float(-np.sum(norm * np.log(np.maximum(norm, 1e-300)))))
        renyi.append(vn[-1] if n == 1.0 else math.log(float(np.sum(norm**n))) / (1.0 - n))
    return table_from_sectors(n, [-1, 0, 1], zn, probs, renyi, vn)


def columns_of_tables(tables):
    """The scan columns of ``{(window, n_index): table}``, one table's
    sectors after another in ``(window, n_index)`` order, each table's totals
    repeated over its sectors."""
    cols = {key: [] for key in ("window", "n_index", "q", "Z1", "S_n", "S", "S_c", "S_f")}
    for (i, j), t in sorted(tables.items()):
        size = t.charges.size
        cols["window"] += [i] * size
        cols["n_index"] += [j] * size
        cols["q"] += t.charges.tolist()
        cols["Z1"] += t.probabilities.tolist()
        cols["S_n"] += t.sre_renyi.tolist()
        for key, total in (("S", t.total_vn), ("S_c", t.config_entropy), ("S_f", t.fluct_entropy)):
            cols[key] += [total] * size
    ints = ("window", "n_index", "q")
    return {key: np.array(v, dtype=np.int64 if key in ints else float) for key, v in cols.items()}


def closed_form_sectors_by_reference(points, n_list, params, ell):
    """``scan-interval``'s closed-form sector columns by the per-window
    reference path: one ``asymptotic_table_loop`` per (window, n), each
    (case, n) tabulated once."""
    made = {}
    for _, _, case in points:
        for n in n_list:
            if (case, n) not in made:
                made[case, n] = asymptotic_table_loop(case, n, params, ell)
    return columns_of_tables({
        (i, j): made[case, n]
        for i, (_, _, case) in enumerate(points) for j, n in enumerate(n_list)
    })


def aklt_sectors_by_reference(specs, n_list):
    """``sshent aklt``'s sector columns of ``(case, state, p)`` specs by
    ``aklt_table_loop``."""
    return columns_of_tables({
        (i, j): aklt_table_loop(case, state, n, p)
        for i, (case, state, p) in enumerate(specs) for j, n in enumerate(n_list)
    })


# --- the row-dict output path: one dict per CSV row, written value by value ---


def table_rows(table, *, m, case, n, ell, source, p=None):
    """One row dict per charge sector of ``table``."""
    rows = []
    for i, q in enumerate(table.charges):
        rows.append(
            {
                "m": m,
                "case": case,
                "p": p,
                "q": int(q),
                "dq": int(q) - ell,
                "n": n,
                "Z1_q": float(table.probabilities[i]),
                "S_n_q": float(table.sre_renyi[i]),
                "S": table.total_vn,
                "S_c": table.config_entropy,
                "S_f": table.fluct_entropy,
                "source": source,
                "dev": None,
            }
        )
    return rows


def sector_rows(sectors, point, n_index, *, m, case, n, ell, source, p=None):
    """One row dict per sector of ``point`` and ``n_index`` in columns laid
    out as ``ent.charge_resolved_tables`` gives them."""
    rows = []
    for k in np.flatnonzero((sectors["window"] == point) & (sectors["n_index"] == n_index)):
        q = int(sectors["q"][k])
        rows.append(
            {
                "m": m,
                "case": case,
                "p": p,
                "q": q,
                "dq": q - ell,
                "n": n,
                "Z1_q": float(sectors["Z1"][k]),
                "S_n_q": float(sectors["S_n"][k]),
                "S": float(sectors["S"][k]),
                "S_c": float(sectors["S_c"][k]),
                "S_f": float(sectors["S_f"][k]),
                "source": source,
                "dev": None,
            }
        )
    return rows


def fill_deviations(rows):
    """Pair every non-lattice row with the lattice row of its (m, p, q, n) key."""
    lattice = {
        (r["m"], r["p"], r["q"], r["n"]): r for r in rows if r["source"] == "lattice"
    }
    for r in rows:
        if r["source"] != "lattice":
            mate = lattice.get((r["m"], r["p"], r["q"], r["n"]))
            if mate is not None:
                dev = abs(r["S_n_q"] - mate["S_n_q"])
                r["dev"] = dev
                mate["dev"] = dev


def sort_rows(rows):
    order = {"lattice": 0, "asymptotic": 1, "dimerized": 2}
    return sorted(
        rows,
        key=lambda r: (
            r["m"] if r["m"] is not None else -1,
            r["p"] if r["p"] is not None else -1.0,
            r["q"],
            r["n"],
            order.get(r["source"], 9),
        ),
    )


def scan_rows(points, n_list, ell, lattice, closed_form):
    """Sorted row dicts of a scan, from the same inputs as ``cli._scan``; the
    lattice tables one window at a time, the closed-form rows one
    ``(point, n)`` at a time."""
    points = list(points)
    if lattice:
        spectra = lattice(points)
    if closed_form:
        sectors = closed_form(points)
    rows = []
    for i, (m, p, case) in enumerate(points):
        for j, n in enumerate(n_list):
            at = {"m": m, "case": case, "n": n, "ell": ell, "p": p}
            if lattice:
                table = ent.charge_resolved_table(spectra[i], n)
                rows.extend(table_rows(table, source="lattice", **at))
            if closed_form:
                rows.extend(sector_rows(sectors, i, j, source="asymptotic", **at))
    fill_deviations(rows)
    return sort_rows(rows)


def _sort_rows(data):
    """Rows in ``(m, p, q, n, source)`` order, an absent m or p first as -1;
    rows with equal keys keep their order."""
    order = np.lexsort((data["source_index"], data["n"], data["q"],
                        cli._sort_key(data["p"]), cli._sort_key(data["m"])))
    return {name: col[order] for name, col in data.items()}


def _labelled(data):
    """Sorted rows ready to render: ``case`` and ``source`` are their label
    indices with the labels, so no string column is factorized."""
    data["case"] = serialize.Labels(cli.CASES, data.pop("case_index"))
    data["source"] = serialize.Labels(cli.SOURCES, data["source_index"])
    return data


class RowScan:
    """``cli._scan`` by the row path: ``cli._sector_rows`` of every point
    (the tables of all spectra) with each point's ``m``, then
    ``cli._fill_deviations`` on (point, n, q) and one ``_sort_rows`` of all
    rows; the gate reads every row of the bulk points.  It stands in for
    ``cli._scan`` with the same arguments."""

    def __init__(self, points, n_list, ell, lattice, closed_form, source):
        points = list(points)
        parts = []
        if lattice:
            sectors = ent.charge_resolved_tables(lattice(points), n_list)
            parts.append(cli._sector_rows(sectors, source, points, n_list, ell))
        if closed_form:
            parts.append(cli._sector_rows(closed_form(points), cli.ASYMPTOTIC, points, n_list, ell))
        data = {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}
        ms = [m for m, _, _ in points]
        data["m"] = np.array(ms, dtype=float if None in ms else np.int64)[data["point"]]
        cli._fill_deviations(data)
        self.data = _sort_rows(data)

    def gate(self, bulk, tol, label, out):
        data = self.data
        if bulk is not None:
            in_bulk = bulk[data["point"]]
            data = {name: col[in_bulk] for name, col in data.items()}
        return cli._gate(data, tol, label, out)

    def columns(self):
        return _labelled(dict(self.data))


def dimerized_rows(ell, n_list, p_list):
    """Row dicts of ``sshent dimerized``."""
    rows = []
    for case in (model.TOPOLOGICAL, model.TRIVIAL, model.DEFECT):
        for n in n_list:
            lam = asym.dimerized_lambdas(case, ell)
            rows.extend(table_rows(ent.charge_resolved_table(lam, n),
                                   m=None, case=case, n=n, ell=ell, source="dimerized"))
    for p in p_list:
        for n in n_list:
            lam = asym.dimerized_lambdas(model.DEFECT, ell, zero_mode_p=p)
            rows.extend(table_rows(ent.charge_resolved_table(lam, n),
                                   m=None, case=model.DEFECT, n=n, ell=ell,
                                   source="dimerized", p=p))
    return sort_rows(rows)


def statmech_rows(reports):
    """Row dicts of ``sshent statmech`` from its equipartition reports."""
    return [
        {
            "q": r.q,
            "mu": r.mu,
            "constrained_S": r.constrained_entropy,
            "reconstructed_S": r.reconstructed_entropy,
            "sre_q": r.sector_entropy,
            "nearest_level_distance": r.nearest_level_distance,
            "mu_at_level": r.mu_at_level,
            "level_degenerate": r.level_degenerate,
            "sre_mu_drift": r.sre_mu_drift,
        }
        for r in reports
    ]


def aklt_rows(n_list, p_list):
    """Row dicts of ``sshent aklt``."""
    rows = []

    def add(case, state, n, p):
        table = aklt_table_loop(case, state, n, p)
        eta = aklt.eta_from_weight(p) if p is not None else None
        for i, jz in enumerate(table.charges):
            rows.append(
                {
                    "aklt_case": case,
                    "ground_state": state,
                    "p": p,
                    "eta": eta,
                    "jz": int(jz),
                    "n": n,
                    "Z1_jz": float(table.probabilities[i]),
                    "S_n_jz": float(table.sre_renyi[i]),
                    "S": table.total_vn,
                    "S_c": table.config_entropy,
                    "S_f": table.fluct_entropy,
                }
            )

    for case in (aklt.TRIVIAL_PRODUCT, aklt.AKLT_BULK, aklt.DEFECT_INTERFACE):
        for n in n_list:
            add(case, aklt.TRIPLET, n, None)
    for p in p_list:
        for n in n_list:
            add(aklt.DEFECT_INTERFACE, aklt.HYBRID, n, p)
    return rows


def format_value(x):
    if x is None:
        return ""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isnan(x):
            return ""
        if x == 0.0:
            x = 0.0  # normalize -0.0
        return repr(x)
    return str(x)


def render_csv(schema, columns, rows):
    lines = [f"#schema={schema}", ",".join(columns)]
    for row in rows:
        lines.append(",".join(format_value(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def jsonable(x):
    if isinstance(x, np.bool_):
        return bool(x)
    if isinstance(x, np.integer):
        return int(x)
    if isinstance(x, np.floating):
        v = float(x)
        return None if math.isnan(v) else v
    if isinstance(x, float) and math.isnan(x):
        return None
    if isinstance(x, np.ndarray):
        return [jsonable(v) for v in x.tolist()]
    if isinstance(x, dict):
        return {k: jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    return x


def render_json(payload):
    return json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n"


def emitted_files(config, rows, columns, schema):
    """CSV and JSON text the CLI writes for ``rows`` under ``config``."""
    payload = {
        "schema": schema,
        "columns": columns,
        "config": config,
        "config_sha256": serialize.config_digest(config),
        "versions": {"sshent": sshent.__version__, "numpy": np.__version__},
        "rows": [[row.get(c) for c in columns] for row in rows],
    }
    return render_csv(schema, columns, rows), render_json(payload)
