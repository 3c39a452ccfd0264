import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sshent import model

from conftest import two_defect_chain
from oracles import (
    bond_amplitudes_loop,
    build_hamiltonian,
    dense_eigensystem,
    dispersion_eigenvalues,
    defects_in_window_from_cells,
    edge_distance_from_features,
    hamiltonian_loop,
    hopping_block,
    is_bulk_window_from_anchors,
    window_case_from_loop,
    window_sites,
)

# mixed kinds, both boundaries, both signs of delta, and the two-site ring
# whose wrap bond joins the same pair of sites as bond 1
ORACLE_SPECS = {
    "ring-mixed": two_defect_chain(0.3, kinds=("one_site", "three_site")),
    "ring-mixed-negative": two_defect_chain(-0.4, kinds=("three_site", "one_site")),
    "open-one-defect": model.ChainSpec(
        n_sites=60, dimerization=0.6, boundary="open",
        defects=(model.DefectSpec(12, "three_site"),),
    ),
    "open-mixed-negative": model.ChainSpec(
        n_sites=60, dimerization=-0.25, boundary="open",
        defects=(model.DefectSpec(7), model.DefectSpec(20, "three_site")),
    ),
    "two-site-ring": model.ChainSpec(n_sites=2, dimerization=0.5),
}


def test_fully_dimerized_minimal_ring():
    """N=4, delta=1 ring: only the two strong bonds survive, eigenvalues +-2."""
    spec = model.ChainSpec(n_sites=4, hopping=1.0, dimerization=1.0)
    h = build_hamiltonian(spec)
    assert h[1, 2] == pytest.approx(-2.0)
    assert h[3, 0] == pytest.approx(-2.0)
    assert h[0, 1] == 0.0 and h[2, 3] == 0.0
    w = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(w, [-2.0, -2.0, 2.0, 2.0], atol=1e-14)


@pytest.mark.parametrize("delta", [0.1, 0.3, 0.7])
def test_dispersion_matches_diagonalization(delta):
    spec = model.ChainSpec(n_sites=80, dimerization=delta)
    w = np.linalg.eigvalsh(build_hamiltonian(spec))
    np.testing.assert_allclose(w, dispersion_eigenvalues(spec), atol=1e-12)
    gap = 2.0 * np.min(np.abs(w))
    assert gap == pytest.approx(4.0 * delta, abs=1e-12)


def test_two_site_ring_sums_both_bonds():
    """Both bonds of the two-site ring join sites 1 and 2, so their amplitudes add."""
    spec = model.ChainSpec(n_sites=2, dimerization=0.5)
    w = np.linalg.eigvalsh(build_hamiltonian(spec))
    np.testing.assert_allclose(w, dispersion_eigenvalues(spec), atol=1e-14)


def test_two_defects_host_two_zero_modes():
    spec = two_defect_chain(0.3)
    w = dense_eigensystem(spec).eigenvalues
    assert int(np.sum(np.abs(w) < 1e-6)) == 2


def test_bond_amplitudes_only_two_values():
    spec = two_defect_chain(0.3, kinds=("one_site", "three_site"))
    amps = model.bond_amplitudes(spec)
    assert set(np.round(amps, 12)) == {-0.7, -1.3}


def test_one_site_defect_pattern():
    """Two consecutive weak bonds around the defect site, for both defects."""
    spec = two_defect_chain(0.4)
    amps = model.bond_amplitudes(spec)
    weak = -0.6
    for _, sites in model.defect_sites(spec):
        s = sites[0]  # 1-based defect site; adjacent bonds are s-1 and s
        assert amps[s - 2] == pytest.approx(weak)
        assert amps[s - 1] == pytest.approx(weak)


def test_three_site_defect_pattern():
    spec = two_defect_chain(0.4, kinds=("three_site", "three_site"))
    amps = model.bond_amplitudes(spec)
    strong = -1.4
    for _, sites in model.defect_sites(spec):
        assert len(sites) == 3
        a, b, c = sites
        assert amps[a - 1] == pytest.approx(strong)
        assert amps[b - 1] == pytest.approx(strong)


def test_trimer_adds_band_external_pair():
    spec = two_defect_chain(0.3, kinds=("one_site", "three_site"))
    w = dense_eigensystem(spec).eigenvalues
    assert int(np.sum(w > 2.0 + 1e-9)) == 1
    assert int(np.sum(w < -2.0 - 1e-9)) == 1
    assert int(np.sum(np.abs(w) < 1e-6)) == 2


def test_pbc_rejects_odd_defect_count():
    with pytest.raises(ValueError, match="even number"):
        model.ChainSpec(n_sites=40, dimerization=0.5,
                        defects=(model.DefectSpec(5),))


def test_defect_cell_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of the supported range"):
        model.ChainSpec(n_sites=40, dimerization=0.5,
                        defects=(model.DefectSpec(3), model.DefectSpec(20)))


def test_localization_length_limits():
    assert model.localization_length(0.999) < 0.14
    assert model.localization_length(1e-4) > 1e3
    deltas = [0.1, 0.3, 0.5, 0.9, 0.999]
    xs = [model.localization_length(d) for d in deltas]
    assert all(b < a for a, b in zip(xs, xs[1:]))
    with pytest.raises(ValueError):
        model.localization_length(0.0)


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_vectorized_bonds_match_loop(name):
    spec = ORACLE_SPECS[name]
    assert np.array_equal(model.bond_amplitudes(spec), bond_amplitudes_loop(spec))
    assert np.array_equal(build_hamiltonian(spec), hamiltonian_loop(spec))


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_hopping_block_is_the_sublattice_block(name):
    """Every bond joins an odd and an even site: the odd-odd and even-even
    blocks are zero and the odd-even one is ``hopping_block``, bit for bit."""
    spec = ORACLE_SPECS[name]
    h = hamiltonian_loop(spec)
    block = hopping_block(spec)
    assert block.shape == (spec.n_cells, spec.n_cells)
    assert np.array_equal(block, build_hamiltonian(spec)[0::2, 1::2])
    assert np.array_equal(block, h[0::2, 1::2])
    assert not h[0::2, 0::2].any() and not h[1::2, 1::2].any()


@pytest.mark.parametrize("name", ["ring-mixed", "ring-mixed-negative", "open-one-defect"])
def test_window_case_labels_match_loop_amplitudes(name):
    spec = ORACLE_SPECS[name]
    ell = 5
    if spec.boundary == "periodic":
        starts = range(1, spec.n_cells + 1)
    else:  # both cut bonds interior
        starts = range(2, spec.n_cells - ell + 1)
    fast = [model.window_case(spec, m, ell) for m in starts]
    assert [window_case_from_loop(spec, m, ell) for m in starts] == fast
    assert set(fast) == {"topological", "trivial", "defect"}


def test_window_case_labels(chain03):
    assert model.window_case(chain03, 175, 20) == "topological"
    assert model.window_case(chain03, 90, 20) == "trivial"
    assert model.window_case(chain03, 41, 20) == "defect"


def test_window_wraps_under_pbc(chain03):
    sites = window_sites(chain03, 195, 10)
    assert sites[0] == 2 * 195 - 2
    assert sites[-1] == 2 * 4 - 1  # cell 4 after wrapping past cell 200


@pytest.mark.parametrize("name", ORACLE_SPECS)
def test_defects_in_window_match_cell_sets(name):
    spec = ORACLE_SPECS[name]
    for ell in {1, 5, 20, spec.n_cells} & set(range(1, spec.n_cells + 1)):
        last = spec.n_cells if spec.boundary == "periodic" else spec.n_cells - ell + 1
        for m in range(1, last + 1):
            got = model.defects_in_window(spec, m, ell)
            assert got == defects_in_window_from_cells(spec, m, ell), (m, ell)


# defect anchors of one_site rings: the standard ring and rotations of it
@pytest.mark.parametrize("cells", [(50, 150), (51, 151), (87, 187), (2, 102), (99, 199)])
@pytest.mark.parametrize("ell", [1, 20, 60, 200])
def test_bulk_rule_matches_anchor_rule_on_one_site_rings(cells, ell):
    spec = model.ChainSpec(
        n_sites=400, dimerization=0.3, defects=tuple(model.DefectSpec(c) for c in cells)
    )
    for margin in (1, 8, 15):
        for m in range(1, spec.n_cells + 1):
            bulk = model.edge_distance(spec, m, ell) >= margin
            assert bulk == is_bulk_window_from_anchors(spec, m, ell, margin), (m, margin)


@pytest.mark.parametrize("kind, a", [("one_site", 200), ("three_site", 201)])
def test_bulk_flags_invariant_under_chain_reflection(kind, a):
    """The ring is symmetric under the cell reflection x -> a - x (mod L),
    which swaps the two defects; a window and its mirror image must get the
    same edge distance and so the same bulk flag."""
    spec = two_defect_chain(0.3, kinds=(kind, kind))
    n_cells, n_sites, ell = spec.n_cells, spec.n_sites, 20
    # site s -> 2a - 1 - s (1-based) reverses the two sites of every cell
    image = (2 * a - 3 - np.arange(n_sites)) % n_sites
    h = build_hamiltonian(spec)
    assert np.array_equal(h[np.ix_(image, image)], h)
    for m in range(1, n_cells + 1):
        mirror = (a - m - ell) % n_cells + 1  # start of [a - m - ell + 1, a - m]
        assert model.edge_distance(spec, m, ell) == model.edge_distance(spec, mirror, ell), m


def test_open_chain_ends_count_toward_edge_distance():
    spec = model.ChainSpec(n_sites=400, dimerization=0.3, boundary="open")
    ell = 20
    for m in range(1, spec.n_cells - ell + 2):
        assert model.edge_distance(spec, m, ell) == min(m - 1, spec.n_cells - (m + ell - 1))
    ring = model.ChainSpec(n_sites=400, dimerization=0.3)
    assert model.edge_distance(ring, 1, ell) == float("inf")


def _random_chain(rng, boundary):
    """A random valid chain: 4-60 cells, mixed defect kinds (an even number on
    a ring), and a nonzero dimerization of either sign, sometimes |delta| = 1."""
    while True:
        n_cells = int(rng.integers(4, 61))
        n_defects = int(rng.choice([0, 2, 4] if boundary == model.PERIODIC else [0, 1, 2, 3]))
        cells = np.sort(rng.choice(np.arange(2, n_cells), size=min(n_defects, n_cells - 2),
                                   replace=False))
        kinds = rng.choice([model.ONE_SITE, model.THREE_SITE], size=cells.size)
        delta = (1.0 if rng.random() < 0.25 else rng.uniform(0.05, 1.0)) * rng.choice([-1, 1])
        try:
            return model.ChainSpec(
                n_sites=2 * n_cells, dimerization=float(delta), boundary=boundary,
                defects=tuple(model.DefectSpec(int(c), str(k)) for c, k in zip(cells, kinds)),
            )
        except ValueError:
            continue


@pytest.mark.parametrize("boundary", [model.PERIODIC, model.OPEN])
@pytest.mark.parametrize("seed", range(12))
def test_window_arrays_match_one_window_calls(boundary, seed):
    """``window_cases`` and ``edge_distances`` over all starts equal their
    one-window calls and the loop oracles: windows across the seam, ell = 1,
    and (on rings) the full ring."""
    rng = np.random.default_rng(seed)
    spec = _random_chain(rng, boundary)
    n = spec.n_cells
    for ell in sorted({1, int(rng.integers(1, n + 1)), n}):
        if boundary == model.PERIODIC:
            starts = np.arange(1, n + 1)
        else:
            starts = np.arange(1, n - ell + 2)
        distances = model.edge_distances(spec, starts, ell)
        assert distances.tolist() == [model.edge_distance(spec, m, ell) for m in starts]
        assert distances.tolist() == [edge_distance_from_features(spec, m, ell) for m in starts]
        if boundary == model.OPEN:  # labels need both cut bonds interior
            starts = starts[(starts >= 2) & (starts + ell - 1 <= n - 1)]
        labels = model.window_cases(spec, starts, ell)
        assert labels.tolist() == [model.window_case(spec, m, ell) for m in starts]
        assert labels.tolist() == [window_case_from_loop(spec, m, ell) for m in starts]


def test_window_arrays_keep_the_one_window_errors():
    flat = model.ChainSpec(n_sites=40, dimerization=0.0)
    with pytest.raises(ValueError, match="undefined at zero dimerization"):
        model.window_cases(flat, [3], 5)
    ring = two_defect_chain(0.3)
    for starts, ell, message in (([0, 3], 5, "start cell out of range"),
                                 ([3, ring.n_cells + 1], 5, "start cell out of range"),
                                 ([3], ring.n_cells + 1, "length out of range")):
        for fn in (model.window_cases, model.edge_distances):
            with pytest.raises(ValueError, match=message):
                fn(ring, starts, ell)
    chain = ORACLE_SPECS["open-one-defect"]
    with pytest.raises(ValueError, match="exceeds the open chain"):
        model.edge_distances(chain, [2, chain.n_cells - 3], 5)
    # a defect-free window at a chain end has no case; one holding a defect does
    with pytest.raises(ValueError, match="both window boundaries interior"):
        model.window_cases(chain, [1, 5], 5)
    with pytest.raises(ValueError, match="both window boundaries interior"):
        model.window_case(chain, 1, 5)
    assert model.window_cases(chain, [1], 12).tolist() == ["defect"]
    assert model.window_case(chain, 1, 12) == "defect"


def test_json_round_trip(chain_mixed):
    text = chain_mixed.to_json()
    data = json.loads(text)
    assert set(data) == {"n_sites", "t", "delta", "boundary", "defects"}
    assert model.ChainSpec.from_json(text) == chain_mixed


@st.composite
def chain_specs(draw):
    n_cells = draw(st.integers(min_value=6, max_value=16))
    delta = draw(
        st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
    )
    boundary = draw(st.sampled_from(["periodic", "open"]))
    n_defects = draw(st.sampled_from([0, 2]))
    defects = []
    if n_defects:
        cells = draw(
            st.lists(
                st.integers(min_value=2, max_value=n_cells - 2),
                min_size=2, max_size=2, unique=True,
            )
        )
        cells.sort()
        if cells[1] - cells[0] < 2:
            n_defects = 0
        else:
            kinds = draw(
                st.lists(
                    st.sampled_from(["one_site", "three_site"]),
                    min_size=2, max_size=2,
                )
            )
            defects = [
                model.DefectSpec(c, k) for c, k in zip(cells, kinds)
            ]
    return model.ChainSpec(
        n_sites=2 * n_cells,
        dimerization=delta,
        boundary=boundary,
        defects=tuple(defects),
    )


@given(chain_specs())
@settings(max_examples=60, deadline=None)
def test_spectrum_chiral_symmetric(spec):
    """Bipartite hopping: the spectrum is symmetric about zero."""
    h = build_hamiltonian(spec)
    # only odd-even couplings present
    for i in range(spec.n_sites):
        for j in range(spec.n_sites):
            if h[i, j] != 0.0:
                assert (i + j) % 2 == 1
    w = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(w, -w[::-1], atol=1e-10)


@given(chain_specs())
@settings(max_examples=30, deadline=None)
def test_hamiltonian_symmetric_with_expected_amplitudes(spec):
    h = build_hamiltonian(spec)
    np.testing.assert_allclose(h, h.T, atol=0.0)
    t, d = spec.hopping, spec.dimerization
    allowed = {0.0, round(-t * (1 - d), 12), round(-t * (1 + d), 12)}
    assert set(np.round(h.ravel(), 12)) <= allowed
    assert np.array_equal(h, hamiltonian_loop(spec))
