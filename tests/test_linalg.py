import numpy as np
import pytest

from sshent import model
from sshent.linalg import BandedBlock, NumericalError, chiral_svd

from conftest import open_chain, two_defect_chain
from oracles import build_hamiltonian, eigh_symmetric, hopping_block, svd_chiral


def _cofactor_det(a):
    n = a.shape[0]
    if n == 1:
        return a[0, 0]
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * a[0, j] * _cofactor_det(minor)
    return total


def test_two_by_two():
    es = eigh_symmetric(np.array([[0.0, -2.0], [-2.0, 0.0]]))
    np.testing.assert_allclose(es.eigenvalues, [-2.0, 2.0], atol=1e-14)


def test_identity():
    es = eigh_symmetric(np.eye(7))
    np.testing.assert_allclose(es.eigenvalues, np.ones(7), atol=1e-14)
    assert es.orthonormality_defect() < 1e-12


def test_reconstruction_residual(rng):
    a = rng.standard_normal((50, 50))
    a = a + a.T
    es = eigh_symmetric(a)
    rebuilt = es.eigenvectors @ np.diag(es.eigenvalues) @ es.eigenvectors.T
    rel = np.linalg.norm(rebuilt - a) / np.linalg.norm(a)
    assert rel < 1e-10
    assert es.residual(a) < 1e-10 * np.max(np.abs(a))
    assert es.orthonormality_defect() < 1e-10
    assert np.all(np.diff(es.eigenvalues) >= 0.0)


def test_trace_preserved(rng):
    a = rng.standard_normal((30, 30))
    a = a + a.T
    es = eigh_symmetric(a)
    assert np.sum(es.eigenvalues) == pytest.approx(np.trace(a), rel=1e-10)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_determinant_vs_cofactor_expansion(rng, n):
    a = rng.standard_normal((n, n))
    a = a + a.T
    es = eigh_symmetric(a)
    det_eig = float(np.prod(es.eigenvalues))
    det_cof = _cofactor_det(a)
    assert det_eig == pytest.approx(det_cof, rel=1e-9)


def test_rejects_non_symmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        eigh_symmetric(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        eigh_symmetric(np.zeros((3, 2)))


def test_chiral_svd_reconstructs_the_block():
    spec = two_defect_chain(0.3, kinds=("one_site", "three_site"))
    block = hopping_block(spec)
    chiral = chiral_svd(block)
    s, u, v = chiral.singular_values, chiral.u, chiral.v
    assert np.all(np.diff(s) <= 0.0)
    np.testing.assert_allclose((u * s) @ v.T, block, atol=1e-13)
    for q in (u, v):
        assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) < 1e-13
    # the chiral spectrum: +-s are the eigenvalues of [[0, T], [T^T, 0]]
    w = eigh_symmetric(build_hamiltonian(spec)).eigenvalues
    np.testing.assert_allclose(np.sort(np.concatenate([-s, s])), w, atol=1e-13)


def test_chiral_svd_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        chiral_svd(np.zeros((3, 2)))


def test_chiral_svd_non_convergence_is_numerical_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    with pytest.raises(NumericalError, match="eigensolver did not converge"):
        chiral_svd(np.eye(3))


def _prescribed_block(singular_values, seed=7):
    """A dense block with the given singular values, between random
    orthogonal factors: several near-zero triples at different scales."""
    rng = np.random.default_rng(seed)
    n = len(singular_values)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return (q1 * np.asarray(singular_values, dtype=float)) @ q2.T


KIND_PAIRS = (("one_site", "one_site"), ("three_site", "three_site"), ("one_site", "three_site"))
TRIPLE_BLOCKS = {
    **{
        f"{a}-{b}-{delta:+g}": hopping_block(two_defect_chain(delta, (a, b)))
        for a, b in KIND_PAIRS
        for delta in (0.05, 0.1, 0.3, -0.3, 1.0)
    },
    "open": hopping_block(open_chain()),
    "open-one": hopping_block(open_chain(["one_site"])),
    "ring": hopping_block(model.ChainSpec(n_sites=400, dimerization=0.3)),
    "two-site-ring": hopping_block(model.ChainSpec(n_sites=2, dimerization=0.3)),
    "three-near-zero": _prescribed_block([3.0, 2.0, 1.0, 1e-6, 1e-9, 0.0]),
    "zero": np.zeros((3, 3)),
}


# the chains of TRIPLE_BLOCKS, handed to the solve as their two bands
BANDED_SPECS = {
    **{
        f"{a}-{b}-{delta:+g}": two_defect_chain(delta, (a, b))
        for a, b in KIND_PAIRS
        for delta in (0.05, 0.3, 1.0)
    },
    "open": open_chain(),
    "open-one": open_chain(["one_site"]),
    "ring": model.ChainSpec(n_sites=400, dimerization=0.3),
    "two-site-ring": model.ChainSpec(n_sites=2, dimerization=0.3),
    "four-site-ring": model.ChainSpec(n_sites=4, dimerization=0.3),
    "six-site-open": model.ChainSpec(n_sites=6, dimerization=-0.2, boundary="open"),
}


@pytest.mark.parametrize("name", [*TRIPLE_BLOCKS, *(f"banded-{k}" for k in BANDED_SPECS)])
def test_chiral_triples_match_svd_oracle(name):
    """The Gram-block triples against LAPACK's SVD: every singular value to
    1e-13 (the near-zero ones absolutely, never sqrt of a noisy eigenvalue),
    both singular relations and both orthonormalities to 1e-12.  Chains
    also go in as their two bands."""
    if name.startswith("banded-"):
        spec = BANDED_SPECS[name.removeprefix("banded-")]
        t, chiral = hopping_block(spec), chiral_svd(model.hopping_bands(spec))
    else:
        t = TRIPLE_BLOCKS[name]
        chiral = chiral_svd(t)
    s, u, v = chiral.singular_values, chiral.u, chiral.v
    want = svd_chiral(t).singular_values
    assert np.all(np.diff(s) <= 0.0)
    assert v.flags["C_CONTIGUOUS"]
    assert np.max(np.abs(s - want)) <= 1e-13
    for residual in (t @ v - u * s, t.T @ u - v * s):
        assert np.max(np.linalg.norm(residual, axis=0)) <= 1e-12
    for q in (u, v):
        assert np.max(np.abs(q.T @ q - np.eye(q.shape[1]))) <= 1e-12


@pytest.mark.parametrize("name", BANDED_SPECS)
def test_banded_products_match_dense(name):
    """The O(L) Gram block and row-shift product of the two bands agree with
    the dense GEMMs to rounding."""
    spec = BANDED_SPECS[name]
    bands = model.hopping_bands(spec)
    t = hopping_block(spec)
    np.testing.assert_allclose(bands.gram(), t.T @ t, rtol=0.0, atol=1e-15)
    v = np.random.default_rng(3).standard_normal((spec.n_cells, 5))
    np.testing.assert_allclose(bands @ v, t @ v, rtol=0.0, atol=1e-14)


def test_banded_block_non_convergence_is_numerical_error(monkeypatch):
    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", no_convergence)
    bands = BandedBlock(diag=np.full(4, -1.3), sub=np.full(4, -0.7))
    with pytest.raises(NumericalError, match="4x4 hopping block, scale 1.300e"):
        chiral_svd(bands)
