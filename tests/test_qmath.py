import numpy as np
import pytest

from chancap.errors import (
    DimensionTooLarge,
    DomainError,
    NonHermitian,
    NotADistribution,
    NotAState,
    ShapeMismatch,
)
from chancap.qmath import (
    HermitianSpectrum,
    binary_entropies,
    binary_entropy,
    hermitian_eig,
    partial_trace,
    shannon_entropy,
    tensor,
    trace_norm,
    von_neumann_entropy,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
PLUS = np.full((2, 2), 0.5, dtype=complex)


def test_eig_identity():
    spectrum = hermitian_eig(np.eye(2, dtype=complex))
    assert np.allclose(spectrum.eigenvalues, [1.0, 1.0])


def test_eig_diagonal():
    spectrum = hermitian_eig(np.diag([0.25, 0.75]).astype(complex))
    assert np.allclose(spectrum.eigenvalues, [0.25, 0.75])


def test_eig_bloch_x():
    # (I + 0.6 X)/2 has eigenvalues (1 +- 0.6)/2
    m = 0.5 * (np.eye(2) + 0.6 * X)
    spectrum = hermitian_eig(m)
    assert np.allclose(spectrum.eigenvalues, [0.2, 0.8], atol=1e-12)


def test_eig_reconstruction_and_orthonormality():
    rng = np.random.default_rng(5)
    g = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    m = (g + g.conj().T) / 2
    spectrum = hermitian_eig(m)
    assert isinstance(spectrum, HermitianSpectrum)
    assert np.abs(spectrum.reconstruct() - m).max() < 1e-10
    gram = spectrum.eigenvectors.conj().T @ spectrum.eigenvectors
    assert np.abs(gram - np.eye(8)).max() < 1e-10
    assert np.all(np.diff(spectrum.eigenvalues) >= 0)


def test_eig_rejects_non_hermitian():
    with pytest.raises(NonHermitian):
        hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))


def test_eig_rejects_large_dimension():
    with pytest.raises(DimensionTooLarge):
        hermitian_eig(np.eye(17, dtype=complex))


def test_eig_rejects_rectangular():
    with pytest.raises(ShapeMismatch):
        hermitian_eig(np.zeros((2, 3), dtype=complex))


def test_von_neumann_entropy_pure_and_mixed():
    assert von_neumann_entropy(np.diag([1.0, 0.0]).astype(complex)) == 0.0
    assert abs(von_neumann_entropy(np.eye(2, dtype=complex) / 2) - 1.0) < 1e-12
    assert abs(von_neumann_entropy(np.diag([0.25, 0.75]).astype(complex)) - 0.811278) < 1e-6


def test_von_neumann_entropy_rejects_non_states():
    with pytest.raises(NotAState):
        von_neumann_entropy(np.diag([0.5, 0.6]).astype(complex))  # trace 1.1
    with pytest.raises(NotAState):
        von_neumann_entropy(np.diag([1.5, -0.5]).astype(complex))  # negative eigenvalue


def test_von_neumann_entropy_clamps_roundoff():
    rho = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
    assert von_neumann_entropy(rho) >= 0.0


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.1) - 0.468996) < 1e-6
    # cross-check against the eigenvalue route
    assert abs(binary_entropy(0.1) - von_neumann_entropy(np.diag([0.1, 0.9]).astype(complex))) < 1e-12


def test_binary_entropies_match_scalar_bitwise():
    rng = np.random.default_rng(5)
    grid = np.concatenate([
        [0.0, 1.0, 5e-324, 1.0 - 2.0**-53, 0.5, 2.0**-53, 1e-300],
        np.linspace(0.0, 1.0, 1001),
        rng.random(1000),
        10.0 ** rng.uniform(-320.0, 0.0, 1000),
    ])
    batched = binary_entropies(grid).tolist()
    scalar = [binary_entropy(v) for v in grid.tolist()]
    # float.hex tells -0.0 from 0.0, so this is equality bit for bit
    assert [v.hex() for v in batched] == [v.hex() for v in scalar]
    for bad in ([0.5, -0.01], [1.01], [np.nan]):
        with pytest.raises(DomainError):
            binary_entropies(np.array(bad))


def test_binary_entropy_domain():
    with pytest.raises(DomainError):
        binary_entropy(-0.01)
    with pytest.raises(DomainError):
        binary_entropy(1.01)


def test_binary_entropy_tiny_argument_keeps_both_terms():
    p = 1e-24
    expected = -p * np.log2(p) + p / np.log(2.0)  # second term to first order
    assert abs(binary_entropy(p) - expected) / expected < 1e-9


def test_shannon_entropy_values():
    assert shannon_entropy([1.0, 0.0, 0.0]) == 0.0
    assert abs(shannon_entropy([0.25] * 4) - 2.0) < 1e-12
    assert abs(shannon_entropy([0.3, 0.7]) - 0.881291) < 1e-6


def test_shannon_entropy_rejects_bad_distributions():
    with pytest.raises(NotADistribution):
        shannon_entropy([0.5, 0.4])
    with pytest.raises(NotADistribution):
        shannon_entropy([1.2, -0.2])


def test_trace_norm_examples():
    rho = np.diag([0.3, 0.7]).astype(complex)
    assert abs(trace_norm(rho) - 1.0) < 1e-12
    assert trace_norm(np.zeros((3, 3), dtype=complex)) == 0.0
    # difference of the two conditional projectors at p = 1/2
    a = np.sqrt(0.5)
    phi0 = np.array([a, a])
    phi1 = np.array([a, -a])
    diff = np.outer(phi1, phi1) - np.outer(phi0, phi0)
    assert abs(trace_norm(diff) - 2.0) < 1e-12
    with pytest.raises(DimensionTooLarge):
        trace_norm(np.eye(17))


def test_trace_norm_dominates_trace():
    rng = np.random.default_rng(6)
    for _ in range(50):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert trace_norm(m) >= abs(np.trace(m)) - 1e-12


def test_partial_trace_maximally_entangled():
    v = np.zeros(4, dtype=complex)
    v[0] = v[3] = 1 / np.sqrt(2)
    rho = np.outer(v, v.conj())
    marg = partial_trace(rho, (2, 2), "second")
    assert np.abs(marg - np.eye(2) / 2).max() < 1e-12


def test_partial_trace_factorizes():
    rng = np.random.default_rng(7)
    g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    sigma = g @ g.conj().T
    sigma /= np.trace(sigma).real
    prod = tensor(rho, sigma)
    assert np.abs(partial_trace(prod, (2, 3), "second") - rho).max() < 1e-12
    assert np.abs(partial_trace(prod, (2, 3), "first") - sigma).max() < 1e-12
    assert abs(np.trace(partial_trace(prod, (2, 3), "first")) - 1.0) < 1e-12


def test_partial_trace_shape_errors():
    with pytest.raises(ShapeMismatch):
        partial_trace(np.eye(6), (2, 2), "first")
    with pytest.raises(ShapeMismatch):
        partial_trace(np.eye(4), (2, 2), "third")


def test_tensor_identity():
    assert np.array_equal(tensor(np.eye(2), np.eye(2)), np.eye(4))
