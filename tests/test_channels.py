import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancap import capacity as cap
from chancap import channels as chn
from chancap.errors import DimensionTooLarge, DomainError, NonHermitian, NotAState, ShapeMismatch
from chancap.qmath import binary_entropy, von_neumann_entropy
from chancap.sampling import random_density_matrix

PI = np.eye(2, dtype=complex) / 2
PLUS = np.full((2, 2), 0.5, dtype=complex)


def test_density_matrix_validation():
    chn.DensityMatrix(PI)
    with pytest.raises(NotAState):
        chn.DensityMatrix(np.diag([0.7, 0.4]).astype(complex))
    with pytest.raises(NotAState):
        chn.DensityMatrix(np.array([[1.2, 0], [0, -0.2]], dtype=complex))


def test_pure_state_validation():
    s = chn.PureState(np.array([1.0, 0.0]))
    assert s.dim == 2
    assert np.abs(s.projector() - np.diag([1.0, 0.0])).max() == 0.0
    with pytest.raises(NotAState):
        chn.PureState(np.array([1.0, 1.0]))


def test_kraus_channel_completeness_enforced():
    with pytest.raises(NotAState):
        chn.KrausChannel(2, 2, (0.9 * np.eye(2, dtype=complex),))


def test_kraus_channel_block_checks():
    straddler = np.array([[1, 0], [0, 0], [0, 1]], dtype=complex)
    with pytest.raises(ShapeMismatch):
        chn.KrausChannel(2, 3, (straddler,), blocks=((0, 1), (1, 2)))
    with pytest.raises(ShapeMismatch):
        chn.erasure_channel(0.3).blocks and chn.KrausChannel(
            2, 3, chn.erasure_channel(0.3).kraus, blocks=((0, 2),)
        )


@settings(derandomize=True, deadline=None, max_examples=150)
@given(lam=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0))
@example(lam=0.0, p=0.0)
@example(lam=0.0, p=0.5)
@example(lam=0.0, p=1.0)
@example(lam=0.5, p=0.0)
@example(lam=0.5, p=0.5)
@example(lam=0.5, p=1.0)
@example(lam=1.0, p=0.0)
@example(lam=1.0, p=0.5)
@example(lam=1.0, p=1.0)
@example(lam=0.0, p=5e-324)
@example(lam=0.5, p=5e-324)
@example(lam=1.0, p=5e-324)
def test_closed_form_channels_pass_the_full_check(lam, p):
    # channel_N, complement_N and comparison_channel_T skip __post_init__;
    # rebuilding their Kraus lists through it must succeed everywhere
    for make in (chn.channel_N, chn.complement_N, chn.comparison_channel_T):
        fast = make(lam, p)
        checked = chn.KrausChannel(fast.dim_in, fast.dim_out, fast.kraus, blocks=fast.blocks)
        assert checked.blocks == fast.blocks
        assert all(
            a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(checked.kraus, fast.kraus)
        )
        comp = sum(k.conj().T @ k for k in checked.kraus)
        assert np.abs(comp - np.eye(checked.dim_in)).max() <= 1e-10
        assert checked.superoperator.tobytes() == fast.superoperator.tobytes()


def test_closed_form_channels_check_their_parameters():
    with pytest.raises(DomainError):
        chn.channel_N(float("nan"), 0.2)
    with pytest.raises(DomainError):
        chn.complement_N(0.3, 1.5)
    with pytest.raises(DomainError):
        chn.comparison_channel_T(-0.1, 0.2)


def test_superoperator_is_computed_once_per_channel():
    n, nb = chn.channel_N(0.3, 0.2), chn.complement_N(0.3, 0.2)
    s = n.superoperator
    assert s.shape == (16, 4) and not s.flags.writeable
    chn.apply(n, PI)
    chn.apply_with_reference(n, np.eye(4, dtype=complex) / 4, 2)
    chn.choi(n)
    chn.channel_distance(n, chn.comparison_channel_T(0.3, 0.2))
    cap.coherent_information(n, nb, PI)
    cap.ic_conjugation_residual(0.3, 0.2, PI)
    assert n.superoperator is s
    again = chn.channel_N(0.3, 0.2)
    assert again.superoperator is not s and np.array_equal(again.superoperator, s)


def test_stacked_states_apply_as_alone():
    # one vector-matrix product per state: a state's output is the same to
    # the bit in a stack of 50 as alone
    rng = np.random.default_rng(34)
    for lam, p in ((0.3, 0.2), (0.5, 0.5), (0.8, 5e-324), (1.0, 0.9)):
        stack = np.stack([random_density_matrix(rng, 2) for _ in range(50)])
        n, t = chn.channel_N(lam, p), chn.comparison_channel_T(lam, p)
        for ch in (n, chn.complement_N(lam, p)):
            out = chn._apply_stack(ch.superoperator, stack)
            assert all(np.array_equal(out[i], chn.apply(ch, stack[i]).matrix) for i in range(50))
        diff = n.superoperator - t.superoperator
        out = chn._apply_stack(diff, stack)
        assert all(np.array_equal(out[i], chn._apply_stack(diff, stack[i])) for i in range(50))


def test_dephasing_examples():
    ident = chn.dephasing_channel(0.0)
    rho = random_density_matrix(np.random.default_rng(1), 2)
    assert np.abs(chn.apply(ident, rho).matrix - rho).max() < 1e-12

    out = chn.apply(chn.dephasing_channel(0.5), PLUS)
    assert np.abs(out.matrix - PI).max() < 1e-12

    diag = np.diag([0.3, 0.7]).astype(complex)
    assert np.abs(chn.apply(chn.dephasing_channel(0.3), diag).matrix - diag).max() < 1e-12

    with pytest.raises(DomainError):
        chn.dephasing_channel(1.5)


def test_complementary_dephasing_examples():
    p = 0.3
    phi0, phi1 = chn.phi_states(p)
    ch = chn.complementary_dephasing(p)
    out = chn.apply(ch, np.diag([1.0, 0.0]).astype(complex))
    assert np.abs(out.matrix - np.outer(phi0, phi0.conj())).max() < 1e-12

    # p = 0 collapses everything onto |0><0|
    out0 = chn.apply(chn.complementary_dephasing(0.0), PLUS)
    assert np.abs(out0.matrix - np.diag([1.0, 0.0])).max() < 1e-12

    # the maximally mixed input lands on diag(1-p, p)
    outpi = chn.apply(ch, PI)
    assert np.abs(outpi.matrix - np.diag([1 - p, p])).max() < 1e-12
    # equivalently (phi0 phi0^dag + phi1 phi1^dag)/2
    direct = 0.5 * (np.outer(phi0, phi0.conj()) + np.outer(phi1, phi1.conj()))
    assert np.abs(outpi.matrix - direct).max() < 1e-12


def test_channel_N_block_layout():
    p = 0.2
    out = chn.apply(chn.channel_N(0.5, p), PI).matrix
    assert np.allclose(np.diag(out).real, [0.25, 0.25, 0.5 * (1 - p), 0.5 * p])

    # lam = 0: identity into block {0,1}
    rho = random_density_matrix(np.random.default_rng(2), 2)
    out0 = chn.apply(chn.channel_N(0.0, p), rho).matrix
    assert np.abs(out0[:2, :2] - rho).max() < 1e-12
    assert np.abs(out0[2:, 2:]).max() < 1e-12

    # lam = 1: dephasing complement into block {2,3}
    out1 = chn.apply(chn.channel_N(1.0, p), rho).matrix
    ref = chn.apply(chn.complementary_dephasing(p), rho).matrix
    assert np.abs(out1[2:, 2:] - ref).max() < 1e-12
    assert np.abs(out1[:2, :2]).max() < 1e-12


def test_complement_N_block_layout():
    out = chn.apply(chn.complement_N(0.5, 0.5), PI).matrix
    assert np.allclose(np.diag(out).real, [0.5, 0.25, 0.25])

    rho = random_density_matrix(np.random.default_rng(3), 2)
    out1 = chn.apply(chn.complement_N(1.0, 0.3), rho).matrix
    ref = chn.apply(chn.dephasing_channel(0.3), rho).matrix
    assert np.abs(out1[1:, 1:] - ref).max() < 1e-12

    out0 = chn.apply(chn.complement_N(0.0, 0.3), rho).matrix
    assert np.abs(out0 - np.diag([1.0, 0.0, 0.0])).max() < 1e-12


def test_isometry_consistency():
    for lam, p in [(0.0, 0.5), (0.3, 0.2), (1.0, 0.8), (0.6, 0.0)]:
        v = chn.isometry_N(lam, p)
        assert np.abs(v.matrix.conj().T @ v.matrix - np.eye(2)).max() < 1e-12
        keep_b = chn.channel_from_isometry(v, (4, 3), "first")
        keep_c = chn.channel_from_isometry(v, (4, 3), "second")
        assert chn.channel_distance(keep_b, chn.channel_N(lam, p)) < 1e-10
        assert chn.channel_distance(keep_c, chn.complement_N(lam, p)) < 1e-10


def test_comparison_channel_T():
    rho = np.diag([0.0, 1.0]).astype(complex)
    out = chn.apply(chn.comparison_channel_T(1.0, 0.3), rho).matrix
    phi0, _ = chn.phi_states(0.3)
    assert np.abs(out[2:, 2:] - np.outer(phi0, phi0.conj())).max() < 1e-12

    lam = 0.6
    out_pi = chn.apply(chn.comparison_channel_T(lam, 0.3), PI).matrix
    assert np.allclose(np.diag(out_pi)[:2].real, [0.2, 0.2])
    assert np.abs(out_pi[2:, 2:] - lam * np.outer(phi0, phi0.conj())).max() < 1e-12

    ident = chn.apply(chn.comparison_channel_T(0.0, 0.3), PI).matrix
    assert np.abs(ident[:2, :2] - PI).max() < 1e-12


def test_erasure_channel():
    rho = random_density_matrix(np.random.default_rng(4), 2)
    out0 = chn.apply(chn.erasure_channel(0.0), rho).matrix
    assert np.abs(out0[:2, :2] - rho).max() < 1e-12
    out1 = chn.apply(chn.erasure_channel(1.0), rho).matrix
    assert np.abs(out1 - np.diag([0.0, 0.0, 1.0])).max() < 1e-12
    outh = chn.apply(chn.erasure_channel(0.5), PI).matrix
    assert np.allclose(np.diag(outh).real, [0.25, 0.25, 0.5])


def test_apply_validates():
    with pytest.raises(ShapeMismatch):
        chn.apply(chn.channel_N(0.5, 0.5), np.eye(3) / 3)
    with pytest.raises(NotAState):
        chn.apply(chn.dephasing_channel(0.1), np.diag([0.9, 0.4]))


def test_apply_with_reference_trace():
    phi = chn.maximally_entangled(2)
    out = chn.apply_with_reference(chn.channel_N(0.4, 0.3), phi.projector(), 2)
    assert abs(np.trace(out.matrix).real - 1.0) < 1e-12
    assert out.dim == 8


def test_apply_with_reference_validates_input():
    n = chn.channel_N(0.4, 0.3)
    with pytest.raises(NotAState):
        chn.apply_with_reference(n, np.diag([1.2, -0.2, 0.0, 0.0]), 2)
    asymmetric = np.eye(4, dtype=complex) / 4
    asymmetric[0, 1] = 0.1
    with pytest.raises(NonHermitian):
        chn.apply_with_reference(n, asymmetric, 2)
    for dim_ref in (0, -1, 2.0):
        with pytest.raises(ShapeMismatch):
            chn.apply_with_reference(n, np.eye(4, dtype=complex) / 4, dim_ref)


def test_outputs_above_dimension_16_are_rejected():
    # outputs are not re-checked, so their dimension is checked up front
    with pytest.raises(DimensionTooLarge):
        chn.apply_with_reference(chn.channel_N(0.4, 0.3), np.eye(10, dtype=complex) / 10, 5)
    wide = chn.KrausChannel(1, 17, (chn.ket(0, 17)[:, None],))
    with pytest.raises(DimensionTooLarge):
        chn.apply(wide, np.eye(1, dtype=complex))


def test_choi_examples():
    ident = chn.KrausChannel(2, 2, (np.eye(2, dtype=complex),))
    c = chn.choi(ident)
    assert np.abs(c.state.matrix - chn.maximally_entangled(2).projector()).max() < 1e-12

    # constant channel: Choi is pi (x) flag
    const = chn.KrausChannel(
        2,
        2,
        (
            np.outer(chn.ket(0, 2), chn.ket(0, 2).conj()),
            np.outer(chn.ket(0, 2), chn.ket(1, 2).conj()),
        ),
    )
    c2 = chn.choi(const)
    expected = np.kron(PI, np.diag([1.0, 0.0]))
    assert np.abs(c2.state.matrix - expected).max() < 1e-12


def test_choi_separates_channels():
    a = chn.channel_N(0.3, 0.2)
    b = chn.channel_N(0.3, 0.2000001)
    assert chn.channel_distance(a, a) == 0.0
    assert chn.channel_distance(a, b) > 0.0


def test_entropy_decompositions():
    rng = np.random.default_rng(8)
    for _ in range(20):
        lam, p = rng.uniform(0, 1, size=2)
        rho = random_density_matrix(rng, 2)
        h_out = chn.apply(chn.channel_N(lam, p), rho).entropy()
        h_dbar = chn.apply(chn.complementary_dephasing(p), rho).entropy()
        expected = binary_entropy(lam) + lam * h_dbar + (1 - lam) * von_neumann_entropy(rho)
        assert abs(h_out - expected) < 1e-10

        h_env = chn.apply(chn.complement_N(lam, p), rho).entropy()
        h_d = chn.apply(chn.dephasing_channel(p), rho).entropy()
        assert abs(h_env - (binary_entropy(lam) + lam * h_d)) < 1e-10
