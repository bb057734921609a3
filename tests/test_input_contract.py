"""The validated single-state path: equal bytes to its former bodies, and the input contract.

The ``_old_*`` functions below are copies of the bodies that the validation
and entropy kernels, the glued-family constructors and the Pauli-conjugation
stack had before they were rewritten in fewer numpy calls.  The properties
require the current code to give the same bytes on every output, except the
checked entropies: they now sum each full row, and ``_assert_near_old_entropy``
bounds how far that moved them from the former positive-only sum.
"""

import re
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancap import capacity as cap
from chancap import channels as chn
from chancap import qmath
from chancap import verify
from chancap import wiretap as wt
from chancap.errors import (
    DimensionTooLarge,
    DomainError,
    NonHermitian,
    NotADistribution,
    NotAState,
    ShapeMismatch,
)

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# ---------------------------------------------------------------------------
# former bodies


def _old_checked_hermitian(m):
    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    d = a.shape[0]
    if d > qmath.MAX_DIM:
        raise DimensionTooLarge(f"dimension {d} exceeds the supported maximum {qmath.MAX_DIM}")
    if not np.all(np.isfinite(a.view(float))):
        raise NonHermitian("matrix has non-finite entries")
    asym = np.abs(a - a.conj().T).max()
    if asym > qmath.HERMITIAN_TOL:
        raise NonHermitian(f"symmetry residual {asym:.3e} exceeds {qmath.HERMITIAN_TOL:.0e}")
    return a


def _old_hermitian_eig(m):
    a = _old_checked_hermitian(m)
    return np.linalg.eigh((a + a.conj().T) / 2)


def _old_state_eigenvalues(rho):
    a = _old_checked_hermitian(rho)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > qmath.TRACE_TOL:
        raise NotAState(f"trace {tr!r} is not 1 within {qmath.TRACE_TOL:.0e}")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if w[0] < qmath.STATE_EIG_FLOOR:
        raise NotAState(f"smallest eigenvalue {w[0]:.3e} below {qmath.STATE_EIG_FLOOR:.0e}")
    return np.clip(w, 0.0, None)


def _old_entropy_bits(weights):
    w = weights[weights > 0.0]
    if w.size == 0:
        return 0.0
    return float(max(0.0, -np.sum(w * np.log2(w))))


def _old_entropies_bits(stack):
    w = np.clip(np.linalg.eigvalsh(stack), 0.0, None)
    logs = np.log2(np.where(w > 0.0, w, 1.0))
    return -(w * logs).sum(axis=-1)


def _row_bits(w):
    """The entropy sum of ``_old_entropies_bits`` over one full row of weights >= 0."""
    return float(-(w * np.log2(np.where(w > 0.0, w, 1.0))).sum())


def _assert_near_old_entropy(value, w):
    """``value``, the entropy of weights ``w`` (d,), equals the positive-only
    sum bit for bit for d <= 7 and lies within 2 ulp of it otherwise; the ulp
    is that of the sum of the terms' magnitudes."""
    old = _old_entropy_bits(w)
    if w.size <= 7:
        assert value.hex() == old.hex()
    else:
        pos = w[w > 0.0]
        assert abs(value - old) <= 2 * np.spacing(np.abs(pos * np.log2(pos)).sum())


def _ket(index, dim):
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def _embed(op, row_offset, rows_total):
    out = np.zeros((rows_total, op.shape[1]), dtype=complex)
    out[row_offset : row_offset + op.shape[0]] = op
    return out


def _old_phi_states(p):
    p = qmath.check_prob("p", p)
    a, b = np.sqrt(1.0 - p), np.sqrt(p)
    return np.array([a, b], dtype=complex), np.array([a, -b], dtype=complex)


def _old_channel_N(lam, p):
    phi0, phi1 = _old_phi_states(p)
    return (
        np.sqrt(1.0 - lam) * _embed(I2, 0, 4),
        np.sqrt(lam) * _embed(np.outer(phi0, _ket(0, 2).conj()), 2, 4),
        np.sqrt(lam) * _embed(np.outer(phi1, _ket(1, 2).conj()), 2, 4),
    )


def _old_complement_N(lam, p):
    flag = _ket(0, 3)
    return (
        np.sqrt(1.0 - lam) * np.outer(flag, _ket(0, 2).conj()),
        np.sqrt(1.0 - lam) * np.outer(flag, _ket(1, 2).conj()),
        np.sqrt(lam) * _embed(np.sqrt(1.0 - p) * I2, 1, 3),
        np.sqrt(lam) * _embed(np.sqrt(p) * PAULI_Z, 1, 3),
    )


def _old_comparison_channel_T(lam, p):
    phi0, _ = _old_phi_states(p)
    return (
        np.sqrt(1.0 - lam) * _embed(I2, 0, 4),
        np.sqrt(lam) * _embed(np.outer(phi0, _ket(0, 2).conj()), 2, 4),
        np.sqrt(lam) * _embed(np.outer(phi0, _ket(1, 2).conj()), 2, 4),
    )


def _old_conjugation_stack(m):
    return np.stack([m, PAULI_Z @ m @ PAULI_Z, PAULI_X @ m @ PAULI_X])


# ---------------------------------------------------------------------------
# the new code gives the former bytes


def _state(kind: str, dim: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind == "diagonal":
        w = rng.random(dim)
        return np.diag(w / w.sum()).astype(complex)
    rank = {"mixed": dim, "pure": 1, "rank_deficient": max(1, dim // 2)}[kind]
    g = rng.normal(size=(dim, rank)) + 1j * rng.normal(size=(dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


KINDS = ("mixed", "pure", "diagonal", "rank_deficient")


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    kind=st.sampled_from(KINDS),
    dim=st.integers(2, 16),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="diagonal", dim=2, seed=0)
@example(kind="pure", dim=16, seed=1)
@example(kind="rank_deficient", dim=16, seed=2)
def test_state_kernels_give_the_former_bytes(kind, dim, seed):
    rho = _state(kind, dim, seed)
    a, ah = qmath._checked_hermitian(qmath._as_matrix(rho))
    assert a.tobytes() == _old_checked_hermitian(rho).tobytes()
    assert ah.tobytes() == np.ascontiguousarray(a.conj().T).tobytes()
    w = qmath.state_eigenvalues(rho)
    assert w.tobytes() == _old_state_eigenvalues(rho).tobytes()
    assert float(qmath._entropy_bits(w)).hex() == _row_bits(w).hex()
    entropy = qmath.von_neumann_entropy(rho)
    assert entropy.hex() == max(0.0, _row_bits(_old_state_eigenvalues(rho))).hex()
    _assert_near_old_entropy(entropy, _old_state_eigenvalues(rho))
    spectrum = qmath.hermitian_eig(rho)
    w_old, v_old = _old_hermitian_eig(rho)
    assert spectrum.eigenvalues.tobytes() == w_old.tobytes()
    assert spectrum.eigenvectors.tobytes() == v_old.tobytes()
    stack = np.stack([rho, _state("mixed", dim, seed + 1), _state("pure", dim, seed + 2)])
    assert qmath.entropies_bits(stack).tobytes() == _old_entropies_bits(stack).tobytes()
    dist = np.diagonal(_state("diagonal", dim, seed)).real
    shannon = qmath.shannon_entropy(dist)
    assert shannon.hex() == max(0.0, _row_bits(np.clip(dist, 0.0, None))).hex()
    _assert_near_old_entropy(shannon, np.clip(dist, 0.0, None))


EDGES = (0.0, 0.5, 1.0, 5e-324, -0.0)


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    lam=st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0)),
    p=st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0)),
)
@example(lam=0.0, p=5e-324)
@example(lam=1.0, p=1.0)
@example(lam=-0.0, p=-0.0)
def test_glued_constructors_give_the_former_bytes(lam, p):
    for make, old in (
        (chn.channel_N, _old_channel_N),
        (chn.complement_N, _old_complement_N),
        (chn.comparison_channel_T, _old_comparison_channel_T),
    ):
        ch = make(lam, p)
        old_kraus = old(lam, p)
        assert len(ch.kraus) == len(old_kraus)
        for k, k_old in zip(ch.kraus, old_kraus):
            assert k.dtype == k_old.dtype and k.shape == k_old.shape
            assert k.tobytes() == k_old.tobytes()
        old_superop = np.einsum("aij,alk->iljk", np.stack(old_kraus), np.stack(old_kraus).conj())
        assert ch.superoperator.tobytes() == old_superop.reshape(ch.superoperator.shape).tobytes()


def _old_dephasing_channel(p):
    p = qmath.check_prob("p", p)
    return chn.KrausChannel(2, 2, (np.sqrt(1.0 - p) * I2, np.sqrt(p) * PAULI_Z))


def _old_complementary_dephasing(p):
    phi0, phi1 = _old_phi_states(p)
    kraus = (np.outer(phi0, _ket(0, 2).conj()), np.outer(phi1, _ket(1, 2).conj()))
    return chn.KrausChannel(2, 2, kraus)


def _old_erasure_channel(lam):
    lam = qmath.check_prob("lambda", lam)
    flag = _ket(2, 3)
    kraus = (
        np.sqrt(1.0 - lam) * _embed(I2, 0, 3),
        np.sqrt(lam) * np.outer(flag, _ket(0, 2).conj()),
        np.sqrt(lam) * np.outer(flag, _ket(1, 2).conj()),
    )
    return chn.KrausChannel(2, 3, kraus, blocks=((0, 2), (2, 1)))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(x=st.one_of(st.sampled_from(EDGES), st.floats(0.0, 1.0)))
@example(x=-0.0)
@example(x=5e-324)
@example(x=1.0 - 2.0**-53)
def test_fixed_closed_form_channels_match_the_checked_constructor(x):
    # built unchecked from their closed forms, to the bytes of the checked
    # KrausChannel of the former per-operator formulas
    for make, old in (
        (chn.dephasing_channel, _old_dephasing_channel),
        (chn.complementary_dephasing, _old_complementary_dephasing),
        (chn.erasure_channel, _old_erasure_channel),
    ):
        ch, ref = make(x), old(x)
        assert (ch.dim_in, ch.dim_out, ch.blocks) == (ref.dim_in, ref.dim_out, ref.blocks)
        assert len(ch.kraus) == len(ref.kraus)
        for k, k_ref in zip(ch.kraus, ref.kraus):
            assert k.dtype == k_ref.dtype and k.shape == k_ref.shape
            assert k.tobytes() == k_ref.tobytes()
        assert ch.superoperator.tobytes() == ref.superoperator.tobytes()


def _old_conjugation_residual(lam, p, rho):
    n, nb = chn.channel_N(lam, p), chn.complement_N(lam, p)
    base, z, x = cap._ic_stack(n, nb, _old_conjugation_stack(rho))
    return float(abs(base - z)), float(abs(base - x))


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    kind=st.sampled_from(KINDS),
    seed=st.integers(0, 2**32 - 1),
    lam=st.one_of(st.sampled_from(EDGES[:4]), st.floats(0.0, 1.0)),
    p=st.one_of(st.sampled_from(EDGES[:4]), st.floats(0.0, 1.0)),
)
def test_conjugation_residual_gives_the_former_bytes(kind, seed, lam, p):
    rho = _state(kind, 2, seed)
    new = cap.ic_conjugation_residual(lam, p, rho)
    assert [v.hex() for v in new] == [v.hex() for v in _old_conjugation_residual(lam, p, rho)]


# states holding -0.0 parts (-0.5j is complex(-0.0, -0.5)), where the sign
# flips keep a -0.0 that the matrix products, whose zero signs follow the
# BLAS kernel, may turn into 0.0; the residuals must not see the difference
SIGNED_ZERO_STATES = (
    np.array([[0.5, -0.5j], [0.5j, 0.5]]),
    np.array([[0.5, complex(-0.0, 0.0)], [0.0, 0.5]]),
    np.array([[0.5, complex(0.0, -0.0)], [complex(-0.0, -0.0), 0.5]]),
    np.array([[complex(0.7, -0.0), complex(0.3, -0.0)], [0.3, 0.3]]),
)


@pytest.mark.parametrize("rho", SIGNED_ZERO_STATES)
def test_conjugation_residual_on_signed_zero_entries(rho):
    for lam, p in ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.3, 0.2), (1.0, 0.0), (0.5, 5e-324)):
        new = cap.ic_conjugation_residual(lam, p, rho)
        old = _old_conjugation_residual(lam, p, rho)
        assert [v.hex() for v in new] == [v.hex() for v in old]


# ---------------------------------------------------------------------------
# the stacked kernels: row k of a stack gives the bytes of the single call on
# matrix k, whatever the stack around it


STACK_SIZES = (1, 3, 257)


@pytest.mark.parametrize("dim", range(2, 17))
@pytest.mark.parametrize("kind", KINDS)
def test_stacked_kernel_rows_equal_the_single_calls(kind, dim):
    states = [_state(kind, dim, 1000 * dim + k) for k in range(max(STACK_SIZES))]
    rng = np.random.default_rng(dim)
    shape = (len(states), dim, dim)
    general = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    spectra = [qmath.hermitian_eig(m) for m in states]
    singles = {
        "eigenvalues": np.stack([s.eigenvalues for s in spectra]),
        "eigenvectors": np.stack([s.eigenvectors for s in spectra]),
        "reconstruct": np.stack([s.reconstruct() for s in spectra]),
        "state_eigenvalues": np.stack([qmath.state_eigenvalues(m) for m in states]),
        "von_neumann": np.array([qmath.von_neumann_entropy(m) for m in states]),
        "trace_norm": np.array([qmath.trace_norm(m) for m in states]),
        "trace_norm_general": np.array([qmath.trace_norm(m) for m in general]),
    }
    factors = [(da, dim // da) for da in range(2, dim) if dim % da == 0]
    for dims, side in product(factors, ("first", "second")):
        singles[dims, side] = np.stack([qmath.partial_trace(m, dims, side) for m in general])
    for n in STACK_SIZES:
        stack = np.stack(states[:n])
        spectrum = STACKED["hermitian_eig"][0](stack)
        stacked = {
            "eigenvalues": spectrum.eigenvalues,
            "eigenvectors": spectrum.eigenvectors,
            "reconstruct": spectrum.reconstruct(),
            "state_eigenvalues": STACKED["state_eigenvalues"][0](stack),
            "von_neumann": STACKED["von_neumann_entropy"][0](stack),
            "trace_norm": STACKED["trace_norm"][0](stack),
            "trace_norm_general": STACKED["trace_norm"][0](general[:n]),
        }
        for dims, side in product(factors, ("first", "second")):
            stacked[dims, side] = qmath._partial_traces(general[:n], dims, side)
        for key, rows in stacked.items():
            assert rows.tobytes() == singles[key][:n].tobytes(), (key, n)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    rows=st.integers(1, 40),
    dim=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
)
def test_entropy_rows_equal_entropy_bits_of_each_row(rows, dim, seed):
    # the kernel on a stack (k, d) against the kernel on each row, for rows
    # holding zeros of both signs, the smallest subnormal and 1.0; weights
    # below 0 never reach it, as every caller clamps them
    rng = np.random.default_rng(seed)
    w = rng.dirichlet(np.ones(dim), size=rows)
    specials = np.array([0.0, -0.0, 5e-324, 1.0])
    hit = rng.random(w.shape) < rng.random()
    w[hit] = rng.choice(specials, size=hit.sum())
    got = qmath._entropy_bits(w)
    assert got.tobytes() == np.array([qmath._entropy_bits(row) for row in w]).tobytes()


CONJUGATION_POINTS = [*product((0.0, 0.5, 1.0), repeat=2), (0.5, 5e-324),
                      *np.random.default_rng(19).uniform(0.0, 1.0, size=(6, 2)).tolist()]


@pytest.mark.parametrize("lam, p", CONJUGATION_POINTS)
def test_conjugation_kernel_rows_equal_the_single_calls(lam, p):
    states = [*SIGNED_ZERO_STATES, *(_state(kind, 2, seed) for kind in KINDS for seed in range(64))]
    n, nb = chn.channel_N(lam, p), chn.complement_N(lam, p)
    singles = np.array([cap.ic_conjugation_residual(lam, p, rho) for rho in states])
    for size in (1, 3, len(states)):
        dz, dx = cap._conjugation_residuals(n, nb, np.stack(states[:size]))
        assert dz.tobytes() == singles[:size, 0].copy().tobytes()
        assert dx.tobytes() == singles[:size, 1].copy().tobytes()


# ---------------------------------------------------------------------------
# reject paths: the former error type and message, and no warning


def _bad(kind: str) -> np.ndarray:
    m = np.eye(2, dtype=complex) / 2
    if kind == "nan":
        m[0, 1] = np.nan
    elif kind == "nan_imag":
        m[1, 0] = complex(0.0, np.nan)
    elif kind == "inf":
        m[1, 1] = np.inf
    elif kind == "-inf":
        m[0, 0] = -np.inf
    elif kind == "asymmetric":
        m[0, 1] = 1e-6
    elif kind == "trace":
        m = 1.1 * m
    elif kind == "negative_eigenvalue":
        m = np.diag([1.05, -0.05]).astype(complex)
    elif kind == "overflow":  # m + m^dag overflows; m/2 + m^dag/2 does not
        m = np.array([[0.5, 1e308], [1e308, 0.5]], dtype=complex)
    elif kind == "17x17":
        m = np.eye(17, dtype=complex) / 17
    elif kind == "0x0":
        m = np.zeros((0, 0), dtype=complex)
    elif kind == "non_square":
        m = np.ones((2, 3), dtype=complex) / 2
    elif kind == "3d":
        m = np.stack([m, m])
    elif kind == "non_numeric":
        m = [[0.5, "x"], [0.0, 0.5]]
    elif kind == "ragged":
        m = [[0.5, 0.0], [0.5]]
    elif kind == "numeric_strings":
        m = [["0.5", "0"], ["0", "0.5"]]
    return m


_N, _NB = chn.channel_N(0.3, 0.2), chn.complement_N(0.3, 0.2)
ENTRIES = {
    "von_neumann_entropy": qmath.von_neumann_entropy,
    "state_eigenvalues": qmath.state_eigenvalues,
    "hermitian_eig": qmath.hermitian_eig,
    "DensityMatrix": chn.DensityMatrix,
    "coherent_information": lambda m: cap.coherent_information(_N, _NB, m),
    "apply": lambda m: chn.apply(_N, m),
    "apply_with_reference": lambda m: chn.apply_with_reference(_N, m, 1),
    "ic_conjugation_residual": lambda m: cap.ic_conjugation_residual(0.3, 0.2, m),
    "coherent_information_state": lambda m: cap.coherent_information_state(m, (1, 2)),
    "trace_norm": qmath.trace_norm,
    "partial_trace": lambda m: qmath.partial_trace(m, (1, 2), "first"),
    "tensor_first": lambda m: qmath.tensor(m, [[1.0]]),
    "tensor_second": lambda m: qmath.tensor([[1.0]], m),
}
NON_FINITE = (NonHermitian, "matrix has non-finite entries")
# (bad input, error, message) shared by the matrix entry points; the channel
# paths check the state's shape against the channel input first, and
# coherent_information_state against its declared dims
REJECTS = {
    "nan": NON_FINITE,
    "nan_imag": NON_FINITE,
    "inf": NON_FINITE,
    "-inf": NON_FINITE,
    "asymmetric": (NonHermitian, "symmetry residual 1.000e-06 exceeds 1e-10"),
    "trace": (NotAState, "trace 1.1 is not 1 within 1e-09"),
    "negative_eigenvalue": (NotAState, "smallest eigenvalue -5.000e-02 below -1e-10"),
    "overflow": (NotAState, "smallest eigenvalue -1.000e+308 below -1e-10"),
    "17x17": (DimensionTooLarge, "dimension 17 exceeds the supported maximum 16"),
    "0x0": (ShapeMismatch, "expected a matrix of dimension >= 1, got shape (0, 0)"),
    "non_square": (ShapeMismatch, "expected a square matrix, got shape (2, 3)"),
    "3d": (ShapeMismatch, "expected a matrix, got array of ndim 3"),
    "non_numeric": (ShapeMismatch, "expected a regular array of numbers, got list"),
    "ragged": (ShapeMismatch, "expected a regular array of numbers, got list"),
    "numeric_strings": (ShapeMismatch, "expected a regular array of numbers, got list"),
}
CHANNEL_SHAPE = {
    "17x17": "state shape (17, 17) != channel input (2, 2)",
    "0x0": "state shape (0, 0) != channel input (2, 2)",
    "non_square": "state shape (2, 3) != channel input (2, 2)",
    "3d": "state shape (2, 2, 2) != channel input (2, 2)",
}
CHANNEL_ENTRIES = ("coherent_information", "apply", "apply_with_reference",
                   "ic_conjugation_residual")
DIMS_SHAPE = {
    "17x17": "state shape (17, 17) does not match dims (1, 2)",
    "0x0": "state shape (0, 0) does not match dims (1, 2)",
    "non_square": "state shape (2, 3) does not match dims (1, 2)",
    "3d": "state shape (2, 2, 2) does not match dims (1, 2)",
}
# the kinds of REJECTS that a 2 x 2 matrix of numbers can hold: the matrix
# gate passes them, and the shape refusals belong to it alone
CONTENT_KINDS = ("nan", "nan_imag", "inf", "-inf", "asymmetric", "trace",
                 "negative_eigenvalue", "overflow")
FINITE_KINDS = tuple(kind for kind in CONTENT_KINDS if kind not in ("inf", "-inf"))
# hermitian_eig takes any finite Hermitian matrix: trace and sign are no concern
# of it; trace_norm any finite matrix; partial_trace and tensor any matrix
EIG_ACCEPTS = ("trace", "negative_eigenvalue", "overflow")
ACCEPTS = {
    "hermitian_eig": EIG_ACCEPTS,
    "trace_norm": ("asymmetric", *EIG_ACCEPTS),
    "partial_trace": CONTENT_KINDS,
    "tensor_first": FINITE_KINDS,
    "tensor_second": FINITE_KINDS,
}
# a complex inf times 1 has an inf * 0 in its imaginary part: numpy's product
# is NaN with a RuntimeWarning, so tensor meets no infinite entry here
REJECT_PAIRS = [(kind, entry) for entry in sorted(ENTRIES) for kind in sorted(REJECTS)
                if not (entry.startswith("tensor") and kind in ("inf", "-inf"))]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("kind, entry", REJECT_PAIRS)
def test_reject_paths_keep_type_and_message(entry, kind):
    if kind in ACCEPTS.get(entry, ()):
        ENTRIES[entry](_bad(kind))
        return
    error, message = REJECTS[kind]
    if entry in CHANNEL_ENTRIES and kind in CHANNEL_SHAPE:
        error, message = ShapeMismatch, CHANNEL_SHAPE[kind]
    if entry == "coherent_information_state" and kind in DIMS_SHAPE:
        error, message = ShapeMismatch, DIMS_SHAPE[kind]
    if entry == "trace_norm" and REJECTS[kind] == NON_FINITE:
        error = DomainError
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        ENTRIES[entry](_bad(kind))


def _stacked(kernel):
    """The stacked call of a qmath kernel, as ``verify`` makes it on the stacks it builds."""
    return lambda ms: kernel(np.stack(ms))


# each stacked call (a kernel on a stack) against the single-matrix call
# (the same kernel behind the matrix gate)
STACKED = {
    "checked_hermitian": (
        _stacked(qmath._checked_hermitian),
        lambda m: qmath._checked_hermitian(qmath._as_matrix(m)),
    ),
    "hermitian_eig": (_stacked(qmath._hermitian_spectrum), qmath.hermitian_eig),
    "state_eigenvalues": (_stacked(qmath._state_spectrum), qmath.state_eigenvalues),
    "von_neumann_entropy": (_stacked(verify._stacked_entropies), qmath.von_neumann_entropy),
    "trace_norm": (_stacked(qmath._trace_norm), qmath.trace_norm),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(STACKED))
@pytest.mark.parametrize("kind", CONTENT_KINDS)
@pytest.mark.parametrize("k, size", ((0, 4), (2, 4), (0, 1)))
def test_stacked_validators_refuse_what_the_single_one_refuses(entry, kind, k, size):
    # a stack of one bad matrix keeps the "matrix 0: " prefix: a stack is
    # told from a matrix by rank, not by length
    stacked, single = STACKED[entry]
    ms = [np.eye(2, dtype=complex) / 2] * size
    ms[k] = _bad(kind)
    try:
        single(_bad(kind))
    except (ShapeMismatch, DimensionTooLarge, NonHermitian, NotAState, DomainError) as exc:
        with pytest.raises(type(exc), match=f"^matrix {k}: {re.escape(str(exc))}$"):
            stacked(ms)
    else:
        stacked(ms)


# ---------------------------------------------------------------------------
# the input contract at the edges


def test_shannon_entropy_rejects_non_finite_entries():
    for dist in ([1.0, np.nan], [0.5, 0.5, np.nan], [np.nan]):
        with pytest.raises(NotADistribution, match="finite"):
            qmath.shannon_entropy(dist)
    with pytest.raises(NotADistribution, match="sum to"):
        qmath.shannon_entropy([1.0, np.inf])


def test_trace_norm_rejects_non_finite_entries():
    for bad in (np.nan, np.inf, -np.inf, complex(0.0, np.nan)):
        m = np.eye(2, dtype=complex)
        m[0, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="non-finite"):
                qmath.trace_norm(m)
    assert qmath.trace_norm(np.diag([1.0, -2.0])) == 3.0
    # finite entries whose singular values sum past the float64 range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qmath.trace_norm(_bad("overflow")) == np.inf


def test_kraus_channel_and_isometry_reject_nan_entries():
    nan_op = np.array([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(NotAState, match="Kraus completeness residual nan"):
        chn.KrausChannel(2, 2, (nan_op,))
    with pytest.raises(NotAState, match="V\\^dag V residual nan"):
        chn.Isometry(2, 2, nan_op)


def test_pure_state_rejects_nan_amplitudes():
    for amplitudes in ([np.nan, 0.0], [1.0, complex(0.0, np.nan)]):
        with pytest.raises(NotAState, match="amplitude norm nan"):
            chn.PureState(np.array(amplitudes))


def test_wiretap_channel_rejects_nan_entries_and_lambda():
    table = wt.build_wiretap(0.3, 0.2).table.copy()
    with pytest.raises(NotADistribution, match="flag probability"):
        wt.WiretapChannel(np.nan, 0.2, table)
    table[0, 0, 0, 0] = np.nan
    with pytest.raises(NotADistribution, match="must be >= 0"):
        wt.WiretapChannel(0.3, 0.2, table)


def test_mutual_information_rejects_nan_joint():
    for joint in ([[0.5, np.nan], [0.25, 0.25]], [[np.nan, 0.0], [0.0, 0.0]]):
        with pytest.raises(NotADistribution, match="nonnegative matrix"):
            wt.mutual_information(joint)


def test_zero_dimension_is_a_shape_mismatch_at_every_matrix_entry():
    empty = np.zeros((0, 0))
    for f in (
        qmath.hermitian_eig,
        qmath.state_eigenvalues,
        qmath.von_neumann_entropy,
        qmath.trace_norm,
        chn.DensityMatrix,
        lambda m: qmath.partial_trace(m, (1, 1), "first"),
        lambda m: qmath.tensor(m, I2),
        lambda m: qmath.tensor(I2, m),
    ):
        with pytest.raises(ShapeMismatch, match="dimension >= 1"):
            f(empty)


@pytest.mark.parametrize("bad", ("abc", [[1, "x"], [2, 3]], [[1, 2], [3]], [["1"]], [[True]]))
def test_non_numeric_input_is_a_shape_mismatch_at_every_matrix_entry(bad):
    for f in (
        qmath.hermitian_eig,
        qmath.state_eigenvalues,
        qmath.von_neumann_entropy,
        qmath.trace_norm,
        lambda m: qmath.partial_trace(m, (1, 2), "first"),
        lambda m: qmath.tensor(m, I2),
        lambda m: qmath.tensor(I2, m),
        chn.DensityMatrix,
        lambda m: cap.coherent_information(_N, _NB, m),
        lambda m: cap.coherent_information_state(m, (1, 2)),
    ):
        with pytest.raises(ShapeMismatch, match="^expected a regular array of numbers, got "):
            f(bad)


# the entry points that convert a caller's numbers through qmath._as_array
ARRAY_ENTRIES = {
    "shannon_entropy": qmath.shannon_entropy,
    "mutual_information": wt.mutual_information,
    "WiretapChannel": lambda bad: wt.WiretapChannel(0.3, 0.2, bad),
    "KrausChannel": lambda bad: chn.KrausChannel(2, 2, (bad,)),
    "Isometry": lambda bad: chn.Isometry(2, 2, bad),
    "PureState": chn.PureState,
}
NOT_AN_ARRAY = {
    "string": "ab",
    "ragged": [[0.5], [0.25, 0.25]],
    "object": [object()],
    "numeric_string": "1",
    "numeric_strings": ["0.5", "0.5"],
    "numeric_bytes": b"1",
    "bool": [True, False],
    "bool_ndarray": np.array([True, False]),
}
# the entries above that ask for a real array, and a complex value they refuse
REAL_ARRAY_ENTRIES = ("shannon_entropy", "mutual_information", "WiretapChannel")
NOT_A_REAL_ARRAY = np.array([0.5 + 1j, 0.5])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(ARRAY_ENTRIES))
@pytest.mark.parametrize("kind", sorted(NOT_AN_ARRAY))
def test_non_numeric_input_is_a_shape_mismatch(entry, kind):
    bad = NOT_AN_ARRAY[kind]
    message = f"expected a regular array of numbers, got {type(bad).__name__}"
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        ARRAY_ENTRIES[entry](bad)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", REAL_ARRAY_ENTRIES)
def test_complex_input_to_a_real_array_is_a_shape_mismatch(entry):
    # an ndarray: numpy itself casts it to float with only a ComplexWarning
    message = "expected a regular array of numbers, got ndarray"
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        ARRAY_ENTRIES[entry](NOT_A_REAL_ARRAY)


def test_a_numeric_array_passes_through_one_conversion():
    a = np.eye(2, dtype=complex) / 2
    assert qmath._as_array(a) is a
    rho = chn.DensityMatrix(a)
    assert qmath._as_array(rho) is rho.matrix
    f = np.array([0.5, 0.5])
    assert qmath._as_array(f, float) is f


BAD_CHANNEL_DIMS = ((2.0, 2.0), (True, True), (0, 0), (2.0, 2), (2, np.bool_(True)), (-1, 2),
                    ("2", 2), (None, 2))
CHANNEL_CONSTRUCTORS = {
    "KrausChannel": lambda d_in, d_out: chn.KrausChannel(d_in, d_out, (I2,)),
    "Isometry": lambda d_in, d_out: chn.Isometry(d_in, d_out, I2),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry", sorted(CHANNEL_CONSTRUCTORS))
@pytest.mark.parametrize("dims", BAD_CHANNEL_DIMS, ids=repr)
def test_channel_dimensions_must_be_ints(entry, dims):
    message = f"dims must be a pair of ints >= 1, got {dims!r}"
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        CHANNEL_CONSTRUCTORS[entry](*dims)


def test_numpy_integer_channel_dimensions_keep_working():
    two = np.int64(2)
    assert chn.KrausChannel(two, two, (I2,)).dim_in == 2
    assert chn.Isometry(two, 2, I2).dim_out == 2
    blocks = chn.KrausChannel(2, 2, (I2,), blocks=((np.int64(0), np.int32(2)),)).blocks
    assert blocks == ((0, 2),) and all(type(v) is int for v in blocks[0])


BAD_BLOCKS = ("ab", 5, (0, 2), ((0,),), ((0, 2, 1),), ((0, 2.0),), ((0.0, 2),), ((True, 2),),
              ((-1, 3),), ((0, 0), (0, 2)), ((0, None),))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("blocks", BAD_BLOCKS, ids=repr)
def test_malformed_blocks_are_a_shape_mismatch(blocks):
    message = f"blocks must be (offset, size) pairs of ints, got {blocks!r}"
    with pytest.raises(ShapeMismatch, match=f"^{re.escape(message)}$"):
        chn.KrausChannel(2, 2, (I2,), blocks=blocks)


def test_factor_dimensions_must_be_ints():
    v = chn.isometry_N(0.3, 0.2)
    for dims in ((2.5, 2), (2.0, 2), (True, 2), (2, np.bool_(True)), (0, 4), (2,), "22", None):
        with pytest.raises(ShapeMismatch, match="pair of ints"):
            qmath.partial_trace(np.eye(4) / 4, dims, "first")
    with pytest.raises(ShapeMismatch, match="pair of ints"):
        cap.coherent_information_state(np.eye(8) / 8, (2.5, 4))
    with pytest.raises(ShapeMismatch, match="pair of ints"):
        chn.channel_from_isometry(v, (4.0, 3), "first")
    with pytest.raises(ShapeMismatch, match="reference dimension"):
        chn.apply_with_reference(chn.channel_N(0.3, 0.2), np.eye(2) / 2, True)
    # ints and numpy integers keep working
    assert qmath.partial_trace(np.eye(4) / 4, (np.int64(2), 2), "first").shape == (2, 2)
    assert cap.coherent_information_state(np.eye(8) / 8, (2, np.int32(4))) == -1.0
    assert chn.channel_from_isometry(v, (np.int64(4), 3), "first").dim_out == 4


def test_probabilities_refuse_non_reals():
    for bad in (None, "0.5", b"0.5", True, False, np.bool_(True), 0.5j):
        with pytest.raises(DomainError, match="lambda must be a real number"):
            chn.channel_N(bad, 0.2)
        with pytest.raises(DomainError, match="p must be a real number"):
            qmath.check_prob("p", bad)
        with pytest.raises(DomainError, match="binary_entropy requires p in"):
            qmath.binary_entropy(bad)
    # ints, floats and numpy real scalars keep working
    reals = ((0, 0.0), (1, 1.0), (0.25, 0.25), (np.float32(0.5), 0.5), (np.int64(1), 1.0))
    for good, value in reals:
        assert qmath.check_prob("p", good) == value
    for good, value in (
        (0, 0.0),
        (1, 1.0),
        (np.float64(0.25), 0.25),
        (np.int64(1), 1.0),
        (np.float32(0.1), float(np.float32(0.1))),
    ):
        assert qmath.binary_entropy(good) == qmath.binary_entropy(value)
    assert qmath.binary_entropy(0.5) == 1.0


NON_REALS = (None, "0.3", b"0.3", True, np.bool_(True), 0.3j)


def test_wiretap_channel_checks_lambda_and_p():
    table = wt.build_wiretap(0.3, 0.2).table
    with pytest.raises(DomainError, match="p must lie in"):
        wt.WiretapChannel(0.3, np.nan, table)
    for bad in NON_REALS:
        with pytest.raises(DomainError, match="lambda must be a real number"):
            wt.WiretapChannel(bad, 0.2, table)
        with pytest.raises(DomainError, match="p must be a real number"):
            wt.WiretapChannel(0.3, bad, table)
    ch = wt.WiretapChannel(np.float32(0.5), np.int64(1), wt.build_wiretap(0.5, 1.0).table)
    assert (type(ch.lam), type(ch.p)) == (float, float)


def test_fig6_lambda_refuses_non_reals():
    for bad in NON_REALS:
        with pytest.raises(DomainError, match="p must be a real number"):
            wt.fig6_lambda(bad)
    assert wt.fig6_lambda(np.float64(0.9)) == wt.fig6_lambda(0.9)


def test_degradable_lambda_refuses_non_reals():
    for bad in NON_REALS:
        for call in (
            lambda: cap.one_way_capacity(bad, 0.1),
            lambda: cap.degrading_map(bad, 0.1),
            lambda: wt.one_way_secrecy_capacity(bad, 0.1),
            lambda: wt.degrading_stochastic_map(bad, 0.1),
        ):
            with pytest.raises(DomainError, match="lambda must be a real number"):
                call()
    assert cap.one_way_capacity(np.float32(0.25), 0.1) == cap.one_way_capacity(0.25, 0.1)


def test_secrecy_bruteforce_refuses_bad_lambda_and_p():
    for bad in (*NON_REALS, np.nan, -0.1, 1.5):
        for name, call in (("lambda", lambda: wt.secrecy_capacity_bruteforce(bad, 0.2)),
                           ("p", lambda: wt.secrecy_capacity_bruteforce(0.3, bad))):
            with pytest.raises(DomainError, match=f"^{name} must "):
                call()
    assert wt.secrecy_capacity_bruteforce(np.float32(0.5), np.int64(1)) == \
        wt.secrecy_capacity_bruteforce(0.5, 1.0)


def test_stencil_lambda_refuses_non_reals():
    for bad in NON_REALS:
        with pytest.raises(DomainError, match="lambda must be a real number"):
            cap.derivative_check(cap.fig4_lambda, bad)


def test_fig4_lambda_refuses_non_reals():
    for bad in NON_REALS:
        with pytest.raises(DomainError, match="p must be a real number"):
            cap.fig4_lambda(bad)
    assert cap.fig4_lambda(np.float64(0.4)) == cap.fig4_lambda(0.4)


def _counted_calls():
    q_lb, q_ub, q_tw = cap.sequence_bound_curves()
    return {
        "points": (lambda n: cap.sweep(cap.FIG3, n), 2),
        "n_terms": (lambda n: cap.alternating_bounds_sequence(q_lb, q_ub, q_tw, 0.0, 1e-4, n), 1),
    }


@pytest.mark.parametrize("name", ["points", "n_terms"])
def test_counts_must_be_ints(name):
    call, lo = _counted_calls()[name]
    for bad in (lo + 0.5, float(lo), float("nan"), str(lo), True, None, np.float64(lo)):
        with pytest.raises(DomainError, match=f"^{name} must be an int, got "):
            call(bad)
    with pytest.raises(DomainError, match=rf"^{name} must be >= {lo}, got {lo - 1}$"):
        call(lo - 1)
    with pytest.raises(DomainError, match=rf"^{name} must be >= {lo}, got {lo - 1}$"):
        call(np.int64(lo - 1))
    assert repr(call(np.int64(lo))) == repr(call(lo))
