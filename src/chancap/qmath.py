"""Dense complex linear algebra and entropy primitives for dimensions <= 16.

All entropies are base-2 (bits) with the convention 0*log(0) = 0.  Matrices
are plain complex numpy arrays; eigenwork is delegated to LAPACK via
``numpy.linalg``, which is deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import (
    DimensionTooLarge,
    DomainError,
    NonHermitian,
    NotADistribution,
    NotAState,
    ShapeMismatch,
)

MAX_DIM = 16
HERMITIAN_TOL = 1e-10
# Eigenvalues this far below zero are treated as roundoff and clamped;
# anything more negative means the input was not a state.
STATE_EIG_FLOOR = -1e-10
TRACE_TOL = 1e-9


@dataclass(frozen=True)
class HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack.

    ``eigenvalues`` are real and ascending along the last axis;
    ``eigenvectors[..., :, k]`` is the unit-norm eigenvector for
    ``eigenvalues[..., k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues[..., None, :]) @ v.conj().swapaxes(-1, -2)


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def _require_square(a: np.ndarray) -> int:
    d = a.shape[0]
    if d != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    if d == 0:
        raise ShapeMismatch("expected a matrix of dimension >= 1, got shape (0, 0)")
    return d


def _require_supported(a: np.ndarray) -> int:
    """The dimension of a square matrix, or DimensionTooLarge above 16."""
    d = _require_square(a)
    if d > MAX_DIM:
        raise DimensionTooLarge(f"dimension {d} exceeds the supported maximum {MAX_DIM}")
    return d


def _as_stack(ms) -> np.ndarray:
    """Matrices as one complex stack (k, d, d), after the shape checks of the
    single-matrix path on each.

    ``ms`` is a non-empty sequence of square matrices of one dimension <= 16,
    such as an array (k, d, d).  A refusal raises the error the single path
    raises for the first bad matrix, its message prefixed with that matrix's
    index; an empty stack is a ShapeMismatch.
    """
    try:
        a = np.asarray(ms, dtype=complex)
        if a.ndim == 3 and len(a) and 0 < a.shape[1] == a.shape[2] <= MAX_DIM:
            return a
    except ValueError:  # matrices of different shapes
        pass
    if len(ms) == 0:
        raise ShapeMismatch("expected a non-empty stack of matrices")
    for k, m in enumerate(ms):
        try:
            b = _as_matrix(m)
            _require_supported(b)
            if b.shape != np.shape(ms[0]):
                raise ShapeMismatch(f"shape {b.shape} differs from matrix 0's {np.shape(ms[0])}")
        except (ShapeMismatch, DimensionTooLarge) as exc:
            raise type(exc)(f"matrix {k}: {exc}") from None
    raise ShapeMismatch(f"expected a stack of matrices, got {type(ms).__name__}")


def _refuse_first(bad: np.ndarray, error: type, message: Callable[[int], str]) -> None:
    """Raise ``error`` for the first matrix k of a stack whose ``bad[k]`` is
    True, with the message ``message(k)`` prefixed with k."""
    if bad.any():
        k = int(np.argmax(bad))
        raise error(f"matrix {k}: {message(k)}")


def is_dimension(x) -> bool:
    """True for an int or numpy integer (not bool) >= 1."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool) and x >= 1


def check_count(name: str, value, lo: Optional[int] = None) -> int:
    """``value`` as an int, or DomainError unless it is an int or numpy integer
    (not a bool) and, given ``lo``, at least ``lo``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an int, got {value!r}")
    n = int(value)
    if lo is not None and n < lo:
        raise DomainError(f"{name} must be >= {lo}, got {n!r}")
    return n


def check_dims(dims) -> tuple[int, int]:
    """``dims`` as a pair of factor dimensions, or ShapeMismatch unless both are ints >= 1."""
    try:
        da, db = dims
    except (TypeError, ValueError):
        da = db = None
    if not (is_dimension(da) and is_dimension(db)):
        raise ShapeMismatch(f"dims must be a pair of ints >= 1, got {dims!r}")
    return int(da), int(db)


def _checked_hermitian(m) -> tuple[np.ndarray, np.ndarray]:
    """``m`` as a complex matrix, and its conjugate transpose, after the checks
    shared by the eigen routines.

    Raises ShapeMismatch unless square of dimension >= 1, DimensionTooLarge
    above dimension 16, and NonHermitian on a non-finite entry or
    max|m - m^dag| above 1e-10.  The finite check comes first so that the
    difference never meets an infinity.
    """
    a = _as_matrix(m)
    _require_supported(a)
    if not np.isfinite(a).all():
        raise NonHermitian("matrix has non-finite entries")
    ah = a.conj().T
    asym = np.abs(a - ah).max()
    if asym > HERMITIAN_TOL:
        raise NonHermitian(f"symmetry residual {asym:.3e} exceeds {HERMITIAN_TOL:.0e}")
    return a, ah


def _checked_hermitians(ms) -> tuple[np.ndarray, np.ndarray]:
    """``_checked_hermitian`` of each matrix of a stack (see ``_as_stack``),
    with the same checks in the same order."""
    a = _as_stack(ms)
    _refuse_first(~np.isfinite(a).all(axis=(1, 2)), NonHermitian,
                  lambda k: "matrix has non-finite entries")
    ah = a.conj().swapaxes(-1, -2)
    asym = np.abs(a - ah).max(axis=(1, 2))
    _refuse_first(asym > HERMITIAN_TOL, NonHermitian,
                  lambda k: f"symmetry residual {asym[k]:.3e} exceeds {HERMITIAN_TOL:.0e}")
    return a, ah


def hermitian_eig(m) -> HermitianSpectrum:
    """Eigendecompose a Hermitian matrix (dimension <= 16).

    Raises NonHermitian if max|m - m^dag| exceeds 1e-10 and DimensionTooLarge
    above dimension 16.
    """
    a, ah = _checked_hermitian(m)
    w, v = np.linalg.eigh((a + ah) / 2)
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v)


def _hermitian_eigs(ms) -> HermitianSpectrum:
    """``hermitian_eig`` of each matrix of a stack (see ``_as_stack``), as one
    stacked spectrum whose row k equals ``hermitian_eig(ms[k])`` bit for bit."""
    a, ah = _checked_hermitians(ms)
    w, v = np.linalg.eigh((a + ah) / 2)
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v)


def _entropy_bits(weights: np.ndarray) -> float:
    w = weights[weights > 0.0]
    if w.size == 0:
        return 0.0
    return float(max(0.0, -(w * np.log2(w)).sum()))


def _entropy_bits_rows(weights: np.ndarray) -> np.ndarray:
    """``_entropy_bits`` of each row of ``weights`` (k, d), bit for bit.

    Each row's positive entries move to its front in their order, and rows
    with the same count m of them are summed together over their first m
    entries, so that every sum adds the terms ``_entropy_bits`` adds, in the
    same order.
    """
    pos = weights > 0.0
    w = np.take_along_axis(weights, np.argsort(~pos, axis=-1, kind="stable"), axis=-1)
    counts = pos.sum(axis=-1)
    out = np.zeros(len(w))
    for m in np.unique(counts[counts > 0]):
        rows = counts == m
        t = w[rows, :m]
        out[rows] = -(t * np.log2(t)).sum(axis=-1)
    return np.where(out > 0.0, out, 0.0)


def entropies_bits(stack: np.ndarray) -> np.ndarray:
    """Von Neumann entropies (bits) of a stack (n, d, d) of unchecked states.

    The batched kernel behind every optimizer and stacked evaluation; callers
    validate their inputs once at the public boundary.  Eigenvalues below 0
    are roundoff and count as 0.  Unlike ``von_neumann_entropy``, the result
    is not clamped at 0: a pure state can come out as -0.0 or a few 1e-16
    below 0.
    """
    w = np.maximum(np.linalg.eigvalsh(stack), 0.0)
    logs = np.log2(np.where(w > 0.0, w, 1.0))
    return -(w * logs).sum(axis=-1)


def state_eigenvalues(rho) -> np.ndarray:
    """Eigenvalues of a density operator, validated and clamped to >= 0."""
    a, ah = _checked_hermitian(rho)
    tr = float(a.trace().real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotAState(f"trace {tr!r} is not 1 within {TRACE_TOL:.0e}")
    w = np.linalg.eigvalsh((a + ah) / 2)
    if w[0] < STATE_EIG_FLOOR:
        raise NotAState(f"smallest eigenvalue {w[0]:.3e} below {STATE_EIG_FLOOR:.0e}")
    return np.maximum(w, 0.0)


def _states_eigenvalues(ms) -> np.ndarray:
    """``state_eigenvalues`` of each matrix of a stack (see ``_as_stack``), as
    rows (k, d), with the same checks in the same order."""
    a, ah = _checked_hermitians(ms)
    tr = a.trace(axis1=1, axis2=2).real
    _refuse_first(np.abs(tr - 1.0) > TRACE_TOL, NotAState,
                  lambda k: f"trace {float(tr[k])!r} is not 1 within {TRACE_TOL:.0e}")
    w = np.linalg.eigvalsh((a + ah) / 2)
    _refuse_first(w[:, 0] < STATE_EIG_FLOOR, NotAState,
                  lambda k: f"smallest eigenvalue {w[k, 0]:.3e} below {STATE_EIG_FLOOR:.0e}")
    return np.maximum(w, 0.0)


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy of a density operator, in bits."""
    return _entropy_bits(state_eigenvalues(rho))


def _von_neumann_entropies(ms) -> np.ndarray:
    """``von_neumann_entropy`` of each matrix of a stack (see ``_as_stack``), bit for bit."""
    return _entropy_bits_rows(_states_eigenvalues(ms))


# no real parameter, though float() converts str, bytes and bool; None and complex fail untyped
_NOT_REAL = (type(None), bool, np.bool_, str, bytes, complex)


def as_real(name: str, value) -> float:
    """``value`` as a float, or DomainError unless it is a real number.

    None, bool, str, bytes and complex values are refused, not converted.
    """
    if not isinstance(value, _NOT_REAL):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise DomainError(f"{name} must be a real number, got {value!r}")


def check_prob(name: str, value: float) -> float:
    """``value`` as a float, or DomainError unless it is a real number in [0, 1]."""
    v = as_real(name, value)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return v


def _binary_entropy(p):
    """H(p) in bits of a float or a float64 array in [0, 1], without branches.

    Adding (p == 0) and (p == 1) inside the logs makes both 0*log(0) terms
    exact zeros; log1p keeps the (1-p) term accurate when p is many orders
    below 1.
    """
    return (0.0 - p * np.log2(p + (p == 0.0))) - (1.0 - p) * np.log1p((p == 1.0) - p) / np.log(2.0)


def binary_entropy(p: float) -> float:
    """H(p) = -p*log2(p) - (1-p)*log2(1-p), with H(0) = H(1) = 0, in float64."""
    if isinstance(p, _NOT_REAL) or not 0.0 <= p <= 1.0:
        raise DomainError(f"binary_entropy requires p in [0, 1], got {p!r}")
    return float(_binary_entropy(float(p)))


def binary_entropies(p: np.ndarray) -> np.ndarray:
    """``binary_entropy`` of every entry of a float64 array, bit for bit."""
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("binary_entropies requires every p in [0, 1]")
    return _binary_entropy(p)


def shannon_entropy(dist) -> float:
    """Shannon entropy of a probability vector, in bits."""
    d = np.asarray(dist, dtype=float).ravel()
    if d.size == 0 or np.any(d < -1e-12):
        raise NotADistribution("probabilities must be >= 0")
    s = d.sum()
    if abs(s - 1.0) > TRACE_TOL:
        raise NotADistribution(f"probabilities sum to {s!r}, not 1")
    # a NaN entry passes both checks above (an infinite one fails the sum)
    if not np.isfinite(d).all():
        raise NotADistribution("probabilities must be finite")
    return _entropy_bits(np.maximum(d, 0.0))


def trace_norm(m) -> float:
    """Sum of singular values of a square matrix (dimension <= 16)."""
    a = _as_matrix(m)
    _require_supported(a)
    if not np.isfinite(a).all():
        raise DomainError("matrix has non-finite entries")
    return float(np.linalg.svd(a, compute_uv=False).sum())


def _trace_norms(ms) -> np.ndarray:
    """``trace_norm`` of each matrix of a stack (see ``_as_stack``), bit for bit."""
    a = _as_stack(ms)
    _refuse_first(~np.isfinite(a).all(axis=(1, 2)), DomainError,
                  lambda k: "matrix has non-finite entries")
    return np.linalg.svd(a, compute_uv=False).sum(axis=-1)


def partial_trace(m, dims: tuple[int, int], side: str) -> np.ndarray:
    """Partial trace of a matrix on a tensor-product space.

    ``dims = (dA, dB)``, two ints, declares the factorization; ``side`` names the factor
    to trace out ("first" traces out A, "second" traces out B).
    """
    a = _as_matrix(m)
    d = _require_square(a)
    da, db = check_dims(dims)
    if da * db != d:
        raise ShapeMismatch(f"dims {dims} do not factor dimension {d}")
    if side not in ("first", "second"):
        raise ShapeMismatch(f"side must be 'first' or 'second', got {side!r}")
    return _partial_traces(a, (da, db), side)


def _partial_traces(a: np.ndarray, dims: tuple[int, int], side: str) -> np.ndarray:
    """``partial_trace`` of a matrix, or of each matrix of a stack
    (..., dA dB, dA dB), without its checks; row k of a stack equals the
    call on that matrix alone."""
    da, db = dims
    t = a.reshape(*a.shape[:-2], da, db, da, db)
    return np.einsum("...abad->...bd" if side == "first" else "...abcb->...ac", t)


def tensor(a, b) -> np.ndarray:
    """Kronecker product."""
    return np.kron(_as_matrix(a), _as_matrix(b))


def direct_sum_embed(block, offset: int, total_dim: int) -> np.ndarray:
    """Place a square block on the diagonal of a larger zero matrix."""
    blk = _as_matrix(block)
    d = _require_square(blk)
    if offset < 0 or offset + d > total_dim:
        raise ShapeMismatch(
            f"block of dimension {d} at offset {offset} does not fit in {total_dim}"
        )
    out = np.zeros((total_dim, total_dim), dtype=complex)
    out[offset : offset + d, offset : offset + d] = blk
    return out


def embed_operator(op, row_offset: int, rows_total: int) -> np.ndarray:
    """Stack an operator into a taller one: rows shifted by ``row_offset``.

    Used to route a block's output into its slot of a direct-sum output space.
    """
    a = _as_matrix(op)
    r, c = a.shape
    if row_offset < 0 or row_offset + r > rows_total:
        raise ShapeMismatch(
            f"operator with {r} rows at offset {row_offset} does not fit in {rows_total}"
        )
    out = np.zeros((rows_total, c), dtype=complex)
    out[row_offset : row_offset + r, :] = a
    return out
