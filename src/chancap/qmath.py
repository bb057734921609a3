"""Dense complex linear algebra and entropy primitives for dimensions <= 16.

All entropies are base-2 (bits) with the convention 0*log(0) = 0.  Matrices
are plain complex numpy arrays; eigenwork is delegated to LAPACK via
``numpy.linalg``, which is deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors[:, k]`` is the
    unit-norm eigenvector for ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def _as_matrix(m) -> np.ndarray:
    a = np.asarray(getattr(m, "matrix", m), dtype=complex)
    if a.ndim != 2:
        raise ShapeMismatch(f"expected a matrix, got array of ndim {a.ndim}")
    return a


def _require_square(a: np.ndarray) -> int:
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {a.shape}")
    return a.shape[0]


def _checked_hermitian(m) -> np.ndarray:
    """``m`` as a complex matrix after the checks shared by the eigen routines.

    Raises ShapeMismatch unless square, DimensionTooLarge above dimension 16,
    and NonHermitian on a non-finite entry or max|m - m^dag| above 1e-10.
    """
    a = _as_matrix(m)
    d = _require_square(a)
    if d > MAX_DIM:
        raise DimensionTooLarge(f"dimension {d} exceeds the supported maximum {MAX_DIM}")
    if not np.all(np.isfinite(a.view(float))):
        raise NonHermitian("matrix has non-finite entries")
    asym = np.abs(a - a.conj().T).max()
    if asym > HERMITIAN_TOL:
        raise NonHermitian(f"symmetry residual {asym:.3e} exceeds {HERMITIAN_TOL:.0e}")
    return a


def hermitian_eig(m) -> HermitianSpectrum:
    """Eigendecompose a Hermitian matrix (dimension <= 16).

    Raises NonHermitian if max|m - m^dag| exceeds 1e-10 and DimensionTooLarge
    above dimension 16.
    """
    a = _checked_hermitian(m)
    w, v = np.linalg.eigh((a + a.conj().T) / 2)
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v)


def _entropy_bits(weights: np.ndarray) -> float:
    w = weights[weights > 0.0]
    if w.size == 0:
        return 0.0
    return float(max(0.0, -np.sum(w * np.log2(w))))


def entropies_bits(stack: np.ndarray) -> np.ndarray:
    """Von Neumann entropies (bits) of a stack (n, d, d) of unchecked states.

    The batched kernel behind every optimizer and stacked evaluation; callers
    validate their inputs once at the public boundary.  Eigenvalues below 0
    are roundoff and count as 0.
    """
    w = np.clip(np.linalg.eigvalsh(stack), 0.0, None)
    logs = np.log2(np.where(w > 0.0, w, 1.0))
    return -(w * logs).sum(axis=-1)


def state_eigenvalues(rho) -> np.ndarray:
    """Eigenvalues of a density operator, validated and clamped to >= 0."""
    a = _checked_hermitian(rho)
    tr = float(np.trace(a).real)
    if abs(tr - 1.0) > TRACE_TOL:
        raise NotAState(f"trace {tr!r} is not 1 within {TRACE_TOL:.0e}")
    w = np.linalg.eigvalsh((a + a.conj().T) / 2)
    if w[0] < STATE_EIG_FLOOR:
        raise NotAState(f"smallest eigenvalue {w[0]:.3e} below {STATE_EIG_FLOOR:.0e}")
    return np.clip(w, 0.0, None)


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy of a density operator, in bits."""
    return _entropy_bits(state_eigenvalues(rho))


def check_prob(name: str, value: float) -> float:
    """``value`` as a float, or DomainError unless it lies in [0, 1]."""
    v = float(value)
    if not 0.0 <= v <= 1.0:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    return v


def binary_entropy(p: float) -> float:
    """H(p) = -p*log2(p) - (1-p)*log2(1-p), with H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"binary_entropy requires p in [0, 1], got {p!r}")
    out = 0.0
    if p > 0.0:
        out -= p * np.log2(p)
    if p < 1.0:
        # log1p keeps the (1-p) term accurate when p is many orders below 1
        out -= (1.0 - p) * np.log1p(-p) / np.log(2.0)
    return float(out)


def binary_entropies(p: np.ndarray) -> np.ndarray:
    """``binary_entropy`` of every entry of a float64 array, bit for bit.

    The same ``log2``/``log1p`` operations in the same order; entries at 0
    or 1 take the scalar's skipped terms as exact zeros.
    """
    p = np.asarray(p, dtype=float)
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise DomainError("binary_entropies requires every p in [0, 1]")
    head = np.where(p > 0.0, p * np.log2(np.where(p > 0.0, p, 1.0)), 0.0)
    tail = np.where(p < 1.0, (1.0 - p) * np.log1p(-np.where(p < 1.0, p, 0.0)) / np.log(2.0), 0.0)
    return (0.0 - head) - tail


def shannon_entropy(dist) -> float:
    """Shannon entropy of a probability vector, in bits."""
    d = np.asarray(dist, dtype=float).ravel()
    if d.size == 0 or np.any(d < -1e-12):
        raise NotADistribution("probabilities must be >= 0")
    s = d.sum()
    if abs(s - 1.0) > TRACE_TOL:
        raise NotADistribution(f"probabilities sum to {s!r}, not 1")
    return _entropy_bits(np.clip(d, 0.0, None))


def trace_norm(m) -> float:
    """Sum of singular values of a square matrix (dimension <= 16)."""
    a = _as_matrix(m)
    d = _require_square(a)
    if d > MAX_DIM:
        raise DimensionTooLarge(f"dimension {d} exceeds the supported maximum {MAX_DIM}")
    return float(np.linalg.svd(a, compute_uv=False).sum())


def partial_trace(m, dims: tuple[int, int], side: str) -> np.ndarray:
    """Partial trace of a matrix on a tensor-product space.

    ``dims = (dA, dB)`` declares the factorization; ``side`` names the factor
    to trace out ("first" traces out A, "second" traces out B).
    """
    a = _as_matrix(m)
    d = _require_square(a)
    da, db = int(dims[0]), int(dims[1])
    if da <= 0 or db <= 0 or da * db != d:
        raise ShapeMismatch(f"dims {dims} do not factor dimension {d}")
    t = a.reshape(da, db, da, db)
    if side == "first":
        return np.einsum("abad->bd", t)
    if side == "second":
        return np.einsum("abcb->ac", t)
    raise ShapeMismatch(f"side must be 'first' or 'second', got {side!r}")


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
