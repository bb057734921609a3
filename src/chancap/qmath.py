"""Dense complex linear algebra and entropy primitives for dimensions <= 16.

All entropies are base-2 (bits) with the convention 0*log(0) = 0.  Matrices
are plain complex numpy arrays; eigenwork is delegated to LAPACK via
``numpy.linalg``, which is deterministic for a fixed input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
# refusal templates, formatted with the offending value (see _refuse)
_NON_FINITE = "matrix has non-finite entries"
_ASYMMETRY = f"symmetry residual {{:.3e}} exceeds {HERMITIAN_TOL:.0e}"
_NOT_UNIT_TRACE = f"trace {{!r}} is not 1 within {TRACE_TOL:.0e}"
_BELOW_FLOOR = f"smallest eigenvalue {{:.3e}} below {STATE_EIG_FLOOR:.0e}"


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


def _as_array(x, dtype=complex) -> np.ndarray:
    """``x``, or a state's ``x.matrix``, as a ``dtype`` array, or ShapeMismatch
    unless it is a regular array of numbers: its converted values decide, so a
    bool, a string, bytes, ragged rows or a complex value where ``dtype`` is
    real are refused in any container, and a numeric array is converted once."""
    x = getattr(x, "matrix", x)
    try:
        a = np.asarray(x)
        if a.dtype.kind in ("iuf" if dtype is float else "iufc"):
            return a.astype(dtype, copy=False)
    except (TypeError, ValueError):  # ragged rows
        pass
    raise ShapeMismatch(f"expected a regular array of numbers, got {type(x).__name__}")


def _as_matrix(m) -> np.ndarray:
    a = _as_array(m)
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


def _require_supported(a: np.ndarray) -> np.ndarray:
    """``a`` if square of dimension 1 to 16: after ``_as_matrix``, the shape
    gate of a single matrix, as ``_as_stack`` is that of a stack."""
    d = _require_square(a)
    if d > MAX_DIM:
        raise DimensionTooLarge(f"dimension {d} exceeds the supported maximum {MAX_DIM}")
    return a


def _as_stack(ms) -> np.ndarray:
    """Matrices as one complex stack (k, d, d), after the shape checks of the
    single-matrix path on each.

    ``ms`` is a non-empty sequence of square matrices of one dimension <= 16,
    such as an array (k, d, d).  A refusal raises the error the single path
    raises for the first bad matrix, its message prefixed with that matrix's
    index; an empty stack is a ShapeMismatch.
    """
    try:
        a = _as_array(ms)
        if a.ndim == 3 and len(a) and 0 < a.shape[1] == a.shape[2] <= MAX_DIM:
            return a
    except ShapeMismatch:  # matrices of different shapes, or one not numeric
        pass
    if len(ms) == 0:
        raise ShapeMismatch("expected a non-empty stack of matrices")
    for k, m in enumerate(ms):
        try:
            b = _require_supported(_as_matrix(m))
            if b.shape != np.shape(ms[0]):
                raise ShapeMismatch(f"shape {b.shape} differs from matrix 0's {np.shape(ms[0])}")
        except (ShapeMismatch, DimensionTooLarge) as exc:
            raise type(exc)(f"matrix {k}: {exc}") from None
    raise ShapeMismatch(f"expected a stack of matrices, got {type(ms).__name__}")


def _refuse(bad, error: type, message: str, *values: np.ndarray) -> None:
    """Raise ``error`` if a check failed: ``bad`` is its verdict on one
    matrix (a scalar) or on each matrix k of a stack (k,).

    The message is ``message`` formatted with the float of each of
    ``values`` for the bad matrix, and for a stack prefixed with the first
    bad k.  Rank, not length, tells the two apart; ``.ndim`` goes first as
    ``.any()`` on a numpy scalar costs 50 times more.  A template, unlike a
    message function, costs a passing check nothing to build.
    """
    if bad.ndim == 0:
        if not bad:
            return
        k, prefix = (), ""
    elif bad.any():
        k = int(np.argmax(bad))
        prefix = f"matrix {k}: "
    else:
        return
    raise error(prefix + message.format(*(float(v[k]) for v in values)))


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


def _checked_hermitian(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A shape-checked matrix (d, d) or stack (k, d, d) and its conjugate
    transpose, after the checks shared by the eigen routines.

    Raises NonHermitian on a non-finite entry or max|m - m^dag| above 1e-10
    (see ``_refuse`` for a stack).  The finite check comes first so that the
    difference never meets an infinity.
    """
    _refuse(np.logical_not(np.isfinite(a).all(axis=(-2, -1))), NonHermitian, _NON_FINITE)
    ah = a.conj().swapaxes(-1, -2)
    asym = np.abs(a - ah).max(axis=(-2, -1))
    _refuse(asym > HERMITIAN_TOL, NonHermitian, _ASYMMETRY, asym)
    return a, ah


def _hermitian_spectrum(a: np.ndarray) -> HermitianSpectrum:
    """``hermitian_eig`` of a shape-checked matrix or stack; row k of a stack
    equals the call on matrix k alone, bit for bit."""
    a, ah = _checked_hermitian(a)
    w, v = np.linalg.eigh(a / 2 + ah / 2)
    return HermitianSpectrum(eigenvalues=w, eigenvectors=v)


def hermitian_eig(m) -> HermitianSpectrum:
    """Eigendecompose a Hermitian matrix (dimension <= 16).

    Raises ShapeMismatch unless ``m`` is a square, non-empty 2-D matrix of
    numbers, DimensionTooLarge above dimension 16, and NonHermitian on a
    non-finite entry or if max|m - m^dag| exceeds 1e-10.
    """
    return _hermitian_spectrum(_require_supported(_as_matrix(m)))


def _entropy_bits(w: np.ndarray) -> np.ndarray:
    """Entropy in bits of each row of weights ``w`` (..., d) >= 0, unclamped.

    The one entropy kernel.  Flooring the log's argument at the smallest
    subnormal keeps each positive weight's term and makes a zero's 0, with no
    bool-to-float add; a pure state can give -0.0 or a few 1e-16 below 0.
    """
    return -(w * np.log2(np.maximum(w, 5e-324))).sum(axis=-1)


def entropies_bits(stack: np.ndarray) -> np.ndarray:
    """Von Neumann entropies (bits) of a stack (n, d, d) of unchecked states.

    The batched call behind every optimizer and stacked evaluation; callers
    validate their inputs once at the public boundary.  Eigenvalues below 0
    are roundoff and count as 0; the result is ``_entropy_bits``, unclamped.
    """
    return _entropy_bits(np.maximum(np.linalg.eigvalsh(stack), 0.0))


def _state_spectrum(a: np.ndarray) -> np.ndarray:
    """``state_eigenvalues`` of a shape-checked matrix or stack, as (d,) or
    rows (k, d); row k of a stack equals the call on matrix k alone."""
    a, ah = _checked_hermitian(a)
    tr = a.trace(axis1=-2, axis2=-1).real
    _refuse(abs(tr - 1.0) > TRACE_TOL, NotAState, _NOT_UNIT_TRACE, tr)
    w = np.linalg.eigvalsh(a / 2 + ah / 2)
    lo = w.T[0]  # the smallest eigenvalue of each matrix; cheaper than w[..., 0]
    _refuse(lo < STATE_EIG_FLOOR, NotAState, _BELOW_FLOOR, lo)
    return np.maximum(w, 0.0, out=w)


def state_eigenvalues(rho) -> np.ndarray:
    """Eigenvalues of a density operator, validated and clamped to >= 0."""
    return _state_spectrum(_require_supported(_as_matrix(rho)))


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy of a density operator, in bits."""
    return max(0.0, float(_entropy_bits(state_eigenvalues(rho))))


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


def check_params(lam, p, region=None) -> tuple[float, float]:
    """(lam, p) as floats, or DomainError unless p lies in [0, 1] and lam in
    [0, 1] or, given a predicate ``region``, where it holds at p; the error
    then carries the predicate's own ``refusal``."""
    if region is None:
        return check_prob("lambda", lam), check_prob("p", p)
    lam, p = as_real("lambda", lam), check_prob("p", p)
    if not region(lam, p):
        raise DomainError(f"{region.refusal}, got {lam!r}")
    return lam, p


def _binary_entropy(p):
    """H(p) in bits of a float or a float64 array in [0, 1], without branches.

    Adding (p == 0) and (p == 1) inside the logs makes both 0*log(0) terms
    exact zeros; log1p keeps the (1-p) term accurate when p is many orders
    below 1.  Each flag is added to a float, not the float subtracted from
    the flag, which keeps a numpy scalar fast: bool arithmetic on the left
    costs a microsecond.
    """
    return (0.0 - p * np.log2(p + (p == 0.0))) - (1.0 - p) * np.log1p(-p + (p == 1.0)) / np.log(2.0)


def binary_entropy(p: float) -> float:
    """H(p) = -p*log2(p) - (1-p)*log2(1-p), with H(0) = H(1) = 0, in float64."""
    if isinstance(p, _NOT_REAL) or not 0.0 <= p <= 1.0:
        raise DomainError(f"binary_entropy requires p in [0, 1], got {p!r}")
    return float(_binary_entropy(float(p)))


def shannon_entropy(dist) -> float:
    """Shannon entropy of a probability vector, in bits."""
    d = _as_array(dist, float).ravel()
    if d.size == 0 or np.any(d < -1e-12):
        raise NotADistribution("probabilities must be >= 0")
    s = d.sum()
    if abs(s - 1.0) > TRACE_TOL:
        raise NotADistribution(f"probabilities sum to {s!r}, not 1")
    # a NaN entry passes both checks above (an infinite one fails the sum)
    if not np.isfinite(d).all():
        raise NotADistribution("probabilities must be finite")
    return max(0.0, float(_entropy_bits(np.maximum(d, 0.0))))


def _trace_norm(a: np.ndarray):
    """``trace_norm`` of a shape-checked matrix or stack, one per matrix; inf
    where the finite entries' norm lies past the float64 range."""
    _refuse(np.logical_not(np.isfinite(a).all(axis=(-2, -1))), DomainError, _NON_FINITE)
    s = np.linalg.svd(a, compute_uv=False)
    with np.errstate(over="ignore"):
        return s.sum(axis=-1)


def trace_norm(m) -> float:
    """Sum of singular values of a square matrix (dimension <= 16)."""
    return float(_trace_norm(_require_supported(_as_matrix(m))))


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
