"""Quantum states, Kraus channels, and the glued channel family.

Basis conventions (fixed once, used by every constructor and golden file):

* ``channel_N(lam, p)`` maps a qubit into a 4-dimensional output split as
  two direct-sum blocks: indices {0, 1} carry the transmitted qubit with
  weight ``1 - lam``; indices {2, 3} carry the dephasing-complement output
  with weight ``lam``.
* ``complement_N(lam, p)`` maps a qubit into a 3-dimensional environment:
  index 0 is the flag state (weight ``1 - lam``), indices {1, 2} carry the
  dephasing output (weight ``lam``).  The flag lives in its own 1-dimensional
  block so that the two branches stay orthogonal.
* Choi states are normalized to trace 1 and ordered reference-first:
  ``(I (x) ch)`` applied to the maximally entangled input.

The conditional states used by the dephasing complement are
``|phi0> = sqrt(1-p)|0> + sqrt(p)|1>`` and
``|phi1> = sqrt(1-p)|0> - sqrt(p)|1>``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import qmath
from .errors import DimensionTooLarge, NotAState, ShapeMismatch
from .qmath import check_prob, partial_trace, von_neumann_entropy

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)

COMPLETENESS_TOL = 1e-10
BLOCK_SUPPORT_TOL = 1e-12


def _unchecked(cls, **fields):
    """An instance of the frozen dataclass ``cls`` holding ``fields``, skipping ``__post_init__``.

    Only for values valid by construction: a channel's output on a checked
    state, and the closed-form Kraus formulas of the glued family, dephasing
    and erasure, which are complete and block-supported for every lam and p
    in [0, 1] (the tests check the whole range, ``verify`` a grid).  Kraus
    lists from callers keep the full check.
    """
    obj = object.__new__(cls)
    obj.__dict__.update(fields)
    return obj


@dataclass(frozen=True)
class DensityMatrix:
    """Validated density operator: Hermitian, trace 1, eigenvalues >= -1e-10."""

    matrix: np.ndarray

    def __post_init__(self):
        m = qmath._as_complex(self.matrix)
        object.__setattr__(self, "matrix", m)
        qmath.state_eigenvalues(m)  # validates; raises NotAState / NonHermitian

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def entropy(self) -> float:
        return von_neumann_entropy(self.matrix)


@dataclass(frozen=True)
class PureState:
    """Unit-norm state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.amplitudes, dtype=complex).ravel()
        norm = float(np.linalg.norm(v))
        if not abs(norm - 1.0) <= 1e-10:
            raise NotAState(f"amplitude norm {norm!r} is not 1 within 1e-10")
        object.__setattr__(self, "amplitudes", v)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def projector(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def density(self) -> DensityMatrix:
        return DensityMatrix(self.projector())


@dataclass(frozen=True)
class KrausChannel:
    """Channel in Kraus form, optionally with a declared direct-sum output.

    ``blocks`` is a tuple of ``(offset, size)`` pairs tiling the output space;
    when present, every (nonzero) Kraus operator must write into exactly one
    block, which is what makes the block flag measurable.
    """

    dim_in: int
    dim_out: int
    kraus: tuple
    blocks: Optional[tuple] = None

    def __post_init__(self):
        ops = tuple(np.asarray(k, dtype=complex) for k in self.kraus)
        if not ops:
            raise ShapeMismatch("a channel needs at least one Kraus operator")
        for k in ops:
            if k.shape != (self.dim_out, self.dim_in):
                raise ShapeMismatch(
                    f"Kraus operator shape {k.shape} != ({self.dim_out}, {self.dim_in})"
                )
        object.__setattr__(self, "kraus", ops)
        comp = sum(k.conj().T @ k for k in ops)
        resid = np.abs(comp - np.eye(self.dim_in)).max()
        if not resid <= COMPLETENESS_TOL:
            raise NotAState(f"Kraus completeness residual {resid:.3e} exceeds 1e-10")
        if self.blocks is not None:
            blocks = tuple((int(o), int(s)) for o, s in self.blocks)
            object.__setattr__(self, "blocks", blocks)
            flat = sorted(i for o, s in blocks for i in range(o, o + s))
            if flat != list(range(self.dim_out)):
                raise ShapeMismatch(f"blocks {blocks} do not tile [0, {self.dim_out})")
            for k in ops:
                rows = np.flatnonzero(np.abs(k).max(axis=1) > BLOCK_SUPPORT_TOL)
                if rows.size == 0:
                    continue  # zero operator carries no weight anywhere
                homes = {i for i, (o, s) in enumerate(blocks) for r in rows if o <= r < o + s}
                if len(homes) != 1:
                    raise ShapeMismatch("a Kraus operator straddles output blocks")

    @functools.cached_property
    def superoperator(self) -> np.ndarray:
        """Natural representation S = sum_a K_a (x) conj(K_a), cached read-only.

        Shape (dim_out^2, dim_in^2); with row-major vec, vec(ch(rho)) = S vec(rho).
        """
        k = np.stack(self.kraus)
        s = np.einsum("aij,alk->iljk", k, k.conj()).reshape(self.dim_out**2, self.dim_in**2)
        s.flags.writeable = False
        return s


@dataclass(frozen=True)
class Isometry:
    """Matrix V with V^dag V = I on the input space."""

    dim_in: int
    dim_out: int
    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (self.dim_out, self.dim_in):
            raise ShapeMismatch(f"isometry shape {m.shape} != ({self.dim_out}, {self.dim_in})")
        resid = np.abs(m.conj().T @ m - np.eye(self.dim_in)).max()
        if not resid <= 1e-10:
            raise NotAState(f"V^dag V residual {resid:.3e} exceeds 1e-10")
        object.__setattr__(self, "matrix", m)


@dataclass(frozen=True)
class ChoiState:
    """Trace-1 Choi state, reference factor first, output factor second."""

    dim_in: int
    dim_out: int
    state: DensityMatrix

    def __post_init__(self):
        if self.state.dim != self.dim_in * self.dim_out:
            raise ShapeMismatch("Choi state dimension does not match dim_in * dim_out")
        marg = partial_trace(self.state.matrix, (self.dim_in, self.dim_out), "second")
        resid = np.abs(marg - np.eye(self.dim_in) / self.dim_in).max()
        if resid > 1e-10:
            raise NotAState(f"Choi reference marginal residual {resid:.3e} exceeds 1e-10")


# ---------------------------------------------------------------------------
# elementary states


def ket(index: int, dim: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def phi_states(p: float) -> tuple[np.ndarray, np.ndarray]:
    """The conditional output vectors |phi0>, |phi1> for dephasing weight p."""
    p = check_prob("p", p)
    a, b = np.sqrt(1.0 - p), np.sqrt(p)
    return np.array([a, b], dtype=complex), np.array([a, -b], dtype=complex)


def maximally_mixed(dim: int) -> DensityMatrix:
    return DensityMatrix(np.eye(dim, dtype=complex) / dim)


def maximally_entangled(dim: int) -> PureState:
    return PureState(np.eye(dim, dtype=complex).ravel() / np.sqrt(dim))


# ---------------------------------------------------------------------------
# channel constructors


def dephasing_channel(p: float) -> KrausChannel:
    """Phase flip with probability p: rho -> (1-p) rho + p Z rho Z."""
    p = check_prob("p", p)
    return _glued((math.sqrt(1.0 - p), math.sqrt(p)), np.stack([I2, PAULI_Z]), None)


def complementary_dephasing(p: float) -> KrausChannel:
    """Complement of the dephasing channel.

    Measures the input in the computational basis and prepares |phi0> or
    |phi1>: rho -> <0|rho|0> phi0 + <1|rho|1> phi1.
    """
    p = check_prob("p", p)
    # |phi0><0| and |phi1><1|, the block {2,3} of channel_N's dephasing units
    return _glued((1.0, 1.0), _phi_units(p)[1:, 2:], None)


def _glued(weights, units: np.ndarray, blocks: tuple) -> KrausChannel:
    """The closed-form channel with Kraus operators ``weights[a] * units[a]``.

    One complex product over the (k, d_out, d_in) stack, entry for entry the
    product of each weight with its unit operator.
    """
    kraus = np.array(weights)[:, None, None] * units
    _, d_out, d_in = units.shape
    return _unchecked(KrausChannel, dim_in=d_in, dim_out=d_out, kraus=tuple(kraus), blocks=blocks)


def _phi_units(p: float) -> np.ndarray:
    """Unit operators of ``channel_N``: the qubit kept in block {0,1}, and
    |phi0> or |phi1> written into block {2,3} for input |0> or |1>.

    Each entry is that of the outer-product form |phi><k|, where the product
    with the conjugated ket turns a -0.0 entry into 0.0, as ``+ 0.0`` and
    ``0.0 - b`` do here.
    """
    a, b = math.sqrt(1.0 - p), math.sqrt(p) + 0.0
    u = np.zeros((3, 4, 2), dtype=complex)
    u[0, 0, 0] = u[0, 1, 1] = 1.0
    u[1, 2:, 0] = a, b
    u[2, 2:, 1] = a, 0.0 - b
    return u


def channel_N(lam: float, p: float) -> KrausChannel:
    """Glued channel: identity with weight 1-lam, dephasing complement with weight lam.

    Output blocks: {0,1} identity, {2,3} dephasing complement.
    """
    lam = check_prob("lambda", lam)
    p = check_prob("p", p)
    s0, sl = math.sqrt(1.0 - lam), math.sqrt(lam)
    return _glued((s0, sl, sl), _phi_units(p), ((0, 2), (2, 2)))


def complement_N(lam: float, p: float) -> KrausChannel:
    """Environment side of the glued channel.

    Output blocks: {0} flag (weight 1-lam), {1,2} dephasing (weight lam).
    """
    lam = check_prob("lambda", lam)
    p = check_prob("p", p)
    u = np.zeros((4, 3, 2), dtype=complex)
    u[0, 0, 0] = u[1, 0, 1] = 1.0
    u[2, 1, 0] = u[2, 2, 1] = math.sqrt(1.0 - p)
    u[3, 1:] = math.sqrt(p) * PAULI_Z  # a product, so that p = -0.0 keeps its zero signs
    s0, sl = math.sqrt(1.0 - lam), math.sqrt(lam)
    return _glued((s0, s0, sl, sl), u, ((0, 1), (1, 2)))


def isometry_N(lam: float, p: float) -> Isometry:
    """Isometric extension of the glued channel into B (x) C, |B|=4, |C|=3.

    Tracing out C reproduces ``channel_N``; tracing out B reproduces
    ``complement_N``, with the block layouts documented in the module header.
    """
    lam = check_prob("lambda", lam)
    p = check_prob("p", p)
    v = np.zeros((12, 2), dtype=complex)  # index (b, c) -> 3*b + c
    sl, cl = np.sqrt(lam), np.sqrt(1.0 - lam)
    sp, cp = np.sqrt(p), np.sqrt(1.0 - p)
    for a in range(2):
        # branch kept in B: qubit in B block {0,1}, flag at C index 0
        v[3 * a + 0, a] += cl
        # branch dephased: B block {2,3} holds the complement output basis,
        # C block {1,2} holds the dephasing output
        for b1 in range(2):
            amp = cp if b1 == 0 else sp
            z = 1.0 if (b1 == 0 or a == 0) else -1.0
            v[3 * (2 + b1) + (1 + a), a] += sl * amp * z
    return Isometry(2, 12, v)


def comparison_channel_T(lam: float, p: float) -> KrausChannel:
    """Trace-and-replace-by-phi0 with weight lam, identity with weight 1-lam.

    Shares the output block convention of ``channel_N``.
    """
    lam = check_prob("lambda", lam)
    p = check_prob("p", p)
    u = _phi_units(p)
    u[2, 3, 1] = u[1, 3, 0]  # |phi0> for input |1> as well
    s0, sl = math.sqrt(1.0 - lam), math.sqrt(lam)
    return _glued((s0, sl, sl), u, ((0, 2), (2, 2)))


def erasure_channel(lam: float) -> KrausChannel:
    """Transmit with probability 1-lam, output the flag at index 2 otherwise."""
    lam = check_prob("lambda", lam)
    u = np.zeros((3, 3, 2), dtype=complex)
    u[0, 0, 0] = u[0, 1, 1] = u[1, 2, 0] = u[2, 2, 1] = 1.0
    s0, sl = math.sqrt(1.0 - lam), math.sqrt(lam)
    return _glued((s0, sl, sl), u, ((0, 2), (2, 1)))


def channel_from_isometry(v: Isometry, dims: tuple[int, int], keep: str) -> KrausChannel:
    """Channel obtained from an isometry into a bipartite output.

    ``dims = (d_first, d_second)`` factors the isometry output; ``keep`` names
    the retained factor, the other one is traced out.
    """
    d1, d2 = qmath.check_dims(dims)
    if d1 * d2 != v.dim_out:
        raise ShapeMismatch(f"dims {dims} do not factor isometry output {v.dim_out}")
    m = v.matrix.reshape(d1, d2, v.dim_in)
    if keep == "first":
        kraus = tuple(m[:, c, :] for c in range(d2))
        return KrausChannel(v.dim_in, d1, kraus)
    if keep == "second":
        kraus = tuple(m[b, :, :] for b in range(d1))
        return KrausChannel(v.dim_in, d2, kraus)
    raise ShapeMismatch(f"keep must be 'first' or 'second', got {keep!r}")


# ---------------------------------------------------------------------------
# channel action


def _apply_stack(superop: np.ndarray, rhos: np.ndarray) -> np.ndarray:
    """Apply a map, given as a superoperator, to a state or a stack (..., din, din).

    One vector-matrix product per state: its output does not depend on the stack.
    """
    dout = math.isqrt(superop.shape[0])
    lead = rhos.shape[:-2]
    return (rhos.reshape(*lead, 1, -1) @ superop.T).reshape(*lead, dout, dout)


def _with_reference(superop: np.ndarray, dim_ref: int) -> np.ndarray:
    """Superoperator of ch (x) id_R from that of ch; factors ordered A, R."""
    dout, din = (math.isqrt(n) for n in superop.shape)
    e = np.eye(dim_ref)
    s = np.einsum("iljk,rs,tu->irltjsku", superop.reshape(dout, dout, din, din), e, e)
    return s.reshape((dout * dim_ref) ** 2, (din * dim_ref) ** 2)


def checked_input(ch: KrausChannel, rho, dim_ref: int = 1) -> np.ndarray:
    """``rho`` as a matrix, validated as a state on the channel input (x) a dim_ref reference."""
    if not qmath.is_dimension(dim_ref):
        raise ShapeMismatch(f"reference dimension must be an int >= 1, got {dim_ref!r}")
    if ch.dim_out * dim_ref > qmath.MAX_DIM:
        raise DimensionTooLarge(f"output dimension {ch.dim_out * dim_ref} exceeds {qmath.MAX_DIM}")
    m = qmath._as_complex(getattr(rho, "matrix", rho))
    d = ch.dim_in * dim_ref
    if m.shape != (d, d):
        raise ShapeMismatch(f"state shape {m.shape} != channel input ({d}, {d})")
    qmath.state_eigenvalues(m)
    return m


def apply(ch: KrausChannel, rho) -> DensityMatrix:
    """Apply a channel to a state: rho -> sum_i K_i rho K_i^dag (the output is not re-checked)."""
    return _unchecked(DensityMatrix, matrix=_apply_stack(ch.superoperator, checked_input(ch, rho)))


def apply_with_reference(ch: KrausChannel, rho_ar, dim_ref: int) -> DensityMatrix:
    """Apply a channel to the first factor of a bipartite state A (x) R."""
    m = checked_input(ch, rho_ar, dim_ref)
    out = _apply_stack(_with_reference(ch.superoperator, dim_ref), m)
    return _unchecked(DensityMatrix, matrix=out)


def choi(ch: KrausChannel) -> ChoiState:
    """Choi state (I (x) ch)(|Phi+><Phi+|): the superoperator realigned, over dim_in."""
    din, dout = ch.dim_in, ch.dim_out
    s = ch.superoperator.reshape(dout, dout, din, din).transpose(2, 0, 3, 1)
    return ChoiState(din, dout, DensityMatrix(s.reshape(din * dout, din * dout) / din))


def channel_distance(a: KrausChannel, b: KrausChannel) -> float:
    """Max entrywise Choi-state difference (superoperator entries / dim_in); 0 iff equal."""
    if (a.dim_in, a.dim_out) != (b.dim_in, b.dim_out):
        raise ShapeMismatch("channels act on different spaces")
    return float(np.abs(a.superoperator - b.superoperator).max()) / a.dim_in


def compose(second: KrausChannel, first: KrausChannel) -> KrausChannel:
    """Channel composition second(first(.))."""
    if first.dim_out != second.dim_in:
        raise ShapeMismatch("composition dimensions do not match")
    kraus = tuple(k2 @ k1 for k2 in second.kraus for k1 in first.kraus)
    return KrausChannel(first.dim_in, second.dim_out, kraus)
