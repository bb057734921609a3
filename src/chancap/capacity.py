"""Coherent information, capacity closed forms, bounds, and the sweep builder.

Closed forms implemented here, all in qubits (or private bits) per use:

* one-way capacity of the glued channel where it is ``degradable``:
  ``1 - lam * (2 - H(p))``
* two-way capacity, all ``lam``:  ``1 - lam`` (independent of ``p``)
* complement two-way capacity (where ``degradable``):  ``lam * (1 - H(p))``,
  which is also a relative-entropy upper bound valid for every ``lam``
* erasure reference values:  ``max(0, 1 - 2 lam)`` and ``1 - lam``
* lower bound from one-shot coherent information:
  ``max(0, 1 - lam(2 - H(p)))``
* continuity upper bound via the closeness ``eps = 4 lam sqrt(p(1-p))`` to an
  antidegradable trace-and-replace channel:
  ``min(1 - lam, 4 eps + 2 (2 + eps) H(eps / (2 + eps)))``

Each is one unchecked function of floats or arrays, shared by the scalar
functions and the sweep rows; ``degradable`` decides where it is certified.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import channels as chn
from .channels import (
    KrausChannel,
    PAULI_Z,
    channel_N,
    comparison_channel_T,
    complement_N,
    compose,
    ket,
    maximally_entangled,
)
from .errors import ChancapError, DimensionTooLarge, DomainError, PreconditionViolated, ShapeMismatch
from .qmath import (
    MAX_DIM,
    _as_array,
    _binary_entropy,
    _partial_traces,
    as_real,
    binary_entropy,
    check_count,
    check_dims,
    check_params,
    check_prob,
    entropies_bits,
    von_neumann_entropy,
)
from .sampling import STREAM_QUANTUM_PROTOCOL, check_run, draw_chunks

GRID_STEP = 0.1  # coarse Bloch-ball scan used before pattern refinement


def degradable(lam, p):
    """Where the glued channel is degradable, elementwise: 0 <= lam <= 1/2 (not NaN)."""
    return (0.0 <= lam) & (lam <= 0.5)


degradable.refusal = "lambda must lie in the degradable regime [0, 1/2]"


# ---------------------------------------------------------------------------
# sweep / sequence row types


@dataclass(frozen=True)
class CapacityCurvePoint:
    """One row of a figure sweep.  ``one_way`` is None when not certified."""

    x: float
    lam: float
    p: float
    one_way: Optional[float]
    two_way: float
    lower_bound: Optional[float] = None
    upper_bound: Optional[float] = None

    def __post_init__(self):
        # the rules of SweepTable, applied to the one-row table of this point
        one_way = math.nan if self.one_way is None else self.one_way
        SweepTable(
            *(np.array([v], dtype=float) for v in (self.x, self.lam, self.p, one_way, self.two_way)),
            *(None if v is None else np.array([v], dtype=float)
              for v in (self.lower_bound, self.upper_bound)),
        )


# sweep columns, in file order; a table without bounds has the first five
SWEEP_COLUMNS = ("x", "lambda", "p", "one_way", "two_way", "lower_bound", "upper_bound")


@dataclass(frozen=True, eq=False)
class SweepTable(Sequence):
    """The rows of a figure sweep as read-only float64 columns.

    ``one_way`` is NaN where no certified value exists; a curve without bounds
    has no ``lower_bound``/``upper_bound`` columns.  It reads as the sequence
    of its rows: ``len``, iteration and ``table[i]`` build CapacityCurvePoint
    rows on demand, with None where a value is absent.

    A table checks its rows when it is built: every present value lies in
    [0, 1] (to 1e-12); one_way is absent only where the channel is not
    ``degradable``, and where present it is at least the lower bound (to
    1e-12) and at most the two-way value (to 1e-9).  NaN fails the range.
    """

    x: np.ndarray
    lam: np.ndarray
    p: np.ndarray
    one_way: np.ndarray
    two_way: np.ndarray
    lower_bound: Optional[np.ndarray] = None
    upper_bound: Optional[np.ndarray] = None

    def __post_init__(self):
        certified = ~np.isnan(self.one_way)
        present = [self.x, self.lam, self.p, self.two_way, self.one_way[certified]]
        present += [c for c in (self.lower_bound, self.upper_bound) if c is not None]
        if not all(np.all((c >= -1e-12) & (c <= 1.0 + 1e-12)) for c in present):
            raise DomainError("sweep row has a value outside [0, 1]")
        if not np.all(certified | ~degradable(self.lam, self.p)):
            raise DomainError("sweep row lacks a one-way value where the channel is degradable")
        one = self.one_way[certified]
        if self.lower_bound is not None and np.any(self.lower_bound[certified] > one + 1e-12):
            raise DomainError("lower bound exceeds certified one-way value")
        if np.any(one > self.two_way[certified] + 1e-9):
            raise DomainError("certified one-way value exceeds two-way value")

    def __len__(self) -> int:
        return len(self.x)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(len(self)))]
        # the columns are checked, so their rows are too
        one_way = float(self.one_way[i])
        lower, upper = (
            None if c is None else float(c[i]) for c in (self.lower_bound, self.upper_bound)
        )
        return chn._unchecked(
            CapacityCurvePoint, x=float(self.x[i]), lam=float(self.lam[i]), p=float(self.p[i]),
            one_way=None if math.isnan(one_way) else one_way, two_way=float(self.two_way[i]),
            lower_bound=lower, upper_bound=upper,
        )

    def column(self, name: str) -> Optional[np.ndarray]:
        """The column written under ``name`` (one of ``SWEEP_COLUMNS``)."""
        return getattr(self, "lam" if name == "lambda" else name)

    @property
    def columns(self) -> tuple[str, ...]:
        """The ``SWEEP_COLUMNS`` names whose column is present, in file order."""
        return tuple(name for name in SWEEP_COLUMNS if self.column(name) is not None)


@dataclass(frozen=True)
class Curve:
    """One sweep scenario: the rows that ``sweep`` builds and how they are written.

    ``params`` maps the grid, an array of x values in ``x_range``, to arrays
    (lam, p); ``row`` maps those to the arrays (one_way, two_way, lower_bound,
    upper_bound), with NaN where one_way is not certified and None for bound
    columns the curve lacks; ``meta`` works out the scenario's metadata when
    called.
    """

    x_range: tuple[float, float]
    params: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]
    row: Callable[[np.ndarray, np.ndarray], tuple]
    meta: Callable[[], dict]


@dataclass(frozen=True)
class SequenceItem:
    """One element of the alternating-bounds sequence."""

    n: int
    x_n: float
    q_lb: float
    q_ub: float
    q_two_way: float


# ---------------------------------------------------------------------------
# coherent information


def _ic_stack(ch: KrausChannel, comp: KrausChannel, rhos: np.ndarray) -> np.ndarray:
    """H(ch(rho)) - H(comp(rho)) for stacked, already validated states."""
    return (entropies_bits(chn._apply_stack(ch.superoperator, rhos))
            - entropies_bits(chn._apply_stack(comp.superoperator, rhos)))


def coherent_information(ch: KrausChannel, comp: KrausChannel, rho) -> float:
    """H(ch(rho)) - H(comp(rho)) for a channel/complement pair, in bits."""
    if ch.dim_in != comp.dim_in:
        raise ShapeMismatch("channel and complement act on different input spaces")
    if comp.dim_out > MAX_DIM:
        raise DimensionTooLarge(f"complement output dimension {comp.dim_out} exceeds {MAX_DIM}")
    m = chn.checked_input(ch, rho)
    return float(_ic_stack(ch, comp, m[None])[0])


def coherent_information_state(rho_ab, dims: tuple[int, int]) -> float:
    """H(B) - H(AB) of a bipartite state with declared factor dimensions."""
    m = _as_array(rho_ab)
    da, db = check_dims(dims)
    if m.shape != (da * db, da * db):
        raise ShapeMismatch(f"state shape {m.shape} does not match dims {dims}")
    # the marginal of a validated state is a state: its entropy needs no checks
    h_ab = von_neumann_entropy(m)
    h_b = entropies_bits(_partial_traces(m, (da, db), "first")[None])[0]
    return float(h_b - h_ab)


def _bloch_states(rs: np.ndarray) -> np.ndarray:
    """Stack of qubit states (I + r . sigma)/2 for Bloch vectors rs (..., 3)."""
    rho = np.empty(rs.shape[:-1] + (2, 2), dtype=complex)
    x, y, z = rs[..., 0], rs[..., 1], rs[..., 2]
    rho[..., 0, 0] = (1.0 + z) / 2
    rho[..., 1, 1] = (1.0 - z) / 2
    rho[..., 0, 1] = (x - 1j * y) / 2
    rho[..., 1, 0] = (x + 1j * y) / 2
    return rho


def _ic_evaluator(lam: float, p: float) -> Callable[[np.ndarray], np.ndarray]:
    n, nb = channel_N(lam, p), complement_N(lam, p)
    return lambda rs: _ic_stack(n, nb, _bloch_states(rs))


@functools.lru_cache(maxsize=1)
def _bloch_grid() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 4,169 points of the step-0.1 cubic grid inside the unit ball, in
    614 classes of points that a rotation about z maps onto each other.

    Returns ``(pts, first, cls)``: the points sorted by Bloch norm (stable);
    the index of the first point of each class in that order; and each
    point's class.  A class is keyed on the exact integer grid coordinates
    (i^2 + j^2, k) of the point (i, j, k) / 10.  All three are built once
    and returned read-only.
    """
    ijk = np.stack(np.meshgrid(*[np.arange(-10, 11)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    ijk = ijk[(ijk * ijk).sum(axis=1) <= 100]
    ijk = ijk[np.argsort(np.linalg.norm(ijk / 10.0, axis=1), kind="stable")]
    pts = ijk / 10.0
    # k in [-10, 10] spans 21 values, so this integer key is one-to-one
    key = (ijk[:, 0] ** 2 + ijk[:, 1] ** 2) * 21 + ijk[:, 2]
    _, first, cls = np.unique(key, return_index=True, return_inverse=True)
    for a in (pts, first, cls):
        a.flags.writeable = False
    return pts, first, cls


# the pattern search's moves in sweep order: +x, -x, +y, -y, +z, -z
_MOVES = tuple((d, s) for d in range(3) for s in (1.0, -1.0))


def _moves(r: np.ndarray, steps: list[float], first: int = 0) -> np.ndarray:
    """The moves ``_MOVES[first:]`` from ``r`` at each of ``steps``, ordered by
    step and then move, each projected back onto the unit ball."""
    moves = _MOVES[first:]
    cands = np.tile(r, (len(steps) * len(moves), 1))
    axes = [d for d, _ in moves] * len(steps)
    cands[np.arange(len(cands)), axes] += np.outer(steps, [s for _, s in moves]).ravel()
    # a move can leave the ball only where |r| + step nears 1; there each
    # candidate keeps its own norm, whose BLAS bits a vectorized norm lacks
    near = np.linalg.norm(r) + np.array(steps) > 1.0 - 1e-12
    for i in np.flatnonzero(np.repeat(near, len(moves))):
        nrm = np.linalg.norm(cands[i])
        if nrm > 1.0:
            cands[i] /= nrm
    return cands


def _maximize_over_bloch_ball(
    evaluate: Callable[[np.ndarray], np.ndarray], tol: float, slack: float = 1e-12
) -> tuple[float, np.ndarray]:
    """Maximize a batched objective of Bloch vectors (..., 3) over the unit ball.

    Coarse grid scan (step 0.1) followed by a coordinate pattern search
    (Hooke and Jeeves, J. ACM 8, 1961) that halves the step down to ``tol``.
    The objective must be invariant under rotations of the input about z,
    i.e. depend on (x, y) only through x^2 + y^2: the scan scores one point
    of each rotation class of ``_bloch_grid`` and gives its value to the
    whole class.  Both callers score glued-family maps, which are
    phase-covariant under diag(1, e^{i theta}); entropies and trace norms
    are unitarily invariant, and a purification picks up only a local
    unitary.  Within a class the values then differ by roundoff alone
    (<= 4e-16), and each class is scored at its first point in grid order,
    so the scan starts where a scan of every point would.
    Returns (value, argmax Bloch vector).  Values within ``slack`` of each
    other count as ties, which are broken toward the smallest Bloch norm so
    that flat landscapes report the maximally mixed input; the default suits
    objectives built from O(1) entropies, whose roundoff is absolute.

    Each sweep tries the six moves +x, -x, +y, -y, +z, -z in order and takes
    every move that beats the current value by more than ``slack``; a step
    is swept until a sweep takes no move, then halved.  Each round scores,
    in one ``evaluate`` call, either the moves of the current step still to
    try or, after a full sweep that took no move, a ladder: the six moves of
    every remaining step.  It takes the first improving candidate and goes
    on from the move after it, at that candidate's step; a ladder that takes
    none ends the search.  ``evaluate`` scores each vector of a stack as it
    scores that vector alone, so the trajectory, value and argmax are those
    of the one-move-at-a-time search.  A maximum at a grid point costs three
    calls: grid, one sweep, one ladder.
    """
    pts, first, cls = _bloch_grid()
    # one evaluation per rotation class, whose points score alike up to roundoff
    vals = evaluate(pts[first])[cls]
    # smallest-norm point within slack of the grid maximum, so that flat
    # landscapes resolve to the maximally mixed input
    best = int(np.argmax(vals >= vals.max() - slack))
    r, f = pts[best].copy(), float(vals[best])

    steps, step = [], GRID_STEP
    while step >= tol:
        steps.append(step)
        step /= 2.0
    i, j, ladder = 0, 0, False
    while i < len(steps):
        # a ladder scores every remaining step's moves, a sweep the rest of steps[i]'s
        cands = _moves(r, steps[i:]) if ladder else _moves(r, steps[i : i + 1], j)
        fc = evaluate(cands)
        hits = np.flatnonzero(fc > f + slack)
        if hits.size:
            k = int(hits[0])
            r, f = cands[k].copy(), float(fc[k])
            # go on from the move after it, at its step; after -z, sweep that step again
            i, j, ladder = i + (j + k) // len(_MOVES), (j + k + 1) % len(_MOVES), False
        elif j:
            j = 0  # the sweep took a move: sweep this step again
        elif ladder:
            break
        else:
            i, ladder = i + 1, True
    return f, r


def maximize_coherent_information(
    lam: float, p: float, tol: float = 1e-6
) -> tuple[float, np.ndarray]:
    """Maximize the one-shot coherent information over the Bloch ball.

    Returns (value, argmax Bloch vector); see ``_maximize_over_bloch_ball``
    for the search and its tie-breaking toward the maximally mixed input.
    ``tol``, the final step size, must be a finite real >= 1e-8.

    The search cannot resolve the thin shell 1 - tol < |r| < 1: its last
    step is at least ``tol``, and a move past the sphere is projected back
    onto it.  Where the maximum lies in that shell, the reported value is
    too low: at (lam, p) = (0.8556, 0.05) it reports 0.0 at (-1, 0, 0),
    while the coherent information at (-(1 - 3.0e-7), 0, 0) is 3.16e-8; at
    (0.95, 0.2) it reports 0.0, while (-(1 - 2.7e-7), 0, 0) gives 9.9e-9.
    """
    evaluate = _ic_evaluator(lam, p)  # channel_N checks lam and p
    t = as_real("tol", tol)
    if not math.isfinite(t):
        raise DomainError(f"tol must be finite, got {tol!r}")
    if t < 1e-8:
        raise DomainError(f"tol must be >= 1e-8, got {tol!r}")
    return _maximize_over_bloch_ball(evaluate, t)


# ---------------------------------------------------------------------------
# closed forms


def _two_way(lam):
    return 1.0 - lam


def _one_way(lam, p):
    return 1.0 - lam * (2.0 - _binary_entropy(p))


def _lower_bound(lam, p):
    # a selection, not np.maximum, so that a tie or a NaN resolves as max(0.0, x)
    one = _one_way(lam, p)
    return np.where(one > 0.0, one, 0.0)


def _complement_two_way(lam, p):
    return lam * (1.0 - _binary_entropy(p))


def _closeness(lam, p):
    """Distance 4 lam sqrt(p(1-p)) to the comparison channel T."""
    return 4.0 * lam * np.sqrt(p * (1.0 - p))


def _continuity_entropic(lam, p):
    eps = _closeness(lam, p)
    return 4.0 * eps + 2.0 * (2.0 + eps) * _binary_entropy(eps / (2.0 + eps))


def _continuity_bound(lam, p):
    # a selection, not np.minimum, so that a tie or a NaN resolves as min(1 - lam, x)
    two, entropic = _two_way(lam), _continuity_entropic(lam, p)
    return np.where(entropic < two, entropic, two)


def one_way_capacity(lam: float, p: float) -> float:
    """1 - lam (2 - H(p)); certified only where the channel is ``degradable``."""
    return float(_one_way(*check_params(lam, p, degradable)))


def two_way_capacity(lam: float) -> float:
    """1 - lam, for every lam in [0, 1] (independent of the dephasing weight)."""
    return _two_way(check_prob("lambda", lam))


def complement_one_way_capacity(lam: float, p: float) -> float:
    """Zero: the environment channel is antidegradable where the channel is ``degradable``."""
    check_params(lam, p, degradable)
    return 0.0


def complement_two_way_capacity(lam: float, p: float) -> float:
    """lam (1 - H(p)), certified where the channel is ``degradable``."""
    return float(_complement_two_way(*check_params(lam, p, degradable)))


def er_bound_complement(lam: float, p: float) -> float:
    """Relative-entropy upper bound lam (1 - H(p)), valid for every lam."""
    return float(_complement_two_way(*check_params(lam, p)))


def erasure_capacities(lam: float) -> tuple[float, float]:
    """(one-way, two-way) reference values for the plain erasure channel."""
    lam = check_prob("lambda", lam)
    return max(0.0, 1.0 - 2.0 * lam), _two_way(lam)


def coherent_info_lower_bound(lam: float, p: float) -> float:
    """max(0, 1 - lam (2 - H(p))), valid for every lam.

    This is the one-shot coherent information of the maximally mixed input.
    It equals the capacity for lam <= 1/2 but is loose above 1/2, where
    other inputs do better: ``maximize_coherent_information`` gives 0.0124
    at (lam, p) = (0.8, 0.2), where the bound is 0, and 0.0272 at
    (0.65, 0.9), where it is 0.0048.  The gap opens just above 1/2 for p
    near 0 or 1 (at lam ~ 0.505 for p = 0.001, ~ 0.56 for p = 0.05) and
    later for p nearer 1/2.
    """
    return float(_lower_bound(*check_params(lam, p)))


def continuity_upper_bound(lam: float, p: float) -> float:
    """min(1 - lam, 4 eps + 2 (2 + eps) H(eps/(2+eps))) with eps = 4 lam sqrt(p(1-p)).

    A capacity upper bound in the non-degradable regime lam >= 1/2 (where the
    trace-and-replace comparison channel is antidegradable); below 1/2 the
    expression is still well defined but no longer bounds the capacity.
    """
    return float(_continuity_bound(*check_params(lam, p)))


# ---------------------------------------------------------------------------
# distance to the antidegradable comparison channel


def _diamond_evaluator(lam: float, p: float) -> Callable[[np.ndarray], np.ndarray]:
    # N and T agree on output block {0,1}, so (N - T) (x) id lives on block
    # {2,3} (x) R: restrict N - T to that block, then add the reference
    diff = channel_N(lam, p).superoperator - comparison_channel_T(lam, p).superoperator
    delta = chn._with_reference(diff.reshape(4, 4, 4)[2:, 2:].reshape(4, 4), 2)  # 16 x 16

    def evaluate(rs: np.ndarray) -> np.ndarray:
        # purification vec(sqrt(rho)), with sqrt(rho) = (rho + s I)/sqrt(1 + 2s)
        # and s = sqrt(det rho) = sqrt(1 - |r|^2)/2 for a qubit
        s = np.sqrt(np.clip(1.0 - (rs * rs).sum(axis=-1), 0.0, None)) / 2.0
        roots = _bloch_states(rs) + s[..., None, None] * np.eye(2)
        psis = (roots / np.sqrt(1.0 + 2.0 * s)[..., None, None]).reshape(*rs.shape[:-1], 4)
        projectors = psis[..., :, None] * psis[..., None, :].conj()
        return np.abs(np.linalg.eigvalsh(chn._apply_stack(delta, projectors))).sum(axis=-1)

    return evaluate


def diamond_distance_to_T(lam: float, p: float) -> tuple[float, float]:
    """Estimate the stabilized distance between the glued channel and its
    antidegradable comparison channel.

    Returns ``(estimate, analytic)`` where ``analytic = 4 lam sqrt(p(1-p))``
    is the exact value.  For a qubit-input channel the stabilized trace
    distance is attained on purifications (sqrt(rho) (x) I)|Phi+> sqrt(2) of
    single-qubit states rho (channel on the first qubit, reference on the
    second), so ``estimate`` runs the same Bloch-ball search as
    ``maximize_coherent_information`` over rho, scoring each input by the
    trace norm of the output difference.  The optimum rho = |1><1| is a grid
    point, so the estimate matches the analytic value to roundoff.  Ties get
    no slack: the objective scales with lam sqrt(p), so an absolute tie width
    would flatten it for tiny lam or p.
    """
    lam, p = check_params(lam, p)
    analytic = float(_closeness(lam, p))
    estimate, _ = _maximize_over_bloch_ball(_diamond_evaluator(lam, p), 1e-6, slack=0.0)
    return estimate, analytic


# ---------------------------------------------------------------------------
# degradability


def degrading_map(lam: float, p: float) -> KrausChannel:
    """Measure-and-prepare map R with R(channel(rho)) = complement(rho).

    On the dephasing-complement block it prepares the flag; on the identity
    block it prepares the flag with probability ``x = (1-2 lam)/(1- lam)`` and
    otherwise dephases the qubit into the environment's dephasing block.
    Only defined where the channel is ``degradable`` (above lam = 1/2, x
    would be negative).
    """
    lam, p = check_params(lam, p, degradable)
    x = (1.0 - 2.0 * lam) / (1.0 - lam)
    flag = ket(0, 3)

    def dephase_identity_block(op2: np.ndarray) -> np.ndarray:
        # act with a qubit operator on input block {0,1}, landing in rows {1,2}
        out = np.zeros((3, 4), dtype=complex)
        out[1:3, 0:2] = op2
        return out

    kraus = (
        np.outer(flag, ket(2, 4).conj()),
        np.outer(flag, ket(3, 4).conj()),
        np.sqrt(x) * np.outer(flag, ket(0, 4).conj()),
        np.sqrt(x) * np.outer(flag, ket(1, 4).conj()),
        np.sqrt((1.0 - x) * (1.0 - p)) * dephase_identity_block(np.eye(2, dtype=complex)),
        np.sqrt((1.0 - x) * p) * dephase_identity_block(PAULI_Z),
    )
    return KrausChannel(4, 3, kraus, blocks=((0, 1), (1, 2)))


def verify_degradable(lam: float, p: float) -> float:
    """Entrywise Choi residual between R(channel(.)) and the complement."""
    r = degrading_map(lam, p)
    return chn.channel_distance(compose(r, channel_N(lam, p)), complement_N(lam, p))


# Z m Z flips the sign of the off-diagonal entries of a qubit matrix m
_Z_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _conjugation_residuals(
    ch: KrausChannel, comp: KrausChannel, states: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """|I_c(m) - I_c(Z m Z)| and |I_c(m) - I_c(X m X)| for each of the
    already validated qubit states ``states`` (k, 2, 2).

    Row k does not depend on the other rows: ``_ic_stack`` scores each state
    of a stack as it scores that state alone.
    """
    stack = np.empty((len(states), 3, 2, 2), dtype=complex)
    stack[:, 0] = states
    stack[:, 1] = states * _Z_SIGNS  # Z m Z
    stack[:, 2] = states[:, ::-1, ::-1]  # X m X
    ic = _ic_stack(ch, comp, stack)
    dz, dx = np.abs(ic[:, :1] - ic[:, 1:]).T
    return dz, dx


def ic_conjugation_residual(lam: float, p: float, rho) -> tuple[float, float]:
    """Coherent-information change under Z and X conjugation of the input."""
    n, nb = channel_N(lam, p), complement_N(lam, p)
    dz, dx = _conjugation_residuals(n, nb, chn.checked_input(n, rho)[None])
    return float(dz[0]), float(dx[0])


# ---------------------------------------------------------------------------
# derivative condition along a parameter curve


def _check_stencil_lambda(lam: float, h: float) -> float:
    """``lam`` as a float, or DomainError unless [lam - h, lam + h] lies in [0, 1/2].

    Written as one chained comparison so that NaN fails it too.
    """
    lam = as_real("lambda", lam)
    if not h <= lam <= 0.5 - h:
        raise DomainError(f"lambda must sit inside [0, 1/2] by at least {h!r}, got {lam!r}")
    return lam


def derivative_check(
    p_of_lambda: Callable[[float], float], lam: float
) -> tuple[float, float]:
    """Compare the analytic capacity derivative along a curve p(lambda) with a
    finite difference of the capacity itself.

    analytic = H(p) - 2 + lam p'(lam) log2((1-p)/p) with p' from a central
    difference (step 1e-6); numeric differentiates the closed-form capacity
    (step 1e-5).  Diverges near p in {0, 1}, hence the domain guard.
    """
    h_curve, h_cap = 1e-6, 1e-5
    lam = _check_stencil_lambda(lam, h_cap)
    p0 = float(p_of_lambda(lam))
    if min(p0, 1.0 - p0) <= 1e-6:
        raise DomainError("derivative of the binary entropy diverges near p in {0, 1}")
    p_plus = float(p_of_lambda(lam + h_curve))
    p_minus = float(p_of_lambda(lam - h_curve))
    if not (0.0 < p_plus < 1.0 and 0.0 < p_minus < 1.0):
        raise DomainError("curve leaves (0, 1) within the finite-difference stencil")
    p_prime = (p_plus - p_minus) / (2.0 * h_curve)
    analytic = (
        binary_entropy(p0) - 2.0 + lam * p_prime * float(np.log2((1.0 - p0) / p0))
    )
    numeric = (
        one_way_capacity(lam + h_cap, float(p_of_lambda(lam + h_cap)))
        - one_way_capacity(lam - h_cap, float(p_of_lambda(lam - h_cap)))
    ) / (2.0 * h_cap)
    return analytic, numeric


def derivative_condition_margin(p_of_lambda, lam: float) -> float:
    """p'(lam) - 2 p(lam)/lam: positive margin certifies an increasing capacity."""
    h = 1e-6
    lam = _check_stencil_lambda(lam, h)
    p0 = float(p_of_lambda(lam))
    p_prime = (float(p_of_lambda(lam + h)) - float(p_of_lambda(lam - h))) / (2.0 * h)
    return p_prime - 2.0 * p0 / lam


# ---------------------------------------------------------------------------
# alternating-bounds sequence (discrete family construction)


def bisect(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Point where f turns from negative to nonnegative, with f(lo) < 0 <= f(hi).

    Bisects on ``f(mid) < 0`` until the finite bracket can no longer be split
    in floating point and returns the midpoint of the final bracket.  Having
    no absolute stop keeps it exact on the doubly exponentially shrinking
    brackets of the alternating-bounds sequence.  A NaN ``f(mid)`` raises
    PreconditionViolated naming ``mid``.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if math.isinf(mid):  # lo + hi overflowed: halve first
            mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            return mid
        value = f(mid)
        if value < 0.0:
            lo = mid
        elif value >= 0.0:
            hi = mid
        else:
            raise PreconditionViolated(f"bisection met f = NaN at x={float(mid)!r}")


def alternating_bounds_sequence(
    q_lb: Callable[[float], float],
    q_ub: Callable[[float], float],
    q_twoway: Callable[[float], float],
    a: float,
    b: float,
    n_terms: int,
) -> list[SequenceItem]:
    """Build the strictly decreasing parameter sequence that interleaves the
    one-way bounds while the two-way value keeps rising.

    Preconditions (spot-checked on a 100-point grid): ``q_lb(a) = q_ub(a)``,
    ``q_lb <= q_ub`` on [a, b], ``q_ub < q_twoway`` on (a, b], ``q_lb`` and
    ``q_ub`` strictly increasing, ``q_twoway`` strictly decreasing.

    Recursion: x_0 = b; t solves q_ub(t) = q_lb(x_{n-1}); x_n = (t + a)/2.
    Each term is checked against the one before it as it is built, starting
    with x_0 = b: x_n < x_{n-1}, q_ub(x_n) < q_lb(x_{n-1}) and
    q_twoway(x_n) >= q_twoway(x_{n-1}).
    """
    n_terms = check_count("n_terms", n_terms, 1)
    a, b = float(a), float(b)
    if not a < b:
        raise DomainError(f"need a < b, got a={a!r}, b={b!r}")

    grid = np.linspace(a, b, 100)  # grid[-1] == b exactly
    lb = np.array([q_lb(x) for x in grid])
    ub = np.array([q_ub(x) for x in grid])
    tw = np.array([q_twoway(x) for x in grid])
    if not abs(lb[0] - ub[0]) <= 1e-9:  # NaN fails too
        raise PreconditionViolated(
            f"bounds do not meet at a={a!r}: lb={float(lb[0])!r}, ub={float(ub[0])!r}"
        )
    # where each condition holds on the grid; a NaN fails every comparison
    # but the first, so the checks after it catch a NaN there
    for message, holds in (
        ("lower bound exceeds upper bound", ~(lb > ub + 1e-12)),
        ("upper bound not below two-way value", np.r_[True, ub[1:] < tw[1:]]),
        ("lower bound not strictly increasing", np.r_[True, lb[1:] > lb[:-1]]),
        ("upper bound not strictly increasing", np.r_[True, ub[1:] > ub[:-1]]),
        ("two-way value not strictly decreasing", np.r_[True, tw[1:] < tw[:-1]]),
    ):
        if not holds.all():
            raise PreconditionViolated(f"{message} at x={float(grid[np.argmin(holds)])!r}")

    items: list[SequenceItem] = []
    x_prev, lb_prev, tw_prev = b, float(lb[-1]), float(tw[-1])
    for n in range(1, n_terms + 1):
        t = bisect(lambda x: q_ub(x) - lb_prev, a, x_prev)
        x_n = 0.5 * (t + a)
        if not a < x_n < x_prev:
            raise PreconditionViolated(
                f"sequence collapsed at term {n}: x_{n}={x_n!r} (parameter underflow)"
            )
        item = SequenceItem(n, x_n, q_lb(x_n), q_ub(x_n), q_twoway(x_n))
        # the two-way value rises exactly as x falls through the strictly
        # decreasing curve, but its rounded doubles tie once the x step drops
        # below one ulp of the value: hence >= here and the strict x check above
        if not (item.q_ub < lb_prev and item.q_two_way >= tw_prev):
            raise PreconditionViolated(f"sequence invariant failed between terms {n - 1} and {n}")
        items.append(item)
        x_prev, lb_prev, tw_prev = x_n, item.q_lb, item.q_two_way
    return items


def sequence_bound_curves():
    """Bound curves for the one-parameter family lam(p) = 1/2 + p.

    The lower bound uses the particularized form H(p)/2 - 2p + p H(p), which
    is algebraically equal to 1 - (1/2 + p)(2 - H(p)) but free of the
    catastrophic cancellation that flattens the generic expression to zero
    once p falls below machine epsilon (the sequence shrinks that far by its
    second term).
    """

    def q_lb(p: float) -> float:
        h = binary_entropy(p)
        return max(0.0, 0.5 * h - 2.0 * p + p * h)

    def q_ub(p: float) -> float:
        return continuity_upper_bound(0.5 + p, p)

    def q_tw(p: float) -> float:
        return two_way_capacity(0.5 + p)

    return q_lb, q_ub, q_tw


def sequence_upper_crossing() -> float:
    """Parameter where the entropic upper bound meets 1 - lam on the 1/2+p family.

    Recomputed by bisection rather than trusting the nominal range end 2e-4;
    the sequence driver only uses parameters below min(1e-4, this crossing).
    """

    def gap(p: float) -> float:
        return _continuity_entropic(0.5 + p, p) - (0.5 - p)

    hi = 1e-4
    while gap(hi) < 0.0:
        hi *= 2.0
        if hi > 0.125:
            raise PreconditionViolated("no crossing of the upper bound with 1 - lambda")
    return bisect(gap, 0.0, hi)


def default_sequence(n_terms: int) -> tuple[list[SequenceItem], dict]:
    """Alternating-bounds sequence for lam(p) = 1/2 + p with recomputed range."""
    b_star = sequence_upper_crossing()
    b = min(1e-4, b_star)
    q_lb, q_ub, q_tw = sequence_bound_curves()
    items = alternating_bounds_sequence(q_lb, q_ub, q_tw, 0.0, b, n_terms)
    meta = {
        "family": "lambda(p) = 1/2 + p",
        "upper_crossing": b_star,
        "nominal_range_end": 2.0e-4,
        "b_used": b,
    }
    return items, meta


# ---------------------------------------------------------------------------
# figure sweeps


def sweep(curve: Curve, points: int) -> SweepTable:
    """Rows of ``curve`` on a uniform grid of ``points`` x values over its range.

    One batched pass over the whole grid; the columns equal the scalar closed
    forms bit for bit.
    """
    points = check_count("points", points, 2)
    x = np.linspace(*curve.x_range, points)
    lam, p = curve.params(x)
    # the forms are unchecked: a lam or p outside [0, 1] gives a value outside
    # [0, 1] or NaN somewhere in its row, which the table's range rule refuses
    with np.errstate(all="ignore"):
        table = SweepTable(x, lam, p, *curve.row(lam, p))
    for col in vars(table).values():
        if col is not None:
            col.flags.writeable = False
    return table


def _glued_row(lam: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, ...]:
    """One-way value only where certified (``degradable``), two-way and both bounds."""
    return (np.where(degradable(lam, p), _one_way(lam, p), np.nan), _two_way(lam),
            _lower_bound(lam, p), _continuity_bound(lam, p))


_UPPER_BOUND_NOTE = "continuity bound certifies the capacity only for lambda >= 1/2"

FIG3 = Curve(
    x_range=(0.25, 0.3125),
    params=lambda lam: (lam, 4.0 * lam - 1.0),
    row=_glued_row,
    meta=lambda: {
        "scenario": "fig3",
        "p_of_lambda": "4*lambda - 1",
        "lambda_range": [0.25, 0.3125],
        "upper_bound_note": _UPPER_BOUND_NOTE,
    },
)


FIG4 = Curve(
    x_range=(0.35, 0.5),
    params=lambda p: (p / np.log2(1.0 / p), p),
    row=_glued_row,
    meta=lambda: {
        "scenario": "fig4",
        "lambda_of_p": "p / log2(1/p)",
        "p_range": [0.35, 0.5],
        "log_base_note": (
            "log read base-2 via p/log2(1/p) so the weight stays in [0, 1/2]. "
            "Under this reading both the one-way and the two-way curve strictly "
            "decrease on the range and meet at p=1/2."
        ),
        "upper_bound_note": _UPPER_BOUND_NOTE,
    },
)


def fig4_lambda(p: float) -> float:
    """Parametrization lam(p) = p / log2(1/p) of ``FIG4``.

    Dividing by log2(1/p) rather than log(p) keeps the weight nonnegative
    and inside [0, 1/2] on [0.35, 0.5], and makes the one-way value meet the
    two-way value at p = 1/2.  Both curves strictly decrease on the range: on
    100,001 grid points every one-way step lies in [-3.67e-6, -1.75e-6].
    """
    p = as_real("p", p)
    if not 0.0 < p < 1.0:
        raise DomainError(f"parametrization needs p in (0, 1), got {p!r}")
    return float(FIG4.params(p)[0])


def custom_curve(lam_min: float, lam_max: float, p_min: float, p_max: float) -> Curve:
    """Curve sweeping lambda at fixed p = p_min, or p at fixed lambda = lam_min.

    Exactly one parameter must vary (min < max); the fixed one needs min ==
    max, so that no range end is silently dropped.  The one-way column is
    populated only where the closed form is certified (``degradable``);
    elsewhere the rows carry the bound columns.
    """
    lam_min, lam_max = check_prob("lambda", lam_min), check_prob("lambda", lam_max)
    p_min, p_max = check_prob("p", p_min), check_prob("p", p_max)
    sweep_lambda = lam_min < lam_max
    if sweep_lambda == (p_min < p_max):
        raise DomainError("custom sweep needs exactly one varying parameter")
    fixed, lo, hi = ("p", p_min, p_max) if sweep_lambda else ("lambda", lam_min, lam_max)
    if lo != hi:
        raise DomainError(
            f"custom sweep fixes {fixed}, so its min and max must be equal, got {lo!r} and {hi!r}"
        )
    return Curve(
        x_range=(lam_min, lam_max) if sweep_lambda else (p_min, p_max),
        params=((lambda lam: (lam, np.full_like(lam, p_min))) if sweep_lambda
                else (lambda p: (np.full_like(p, lam_min), p))),
        row=_glued_row,
        meta=lambda: {
            "scenario": "custom",
            "lambda_range": [lam_min, lam_max],
            "p_range": [p_min, p_max],
            "one_way_note": "one-way column is empty where lambda > 1/2 (no certified value)",
        },
    )


# ---------------------------------------------------------------------------
# two-way achievability protocol (Monte Carlo)


def two_way_postselected_fidelity(lam: float, p: float) -> float:
    """Fidelity of the kept-block post-selected state with the maximally
    entangled target; 1 by construction, recomputed as a consistency check."""
    k0 = channel_N(lam, p).kraus[0]
    if np.abs(k0).max() == 0.0:  # lam = 1: the kept branch never fires
        return 1.0
    phi = maximally_entangled(2).amplitudes
    i2 = np.eye(2, dtype=complex)
    post = np.kron(i2, k0) @ phi
    post /= np.linalg.norm(post)
    target = np.kron(i2, np.eye(4, 2, dtype=complex)) @ phi
    return float(np.abs(target.conj() @ post) ** 2)


def simulate_two_way_protocol(
    lam: float, p: float, uses: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo run of the entanglement-consumption protocol.

    Each use sends half of a maximally entangled pair, samples a Kraus branch
    with the Born probabilities, and reads the block flag; kept (identity
    block) rounds transmit noiselessly.  Returns (rate estimate, std error)
    with the Bernoulli standard error sqrt(lam (1 - lam) / uses).  The output
    is fixed by one uniform per use from stream ``STREAM_QUANTUM_PROTOCOL``,
    counted chunk by chunk (``sampling.draw_chunks``).
    """
    lam, p = check_params(lam, p)
    uses, seed = check_run(uses, seed)

    fid = two_way_postselected_fidelity(lam, p)
    if abs(1.0 - fid) > 1e-10:
        raise ChancapError(f"post-selected state fidelity defect {1.0 - fid:.3e}")

    # inverse-CDF branch sampling: u falls in branch 0, the only Kraus
    # operator into the identity block, exactly when u < its Born probability,
    # so the rounds with u >= it are dropped
    k0 = channel_N(lam, p).kraus[0]
    pi = np.eye(2, dtype=complex) / 2
    p_kept = float(np.trace(k0 @ pi @ k0.conj().T).real)
    kept = uses - sum(int(np.count_nonzero(dropped)) for (dropped,)
                      in draw_chunks(seed, STREAM_QUANTUM_PROTOCOL, uses, (p_kept,)))
    rate = kept / uses
    std_error = float(np.sqrt(lam * (1.0 - lam) / uses))
    return rate, std_error
