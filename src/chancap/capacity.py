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
from .sampling import STREAM_QUANTUM_PROTOCOL, check_run, sum_chunks


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


def _phi(x):
    """H((1 + sqrt x)/2), the entropy of a qubit state with |r|^2 = x, elementwise.

    Written through (1 - sqrt x)/2 = (1 - x)/(2(1 + sqrt x)), so that x near
    1 keeps its digits.
    """
    return _binary_entropy((1.0 - x) / (2.0 * (1.0 + np.sqrt(x))))


def _phi_slope(x):
    """phi'(x) = -atanh(sqrt x)/(2 ln 2 sqrt x) for x in [0, 1), -1/(2 ln 2) at 0."""
    s = np.sqrt(x)
    return -np.divide(np.arctanh(s), s, out=np.ones_like(s), where=s > 0.0) / (2.0 * math.log(2.0))


def _phi_bracket(alpha: float, beta: float, c2: float, total: float) -> tuple[float, float, float]:
    """(lo, hi, x*) with lo = G(x*) <= max G <= hi and hi - lo <= 1e-12 for
    G(x) = alpha phi(x) + beta [phi(c2 x) - phi(c2)] on [0, 1], c2 in [0, 1],
    given ``total`` = alpha + beta in closed form.  G(1) = 0.

    A branch-and-bound from 16 cells.  G(0) and G(1) are scored first; each
    round scores the cells' midpoints, raises lo where one is strictly higher
    (so ties keep the smallest x), and bounds each cell [a, b] by the smaller of

    * tangent plus chord: phi is concave, so a term with a positive
      coefficient lies under its tangent at the midpoint and one with a
      negative coefficient (sign bit set, -0 included) under its chord; the
      sum of the two lines peaks at a or b;
    * a monotone split: G = alpha [phi(x) - phi(c2 x)] + total phi(c2 x) + const,
      whose bracket is nonincreasing (phi' <= phi'(c2 x) <= c2 phi'(c2 x) <= 0),
      so each term peaks at a or b (the first at a if alpha is positive).

    The split bound keeps flat cases from splitting every cell; the tangent
    bound closes interior maxima.  hi is the largest bound (at least lo); the
    search stops once hi - lo <= 1e-12, else halves each cell whose bound
    exceeds lo + 1e-12 and drops the others.
    """
    top = -beta * float(_phi(c2))
    ends = alpha * _phi(np.array([0.0, 1.0])) + beta * _phi(np.array([0.0, c2])) + top
    lo, x_star = float(ends.max()), float(ends[1] > ends[0])
    alpha_tangent, beta_tangent = (math.copysign(1.0, k) > 0.0 for k in (alpha, beta))
    edges = np.linspace(0.0, 1.0, 17)
    a, b = edges[:-1], edges[1:]
    while True:
        m = 0.5 * (a + b)
        pa, pm, qa, qm, qb = _phi(np.concatenate((a, m, c2 * a, c2 * m, c2 * b))).reshape(5, -1)
        f = alpha * pm + beta * qm + top
        k = int(np.argmax(f))
        if f[k] > lo:
            lo, x_star = float(f[k]), float(m[k])
        if alpha_tangent:  # each line at both ends a, b of its cell
            slope = _phi_slope(m)
            line, drop = [alpha * (pm + slope * (e - m)) for e in (a, b)], pa - qa
        else:
            pb = _phi(b)
            line, drop = [alpha * pa, alpha * pb], pb - qb
        if beta_tangent:
            slope = c2 * _phi_slope(c2 * m)
            line = [y + beta * (qm + slope * (e - m)) for y, e in zip(line, (a, b))]
        else:
            line = [line[0] + beta * qa, line[1] + beta * qb]
        split = alpha * drop + np.maximum(total * qa, total * qb)
        bound = np.minimum(np.maximum(*line), split) + top
        hi = max(lo, float(bound.max()))
        if hi - lo <= 1e-12:
            return lo, hi, x_star
        keep = bound > lo + 1e-12
        a, m, b = a[keep], m[keep], b[keep]
        a, b = np.column_stack((a, m)).ravel(), np.column_stack((m, b)).ravel()


def _one_shot_bracket(lam: float, p: float) -> tuple[float, float, float]:
    """(lo, hi, x*) with lo = F(x*) <= max I_c <= hi and hi - lo <= 1e-12, where
    max I_c is the one-shot coherent information of the glued channel
    maximized over qubit inputs, for an already checked (lam, p).

    Lemma: at a fixed |r|^2 = x, the coherent information of the input with
    Bloch vector r is largest on the equator, where it is
    F(x) = (1 - lam) phi(x) - lam phi(c^2 x) + lam phi(c^2), c = 1 - 2p.
    So max I_c = max over x in [0, 1] of F(x), bracketed by ``_phi_bracket``.

    Proof.  phi(x) = H((1 + sqrt x)/2) = 1 - (1/ln 2) sum_k x^k/(2k(2k - 1)),
    so phi decreases and is concave on [0, 1].  The glued channel and its
    complement are phase-covariant under diag(1, e^{i theta}), so I_c
    depends on (r_x, r_y) only through u^2 = r_x^2 + r_y^2.  The output is
    (1 - lam) rho plus lam times the complementary dephasing of rho, the
    environment a flag plus lam times the dephasing of rho, which maps
    (u, z) to (c u, z); the complementary dephasing's output has squared
    Bloch length c^2 + (1 - c^2) z^2.  With t = z^2 and u^2 = x - t,

        I_c = (1 - lam) phi(x) + lam [phi(a + d) - phi(a)],
        a = c^2 x + (1 - c^2) t,  d = c^2 (1 - x) >= 0.

    At fixed x, d is fixed and a rises with t; concavity makes
    phi(a + d) - phi(a) nonincreasing in a, so I_c is largest at t = 0,
    where a = c^2 x and a + d = c^2.
    """
    return _phi_bracket(1.0 - lam, -lam, (1.0 - 2.0 * p) ** 2, 1.0 - 2.0 * lam)


def maximize_coherent_information(lam: float, p: float) -> tuple[float, np.ndarray]:
    """Maximize the one-shot coherent information of the glued channel over
    qubit inputs.

    Returns (value, argmax Bloch vector): the lower end lo of
    ``_one_shot_bracket``, within 1e-12 of the maximum, and the equator point
    (sqrt x*, 0, 0) where the coherent information is lo.  Ties keep the
    smallest |r|, so where the channel is ``degradable`` the maximally mixed
    input (0, 0, 0) is reported.
    """
    lam, p = check_params(lam, p)
    lo, _, x_star = _one_shot_bracket(lam, p)
    return lo, np.array([math.sqrt(x_star), 0.0, 0.0])


# ---------------------------------------------------------------------------
# closed forms


def _two_way(lam):
    return 1.0 - lam


def _one_way(lam, p):
    return 1.0 - lam * (2.0 - _binary_entropy(p))


def _lower_bound(lam, p):
    return np.maximum(_one_way(lam, p), 0.0)


def _complement_two_way(lam, p):
    return lam * (1.0 - _binary_entropy(p))


def _closeness(lam, p):
    """Distance 4 lam sqrt(p(1-p)) to the comparison channel T."""
    return 4.0 * lam * np.sqrt(p * (1.0 - p))


def _continuity_entropic(lam, p):
    eps = _closeness(lam, p)
    return 4.0 * eps + 2.0 * (2.0 + eps) * _binary_entropy(eps / (2.0 + eps))


def _continuity_bound(lam, p):
    return np.minimum(_two_way(lam), _continuity_entropic(lam, p))


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
    other inputs do better: ``maximize_coherent_information`` gives 0.012436
    at (lam, p) = (0.8, 0.2), where the bound is 0, and 0.027171 at
    (0.65, 0.9), where it is 0.004847.  The gap opens just above 1/2 for p
    near 0 or 1 (at lam ~ 0.5015 for p = 0.001, ~ 0.5525 for p = 0.05) and
    later for p nearer 1/2 (~ 0.7355 for p = 0.2); each onset is the first
    lam on the grid 1/2 + k 0.0005 where the maximizer's value exceeds this
    bound by more than 1e-9.
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
    second); the optimum is rho = |1><1|, the pole (0, 0, -1), so
    ``estimate`` is the trace norm of the output difference there.
    ``verify`` checks that no other input scores above ``analytic``.
    """
    lam, p = check_params(lam, p)
    estimate = float(_diamond_evaluator(lam, p)(np.array([[0.0, 0.0, -1.0]]))[0])
    return estimate, float(_closeness(lam, p))


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


def bernoulli_std_error(lam: float, uses: int) -> float:
    """sqrt(lam (1 - lam) / uses): the standard error of a rate of ``uses``
    rounds each kept with probability 1 - lam, as both protocols' are."""
    return float(np.sqrt(lam * (1.0 - lam) / uses))


def simulate_two_way_protocol(
    lam: float, p: float, uses: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo run of the entanglement-consumption protocol.

    Each use sends half of a maximally entangled pair, samples a Kraus branch
    with the Born probabilities, and reads the block flag; kept (identity
    block) rounds transmit noiselessly.  Returns (rate estimate, std error)
    with the standard error ``bernoulli_std_error(lam, uses)``.  The output is
    fixed by one uniform per use from stream ``STREAM_QUANTUM_PROTOCOL``,
    counted chunk by chunk on the calling thread (``sampling.sum_chunks``),
    so memory does not grow with ``uses``.
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
    (dropped,) = sum_chunks(seed, STREAM_QUANTUM_PROTOCOL, uses, (p_kept,),
                            lambda dropped: (int(np.count_nonzero(dropped)),))
    kept = uses - dropped
    return kept / uses, bernoulli_std_error(lam, uses)
