"""Classical weighted-direct-sum wiretap channel: capacities and protocols.

The channel broadcasts a flag L to both receivers.  With probability ``lam``
(L = 1) Eve gets the input bit exactly and Bob sees it through a binary
symmetric channel with crossover ``p``; with probability ``1 - lam`` (L = 2)
Bob gets the input bit exactly and Eve sees an independent uniform bit (the
independent distribution is a free choice; uniform keeps outputs symmetric).

Closed forms, in bits per use:

* one-way secrecy capacity where the channel is ``degraded``:
  ``1 - lam (1 + H(p))``
* two-way secrecy capacity, every ``lam``:  ``1 - lam``

Each is one unchecked function of floats or arrays, shared by the scalar
functions and ``FIG6``'s rows; ``degraded`` decides where it is certified.

The joint table is indexed ``table[x, y, z, l]`` with ``l = 0`` meaning L = 1
and ``l = 1`` meaning L = 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .capacity import Curve, _checked, _two_way, bisect
from .errors import DomainError, NotADistribution
from .qmath import _binary_entropy, as_real, check_count, check_prob
from .sampling import STREAM_WIRETAP_PROTOCOL, check_run, draw_chunks

GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class WiretapChannel:
    """Joint conditional pmf P(y, z, l | x) over binary x, y, z and l in {1, 2}."""

    lam: float
    p: float
    table: np.ndarray

    def __post_init__(self):
        # lam is typed first and range-checked last, so that a NaN lam fails the flag check
        lam = as_real("lambda", self.lam)
        p = check_prob("p", self.p)
        t = np.asarray(self.table, dtype=float)
        if t.shape != (2, 2, 2, 2):
            raise NotADistribution(f"table shape {t.shape} != (2, 2, 2, 2)")
        if not np.all(t >= 0.0):
            raise NotADistribution("conditional probabilities must be >= 0")
        sums = t.sum(axis=(1, 2, 3))
        if not np.abs(sums - 1.0).max() <= 1e-12:
            raise NotADistribution(f"conditional slices sum to {sums}, not 1")
        flag = t[:, :, :, 0].sum(axis=(1, 2))
        if not np.abs(flag - lam).max() <= 1e-12:
            raise NotADistribution("flag probability must be input-independent = lambda")
        object.__setattr__(self, "lam", check_prob("lambda", lam))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "table", t)

    def bob_given_x(self) -> np.ndarray:
        """P(y, l | x), shape (2, 2, 2)."""
        return self.table.sum(axis=2)

    def eve_given_x(self) -> np.ndarray:
        """P(z, l | x), shape (2, 2, 2)."""
        return self.table.sum(axis=1)


def build_wiretap(lam: float, p: float) -> WiretapChannel:
    """Assemble the joint conditional table for parameters (lam, p)."""
    lam, p = _checked(lam, p)
    t = np.zeros((2, 2, 2, 2))
    for x in range(2):
        for y in range(2):
            # L = 1: z = x, y is z through the BSC(p)
            t[x, y, x, 0] = lam * (1.0 - p if y == x else p)
            # L = 2: y = x, z uniform
            for z in range(2):
                t[x, y, z, 1] += (1.0 - lam) * (1.0 if y == x else 0.0) * 0.5
    return WiretapChannel(lam, p, t)


def mutual_information(joint) -> float:
    """I(A; B) in bits from a joint pmf over two finite alphabets."""
    j = np.asarray(joint, dtype=float)
    if j.ndim != 2 or not np.all(j >= -1e-12):
        raise NotADistribution("joint pmf must be a nonnegative matrix")
    s = j.sum()
    if not abs(s - 1.0) <= 1e-9:
        raise NotADistribution(f"joint pmf sums to {s!r}, not 1")
    return float(_mutual_information_stack(np.clip(j, 0.0, None)[None])[0])


def secrecy_objective(ch: WiretapChannel, q: float) -> float:
    """I(X; Y, L) - I(X; Z, L) for the Bernoulli(q) input, q = P(x = 0)."""
    q = check_prob("q", q)
    return float(_secrecy_objective_grid(ch, np.array([q]))[0])


def _mutual_information_stack(joints: np.ndarray) -> np.ndarray:
    """I(A; B) in bits for a stack (n, a, b) of joint pmfs built by the caller."""
    pa = joints.sum(axis=2, keepdims=True)
    pb = joints.sum(axis=1, keepdims=True)
    mask = joints > 0.0
    ratio = np.where(mask, joints, 1.0) / np.where(mask, pa * pb, 1.0)
    return (joints * np.log2(ratio)).sum(axis=(1, 2))


def _secrecy_objective_grid(ch: WiretapChannel, qs: np.ndarray) -> np.ndarray:
    """``secrecy_objective`` at every q of a grid in [0, 1], in one batch."""
    w = np.column_stack([qs, 1.0 - qs])[:, :, None, None]
    bob = (ch.bob_given_x() * w).reshape(-1, 2, 4)
    eve = (ch.eve_given_x() * w).reshape(-1, 2, 4)
    return _mutual_information_stack(bob) - _mutual_information_stack(eve)


def decomposition_residual(ch: WiretapChannel, q: float) -> float:
    """Difference between the full-joint objective and its per-flag expansion."""
    q = check_prob("q", q)
    w = np.array([q, 1.0 - q])
    full = secrecy_objective(ch, q)
    per_flag = 0.0
    for l, weight in ((0, ch.lam), (1, 1.0 - ch.lam)):
        if weight == 0.0:
            continue
        bob = (ch.table[:, :, :, l].sum(axis=2) * w[:, None]) / weight
        eve = (ch.table[:, :, :, l].sum(axis=1) * w[:, None]) / weight
        per_flag += weight * (mutual_information(bob) - mutual_information(eve))
    return abs(full - per_flag)


def secrecy_capacity_bruteforce(ch: WiretapChannel, grid: int = 201) -> tuple[float, float]:
    """Maximize the secrecy objective over the input law.

    Scans a uniform grid in q (at least 101 points), then refines around the
    best point with a golden-section search to 1e-10 in q, kept only if it
    does strictly better.  Ties thus go to the smallest grid q: where the
    objective is nowhere positive, e.g. (lam, p) = (1/2, 1/2) or (0.75, 0.2),
    the search reports q = 0.

    For lam <= 1/2 the channel is degraded and this maximum is the secrecy
    capacity.  Above 1/2 it is not degraded, and the maximum over the input
    law alone, with no prefix channel U -> X (Csiszar and Korner 1978), is
    only a lower bound on the secrecy capacity.
    """
    grid = check_count("grid", grid, 101)
    qs = np.linspace(0.0, 1.0, grid)
    vals = _secrecy_objective_grid(ch, qs)
    i = int(np.argmax(vals))
    lo = qs[max(0, i - 1)]
    hi = qs[min(grid - 1, i + 1)]

    c = hi - GOLDEN * (hi - lo)
    d = lo + GOLDEN * (hi - lo)
    fc, fd = secrecy_objective(ch, c), secrecy_objective(ch, d)
    while hi - lo > 1e-10:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - GOLDEN * (hi - lo)
            fc = secrecy_objective(ch, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + GOLDEN * (hi - lo)
            fd = secrecy_objective(ch, d)
    q_best = 0.5 * (lo + hi)
    f_best = secrecy_objective(ch, q_best)
    if vals[i] >= f_best:
        q_best, f_best = float(qs[i]), float(vals[i])
    return float(f_best), float(q_best)


def degraded(lam, p):
    """Where Eve's view is degraded from Bob's, elementwise: 0 <= lam <= 1/2 (not NaN)."""
    return (0.0 <= lam) & (lam <= 0.5)


def _one_way_secrecy(lam, p):
    return 1.0 - lam * (1.0 + _binary_entropy(p))


def one_way_secrecy_capacity(lam: float, p: float) -> float:
    """1 - lam (1 + H(p)); certified only where the channel is ``degraded``."""
    return float(_one_way_secrecy(*_checked(lam, p, degraded)))


def two_way_secrecy_capacity(lam: float) -> float:
    """1 - lam for every lam in [0, 1]."""
    return _two_way(check_prob("lambda", lam))


def degrading_stochastic_map(lam: float, p: float) -> np.ndarray:
    """Stochastic map T(z, l' | y, l) taking Bob's view to Eve's view.

    On L = 1 it reports L' = 2 with a fresh uniform bit; on L = 2 it reports
    (L' = 1, z = y) with probability lam / (1 - lam) and a fresh uniform bit
    under L' = 2 otherwise.  Indexing: map[y, l, z, l'].  T does not depend
    on p, but it exists only where the channel is ``degraded`` at (lam, p),
    which keeps the mixing probability in [0, 1].
    """
    lam, _ = _checked(lam, p, degraded)
    mix = lam / (1.0 - lam)
    t = np.zeros((2, 2, 2, 2))
    for y in range(2):
        for z in range(2):
            t[y, 0, z, 1] = 0.5
            t[y, 1, z, 1] = (1.0 - mix) * 0.5
        t[y, 1, y, 0] = mix
    return t


def verify_degraded(ch: WiretapChannel) -> float:
    """Max residual of T applied to Bob's conditional versus Eve's conditional."""
    t = degrading_stochastic_map(ch.lam, ch.p)
    bob = ch.bob_given_x()  # (x, y, l)
    eve = ch.eve_given_x()  # (x, z, l)
    composed = np.einsum("xyl,ylzm->xzm", bob, t)
    return float(np.abs(composed - eve).max())


def simulate_feedback_protocol(
    lam: float, p: float, uses: int, seed: int
) -> tuple[float, float]:
    """Monte Carlo run of the accept/retransmit protocol.

    Alice sends uniform bits; Bob discards flag-1 rounds and accepts flag-2
    rounds (where y = x).  Returns (throughput, leakage estimate) where the
    leakage is the plug-in empirical mutual information between Alice's bit
    and Eve's observation on accepted rounds.  The output is fixed by three
    draws of ``uses`` values from stream ``STREAM_WIRETAP_PROTOCOL``, in this
    order: Alice's bits, the flag uniforms, Eve's bits.  Alice's bits take
    the first ceil(uses/2) raw words, the flags the next ``uses`` and Eve's
    bits the next floor(uses/2); for odd ``uses`` Eve's first bit is the high
    half of Alice's last word.  How they are counted may change, the draws
    may not.  They are counted chunk by chunk (``sampling.draw_chunks``), so
    memory does not grow with ``uses``.
    """
    lam, p = _checked(lam, p)
    uses, seed = check_run(uses, seed)
    accepted = x1 = z1 = both = 0
    # flag2 is True where L = 2 (accepted); z is Eve's bit there
    for x, flag2, z in draw_chunks(seed, STREAM_WIRETAP_PROTOCOL, uses, (None, lam, None)):
        x &= flag2
        z &= flag2
        accepted += int(np.count_nonzero(flag2))
        x1 += int(np.count_nonzero(x))
        z1 += int(np.count_nonzero(z))
        both += int(np.count_nonzero(x & z))
    throughput = accepted / uses
    if accepted == 0:
        return throughput, 0.0
    counts = np.array([[accepted - x1 - z1 + both, z1 - both], [x1 - both, both]], dtype=float)
    leakage = mutual_information(counts / accepted)
    return throughput, leakage


def fig6_crossover() -> float:
    """Parameter where the one-way curve turns from decreasing to increasing.

    Recomputed from a sign change of the central-difference derivative; the
    display range's lower endpoint 0.8687 is not assumed to equal it.
    """
    h = 1e-7

    def slope(p: float) -> float:
        up = one_way_secrecy_capacity(fig6_lambda(p + h), p + h)
        dn = one_way_secrecy_capacity(fig6_lambda(p - h), p - h)
        return (up - dn) / (2.0 * h)

    grid = np.linspace(0.6, 0.99, 79)
    slopes = [slope(p) for p in grid]
    lo = hi = None
    for a, b, sa, sb in zip(grid, grid[1:], slopes, slopes[1:]):
        if sa < 0.0 <= sb:
            lo, hi = a, b
            break
    if lo is None:
        raise DomainError("no slope sign change found on [0.6, 0.99]")
    return bisect(slope, lo, hi)


FIG6 = Curve(
    x_range=(0.8687, 1.0),
    params=lambda p: (p / (2.0 * np.log2(6.0 / p)), p),
    row=lambda lam, p: (np.where(degraded(lam, p), _one_way_secrecy(lam, p), np.nan),
                        _two_way(lam), None, None),
    meta=lambda: {
        "scenario": "fig6",
        "lambda_of_p": "p / (2*log2(6/p))",
        "p_range": [0.8687, 1.0],
        "slope_crossover_p": fig6_crossover(),
        "crossover_note": "display range endpoint 0.8687 is not asserted equal to the crossover",
    },
)


def fig6_lambda(p: float) -> float:
    """Parametrization lam(p) = p / (2 log2(6 / p)) of ``FIG6``."""
    p = as_real("p", p)
    if not 0.0 < p <= 1.0:
        raise DomainError(f"parametrization needs p in (0, 1], got {p!r}")
    return float(FIG6.params(p)[0])
