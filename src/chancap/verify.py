"""Named invariant checks driven by `chancap verify` and the test suite.

Each check is deterministic (fixed seeds), states its residuals, and passes
iff their fold ``_worst`` meets the stated threshold; a NaN residual fails.
One function may own several named results (a value and its argmax, say) and
computes them in one run; nothing is cached between runs, so every
``run_checks`` call recomputes what it reports.  The check functions run in
forked worker processes, one per CPU the process may use; a single selected
function, or a single CPU, runs in-process.  The report is byte-identical
either way.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Optional

import numpy as np

from . import capacity as cap
from . import channels as chn
from . import output
from . import wiretap as wt
from .qmath import (
    _as_stack,
    _entropy_bits_rows,
    _hermitian_spectrum,
    _partial_traces,
    _state_spectrum,
    _trace_norm,
    binary_entropy,
    shannon_entropy,
    tensor,
    von_neumann_entropy,
)
from .sampling import random_density_matrix, random_hermitian, random_unitary


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    threshold: float
    detail: str = ""


# (names, fn): fn returns one CheckResult, or a tuple of them in name order
_REGISTRY: list[tuple[tuple[str, ...], Callable[[], object]]] = []


def _register(*names: str):
    def wrap(fn):
        _REGISTRY.append((names, fn))
        return fn

    return wrap


def _result(residual, threshold, detail="", passed=None) -> CheckResult:
    """A check's outcome; ``run_checks`` fills in the registered name."""
    if passed is None:
        passed = residual <= threshold
    return CheckResult("", bool(passed), float(residual), float(threshold), detail)


def _worst(residuals) -> float:
    """The largest residual, 0.0 when none is positive; NaN as soon as one is NaN.

    ``_result`` fails a NaN residual, so a route that goes NaN fails its check.
    """
    worst = 0.0
    for r in residuals:
        if math.isnan(r):
            return math.nan
        worst = max(worst, float(r))
    return worst


def check_names() -> list[str]:
    return [name for names, _ in _REGISTRY for name in names]


def _owned(i: int) -> list[tuple[str, CheckResult]]:
    """Run registry entry ``i``: its (name, result) pairs, every one failed if it crashed."""
    names, fn = _REGISTRY[i]
    try:
        out = fn()
        results = out if isinstance(out, tuple) else (out,)
        if not all(isinstance(r, CheckResult) for r in results):
            raise TypeError(f"check returned {type(out).__name__}, not CheckResult")
        owned = list(zip(names, results, strict=True))
    except Exception as exc:  # a crashed check is a failed check
        crash = _result(float("inf"), 0.0, f"{type(exc).__name__}: {exc}")
        owned = [(name, crash) for name in names]
    return owned


def _cpu_quota(path: str = "/sys/fs/cgroup/cpu.max") -> Optional[int]:
    """CPUs the cgroup v2 quota grants, ``ceil(quota / period)``; None when unlimited or unread."""
    try:
        with open(path) as f:
            quota, period = f.read().split()
        return -(-int(quota) // int(period))
    except (OSError, ValueError):  # no such file, or "max" for no quota
        return None


def run_checks(only: Optional[str] = None) -> list[CheckResult]:
    """The results whose names contain ``only`` (all if None), in registry order.

    Each check function owning such a name runs once per call; when it raises
    or returns anything but its results, every result it owns fails.

    When more than one function is selected and the process may run on more
    than one CPU, the functions run in forked worker processes, one per CPU
    (``os.sched_getaffinity``, capped by the cgroup CPU quota where one is
    set); otherwise, and where that call does not exist, they run in-process.
    The workers get registry indices, not functions, so lambdas and a patched
    registry work, and the results are gathered in registry order, so the
    report is the same either way.  ``fork`` and not ``spawn``: a fresh
    interpreter would import numpy and chancap again in every worker and lose
    the gain.  On Python >= 3.12 ``os.fork`` warns when the process already
    runs threads.
    """
    picked = [i for i, (names, _) in enumerate(_REGISTRY)
              if not only or any(only in name for name in names)]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    cpus = min(cpus, _cpu_quota() or cpus)
    if len(picked) > 1 and cpus > 1:
        # imported here so that importing cli, which imports this module, does not pay
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            min(cpus, len(picked)), mp_context=multiprocessing.get_context("fork")
        ) as pool:
            runs = list(pool.map(_owned, picked))
    else:
        runs = map(_owned, picked)
    return [replace(r, name=name) for owned in runs for name, r in owned
            if not only or only in name]


# ---------------------------------------------------------------------------
# qmath


def _stacked_draws(count: int, key: Callable[[], object],
                   draw: Callable[[object], tuple]) -> dict[object, list[np.ndarray]]:
    """``count`` draws, each a key ``k = key()`` and then the tuple ``draw(k)``,
    made in that order; per key, one stack of each tuple entry."""
    groups: dict[object, list[tuple]] = {}
    for _ in range(count):
        k = key()
        groups.setdefault(k, []).append(draw(k))
    return {k: [np.stack(entries) for entries in zip(*g)] for k, g in groups.items()}


@_register("qmath.eig_reconstruction")
def _check_eig_reconstruction() -> CheckResult:
    def residuals():
        rng = np.random.default_rng(101)
        dim = lambda: int(rng.integers(2, 13))  # noqa: E731
        for d, (ms,) in _stacked_draws(1000, dim, lambda d: (random_hermitian(rng, d),)).items():
            spectrum = _hermitian_spectrum(_as_stack(ms))
            v = spectrum.eigenvectors
            gram = v.conj().swapaxes(-1, -2) @ v
            yield from np.abs(spectrum.reconstruct() - ms).max(axis=(1, 2)).tolist()
            yield from np.abs(gram - np.eye(d)).max(axis=(1, 2)).tolist()
            yield from (np.diff(spectrum.eigenvalues) < 0).any(axis=-1).astype(float).tolist()
    return _result(_worst(residuals()), 1e-10)


@_register("qmath.entropy_unitary_invariance")
def _check_entropy_unitary() -> CheckResult:
    def residuals():
        rng = np.random.default_rng(102)
        dim = lambda: int(rng.integers(2, 7))  # noqa: E731
        draw = lambda d: (random_density_matrix(rng, d), random_unitary(rng, d))  # noqa: E731
        for rhos, us in _stacked_draws(200, dim, draw).values():
            turned = us @ rhos @ us.conj().swapaxes(-1, -2)
            h = [_entropy_bits_rows(_state_spectrum(_as_stack(ms))) for ms in (turned, rhos)]
            yield from np.abs(h[0] - h[1]).tolist()
    return _result(_worst(residuals()), 1e-10)


@_register("qmath.entropy_diagonal_matches_shannon")
def _check_entropy_diagonal() -> CheckResult:
    def residuals():
        rng = np.random.default_rng(103)
        dim = lambda: int(rng.integers(2, 9))  # noqa: E731
        for d, (ws,) in _stacked_draws(200, dim, lambda d: (rng.dirichlet(np.ones(d)),)).items():
            diagonals = np.zeros((len(ws), d, d), dtype=complex)
            diagonals[:, range(d), range(d)] = ws
            shannon = [shannon_entropy(w) for w in ws]
            h = _entropy_bits_rows(_state_spectrum(_as_stack(diagonals)))
            yield from np.abs(h - shannon).tolist()
    return _result(_worst(residuals()), 1e-12)


@_register("qmath.trace_norm_dominates_trace")
def _check_trace_norm() -> CheckResult:
    def residuals():
        rng = np.random.default_rng(104)
        dim = lambda: int(rng.integers(2, 9))  # noqa: E731
        draw = lambda d: (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),)  # noqa: E731
        for (ms,) in _stacked_draws(200, dim, draw).values():
            yield from (np.abs(ms.trace(axis1=1, axis2=2)) - _trace_norm(_as_stack(ms))).tolist()
    return _result(_worst(residuals()), 1e-12)


@_register("qmath.partial_trace_factorization")
def _check_partial_trace() -> CheckResult:
    def residuals():
        rng = np.random.default_rng(105)

        def draw(dims):
            rho = random_density_matrix(rng, dims[0])
            sigma = random_density_matrix(rng, dims[1])
            return rho, sigma, tensor(rho, sigma)

        factors = lambda: (int(rng.integers(2, 4)), int(rng.integers(2, 4)))  # noqa: E731
        for dims, (rhos, sigmas, prods) in _stacked_draws(100, factors, draw).items():
            for side, kept in (("second", rhos), ("first", sigmas)):
                yield from np.abs(_partial_traces(prods, dims, side) - kept).max(axis=(1, 2)).tolist()
    return _result(_worst(residuals()), 1e-12)


# ---------------------------------------------------------------------------
# channels

_LAM_GRID = np.linspace(0.0, 1.0, 10)
_P_GRID = np.linspace(0.0, 1.0, 5)


@_register("channels.kraus_completeness_grid")
def _check_completeness() -> CheckResult:
    def residuals():
        for lam, p in product(_LAM_GRID, _P_GRID):
            chans = [
                chn.dephasing_channel(p),
                chn.complementary_dephasing(p),
                chn.channel_N(lam, p),
                chn.complement_N(lam, p),
                chn.comparison_channel_T(lam, p),
                chn.erasure_channel(lam),
            ]
            if cap.degradable(lam, p):
                chans.append(cap.degrading_map(lam, p))
            for c in chans:
                yield float(np.abs(sum(k.conj().T @ k for k in c.kraus) - np.eye(c.dim_in)).max())
            v = chn.isometry_N(lam, p)
            yield float(np.abs(v.matrix.conj().T @ v.matrix - np.eye(2)).max())
    return _result(_worst(residuals()), 1e-10)


@_register("channels.complement_consistency")
def _check_complement_consistency() -> CheckResult:
    def residuals():
        for lam, p in product(_LAM_GRID, _P_GRID):
            v = chn.isometry_N(lam, p)
            keep_b = chn.channel_from_isometry(v, (4, 3), "first")
            keep_c = chn.channel_from_isometry(v, (4, 3), "second")
            yield chn.channel_distance(keep_b, chn.channel_N(lam, p))
            yield chn.channel_distance(keep_c, chn.complement_N(lam, p))
    return _result(_worst(residuals()), 1e-10)


@_register("channels.entropy_decomposition_output", "channels.entropy_decomposition_complement")
def _check_entropy_decomposition() -> tuple[CheckResult, CheckResult]:
    rng = np.random.default_rng(106)
    runs = []
    for _ in range(100):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        rho = random_density_matrix(rng, 2)
        h_rho = von_neumann_entropy(rho)
        h_dbar = chn.apply(chn.complementary_dephasing(p), rho).entropy()
        h_d = chn.apply(chn.dephasing_channel(p), rho).entropy()
        lhs_out = chn.apply(chn.channel_N(lam, p), rho).entropy()
        rhs_out = binary_entropy(lam) + lam * h_dbar + (1.0 - lam) * h_rho
        lhs_env = chn.apply(chn.complement_N(lam, p), rho).entropy()
        rhs_env = binary_entropy(lam) + lam * h_d
        runs.append((abs(lhs_out - rhs_out), abs(lhs_env - rhs_env)))
    return (_result(_worst(out for out, _ in runs), 1e-10),
            _result(_worst(env for _, env in runs), 1e-10))


@_register("channels.block_orthogonality")
def _check_block_orthogonality() -> CheckResult:
    def residuals():
        rng = np.random.default_rng(107)
        for _ in range(25):
            lam, p = rng.uniform(0.0, 1.0, size=2)
            rho = random_density_matrix(rng, 2)
            for c in (
                chn.channel_N(lam, p),
                chn.complement_N(lam, p),
                chn.comparison_channel_T(lam, p),
                chn.erasure_channel(lam),
            ):
                out = chn.apply(c, rho).matrix
                mask = np.ones_like(out, dtype=bool)
                for off, size in c.blocks:
                    mask[off : off + size, off : off + size] = False
                yield float(np.abs(out[mask]).max())
    return _result(_worst(residuals()), 1e-12)


# ---------------------------------------------------------------------------
# capacity


@_register("capacity.oneway_oracle_value", "capacity.oneway_oracle_argmax")
def _check_oneway_oracle() -> tuple[CheckResult, CheckResult]:
    rng = np.random.default_rng(108)
    runs = []
    for _ in range(20):
        lam = rng.uniform(0.0, 0.5)
        p = rng.uniform(0.0, 1.0)
        value, bloch = cap.maximize_coherent_information(lam, p)
        runs.append((abs(value - cap.one_way_capacity(lam, p)), float(np.linalg.norm(bloch))))
    return (_result(_worst(value for value, _ in runs), 1e-5),
            _result(_worst(bloch for _, bloch in runs), 1e-3))


@_register("capacity.degradable_composition")
def _check_degradable() -> CheckResult:
    grid = product(np.linspace(0.0, 0.5, 6), np.linspace(0.0, 1.0, 5))
    return _result(_worst(cap.verify_degradable(lam, p) for lam, p in grid), 1e-10)


@_register("capacity.pauli_conjugation_invariance")
def _check_pauli_invariance() -> CheckResult:
    def residuals():
        rng = np.random.default_rng(109)
        pairs = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(5)]
        for lam, p in pairs:
            states = np.stack([random_density_matrix(rng, 2) for _ in range(100)])
            _state_spectrum(_as_stack(states))  # the state checks of ic_conjugation_residual
            n, nb = chn.channel_N(lam, p), chn.complement_N(lam, p)
            for r in cap._conjugation_residuals(n, nb, states):
                yield from r.tolist()
    return _result(_worst(residuals()), 1e-9)


@_register("capacity.bounds_ordering")
def _check_bounds_ordering() -> CheckResult:
    # the continuity bound certifies the capacity only for lam >= 1/2, which
    # is where it must dominate the one-shot lower bound
    grid = product(np.linspace(0.5, 1.0, 11), np.linspace(0.0, 1.0, 11))
    return _result(_worst(
        cap.coherent_info_lower_bound(lam, p) - cap.continuity_upper_bound(lam, p)
        for lam, p in grid
    ), 1e-9)


@_register("capacity.oneway_below_twoway")
def _check_oneway_below_twoway() -> CheckResult:
    grid = product(np.linspace(0.0, 0.5, 11), np.linspace(0.0, 1.0, 11))
    return _result(_worst(
        cap.one_way_capacity(lam, p) - cap.two_way_capacity(lam) for lam, p in grid
    ), 1e-12)


def _opposite_monotonicity(pts: cap.SweepTable) -> CheckResult:
    """Passes iff the one-way column strictly rises and the two-way one strictly falls."""
    margin = float(np.min(np.concatenate([np.diff(pts.one_way), -np.diff(pts.two_way)])))
    return _result(
        margin,
        1e-9,
        "residual is the smallest step (must exceed threshold)",
        passed=margin > 1e-9,
    )


@_register("capacity.fig3_opposite_monotonicity", "capacity.fig3_endpoints")
def _check_fig3() -> tuple[CheckResult, CheckResult]:
    pts = cap.sweep(cap.FIG3, 100)
    worst = _worst((
        abs(pts.one_way[0] - 0.5),
        abs(pts.two_way[0] - 0.75),
        abs(pts.one_way[-1] - 0.628524413893479),
        abs(pts.two_way[-1] - 0.6875),
    ))
    return _opposite_monotonicity(pts), _result(worst, 1e-6)


@_register("capacity.diamond_estimate_is_lower_bound", "capacity.diamond_estimate_reaches_value")
def _check_diamond() -> tuple[CheckResult, CheckResult]:
    rng = np.random.default_rng(110)
    runs = []
    for _ in range(10):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        runs.append(cap.diamond_distance_to_T(lam, p))
    return (_result(_worst(est - ana for est, ana in runs), 1e-9),
            _result(_worst(ana - est for est, ana in runs), 1e-3))


@_register("capacity.sequence_invariants")
def _check_sequence() -> CheckResult:
    items, meta = cap.default_sequence(5)
    q_lb, q_ub, _ = cap.sequence_bound_curves()
    ok = all(b.x_n < a.x_n for a, b in zip(items, items[1:]))
    ok = ok and all(b.q_ub < a.q_lb for a, b in zip(items, items[1:]))
    ok = ok and items[0].q_ub < q_lb(meta["b_used"])
    ok = ok and all(b.q_two_way >= a.q_two_way for a, b in zip(items, items[1:]))
    return _result(
        0.0 if ok else 1.0,
        0.5,
        f"upper_crossing={meta['upper_crossing']:.6e} (nominal 2e-4), 5 terms",
        passed=ok,
    )


@_register("capacity.derivative_consistency")
def _check_derivative() -> CheckResult:
    curve = lambda l: 4.0 * l - 1.0  # noqa: E731
    pairs = (cap.derivative_check(curve, float(lam)) for lam in np.linspace(0.2525, 0.31, 15))
    return _result(_worst(abs(analytic - numeric) for analytic, numeric in pairs), 1e-5)


@_register("capacity.choi_state_ic_consistency")
def _check_choi_ic() -> CheckResult:
    # both routes start from N's superoperator but use different entropy
    # formulas: H(B) - H(AB) of the Choi state and H(N(pi)) - H(N^c(pi))
    def residuals():
        rng = np.random.default_rng(111)
        pi = chn.maximally_mixed(2)
        for _ in range(10):
            lam, p = rng.uniform(0.0, 1.0, size=2)
            n = chn.channel_N(lam, p)
            nb = chn.complement_N(lam, p)
            via_state = cap.coherent_information_state(chn.choi(n).state.matrix, (2, 4))
            via_channel = cap.coherent_information(n, nb, pi)
            yield abs(via_state - via_channel)
    return _result(_worst(residuals()), 1e-10)


@_register("capacity.fig4_endpoint_equality")
def _check_fig4_endpoint() -> CheckResult:
    pts = cap.sweep(cap.FIG4, 100)
    return _result(_worst((abs(pts[-1].one_way - 0.5), abs(pts[-1].two_way - 0.5))), 1e-9)


@_register("capacity.two_way_protocol_concentration")
def _check_quantum_protocol() -> CheckResult:
    lam, p, uses = 0.3, 0.2, 100_000
    sigma = float(np.sqrt(lam * (1.0 - lam) / uses))
    rates = (cap.simulate_two_way_protocol(lam, p, uses, seed)[0] for seed in range(10))
    return _result(_worst(abs(rate - (1.0 - lam)) for rate in rates), 3.0 * sigma)


@_register("capacity.two_way_postselect_fidelity")
def _check_postselect_fidelity() -> CheckResult:
    grid = product(np.linspace(0.0, 1.0, 6), np.linspace(0.0, 1.0, 5))
    return _result(_worst(
        abs(1.0 - cap.two_way_postselected_fidelity(lam, p)) for lam, p in grid
    ), 1e-10)


# ---------------------------------------------------------------------------
# wiretap


@_register("wiretap.bruteforce_oracle_value", "wiretap.bruteforce_oracle_argmax")
def _check_wiretap_oracle() -> tuple[CheckResult, CheckResult]:
    rng = np.random.default_rng(112)
    runs = []
    for _ in range(20):
        lam = rng.uniform(0.0, 0.5)
        p = rng.uniform(0.0, 1.0)
        value, q = wt.secrecy_capacity_bruteforce(wt.build_wiretap(lam, p))
        runs.append((abs(value - wt.one_way_secrecy_capacity(lam, p)), abs(q - 0.5)))
    return (_result(_worst(value for value, _ in runs), 1e-4),
            _result(_worst(argmax for _, argmax in runs), 1e-4))


@_register("wiretap.degraded_composition")
def _check_wiretap_degraded() -> CheckResult:
    grid = product(np.linspace(0.0, 0.5, 6), np.linspace(0.0, 1.0, 5))
    return _result(_worst(wt.verify_degraded(wt.build_wiretap(lam, p)) for lam, p in grid), 1e-12)


@_register("wiretap.oneway_below_twoway")
def _check_wiretap_ordering() -> CheckResult:
    grid = product(np.linspace(0.0, 0.5, 11), np.linspace(0.0, 1.0, 11))
    return _result(_worst(
        wt.one_way_secrecy_capacity(lam, p) - wt.two_way_secrecy_capacity(lam) for lam, p in grid
    ), 1e-12)


@_register("wiretap.fig6_opposite_monotonicity", "wiretap.fig6_endpoint_equality")
def _check_fig6() -> tuple[CheckResult, CheckResult]:
    pts = cap.sweep(wt.FIG6, 100)
    worst = _worst((abs(pts.one_way[-1] - 0.806574), abs(pts.two_way[-1] - 0.806574)))
    return _opposite_monotonicity(pts), _result(worst, 1e-6)


@_register("wiretap.mi_decomposition_identity")
def _check_mi_decomposition() -> CheckResult:
    def residuals():
        rng = np.random.default_rng(113)
        for _ in range(25):
            lam, p = rng.uniform(0.0, 1.0, size=2)
            q = rng.uniform(0.0, 1.0)
            yield wt.decomposition_residual(wt.build_wiretap(lam, p), q)
    return _result(_worst(residuals()), 1e-12)


@_register("wiretap.feedback_throughput_concentration", "wiretap.feedback_leakage_small")
def _check_feedback_protocol() -> tuple[CheckResult, CheckResult]:
    lam, p, uses = 0.3, 0.1, 100_000
    runs = [wt.simulate_feedback_protocol(lam, p, uses, seed) for seed in range(10)]
    sigma = float(np.sqrt(lam * (1.0 - lam) / uses))
    return (_result(_worst(abs(throughput - (1.0 - lam)) for throughput, _ in runs), 3.0 * sigma),
            _result(_worst(leakage for _, leakage in runs), 1e-2))


# ---------------------------------------------------------------------------
# output layer


@_register("cli.sweep_byte_determinism")
def _check_byte_determinism() -> CheckResult:
    a = output.sweep_csv(cap.sweep(cap.FIG3, 50))
    b = output.sweep_csv(cap.sweep(cap.FIG3, 50))
    c = output.sweep_json(cap.sweep(wt.FIG6, 50), {"scenario": "fig6"})
    d = output.sweep_json(cap.sweep(wt.FIG6, 50), {"scenario": "fig6"})
    ok = a == b and c == d
    return _result(0.0 if ok else 1.0, 0.5, passed=ok)


@_register("cli.csv_roundtrip_reevaluation")
def _check_csv_roundtrip() -> CheckResult:
    def residuals():
        _, rows = output.parse_csv(output.sweep_csv(cap.sweep(cap.FIG3, 50)))
        for x, lam, p, one_way, two_way, lower, upper in rows:
            for stored, fresh in (
                (lam, x),
                (p, 4.0 * lam - 1.0),
                (one_way, cap.one_way_capacity(lam, p)),
                (two_way, cap.two_way_capacity(lam)),
                (lower, cap.coherent_info_lower_bound(lam, p)),
                (upper, cap.continuity_upper_bound(lam, p)),
            ):
                yield abs(stored - fresh) / max(1.0, abs(fresh))
    return _result(_worst(residuals()), 1e-15)
