"""Named invariant checks driven by `chancap verify` and the test suite.

Each check is deterministic (fixed seeds), returns its worst residual, and
passes iff that residual meets the stated threshold.  One function may own
several named results (a value and its argmax, say) and computes them in one
run; nothing is cached between runs, so every ``run_checks`` call recomputes
what it reports.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import capacity as cap
from . import channels as chn
from . import output
from . import wiretap as wt
from .qmath import (
    binary_entropy,
    hermitian_eig,
    partial_trace,
    shannon_entropy,
    tensor,
    trace_norm,
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


def check_names() -> list[str]:
    return [name for names, _ in _REGISTRY for name in names]


def run_checks(only: Optional[str] = None) -> list[CheckResult]:
    """The results whose names contain ``only`` (all if None), in registry order.

    Each check function owning such a name runs once per call; when it raises
    or returns the wrong number of results, every result it owns fails.
    """
    results = []
    for names, fn in _REGISTRY:
        if only and not any(only in name for name in names):
            continue
        try:
            out = fn()
            owned = list(zip(names, out if isinstance(out, tuple) else (out,), strict=True))
        except Exception as exc:  # a crashed check is a failed check
            crash = _result(float("inf"), 0.0, f"{type(exc).__name__}: {exc}")
            owned = [(name, crash) for name in names]
        results += [replace(r, name=name) for name, r in owned if not only or only in name]
    return results


# ---------------------------------------------------------------------------
# qmath


@_register("qmath.eig_reconstruction")
def _check_eig_reconstruction() -> CheckResult:
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(2, 13))
        m = random_hermitian(rng, d)
        spectrum = hermitian_eig(m)
        worst = max(worst, float(np.abs(spectrum.reconstruct() - m).max()))
        gram = spectrum.eigenvectors.conj().T @ spectrum.eigenvectors
        worst = max(worst, float(np.abs(gram - np.eye(d)).max()))
        if np.any(np.diff(spectrum.eigenvalues) < 0):
            worst = max(worst, 1.0)
    return _result(worst, 1e-10)


@_register("qmath.entropy_unitary_invariance")
def _check_entropy_unitary() -> CheckResult:
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        rho = random_density_matrix(rng, d)
        u = random_unitary(rng, d)
        worst = max(
            worst, abs(von_neumann_entropy(u @ rho @ u.conj().T) - von_neumann_entropy(rho))
        )
    return _result(worst, 1e-10)


@_register("qmath.entropy_diagonal_matches_shannon")
def _check_entropy_diagonal() -> CheckResult:
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        w = rng.dirichlet(np.ones(d))
        worst = max(worst, abs(von_neumann_entropy(np.diag(w.astype(complex))) - shannon_entropy(w)))
    return _result(worst, 1e-12)


@_register("qmath.trace_norm_dominates_trace")
def _check_trace_norm() -> CheckResult:
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 9))
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        worst = max(worst, abs(np.trace(m)) - trace_norm(m))
    return _result(max(0.0, worst), 1e-12)


@_register("qmath.partial_trace_factorization")
def _check_partial_trace() -> CheckResult:
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(100):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        rho = random_density_matrix(rng, da)
        sigma = random_density_matrix(rng, db)
        prod = tensor(rho, sigma)
        worst = max(worst, float(np.abs(partial_trace(prod, (da, db), "second") - rho).max()))
        worst = max(worst, float(np.abs(partial_trace(prod, (da, db), "first") - sigma).max()))
    return _result(worst, 1e-12)


# ---------------------------------------------------------------------------
# channels

_LAM_GRID = np.linspace(0.0, 1.0, 10)
_P_GRID = np.linspace(0.0, 1.0, 5)


@_register("channels.kraus_completeness_grid")
def _check_completeness() -> CheckResult:
    worst = 0.0
    for lam in _LAM_GRID:
        for p in _P_GRID:
            chans = [
                chn.dephasing_channel(p),
                chn.complementary_dephasing(p),
                chn.channel_N(lam, p),
                chn.complement_N(lam, p),
                chn.comparison_channel_T(lam, p),
                chn.erasure_channel(lam),
            ]
            if lam <= 0.5:
                chans.append(cap.degrading_map(lam, p))
            for c in chans:
                resid = np.abs(
                    sum(k.conj().T @ k for k in c.kraus) - np.eye(c.dim_in)
                ).max()
                worst = max(worst, float(resid))
            v = chn.isometry_N(lam, p)
            worst = max(worst, float(np.abs(v.matrix.conj().T @ v.matrix - np.eye(2)).max()))
    return _result(worst, 1e-10)


@_register("channels.complement_consistency")
def _check_complement_consistency() -> CheckResult:
    worst = 0.0
    for lam in _LAM_GRID:
        for p in _P_GRID:
            v = chn.isometry_N(lam, p)
            keep_b = chn.channel_from_isometry(v, (4, 3), "first")
            keep_c = chn.channel_from_isometry(v, (4, 3), "second")
            worst = max(worst, chn.channel_distance(keep_b, chn.channel_N(lam, p)))
            worst = max(worst, chn.channel_distance(keep_c, chn.complement_N(lam, p)))
    return _result(worst, 1e-10)


@_register("channels.entropy_decomposition_output", "channels.entropy_decomposition_complement")
def _check_entropy_decomposition() -> tuple[CheckResult, CheckResult]:
    rng = np.random.default_rng(106)
    worst_out, worst_env = 0.0, 0.0
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
        worst_out = max(worst_out, abs(lhs_out - rhs_out))
        worst_env = max(worst_env, abs(lhs_env - rhs_env))
    return _result(worst_out, 1e-10), _result(worst_env, 1e-10)


@_register("channels.block_orthogonality")
def _check_block_orthogonality() -> CheckResult:
    rng = np.random.default_rng(107)
    worst = 0.0
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
            worst = max(worst, float(np.abs(out[mask]).max()))
    return _result(worst, 1e-12)


# ---------------------------------------------------------------------------
# capacity


@_register("capacity.oneway_oracle_value", "capacity.oneway_oracle_argmax")
def _check_oneway_oracle() -> tuple[CheckResult, CheckResult]:
    rng = np.random.default_rng(108)
    worst_value, worst_bloch = 0.0, 0.0
    for _ in range(20):
        lam = rng.uniform(0.0, 0.5)
        p = rng.uniform(0.0, 1.0)
        value, bloch = cap.maximize_coherent_information(lam, p)
        worst_value = max(worst_value, abs(value - cap.one_way_capacity(lam, p)))
        worst_bloch = max(worst_bloch, float(np.linalg.norm(bloch)))
    return _result(worst_value, 1e-5), _result(worst_bloch, 1e-3)


@_register("capacity.degradable_composition")
def _check_degradable() -> CheckResult:
    worst = 0.0
    for lam in np.linspace(0.0, 0.5, 6):
        for p in np.linspace(0.0, 1.0, 5):
            worst = max(worst, cap.verify_degradable(lam, p))
    return _result(worst, 1e-10)


@_register("capacity.pauli_conjugation_invariance")
def _check_pauli_invariance() -> CheckResult:
    rng = np.random.default_rng(109)
    pairs = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(5)]
    worst = 0.0
    for lam, p in pairs:
        for _ in range(100):
            rho = random_density_matrix(rng, 2)
            dz, dx = cap.ic_conjugation_residual(lam, p, rho)
            worst = max(worst, dz, dx)
    return _result(worst, 1e-9)


@_register("capacity.bounds_ordering")
def _check_bounds_ordering() -> CheckResult:
    # the continuity bound certifies the capacity only for lam >= 1/2, which
    # is where it must dominate the one-shot lower bound
    worst = 0.0
    for lam in np.linspace(0.5, 1.0, 11):
        for p in np.linspace(0.0, 1.0, 11):
            worst = max(
                worst,
                cap.coherent_info_lower_bound(lam, p) - cap.continuity_upper_bound(lam, p),
            )
    return _result(max(0.0, worst), 1e-9)


@_register("capacity.oneway_below_twoway")
def _check_oneway_below_twoway() -> CheckResult:
    worst = 0.0
    for lam in np.linspace(0.0, 0.5, 11):
        for p in np.linspace(0.0, 1.0, 11):
            worst = max(worst, cap.one_way_capacity(lam, p) - cap.two_way_capacity(lam))
    return _result(max(0.0, worst), 1e-12)


def _opposite_monotonicity(pts: cap.SweepTable) -> CheckResult:
    """Passes iff the one-way column strictly rises and the two-way one strictly falls."""
    margin = min(float(np.diff(pts.one_way).min()), float(-np.diff(pts.two_way).max()))
    return _result(
        margin,
        1e-9,
        "residual is the smallest step (must exceed threshold)",
        passed=margin > 1e-9,
    )


@_register("capacity.fig3_opposite_monotonicity", "capacity.fig3_endpoints")
def _check_fig3() -> tuple[CheckResult, CheckResult]:
    pts = cap.sweep(cap.FIG3, 100)
    worst = max(
        abs(pts.one_way[0] - 0.5),
        abs(pts.two_way[0] - 0.75),
        abs(pts.one_way[-1] - 0.628524413893479),
        abs(pts.two_way[-1] - 0.6875),
    )
    return _opposite_monotonicity(pts), _result(worst, 1e-6)


@_register("capacity.diamond_estimate_is_lower_bound", "capacity.diamond_estimate_reaches_value")
def _check_diamond() -> tuple[CheckResult, CheckResult]:
    rng = np.random.default_rng(110)
    worst_over, worst_under = 0.0, 0.0
    for _ in range(10):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        est, ana = cap.diamond_distance_to_T(lam, p)
        worst_over = max(worst_over, est - ana)
        worst_under = max(worst_under, ana - est)
    return _result(max(0.0, worst_over), 1e-9), _result(max(0.0, worst_under), 1e-3)


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
    worst = 0.0
    for lam in np.linspace(0.2525, 0.31, 15):
        analytic, numeric = cap.derivative_check(curve, float(lam))
        worst = max(worst, abs(analytic - numeric))
    return _result(worst, 1e-5)


@_register("capacity.choi_state_ic_consistency")
def _check_choi_ic() -> CheckResult:
    # both routes start from N's superoperator but use different entropy
    # formulas: H(B) - H(AB) of the Choi state and H(N(pi)) - H(N^c(pi))
    rng = np.random.default_rng(111)
    pi = chn.maximally_mixed(2)
    worst = 0.0
    for _ in range(10):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        n = chn.channel_N(lam, p)
        nb = chn.complement_N(lam, p)
        via_state = cap.coherent_information_state(chn.choi(n).state.matrix, (2, 4))
        via_channel = cap.coherent_information(n, nb, pi)
        worst = max(worst, abs(via_state - via_channel))
    return _result(worst, 1e-10)


@_register("capacity.fig4_endpoint_equality")
def _check_fig4_endpoint() -> CheckResult:
    pts = cap.sweep(cap.FIG4, 100)
    worst = max(abs(pts[-1].one_way - 0.5), abs(pts[-1].two_way - 0.5))
    return _result(worst, 1e-9)


@_register("capacity.two_way_protocol_concentration")
def _check_quantum_protocol() -> CheckResult:
    lam, p, uses = 0.3, 0.2, 100_000
    sigma = float(np.sqrt(lam * (1.0 - lam) / uses))
    worst = 0.0
    for seed in range(10):
        rate, _ = cap.simulate_two_way_protocol(lam, p, uses, seed)
        worst = max(worst, abs(rate - (1.0 - lam)))
    return _result(worst, 3.0 * sigma)


@_register("capacity.two_way_postselect_fidelity")
def _check_postselect_fidelity() -> CheckResult:
    worst = 0.0
    for lam in np.linspace(0.0, 1.0, 6):
        for p in np.linspace(0.0, 1.0, 5):
            worst = max(worst, abs(1.0 - cap.two_way_postselected_fidelity(lam, p)))
    return _result(worst, 1e-10)


# ---------------------------------------------------------------------------
# wiretap


@_register("wiretap.bruteforce_oracle_value", "wiretap.bruteforce_oracle_argmax")
def _check_wiretap_oracle() -> tuple[CheckResult, CheckResult]:
    rng = np.random.default_rng(112)
    worst_value, worst_argmax = 0.0, 0.0
    for _ in range(20):
        lam = rng.uniform(0.0, 0.5)
        p = rng.uniform(0.0, 1.0)
        value, q = wt.secrecy_capacity_bruteforce(wt.build_wiretap(lam, p))
        worst_value = max(worst_value, abs(value - wt.one_way_secrecy_capacity(lam, p)))
        worst_argmax = max(worst_argmax, abs(q - 0.5))
    return _result(worst_value, 1e-4), _result(worst_argmax, 1e-4)


@_register("wiretap.degraded_composition")
def _check_wiretap_degraded() -> CheckResult:
    worst = 0.0
    for lam in np.linspace(0.0, 0.5, 6):
        for p in np.linspace(0.0, 1.0, 5):
            worst = max(worst, wt.verify_degraded(wt.build_wiretap(lam, p)))
    return _result(worst, 1e-12)


@_register("wiretap.oneway_below_twoway")
def _check_wiretap_ordering() -> CheckResult:
    worst = 0.0
    for lam in np.linspace(0.0, 0.5, 11):
        for p in np.linspace(0.0, 1.0, 11):
            worst = max(
                worst, wt.one_way_secrecy_capacity(lam, p) - wt.two_way_secrecy_capacity(lam)
            )
    return _result(max(0.0, worst), 1e-12)


@_register("wiretap.fig6_opposite_monotonicity", "wiretap.fig6_endpoint_equality")
def _check_fig6() -> tuple[CheckResult, CheckResult]:
    pts = cap.sweep(wt.FIG6, 100)
    worst = max(abs(pts.one_way[-1] - 0.806574), abs(pts.two_way[-1] - 0.806574))
    return _opposite_monotonicity(pts), _result(worst, 1e-6)


@_register("wiretap.mi_decomposition_identity")
def _check_mi_decomposition() -> CheckResult:
    rng = np.random.default_rng(113)
    worst = 0.0
    for _ in range(25):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        q = rng.uniform(0.0, 1.0)
        worst = max(worst, wt.decomposition_residual(wt.build_wiretap(lam, p), q))
    return _result(worst, 1e-12)


@_register("wiretap.feedback_throughput_concentration", "wiretap.feedback_leakage_small")
def _check_feedback_protocol() -> tuple[CheckResult, CheckResult]:
    lam, p, uses = 0.3, 0.1, 100_000
    runs = [wt.simulate_feedback_protocol(lam, p, uses, seed) for seed in range(10)]
    sigma = float(np.sqrt(lam * (1.0 - lam) / uses))
    worst_throughput = max(abs(throughput - (1.0 - lam)) for throughput, _ in runs)
    worst_leakage = max(leakage for _, leakage in runs)
    return _result(worst_throughput, 3.0 * sigma), _result(worst_leakage, 1e-2)


# ---------------------------------------------------------------------------
# output layer


@_register("cli.sweep_byte_determinism")
def _check_byte_determinism() -> CheckResult:
    a = output.sweep_csv(cap.sweep(cap.FIG3, 50), cap.FIG3.columns)
    b = output.sweep_csv(cap.sweep(cap.FIG3, 50), cap.FIG3.columns)
    c = output.sweep_json(cap.sweep(wt.FIG6, 50), wt.FIG6.columns, {"scenario": "fig6"})
    d = output.sweep_json(cap.sweep(wt.FIG6, 50), wt.FIG6.columns, {"scenario": "fig6"})
    ok = a == b and c == d
    return _result(0.0 if ok else 1.0, 0.5, passed=ok)


@_register("cli.csv_roundtrip_reevaluation")
def _check_csv_roundtrip() -> CheckResult:
    text = output.sweep_csv(cap.sweep(cap.FIG3, 50), cap.FIG3.columns)
    _, rows = output.parse_csv(text)
    worst = 0.0
    for x, lam, p, one_way, two_way, lower, upper in rows:
        for stored, fresh in (
            (lam, x),
            (p, 4.0 * lam - 1.0),
            (one_way, cap.one_way_capacity(lam, p)),
            (two_way, cap.two_way_capacity(lam)),
            (lower, cap.coherent_info_lower_bound(lam, p)),
            (upper, cap.continuity_upper_bound(lam, p)),
        ):
            scale = max(1.0, abs(fresh))
            worst = max(worst, abs(stored - fresh) / scale)
    return _result(worst, 1e-15)
