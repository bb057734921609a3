"""Named invariant checks driven by `chancap verify` and the test suite.

Each check is deterministic (fixed seeds), states its residuals, and passes
iff their fold ``_worst`` meets the stated threshold; a NaN residual fails.
One function may own several named results (a value and its argmax, say) and
computes them in one run; nothing is cached between runs, so every
``run_checks`` call recomputes what it reports.  The check functions run in
forked worker processes, one per CPU the process may use, which pull
registry indices from one pipe and send their results back pickled; a single
selected function, or a single CPU, runs in-process.  The report is
byte-identical either way.
"""

from __future__ import annotations

import math
import os
import pickle
from dataclasses import dataclass, replace
from itertools import product
from typing import Callable, Optional

import numpy as np

from . import capacity as cap
from . import channels as chn
from . import output
from . import wiretap as wt
from .errors import ChancapError
from .qmath import (
    _entropy_bits,
    _hermitian_spectrum,
    _partial_traces,
    _state_spectrum,
    _trace_norm,
    binary_entropy,
    entropies_bits,
    shannon_entropy,
    tensor,
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


_CPU_MAX = "/sys/fs/cgroup/cpu.max"  # the cgroup v2 CPU quota, "<quota> <period>" or "max ..."


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity (``os.sched_getaffinity``, 1
    where that call does not exist), capped by the cgroup v2 CPU quota
    ``ceil(quota / period)`` where one is set."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    try:
        with open(_CPU_MAX) as f:
            quota, period = f.read().split()
        return min(cpus, -(-int(quota) // int(period)) or cpus)
    except (OSError, ValueError):  # no such file, or "max" for no quota
        return cpus


def run_checks(only: Optional[str] = None) -> list[CheckResult]:
    """The results whose names contain ``only`` (all if None), in registry order.

    Each check function owning such a name runs once per call; when it raises
    or returns anything but its results, every result it owns fails.

    When more than one function is selected and the process may run on more
    than one CPU (``usable_cpus``), the functions run in forked
    worker processes, one per CPU up to one per function (``_forked``);
    otherwise they run in-process.  The workers get registry indices, not
    functions, so lambdas and a patched registry work, and the results are
    gathered in registry order, so the report is the same either way.  A
    worker that dies before it reports raises ``ChancapError``.
    """
    picked = [i for i, (names, _) in enumerate(_REGISTRY)
              if not only or any(only in name for name in names)]
    cpus = usable_cpus()
    if len(picked) > 1 and cpus > 1:
        runs = _forked(picked, min(cpus, len(picked)))
    else:
        runs = map(_owned, picked)
    return [replace(r, name=name) for owned in runs for name, r in owned
            if not only or only in name]


# bytes per registry index in the job pipe, written whole before any worker
# reads it: a pipe holds at least a 4 KiB page, 1,024 indices
_INDEX_BYTES = 4


def _forked(picked: list[int], workers: int) -> list[list[tuple[str, CheckResult]]]:
    """``_owned(i)`` for each ``i`` in ``picked``, in that order, run in ``workers``
    forked processes (``_work``) that pull the indices from one pipe, so a worker
    with fast checks takes more of them.  Every worker is reaped, also when this
    call fails; one that ended without a full report (``os._exit`` or a signal in
    a check, a result that cannot be pickled) raises ``ChancapError``."""
    jobs, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in picked))
    os.close(feed)
    reports = {}  # pid -> the read end of its result pipe
    try:
        for _ in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                _work(jobs, write)
            os.close(write)
            reports[pid] = open(read, "rb")
        done = [report.read() for report in reports.values()]
    finally:
        os.close(jobs)
        for report in reports.values():
            report.close()
        statuses = {pid: os.waitpid(pid, 0)[1] for pid in reports}
    for pid, status in statuses.items():
        if status:
            code = os.waitstatus_to_exitcode(status)
            how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise ChancapError(f"check worker {pid} {how} before it reported")
    owned = dict(pair for data in done for pair in pickle.loads(data))
    return [owned[i] for i in picked]


def _work(jobs: int, write: int) -> None:
    """A worker: ``_owned`` of each index it reads from ``jobs``, pickled to
    ``write``; it exits, with status 0 only after a full report."""
    status = 1
    try:
        pairs = []
        while job := os.read(jobs, _INDEX_BYTES):
            i = int.from_bytes(job, "little")
            pairs.append((i, _owned(i)))
        with open(write, "wb") as out:
            pickle.dump(pairs, out)
        status = 0
    finally:  # never return into the caller's stack, nor run its exit handlers
        os._exit(status)


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


def _stacked_entropies(ms: np.ndarray) -> np.ndarray:
    """``von_neumann_entropy`` of each matrix of a stack ``ms``, validated and scored at once."""
    h = _entropy_bits(_state_spectrum(ms))
    return np.where(h > 0.0, h, 0.0)  # not np.maximum, which keeps a pure state's -0.0


@_register("qmath.eig_reconstruction")
def _check_eig_reconstruction() -> CheckResult:
    def residuals():
        rng = np.random.default_rng(101)
        dim = lambda: int(rng.integers(2, 13))  # noqa: E731
        for d, (ms,) in _stacked_draws(1000, dim, lambda d: (random_hermitian(rng, d),)).items():
            spectrum = _hermitian_spectrum(ms)
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
            h = [_stacked_entropies(ms) for ms in (turned, rhos)]
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
            h = _stacked_entropies(diagonals)
            yield from np.abs(h - shannon).tolist()
    return _result(_worst(residuals()), 1e-12)


@_register("qmath.trace_norm_dominates_trace")
def _check_trace_norm() -> CheckResult:
    def residuals():
        rng = np.random.default_rng(104)
        dim = lambda: int(rng.integers(2, 9))  # noqa: E731
        draw = lambda d: (rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)),)  # noqa: E731
        for (ms,) in _stacked_draws(200, dim, draw).values():
            yield from (np.abs(ms.trace(axis1=1, axis2=2)) - _trace_norm(ms)).tolist()
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
    draws = [(*rng.uniform(0.0, 1.0, size=2), random_density_matrix(rng, 2)) for _ in range(100)]
    lam, p, rhos = (np.array(column) for column in zip(*draws))
    h_rho = _stacked_entropies(rhos)  # also the state checks of every apply below

    def h(make):
        return _stacked_entropies(np.stack([chn._apply_stack(make(*args).superoperator, rho)
                                            for *args, rho in draws]))

    h_dbar = h(lambda lam, p: chn.complementary_dephasing(p))
    h_d = h(lambda lam, p: chn.dephasing_channel(p))
    lhs_out, lhs_env = h(chn.channel_N), h(chn.complement_N)
    h_lam = np.array([binary_entropy(x) for x in lam])
    rhs_out = h_lam + lam * h_dbar + (1.0 - lam) * h_rho
    rhs_env = h_lam + lam * h_d
    return (_result(_worst(np.abs(lhs_out - rhs_out).tolist()), 1e-10),
            _result(_worst(np.abs(lhs_env - rhs_env).tolist()), 1e-10))


@_register("channels.block_orthogonality")
def _check_block_orthogonality() -> CheckResult:
    def residuals():
        rng = np.random.default_rng(107)
        draws = [(*rng.uniform(0.0, 1.0, size=2), random_density_matrix(rng, 2))
                 for _ in range(25)]
        for make in (
            chn.channel_N,
            chn.complement_N,
            chn.comparison_channel_T,
            lambda lam, p: chn.erasure_channel(lam),
        ):
            chans = [make(lam, p) for lam, p, _ in draws]
            outs = np.stack([chn._apply_stack(c.superoperator, rho)
                             for c, (*_, rho) in zip(chans, draws)])
            off_block = np.ones(outs.shape[1:], dtype=bool)
            for off, size in chans[0].blocks:
                off_block[off : off + size, off : off + size] = False
            yield from np.abs(outs[:, off_block]).max(axis=1).tolist()
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
    # within the bracket width, at the tie rule's exact maximally mixed input
    return (_result(_worst(value for value, _ in runs), 1e-12),
            _result(_worst(bloch for _, bloch in runs), 0.0))


def _shell_heavy(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` random Bloch vectors, uniform in direction, at log-uniform
    distances 10^-U(0, 12) below the unit sphere: most lie near it."""
    rs = rng.normal(size=(n, 3))
    rs /= np.linalg.norm(rs, axis=1, keepdims=True)
    return rs * (1.0 - 10.0 ** -rng.uniform(0.0, 12.0, size=(n, 1)))


def _bracket_lemma(seed: int, bracket, score) -> CheckResult:
    """A bracket (lo, hi, argmax) of a one-letter maximum against an
    independent route, at 10 random (lam, p): ``score(rng, lam, p, argmax)``
    scores 64 random inputs and then the argmax.  No input may beat hi, and
    the argmax must score lo, both to 1e-12."""
    def residuals():
        rng = np.random.default_rng(seed)
        for _ in range(10):
            lam, p = rng.uniform(0.0, 1.0, size=2)
            lo, hi, arg = bracket(lam, p)
            values = score(rng, lam, p, arg)
            yield float(values[:-1].max()) - hi
            yield abs(float(values[-1]) - lo)
    return _result(_worst(residuals()), 1e-12)


@_register("capacity.equator_lemma")
def _check_equator_lemma() -> CheckResult:
    # the eigen route; the argmax is the equator point (sqrt x*, 0, 0)
    def score(rng, lam, p, x_star):
        rs = np.vstack([_shell_heavy(rng, 64), [math.sqrt(x_star), 0.0, 0.0]])
        return cap._ic_evaluator(lam, p)(rs)
    return _bracket_lemma(112, cap._one_shot_bracket, score)


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
    # the estimate scores the pole; no other input may score above the value
    rng = np.random.default_rng(110)
    runs = []
    for _ in range(10):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        est, ana = cap.diamond_distance_to_T(lam, p)
        others = cap._diamond_evaluator(lam, p)(_shell_heavy(rng, 64))
        runs.append((max(est, float(others.max())), est, ana))
    return (_result(_worst(top - ana for top, _, ana in runs), 1e-9),
            _result(_worst(ana - est for _, est, ana in runs), 1e-3))


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
    rng = np.random.default_rng(111)
    params = [rng.uniform(0.0, 1.0, size=2) for _ in range(10)]
    ns = [chn.channel_N(lam, p) for lam, p in params]
    nbs = [chn.complement_N(lam, p) for lam, p in params]
    chois = np.stack([chn.choi(n).state.matrix for n in ns])
    # the checks and H(AB) of coherent_information_state, then H(B) of the marginals
    via_state = entropies_bits(_partial_traces(chois, (2, 4), "first")) - _stacked_entropies(chois)
    # the checks of coherent_information on pi, then H(N(pi)) - H(N^c(pi))
    pi = chn.checked_input(ns[0], chn.maximally_mixed(2))

    def h(chans):
        return entropies_bits(np.stack([chn._apply_stack(c.superoperator, pi) for c in chans]))

    return _result(_worst(np.abs(via_state - (h(ns) - h(nbs))).tolist()), 1e-10)


@_register("capacity.fig4_endpoint_equality")
def _check_fig4_endpoint() -> CheckResult:
    pts = cap.sweep(cap.FIG4, 100)
    return _result(_worst((abs(pts[-1].one_way - 0.5), abs(pts[-1].two_way - 0.5))), 1e-9)


@_register("capacity.two_way_protocol_concentration")
def _check_quantum_protocol() -> CheckResult:
    lam, p, uses = 0.3, 0.2, 100_000
    sigma = cap.bernoulli_std_error(lam, uses)
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
    params = [(rng.uniform(0.0, 0.5), rng.uniform(0.0, 1.0)) for _ in range(20)]
    runs = [(wt.secrecy_capacity_bruteforce(lam, p), wt.one_way_secrecy_capacity(lam, p))
            for lam, p in params]
    # within the bracket width, at the tie rule's exact uniform input q = 1/2
    return (_result(_worst(abs(value - closed) for (value, _), closed in runs), 1e-12),
            _result(_worst(abs(q - 0.5) for (_, q), _ in runs), 0.0))


@_register("wiretap.no_prefix_lemma")
def _check_no_prefix_lemma() -> CheckResult:
    # the joint-table route at input laws q = P(x = 0); the argmax is q*
    def score(rng, lam, p, q_star):
        qs = np.append(rng.uniform(0.0, 1.0, size=64), q_star)
        return wt._secrecy_objectives(wt._views(wt.build_wiretap(lam, p))[:, None], qs)
    return _bracket_lemma(114, wt._secrecy_bracket, score)


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
    sigma = cap.bernoulli_std_error(lam, uses)
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
