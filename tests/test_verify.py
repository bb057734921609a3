"""The verify registry: names, per-name selection, no results reused across runs,
the same results from the worker pool as in-process, a typed error for a dead
worker, and the same residuals from the stacked checks as from their former
per-sample loops."""

import json
import math
import os
import signal
import subprocess
import sys
import threading
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import chancap
from chancap import capacity as cap
from chancap import channels as chn
from chancap import cli
from chancap import qmath
from chancap import verify
from chancap import wiretap as wt
from chancap.errors import ChancapError
from chancap.sampling import random_density_matrix, random_hermitian, random_unitary

NAMES = [
    "qmath.eig_reconstruction",
    "qmath.entropy_unitary_invariance",
    "qmath.entropy_diagonal_matches_shannon",
    "qmath.trace_norm_dominates_trace",
    "qmath.partial_trace_factorization",
    "channels.kraus_completeness_grid",
    "channels.complement_consistency",
    "channels.entropy_decomposition_output",
    "channels.entropy_decomposition_complement",
    "channels.block_orthogonality",
    "capacity.oneway_oracle_value",
    "capacity.oneway_oracle_argmax",
    "capacity.equator_lemma",
    "capacity.degradable_composition",
    "capacity.pauli_conjugation_invariance",
    "capacity.bounds_ordering",
    "capacity.oneway_below_twoway",
    "capacity.fig3_opposite_monotonicity",
    "capacity.fig3_endpoints",
    "capacity.diamond_estimate_is_lower_bound",
    "capacity.diamond_estimate_reaches_value",
    "capacity.sequence_invariants",
    "capacity.derivative_consistency",
    "capacity.choi_state_ic_consistency",
    "capacity.fig4_endpoint_equality",
    "capacity.two_way_protocol_concentration",
    "capacity.two_way_postselect_fidelity",
    "wiretap.bruteforce_oracle_value",
    "wiretap.bruteforce_oracle_argmax",
    "wiretap.no_prefix_lemma",
    "wiretap.degraded_composition",
    "wiretap.oneway_below_twoway",
    "wiretap.fig6_opposite_monotonicity",
    "wiretap.fig6_endpoint_equality",
    "wiretap.mi_decomposition_identity",
    "wiretap.feedback_throughput_concentration",
    "wiretap.feedback_leakage_small",
    "cli.sweep_byte_determinism",
    "cli.csv_roundtrip_reevaluation",
]


def test_check_names_are_pinned_in_order():
    assert verify.check_names() == NAMES


def test_only_a_full_name_selects_exactly_that_result():
    for name in NAMES:
        assert [r.name for r in verify.run_checks(only=name)] == [name]


def test_a_crashed_paired_check_fails_both_names(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cap, "maximize_coherent_information", boom)
    results = verify.run_checks(only="oneway_oracle")
    assert [(r.name, r.passed, r.residual, r.threshold, r.detail) for r in results] == [
        ("capacity.oneway_oracle_value", False, math.inf, 0.0, "RuntimeError: boom"),
        ("capacity.oneway_oracle_argmax", False, math.inf, 0.0, "RuntimeError: boom"),
    ]


def test_a_short_result_tuple_fails_every_name(monkeypatch):
    one = verify._result(0.0, 1.0)
    monkeypatch.setattr(verify, "_REGISTRY", [(("a.first", "a.second"), lambda: (one,))])
    results = verify.run_checks()
    assert [(r.name, r.passed, r.residual) for r in results] == [
        ("a.first", False, math.inf),
        ("a.second", False, math.inf),
    ]


@pytest.mark.parametrize("fn, kind", [
    (lambda: 0.5, "float"),
    (lambda: (verify._result(0.0, 1.0) for _ in range(1)), "generator"),
], ids=["float", "generator"])
def test_a_result_of_the_wrong_type_fails_its_name(monkeypatch, fn, kind):
    monkeypatch.setattr(verify, "_REGISTRY", [(("a.only",), fn)])
    [result] = verify.run_checks()
    assert (result.name, result.passed, result.residual, result.detail) == (
        "a.only", False, math.inf, f"TypeError: check returned {kind}, not CheckResult"
    )


@pytest.mark.parametrize("residuals, worst", [
    ([math.nan, 1.0, 2.0], math.nan),
    ([1.0, math.nan, 2.0], math.nan),
    ([1.0, 2.0, math.nan], math.nan),
    ([-1.0, -2.0], 0.0),
    ([], 0.0),
    ([0.5, 2.0, -3.0], 2.0),
])
def test_worst_is_the_largest_residual_or_nan(residuals, worst):
    got = verify._worst(iter(residuals))
    assert got == worst or (math.isnan(got) and math.isnan(worst))


def _inject(monkeypatch, module, attr, bad):
    """Patch ``module.attr`` so that ``bad(call number, args, out)`` may replace its output."""
    original, calls, hits = getattr(module, attr), [], []

    def patched(*args):
        calls.append(args)
        out = original(*args)
        new = bad(len(calls), args, out)
        if new is not out:
            hits.append(args)
        return new

    monkeypatch.setattr(module, attr, patched)
    return hits


@pytest.mark.parametrize("only, module, attr, bad", [
    ("capacity.oneway_below_twoway", cap, "one_way_capacity",
     lambda i, args, out: math.nan if args == (0.25, 0.5) else out),
    ("capacity.degradable_composition", cap, "verify_degradable",
     lambda i, args, out: math.nan if args == (0.2, 0.5) else out),
    ("capacity.oneway_oracle", cap, "maximize_coherent_information",
     lambda i, args, out: (math.nan, out[1]) if i == 3 else out),
    ("wiretap.feedback_leakage_small", wt, "simulate_feedback_protocol",
     lambda i, args, out: (out[0], math.nan) if args[3] == 3 else out),
], ids=["grid", "second-grid", "seeded-pair", "builtin-max"])
def test_a_nan_residual_fails_its_check(monkeypatch, only, module, attr, bad):
    hits = _inject(monkeypatch, module, attr, bad)
    results = verify.run_checks(only=only)
    assert len(hits) == 1
    nan_result, *others = results
    assert not nan_result.passed and math.isnan(nan_result.residual), nan_result
    # the oracle's argmax is not touched by a NaN value, so it still passes
    assert all(r.passed for r in others), others


def test_no_result_is_reused_by_a_later_run(monkeypatch):
    assert all(r.passed for r in verify.run_checks())
    monkeypatch.setattr(cap, "maximize_coherent_information", lambda *a, **k: (0.0, (1, 1, 1)))
    monkeypatch.setattr(wt, "simulate_feedback_protocol", lambda *a, **k: (0.0, 1.0))
    for only in ("oneway_oracle", "wiretap.feedback"):
        results = verify.run_checks(only=only)
        assert len(results) == 2
        assert not any(r.passed for r in results), results


def _cpus(monkeypatch, tmp_path, cpus, quota=None):
    cpu_max = tmp_path / "cpu.max"
    cpu_max.write_text(f"{quota * 100000} 100000\n" if quota else "max 100000\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(verify, "_CPU_MAX", str(cpu_max))


def _fields(results):
    return [(r.name, r.passed, r.residual.hex(), r.threshold, r.detail) for r in results]


def test_the_pool_gives_the_in_process_results(monkeypatch, tmp_path):
    runs = []
    for cpus in ({0}, {0, 1}):
        _cpus(monkeypatch, tmp_path, cpus)
        runs.append((_fields(verify.run_checks()), verify.run_checks(only="no_such_check")))
    assert runs[0] == runs[1]
    assert [name for name, *_ in runs[1][0]] == NAMES
    assert runs[1][1] == []


def test_a_crash_inside_a_worker_fails_every_name_it_owns(monkeypatch, tmp_path):
    one = verify._result(0.0, 1.0)
    monkeypatch.setattr(verify, "_REGISTRY", [
        (("a.crash",), lambda: 1 / 0),
        (("b.first", "b.second"), lambda: (one,)),
        (("c.pass",), lambda: verify._result(0.0, 1.0, str(os.getpid()))),
    ])
    _cpus(monkeypatch, tmp_path, {0, 1})
    results = verify.run_checks()
    short = "ValueError: zip() argument 2 is shorter than argument 1"
    assert [(r.name, r.passed, r.residual, r.threshold, r.detail) for r in results[:3]] == [
        ("a.crash", False, math.inf, 0.0, "ZeroDivisionError: division by zero"),
        ("b.first", False, math.inf, 0.0, short),
        ("b.second", False, math.inf, 0.0, short),
    ]
    [passed] = results[3:]
    assert (passed.name, passed.passed, passed.residual, passed.threshold) == (
        "c.pass", True, 0.0, 1.0
    )
    assert passed.detail != str(os.getpid())  # it ran in a worker
    [alone] = verify.run_checks(only="c.pass")
    assert alone.detail == str(os.getpid())  # a single function runs in-process


def _exit_3():
    os._exit(3)


def _sigkill():
    os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("end, message", [
    (_exit_3, "exited with status 3"),
    (_sigkill, f"was killed by signal {int(signal.SIGKILL)}"),
    (lambda: replace(verify._result(0.0, 1.0), detail=lambda: 0), "exited with status 1"),
], ids=["os._exit", "signal", "unpicklable"])
def test_a_dead_worker_raises_once_every_worker_is_reaped(monkeypatch, tmp_path, capsys,
                                                          end, message):
    test_pid = os.getpid()

    def dies():
        if os.getpid() == test_pid:  # never end the test process
            raise AssertionError("ran in-process")
        return end()

    monkeypatch.setattr(verify, "_REGISTRY", [
        (("a.dies",), dies),
        (("b.pass",), lambda: verify._result(0.0, 1.0)),
    ])
    _cpus(monkeypatch, tmp_path, {0, 1})
    with pytest.raises(ChancapError, match=f"^check worker [0-9]+ {message} before it reported$"):
        verify.run_checks()
    with pytest.raises(ChildProcessError):  # no child is left to reap
        os.waitpid(-1, os.WNOHANG)
    assert cli.main(["verify"]) == 1
    assert capsys.readouterr().err.startswith("error: check worker ")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_the_pool_leaves_no_thread(monkeypatch, tmp_path):
    _cpus(monkeypatch, tmp_path, {0, 1})
    before = threading.active_count()
    assert all(r.passed for r in verify.run_checks(only="qmath."))
    assert threading.active_count() == before


def test_the_pool_forks_without_a_warning_after_a_long_monte_carlo_run(monkeypatch, tmp_path):
    # Python >= 3.12 warns when os.fork runs while other threads are alive; the
    # Monte Carlo reader counts every chunk on the calling thread
    _cpus(monkeypatch, tmp_path, {0, 1})
    cap.simulate_two_way_protocol(0.3, 0.1, 2**19, 5)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        results = verify.run_checks(only="qmath.")
    assert caught == []
    assert len(results) == 5 and all(r.passed for r in results)


POOL_PROBE = """
import json, sys
from chancap import verify
results = verify.run_checks(only="qmath.")
print(json.dumps([len(results), sorted(m for m in ("multiprocessing", "concurrent.futures")
                                       if m in sys.modules)]))
"""


def test_the_pool_imports_no_process_pool():
    # a fresh interpreter, so that the test run's own imports do not count
    env = {**os.environ, "PYTHONPATH": str(Path(chancap.__file__).resolve().parents[1])}
    probe = subprocess.run([sys.executable, "-c", POOL_PROBE], env=env, capture_output=True,
                           text=True, check=True)
    assert json.loads(probe.stdout) == [5, []]


@pytest.mark.parametrize("text, cpus", [
    ("200000 100000\n", 2),
    ("150000 100000\n", 2),
    ("50000 100000\n", 1),
    ("max 100000\n", None),
    ("", None),
])
def test_the_cpu_quota_is_read_from_cpu_max(monkeypatch, tmp_path, text, cpus):
    path = tmp_path / "cpu.max"
    path.write_text(text)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    monkeypatch.setattr(verify, "_CPU_MAX", str(path))
    assert verify.usable_cpus() == (cpus or 8)
    monkeypatch.setattr(verify, "_CPU_MAX", str(tmp_path / "missing"))
    assert verify.usable_cpus() == 8


@pytest.mark.parametrize("quota, in_process", [(1, True), (2, False), (None, False)])
def test_a_cpu_quota_caps_the_pool(monkeypatch, tmp_path, quota, in_process):
    monkeypatch.setattr(verify, "_REGISTRY", [
        ((f"a.{i}",), lambda: verify._result(0.0, 1.0, str(os.getpid()))) for i in range(2)
    ])
    _cpus(monkeypatch, tmp_path, {0, 1, 2, 3}, quota)
    pids = {r.detail for r in verify.run_checks()}
    assert (pids == {str(os.getpid())}) == in_process


_PATCHED = [
    "capacity.oneway_oracle_value",
    "capacity.oneway_oracle_argmax",
    "wiretap.feedback_throughput_concentration",
    "wiretap.feedback_leakage_small",
]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "pool"])
def test_no_result_is_reused_after_a_full_run(monkeypatch, tmp_path, cpus):
    # the warm-up runs in this process on one CPU, so a cache it filled here
    # shows, and in workers on two, so a worker forked before the patch shows;
    # the patched checks then run alone (in-process) and in a full run
    _cpus(monkeypatch, tmp_path, cpus)
    assert all(r.passed for r in verify.run_checks())
    monkeypatch.setattr(cap, "maximize_coherent_information", lambda *a, **k: (0.0, (1, 1, 1)))
    monkeypatch.setattr(wt, "simulate_feedback_protocol", lambda *a, **k: (0.0, 1.0))
    for only in ("oneway_oracle", "wiretap.feedback"):
        results = verify.run_checks(only=only)
        assert len(results) == 2
        assert not any(r.passed for r in results), results
    failed = {r.name for r in verify.run_checks() if not r.passed}
    assert failed >= set(_PATCHED), failed


# ---------------------------------------------------------------------------
# the sampling, channel and wiretap-oracle checks score stacks; the ``_old_*``
# generators below are the per-sample loops they had before, one public call
# per sampled matrix, channel output or channel


def _old_eig_reconstruction():
    rng = np.random.default_rng(101)
    for _ in range(1000):
        d = int(rng.integers(2, 13))
        m = random_hermitian(rng, d)
        spectrum = qmath.hermitian_eig(m)
        v = spectrum.eigenvectors
        yield float(np.abs((v * spectrum.eigenvalues) @ v.conj().T - m).max())
        yield float(np.abs(v.conj().T @ v - np.eye(d)).max())
        if np.any(np.diff(spectrum.eigenvalues) < 0):
            yield 1.0


def _old_entropy_unitary():
    rng = np.random.default_rng(102)
    for _ in range(200):
        d = int(rng.integers(2, 7))
        rho = random_density_matrix(rng, d)
        u = random_unitary(rng, d)
        yield abs(qmath.von_neumann_entropy(u @ rho @ u.conj().T) - qmath.von_neumann_entropy(rho))


def _old_entropy_diagonal():
    rng = np.random.default_rng(103)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        w = rng.dirichlet(np.ones(d))
        yield abs(qmath.von_neumann_entropy(np.diag(w.astype(complex))) - qmath.shannon_entropy(w))


def _old_trace_norm():
    rng = np.random.default_rng(104)
    for _ in range(200):
        d = int(rng.integers(2, 9))
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        yield abs(np.trace(m)) - qmath.trace_norm(m)


def _old_partial_trace():
    rng = np.random.default_rng(105)
    for _ in range(100):
        da, db = int(rng.integers(2, 4)), int(rng.integers(2, 4))
        rho = random_density_matrix(rng, da)
        sigma = random_density_matrix(rng, db)
        prod = qmath.tensor(rho, sigma)
        yield float(np.abs(qmath.partial_trace(prod, (da, db), "second") - rho).max())
        yield float(np.abs(qmath.partial_trace(prod, (da, db), "first") - sigma).max())


def _old_pauli_invariance():
    rng = np.random.default_rng(109)
    pairs = [(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)) for _ in range(5)]
    for lam, p in pairs:
        for _ in range(100):
            yield from cap.ic_conjugation_residual(lam, p, random_density_matrix(rng, 2))


def _old_entropy_decomposition():
    rng = np.random.default_rng(106)
    for _ in range(100):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        rho = random_density_matrix(rng, 2)
        h_rho = qmath.von_neumann_entropy(rho)
        h_dbar = chn.apply(chn.complementary_dephasing(p), rho).entropy()
        h_d = chn.apply(chn.dephasing_channel(p), rho).entropy()
        lhs_out = chn.apply(chn.channel_N(lam, p), rho).entropy()
        rhs_out = qmath.binary_entropy(lam) + lam * h_dbar + (1.0 - lam) * h_rho
        lhs_env = chn.apply(chn.complement_N(lam, p), rho).entropy()
        rhs_env = qmath.binary_entropy(lam) + lam * h_d
        yield abs(lhs_out - rhs_out), abs(lhs_env - rhs_env)


def _old_block_orthogonality():
    rng = np.random.default_rng(107)
    for _ in range(25):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        rho = random_density_matrix(rng, 2)
        for c in (chn.channel_N(lam, p), chn.complement_N(lam, p),
                  chn.comparison_channel_T(lam, p), chn.erasure_channel(lam)):
            out = chn.apply(c, rho).matrix
            mask = np.ones_like(out, dtype=bool)
            for off, size in c.blocks:
                mask[off : off + size, off : off + size] = False
            yield float(np.abs(out[mask]).max())


def _old_choi_ic():
    rng = np.random.default_rng(111)
    pi = chn.maximally_mixed(2)
    for _ in range(10):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        n, nb = chn.channel_N(lam, p), chn.complement_N(lam, p)
        via_state = cap.coherent_information_state(chn.choi(n).state.matrix, (2, 4))
        yield abs(via_state - cap.coherent_information(n, nb, pi))


def _old_wiretap_oracle():
    rng = np.random.default_rng(112)
    for _ in range(20):
        lam = rng.uniform(0.0, 0.5)
        p = rng.uniform(0.0, 1.0)
        value, q = wt.secrecy_capacity_bruteforce(lam, p)
        yield abs(value - wt.one_way_secrecy_capacity(lam, p)), abs(q - 0.5)


def _column(pairs, k):
    """The generator of entry ``k`` of each pair a paired check's former loop yields."""
    return lambda: (pair[k] for pair in pairs())


OLD_LOOPS = {
    "qmath.eig_reconstruction": _old_eig_reconstruction,
    "qmath.entropy_unitary_invariance": _old_entropy_unitary,
    "qmath.entropy_diagonal_matches_shannon": _old_entropy_diagonal,
    "qmath.trace_norm_dominates_trace": _old_trace_norm,
    "qmath.partial_trace_factorization": _old_partial_trace,
    "capacity.pauli_conjugation_invariance": _old_pauli_invariance,
    "channels.entropy_decomposition_output": _column(_old_entropy_decomposition, 0),
    "channels.entropy_decomposition_complement": _column(_old_entropy_decomposition, 1),
    "channels.block_orthogonality": _old_block_orthogonality,
    "capacity.choi_state_ic_consistency": _old_choi_ic,
    "wiretap.bruteforce_oracle_value": _column(_old_wiretap_oracle, 0),
    "wiretap.bruteforce_oracle_argmax": _column(_old_wiretap_oracle, 1),
}


@pytest.mark.parametrize("name", sorted(OLD_LOOPS))
def test_stacked_checks_give_the_former_residuals(name):
    [result] = verify.run_checks(only=name)
    assert result.passed, result
    assert result.residual.hex() == verify._worst(OLD_LOOPS[name]()).hex()


def _nan_row(out):
    """A copy of a stacked kernel's output with a NaN in row 1 (of each array);
    a float, the output of a kernel called once per sample, becomes NaN."""
    if isinstance(out, float):
        return math.nan
    if isinstance(out, qmath.HermitianSpectrum):
        w = out.eigenvalues.copy()
        w[1, 0] = math.nan
        return qmath.HermitianSpectrum(w, out.eigenvectors)
    if isinstance(out, tuple):
        return tuple(_nan_row(a) for a in out)
    out = out.copy()
    out[1] = math.nan
    return out


# the kernel whose output gets a NaN in one sample, and at which of its calls
@pytest.mark.parametrize("name, module, attr, call", [
    ("qmath.eig_reconstruction", verify, "_hermitian_spectrum", 1),
    ("qmath.entropy_unitary_invariance", verify, "_stacked_entropies", 1),
    ("qmath.entropy_diagonal_matches_shannon", verify, "_stacked_entropies", 1),
    ("qmath.trace_norm_dominates_trace", verify, "_trace_norm", 1),
    ("qmath.partial_trace_factorization", verify, "_partial_traces", 1),
    ("capacity.pauli_conjugation_invariance", cap, "_conjugation_residuals", 1),
    # H(rho) enters the output identity alone, H(D(rho)) the complement's alone
    ("channels.entropy_decomposition_output", verify, "_stacked_entropies", 1),
    ("channels.entropy_decomposition_complement", verify, "_stacked_entropies", 3),
    ("channels.block_orthogonality", chn, "_apply_stack", 1),
    ("capacity.choi_state_ic_consistency", verify, "_stacked_entropies", 1),
    ("wiretap.bruteforce_oracle_value", wt, "_phi_bracket", 1),
    ("wiretap.bruteforce_oracle_argmax", wt, "_phi_bracket", 1),
    ("wiretap.no_prefix_lemma", wt, "_phi_bracket", 1),
])
def test_a_nan_in_one_stacked_sample_fails_its_check(monkeypatch, name, module, attr, call):
    hits = _inject(monkeypatch, module, attr,
                   lambda i, args, out: _nan_row(out) if i == call else out)
    [result] = verify.run_checks(only=name)
    assert len(hits) == 1
    assert not result.passed and math.isnan(result.residual), result
