"""The verify registry: names, per-name selection, no results reused across runs,
the same results from the worker pool as in-process, and the same residuals
from the stacked sampling checks as from their former per-sample loops."""

import math
import os

import numpy as np
import pytest

from chancap import capacity as cap
from chancap import qmath
from chancap import verify
from chancap import wiretap as wt
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


def _cpus(monkeypatch, cpus, quota=None):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    monkeypatch.setattr(verify, "_cpu_quota", lambda: quota)


def _fields(results):
    return [(r.name, r.passed, r.residual.hex(), r.threshold, r.detail) for r in results]


def test_the_pool_gives_the_in_process_results(monkeypatch):
    runs = []
    for cpus in ({0}, {0, 1}):
        _cpus(monkeypatch, cpus)
        runs.append((_fields(verify.run_checks()), verify.run_checks(only="no_such_check")))
    assert runs[0] == runs[1]
    assert [name for name, *_ in runs[1][0]] == NAMES
    assert runs[1][1] == []


def test_a_crash_inside_a_worker_fails_every_name_it_owns(monkeypatch):
    one = verify._result(0.0, 1.0)
    monkeypatch.setattr(verify, "_REGISTRY", [
        (("a.crash",), lambda: 1 / 0),
        (("b.first", "b.second"), lambda: (one,)),
        (("c.pass",), lambda: verify._result(0.0, 1.0, str(os.getpid()))),
    ])
    _cpus(monkeypatch, {0, 1})
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


@pytest.mark.parametrize("text, cpus", [
    ("200000 100000\n", 2),
    ("150000 100000\n", 2),
    ("50000 100000\n", 1),
    ("max 100000\n", None),
    ("", None),
])
def test_the_cpu_quota_is_read_from_cpu_max(tmp_path, text, cpus):
    path = tmp_path / "cpu.max"
    path.write_text(text)
    assert verify._cpu_quota(str(path)) == cpus
    assert verify._cpu_quota(str(tmp_path / "missing")) is None


@pytest.mark.parametrize("quota, in_process", [(1, True), (2, False), (None, False)])
def test_a_cpu_quota_caps_the_pool(monkeypatch, quota, in_process):
    monkeypatch.setattr(verify, "_REGISTRY", [
        ((f"a.{i}",), lambda: verify._result(0.0, 1.0, str(os.getpid()))) for i in range(2)
    ])
    _cpus(monkeypatch, {0, 1, 2, 3}, quota)
    pids = {r.detail for r in verify.run_checks()}
    assert (pids == {str(os.getpid())}) == in_process


_PATCHED = [
    "capacity.oneway_oracle_value",
    "capacity.oneway_oracle_argmax",
    "wiretap.feedback_throughput_concentration",
    "wiretap.feedback_leakage_small",
]


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "pool"])
def test_no_result_is_reused_after_a_full_run(monkeypatch, cpus):
    # the warm-up runs in this process on one CPU, so a cache it filled here
    # shows, and in workers on two, so a worker forked before the patch shows;
    # the patched checks then run alone (in-process) and in a full run
    _cpus(monkeypatch, cpus)
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
# the sampling checks score stacks; the ``_old_*`` generators below are the
# per-sample loops they had before, one public call per sampled matrix


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


OLD_LOOPS = {
    "qmath.eig_reconstruction": _old_eig_reconstruction,
    "qmath.entropy_unitary_invariance": _old_entropy_unitary,
    "qmath.entropy_diagonal_matches_shannon": _old_entropy_diagonal,
    "qmath.trace_norm_dominates_trace": _old_trace_norm,
    "qmath.partial_trace_factorization": _old_partial_trace,
    "capacity.pauli_conjugation_invariance": _old_pauli_invariance,
}


@pytest.mark.parametrize("name", sorted(OLD_LOOPS))
def test_stacked_checks_give_the_former_residuals(name):
    [result] = verify.run_checks(only=name)
    assert result.passed, result
    assert result.residual.hex() == verify._worst(OLD_LOOPS[name]()).hex()


def _nan_row(out):
    """A copy of a stacked kernel's output with a NaN in row 1 (of each array)."""
    if isinstance(out, qmath.HermitianSpectrum):
        w = out.eigenvalues.copy()
        w[1, 0] = math.nan
        return qmath.HermitianSpectrum(w, out.eigenvectors)
    if isinstance(out, tuple):
        return tuple(_nan_row(a) for a in out)
    out = out.copy()
    out[1] = math.nan
    return out


@pytest.mark.parametrize("name, module, attr", [
    ("qmath.eig_reconstruction", verify, "_hermitian_spectrum"),
    ("qmath.entropy_unitary_invariance", verify, "_entropy_bits_rows"),
    ("qmath.entropy_diagonal_matches_shannon", verify, "_entropy_bits_rows"),
    ("qmath.trace_norm_dominates_trace", verify, "_trace_norm"),
    ("qmath.partial_trace_factorization", verify, "_partial_traces"),
    ("capacity.pauli_conjugation_invariance", cap, "_conjugation_residuals"),
])
def test_a_nan_in_one_stacked_sample_fails_its_check(monkeypatch, name, module, attr):
    hits = _inject(monkeypatch, module, attr, lambda i, args, out: _nan_row(out) if i == 1 else out)
    [result] = verify.run_checks(only=name)
    assert len(hits) == 1
    assert not result.passed and math.isnan(result.residual), result
