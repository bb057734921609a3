"""The verify registry: names, per-name selection, and no results reused across runs."""

import math

from chancap import capacity as cap
from chancap import verify
from chancap import wiretap as wt

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


def test_no_result_is_reused_by_a_later_run(monkeypatch):
    assert all(r.passed for r in verify.run_checks())
    monkeypatch.setattr(cap, "maximize_coherent_information", lambda *a, **k: (0.0, (1, 1, 1)))
    monkeypatch.setattr(wt, "simulate_feedback_protocol", lambda *a, **k: (0.0, 1.0))
    for only in ("oneway_oracle", "wiretap.feedback"):
        results = verify.run_checks(only=only)
        assert len(results) == 2
        assert not any(r.passed for r in results), results
