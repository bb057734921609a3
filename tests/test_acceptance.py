"""End-to-end acceptance suite.

Each test exercises one acceptance criterion at its stated tolerance and
prints a PASS line with the observed residual (visible with `pytest -s` or
in the captured output).  Run the full suite with plain `pytest`.
"""

import numpy as np

from chancap import capacity as cap
from chancap import channels as chn
from chancap import verify as verify_mod
from chancap import wiretap as wt
from chancap.qmath import binary_entropy, von_neumann_entropy
from chancap.sampling import random_density_matrix


def _report(name: str, residual, tolerance, extra: str = "") -> None:
    print(f"PASS {name}: residual {residual:.3e} within {tolerance:.0e} {extra}".rstrip())


def test_criterion_1_degradable_regime_capacity_oracle():
    rng = np.random.default_rng(2024)
    worst_value, worst_bloch = 0.0, 0.0
    for _ in range(20):
        lam = rng.uniform(0.0, 0.5)
        p = rng.uniform(0.0, 1.0)
        value, bloch = cap.maximize_coherent_information(lam, p)
        worst_value = max(worst_value, abs(value - cap.one_way_capacity(lam, p)))
        worst_bloch = max(worst_bloch, float(np.linalg.norm(bloch)))
    assert worst_value <= 1e-5
    assert worst_bloch <= 1e-3
    _report("criterion-1 capacity-oracle", worst_value, 1e-5, f"(argmax norm {worst_bloch:.1e})")


def test_criterion_2_fig3_reproduction():
    pts = cap.sweep(cap.FIG3, 100)
    endpoint_err = max(
        abs(pts[0].one_way - 0.5),
        abs(pts[0].two_way - 0.75),
        abs(pts[-1].one_way - 0.628524),
        abs(pts[-1].two_way - 0.6875),
    )
    assert endpoint_err <= 1e-6
    one = np.array([p.one_way for p in pts])
    two = np.array([p.two_way for p in pts])
    assert np.all(np.diff(one) > 0.0)
    assert np.all(np.diff(two) < 0.0)
    _report("criterion-2 fig3-reproduction", endpoint_err, 1e-6)


def test_criterion_3_degrading_map_verification():
    worst = 0.0
    for lam in np.linspace(0.0, 0.5, 6):
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            worst = max(worst, cap.verify_degradable(float(lam), p))
    assert worst <= 1e-10
    _report("criterion-3 degrading-map", worst, 1e-10, "(30-point grid)")


def test_criterion_4_pauli_conjugation_invariance():
    rng = np.random.default_rng(2025)
    worst = 0.0
    for _ in range(5):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        for _ in range(100):
            rho = random_density_matrix(rng, 2)
            dz, dx = cap.ic_conjugation_residual(lam, p, rho)
            worst = max(worst, dz, dx)
    assert worst <= 1e-9
    _report("criterion-4 conjugation-invariance", worst, 1e-9, "(100 states x 5 pairs)")


def test_criterion_5_entropy_decompositions():
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        rho = random_density_matrix(rng, 2)
        h_rho = von_neumann_entropy(rho)
        h_dbar = chn.apply(chn.complementary_dephasing(p), rho).entropy()
        h_d = chn.apply(chn.dephasing_channel(p), rho).entropy()
        out_resid = abs(
            chn.apply(chn.channel_N(lam, p), rho).entropy()
            - (binary_entropy(lam) + lam * h_dbar + (1 - lam) * h_rho)
        )
        env_resid = abs(
            chn.apply(chn.complement_N(lam, p), rho).entropy()
            - (binary_entropy(lam) + lam * h_d)
        )
        worst = max(worst, out_resid, env_resid)
    assert worst <= 1e-10
    _report("criterion-5 entropy-decompositions", worst, 1e-10)


def test_criterion_6_diamond_distance_estimator():
    rng = np.random.default_rng(2027)
    worst_over, worst_under = 0.0, 0.0
    for _ in range(10):
        lam, p = rng.uniform(0.0, 1.0, size=2)
        est, ana = cap.diamond_distance_to_T(lam, p)
        worst_over = max(worst_over, est - ana)
        worst_under = max(worst_under, ana - est)
    assert worst_over <= 1e-9
    assert worst_under <= 1e-3
    _report("criterion-6 diamond-estimator", worst_under, 1e-3, f"(overshoot {worst_over:.1e})")


def test_criterion_7_sequence_construction():
    items, meta = cap.default_sequence(5)
    q_lb, q_ub, q_tw = cap.sequence_bound_curves()
    print(
        f"  recomputed upper-bound crossing b* = {meta['upper_crossing']:.6e} "
        f"(nominal range end {meta['nominal_range_end']:.1e}, b used {meta['b_used']:.1e})"
    )
    assert len(items) == 5
    assert all(b.x_n < a.x_n for a, b in zip(items, items[1:]))
    assert all(b.q_ub < a.q_lb for a, b in zip(items, items[1:]))
    assert items[0].q_ub < q_lb(meta["b_used"])
    # Two-way values rise exactly because x falls through a strictly
    # decreasing curve (grid-verified); the stored doubles tie once the x
    # difference drops below one ulp of 1/2, so assert monotonicity through x
    # and non-decrease of the rounded column.
    assert all(b.q_two_way >= a.q_two_way for a, b in zip(items, items[1:]))
    grid = np.linspace(0.0, meta["b_used"], 100)
    tw = [q_tw(x) for x in grid]
    assert all(a > b for a, b in zip(tw, tw[1:]))
    _report("criterion-7 sequence-invariants", 0.0, 1.0, "(5 terms, strict interleaving)")


def test_criterion_8_wiretap_capacity_oracle():
    rng = np.random.default_rng(2028)
    worst_value, worst_argmax = 0.0, 0.0
    for _ in range(20):
        lam = rng.uniform(0.0, 0.5)
        p = rng.uniform(0.0, 1.0)
        value, q = wt.secrecy_capacity_bruteforce(wt.build_wiretap(lam, p))
        worst_value = max(worst_value, abs(value - wt.one_way_secrecy_capacity(lam, p)))
        worst_argmax = max(worst_argmax, abs(q - 0.5))
    assert worst_value <= 1e-4
    assert worst_argmax <= 1e-4

    worst_degraded = 0.0
    for lam in np.linspace(0.0, 0.5, 6):
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            worst_degraded = max(worst_degraded, wt.verify_degraded(wt.build_wiretap(float(lam), p)))
    assert worst_degraded <= 1e-12
    _report(
        "criterion-8 wiretap-oracle",
        worst_value,
        1e-4,
        f"(argmax dev {worst_argmax:.1e}, degraded residual {worst_degraded:.1e})",
    )


def test_criterion_9_fig6_reproduction():
    pts = cap.sweep(wt.FIG6, 100)
    one = np.array([p.one_way for p in pts])
    two = np.array([p.two_way for p in pts])
    assert np.all(np.diff(one) > 0.0)
    assert np.all(np.diff(two) < 0.0)
    endpoint_err = max(abs(one[-1] - 0.806574), abs(two[-1] - 0.806574))
    assert endpoint_err <= 1e-6
    _report("criterion-9 fig6-reproduction", endpoint_err, 1e-6)


def test_criterion_10_monte_carlo_protocols():
    lam, uses = 0.3, 100_000
    sigma = float(np.sqrt(lam * (1.0 - lam) / uses))
    worst_rate = 0.0
    for seed in range(10):
        rate, err = cap.simulate_two_way_protocol(lam, 0.2, uses, seed)
        assert err == sigma
        worst_rate = max(worst_rate, abs(rate - (1.0 - lam)))
    assert worst_rate <= 3.0 * sigma

    worst_throughput, worst_leakage = 0.0, 0.0
    for seed in range(10):
        throughput, leakage = wt.simulate_feedback_protocol(lam, 0.1, uses, seed)
        worst_throughput = max(worst_throughput, abs(throughput - (1.0 - lam)))
        worst_leakage = max(worst_leakage, leakage)
    assert worst_throughput <= 3.0 * sigma
    assert worst_leakage <= 1e-2

    worst_fidelity = 0.0
    for lam_f in np.linspace(0.0, 1.0, 6):
        for p_f in np.linspace(0.0, 1.0, 5):
            worst_fidelity = max(
                worst_fidelity, abs(1.0 - cap.two_way_postselected_fidelity(float(lam_f), float(p_f)))
            )
    assert worst_fidelity <= 1e-10
    _report(
        "criterion-10 monte-carlo",
        max(worst_rate, worst_throughput),
        3.0 * sigma,
        f"(leakage {worst_leakage:.1e}, fidelity defect {worst_fidelity:.1e})",
    )


def test_criterion_11_disclosure_and_fig4_endpoint():
    # Every analytic statement above runs at desk scale; nothing in the source
    # material needs substitution.  Under the base-2 reading of fig4's
    # lambda(p) both the one-way and the two-way column strictly decrease
    # (see capacity.fig4_lambda docstring) and meet at p = 1/2.
    pts = cap.sweep(cap.FIG4, 100)
    endpoint_err = max(abs(pts[-1].one_way - 0.5), abs(pts[-1].two_way - 0.5))
    assert endpoint_err <= 1e-9
    steps = {name: float(np.diff(getattr(pts, name)).max()) for name in ("one_way", "two_way")}
    print(f"  fig4 largest step under base-2 reading: {steps}")
    assert all(step < 0.0 for step in steps.values()), steps
    _report("criterion-11 fig4-endpoint-equality", endpoint_err, 1e-9)


def test_full_verification_suite_passes():
    results = verify_mod.run_checks()
    failures = [r for r in results if not r.passed]
    assert len(results) >= 25
    assert not failures, [f"{r.name}: {r.residual}" for r in failures]
    print(f"PASS verification-suite: {len(results)} checks green")
