import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancap import capacity as cap
from chancap import channels as chn
from chancap import wiretap as wt
from chancap.errors import (
    DimensionTooLarge,
    DomainError,
    NonHermitian,
    NotAState,
    PreconditionViolated,
    ShapeMismatch,
)
from chancap.qmath import binary_entropy, von_neumann_entropy
from chancap.sampling import random_density_matrix, stream_rng

PI = np.eye(2, dtype=complex) / 2

# golden values recorded from the first computation of the default sequence
GOLDEN_SEQUENCE_X = [
    2.1052780168543287e-11,
    2.0988238522629935e-24,
    2.7414399639681308e-50,
    5.2651405247726561e-102,
    2.0530950228071056e-205,
]
GOLDEN_UPPER_CROSSING = 1.646598795712181e-04


def test_coherent_information_identity_channel():
    ident = chn.KrausChannel(2, 2, (np.eye(2, dtype=complex),))
    const = chn.KrausChannel(
        2,
        2,
        (
            np.outer(chn.ket(0, 2), chn.ket(0, 2).conj()),
            np.outer(chn.ket(0, 2), chn.ket(1, 2).conj()),
        ),
    )
    assert abs(cap.coherent_information(ident, const, PI) - 1.0) < 1e-12


def test_coherent_information_matches_closed_form():
    lam, p = 0.3, 0.1
    val = cap.coherent_information(chn.channel_N(lam, p), chn.complement_N(lam, p), PI)
    assert abs(val - 0.540699) < 1e-6
    # independent route: direct eigenvalue evaluation of both outputs
    out = chn.apply(chn.channel_N(lam, p), PI).matrix
    env = chn.apply(chn.complement_N(lam, p), PI).matrix
    direct = von_neumann_entropy(out) - von_neumann_entropy(env)
    assert abs(val - direct) < 1e-12
    assert abs(val - cap.one_way_capacity(lam, p)) < 1e-12


def test_coherent_information_basis_state_below_mixed():
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    for lam, p in [(0.2, 0.3), (0.4, 0.1), (0.5, 0.7)]:
        n, nb = chn.channel_N(lam, p), chn.complement_N(lam, p)
        assert cap.coherent_information(n, nb, ket0) <= cap.coherent_information(n, nb, PI) + 1e-12


def _ic_block_decomposition(lam, p, rho):
    """(1-lam) H(rho) + lam (H(Dbar rho) - H(D rho)), the block form of the IC."""
    a, b = np.sqrt(1.0 - p), np.sqrt(p)
    phi0, phi1 = np.array([a, b]), np.array([a, -b])
    dbar = rho[0, 0] * np.outer(phi0, phi0) + rho[1, 1] * np.outer(phi1, phi1)
    z = np.diag([1.0, -1.0])
    deph = (1.0 - p) * rho + p * (z @ rho @ z)
    return (1.0 - lam) * von_neumann_entropy(rho) + lam * (
        von_neumann_entropy(dbar) - von_neumann_entropy(deph)
    )


def test_coherent_information_block_decomposition():
    rng = np.random.default_rng(31)
    states = [PI, np.diag([1.0, 0.0]).astype(complex)]
    states += [random_density_matrix(rng, 2) for _ in range(6)]
    for lam in (0.0, 0.5, 1.0, 0.37):
        for p in (0.0, 0.5, 1.0, 5e-324, 0.2):
            n, nb = chn.channel_N(lam, p), chn.complement_N(lam, p)
            for rho in states:
                val = cap.coherent_information(n, nb, rho)
                assert abs(val - _ic_block_decomposition(lam, p, rho)) <= 1e-12, (lam, p)


def test_ic_functions_reject_bad_input():
    n, nb = chn.channel_N(0.3, 0.2), chn.complement_N(0.3, 0.2)
    nan_state = PI.copy()
    nan_state[1, 1] = np.nan
    bad = [
        (np.eye(3, dtype=complex) / 3, ShapeMismatch),
        (np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex), NonHermitian),
        (1.1 * PI, NotAState),
        (np.diag([1.05, -0.05]).astype(complex), NotAState),
        (nan_state, NonHermitian),
    ]
    for rho, error in bad:
        with pytest.raises(error):
            cap.coherent_information(n, nb, rho)
        with pytest.raises(error):
            cap.ic_conjugation_residual(0.3, 0.2, rho)
        # the same defects on a (2, 4) bipartite state; a 3x3 input cannot factor
        rho_ab = rho if rho.shape != (2, 2) else np.kron(rho, np.eye(4) / 4)
        with pytest.raises(error):
            cap.coherent_information_state(rho_ab, (2, 4))
    for lam in (-0.25, 1.5, np.nan):
        with pytest.raises(DomainError):
            cap.coherent_information(chn.channel_N(lam, 0.2), nb, PI)
        with pytest.raises(DomainError):
            cap.ic_conjugation_residual(lam, 0.2, PI)


def test_coherent_information_bounds_both_output_dimensions():
    # a qubit isometry into 20 dimensions, in each position of the pair; the
    # dimension is rejected before the (here malformed) state is looked at
    wide = chn.KrausChannel(2, 20, (np.eye(20, 2, dtype=complex),))
    n, nb = chn.channel_N(0.3, 0.2), chn.complement_N(0.3, 0.2)
    for ch, comp in ((wide, nb), (n, wide)):
        for rho in (PI, 1.1 * PI):
            with pytest.raises(DimensionTooLarge):
                cap.coherent_information(ch, comp, rho)


def test_coherent_information_takes_a_complement_of_exactly_max_dim():
    # a qubit isometry into 16 dimensions is accepted, into 17 refused
    n = chn.channel_N(0.3, 0.2)
    embed = lambda d: chn.KrausChannel(2, d, (np.eye(d, 2, dtype=complex),))  # noqa: E731
    # the embedding keeps pi, whose entropy is 1
    expected = chn.apply(n, PI).entropy() - 1.0
    assert abs(cap.coherent_information(n, embed(16), PI) - expected) < 1e-12
    with pytest.raises(DimensionTooLarge, match="complement output dimension 17 exceeds 16"):
        cap.coherent_information(n, embed(17), PI)


def _kraus_sum(kraus, rho):
    """sum_a K_a rho K_a^dag, the Kraus-sum reference for the superoperator kernel."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def test_superoperator_matches_apply():
    # apply, apply_with_reference, choi and channel_distance all read the
    # cached superoperator; each is checked against the Kraus sum
    lam, p = 0.37, 0.2
    iso = chn.isometry_N(lam, p)
    channels = [
        chn.dephasing_channel(p),
        chn.complementary_dephasing(p),
        chn.channel_N(lam, p),
        chn.complement_N(lam, p),
        chn.comparison_channel_T(lam, p),
        chn.erasure_channel(lam),
        chn.channel_from_isometry(iso, (4, 3), "first"),
        chn.channel_from_isometry(iso, (4, 3), "second"),
        cap.degrading_map(lam, p),
        chn.compose(cap.degrading_map(lam, p), chn.channel_N(lam, p)),
    ]
    rng = np.random.default_rng(32)
    chois = []
    for ch in channels:
        i_r = np.eye(2, dtype=complex)
        for _ in range(5):
            rho = random_density_matrix(rng, ch.dim_in)
            ref = _kraus_sum(ch.kraus, rho)
            assert np.abs(chn.apply(ch, rho).matrix - ref).max() <= 1e-14
            assert np.abs(chn.apply_with_reference(ch, rho, 1).matrix - ref).max() <= 1e-14
            rho_ar = random_density_matrix(rng, 2 * ch.dim_in)
            ref_ar = _kraus_sum([np.kron(k, i_r) for k in ch.kraus], rho_ar)
            assert np.abs(chn.apply_with_reference(ch, rho_ar, 2).matrix - ref_ar).max() <= 1e-14
        i_a = np.eye(ch.dim_in, dtype=complex)
        phi = chn.maximally_entangled(ch.dim_in).projector()
        chois.append(_kraus_sum([np.kron(i_a, k) for k in ch.kraus], phi))
        assert np.abs(chn.choi(ch).state.matrix - chois[-1]).max() <= 1e-14
    pairs = 0
    for a, choi_a in zip(channels, chois):
        for b, choi_b in zip(channels, chois):
            if (a.dim_in, a.dim_out) == (b.dim_in, b.dim_out):
                expected = np.abs(choi_a - choi_b).max()
                assert abs(chn.channel_distance(a, b) - expected) <= 1e-14
                pairs += 1
    assert pairs == 30  # every pair of constructors with the same input and output


@pytest.mark.parametrize("lam, p", [(0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (0.5, 5e-324), (0.37, 0.2)])
def test_conjugation_residual_matches_coherent_information(lam, p):
    # the residual scores rho, Z rho Z and X rho X as one stack; each row
    # must be, to the bit, what coherent_information gives that state alone
    n, nb = chn.channel_N(lam, p), chn.complement_N(lam, p)
    z, x = chn.PAULI_Z, chn.PAULI_X
    rng = np.random.default_rng(33)
    for _ in range(40):
        rho = random_density_matrix(rng, 2)
        base, ic_z, ic_x = (
            cap.coherent_information(n, nb, m) for m in (rho, z @ rho @ z, x @ rho @ x)
        )
        assert cap.ic_conjugation_residual(lam, p, rho) == (abs(base - ic_z), abs(base - ic_x))


def test_coherent_information_state():
    phi = chn.maximally_entangled(2).projector()
    assert abs(cap.coherent_information_state(phi, (2, 2)) - 1.0) < 1e-12

    rng = np.random.default_rng(11)
    rho_a = random_density_matrix(rng, 2)
    rho_b = random_density_matrix(rng, 3)
    prod = np.kron(rho_a, rho_b)
    expected = -von_neumann_entropy(rho_a)
    assert abs(cap.coherent_information_state(prod, (2, 3)) - expected) < 1e-10


def test_coherent_information_state_choi_consistency():
    lam, p = 0.3, 0.1
    n = chn.channel_N(lam, p)
    via_state = cap.coherent_information_state(chn.choi(n).state.matrix, (2, 4))
    assert abs(via_state - 0.540699) < 1e-6
    via_channel = cap.coherent_information(n, chn.complement_N(lam, p), PI)
    assert abs(via_state - via_channel) < 1e-10


def test_maximize_coherent_information():
    value, bloch = cap.maximize_coherent_information(0.3, 0.1)
    assert abs(value - 0.540699) < 1e-5
    assert np.linalg.norm(bloch) <= 1e-3

    value, bloch = cap.maximize_coherent_information(0.0, 0.4)
    assert abs(value - 1.0) < 1e-9
    assert np.linalg.norm(bloch) <= 1e-3

    value, bloch = cap.maximize_coherent_information(1.0, 0.5)
    assert abs(value) < 1e-9
    assert np.linalg.norm(bloch) <= 1e-3

    with pytest.raises(DomainError):
        cap.maximize_coherent_information(math.nan, 0.1)


@pytest.mark.parametrize("lam, p, least", [(0.8556, 0.05, 3.15e-8), (0.95, 0.2, 9.8e-9)])
def test_the_maximizer_finds_maxima_next_to_the_sphere(lam, p, least):
    # both maxima lie within 1e-6 of the sphere and are below 1e-7
    value, bloch = cap.maximize_coherent_information(lam, p)
    assert value >= least
    assert 1.0 - 1e-6 < np.linalg.norm(bloch) < 1.0
    assert bloch[1] == bloch[2] == 0.0


def _ic_at_equator(lam, p, x):
    # the eigen route at the equator point (sqrt x, 0, 0)
    [value] = cap._ic_evaluator(lam, p)(np.array([[math.sqrt(x), 0.0, 0.0]]))
    return value


def _secrecy_at(lam, p, q):
    # the table route at the input law Bernoulli(q)
    return wt.secrecy_objective(wt.build_wiretap(lam, p), q)


# each bracket of the shared kernel _phi_bracket, with an independent route
# that scores its argmax: x* for the glued channel, q* for the wiretap
@pytest.mark.parametrize("bracket, route", [
    (cap._one_shot_bracket, _ic_at_equator),
    (wt._secrecy_bracket, _secrecy_at),
], ids=["glued", "wiretap"])
@settings(derandomize=True, deadline=None, max_examples=40)
@given(lam=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0))
@example(lam=0.5, p=0.0)  # F is flat
@example(lam=0.5, p=5e-324)
@example(lam=0.0, p=0.0)
@example(lam=0.0, p=1.0)
@example(lam=1.0, p=0.0)  # G is flat
@example(lam=1.0, p=1.0)
@example(lam=0.0, p=0.5)
@example(lam=1.0, p=0.5)
@example(lam=0.5, p=0.5)  # G is flat
@example(lam=0.5, p=1.0)
@example(lam=0.3, p=0.0)
@example(lam=0.7, p=1.0)
@example(lam=0.75, p=0.2)  # G peaks only at x = 1
@example(lam=0.8556, p=0.05)
@example(lam=0.99, p=0.3)  # F is positive only within 1e-15 of the sphere
def test_the_one_shot_bracket_closes_at_its_argmax(bracket, route, lam, p):
    lo, hi, arg = bracket(lam, p)
    assert lo <= hi <= lo + 1e-12
    assert 0.0 <= arg <= 1.0
    assert abs(route(lam, p, arg) - lo) <= 1e-14


def test_the_one_shot_bracket_keeps_its_bytes():
    # float.hex of (lo, hi, x*) on an 11 x 11 grid plus a subnormal lambda
    # and p, pinned before the loop became the kernel shared with the
    # wiretap; like every digest of float output it depends on the numpy
    # build's log2 and log1p
    grid = [*np.linspace(0.0, 1.0, 11).tolist(), 5e-324]
    digest = hashlib.sha256()
    for lam in grid:
        for p in grid:
            line = " ".join(float(t).hex() for t in cap._one_shot_bracket(lam, p))
            digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == "3510af6e0c913dd0e16e3918e5ef2708bcba30415298c8ce244554d708faa6f2"


@settings(derandomize=True, deadline=None, max_examples=20)
@given(lam=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0), seed=st.integers(0, 2**32 - 1))
@example(lam=0.0, p=0.0, seed=0)
@example(lam=0.5, p=0.5, seed=1)
@example(lam=1.0, p=1.0, seed=2)
@example(lam=0.0, p=1.0, seed=3)
@example(lam=1.0, p=0.0, seed=4)
@example(lam=0.5, p=0.0, seed=5)
@example(lam=0.0, p=0.5, seed=6)
@example(lam=1.0, p=0.5, seed=7)
@example(lam=0.5, p=1.0, seed=8)
@example(lam=0.5, p=5e-324, seed=9)
@example(lam=1.0, p=5e-324, seed=10)
def test_bloch_objectives_are_invariant_under_rotations_about_z(lam, p, seed):
    # the premise of the equator lemma behind _one_shot_bracket: both
    # objectives depend on x and y only through x^2 + y^2
    rng = np.random.default_rng(seed)
    rs = rng.normal(size=(64, 3))
    rs *= rng.random((64, 1)) ** (1 / 3) / np.linalg.norm(rs, axis=1, keepdims=True)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=64)
    c, s = np.cos(theta), np.sin(theta)
    rotated = np.column_stack([c * rs[:, 0] - s * rs[:, 1], s * rs[:, 0] + c * rs[:, 1], rs[:, 2]])
    for make in (cap._ic_evaluator, cap._diamond_evaluator):
        evaluate = make(lam, p)
        assert np.abs(evaluate(rotated) - evaluate(rs)).max() <= 1e-12


def test_diamond_objective_tells_z_from_minus_z():
    # the distance has no symmetry z -> -z, so the estimate must score the
    # pole |1>, (0, 0, -1), and not |0>
    evaluate = cap._diamond_evaluator(0.3, 0.2)
    rs = np.array([[0.0, 0.0, 1.0], [0.3, 0.2, 0.5], [0.6, 0.0, 0.7]])
    assert np.all(np.abs(evaluate(rs) - evaluate(rs * [1.0, 1.0, -1.0])) > 0.1)


def test_one_way_capacity():
    assert cap.one_way_capacity(0.25, 0.0) == 0.5
    assert abs(cap.one_way_capacity(0.3125, 0.25) - 0.628524) < 1e-6
    assert cap.one_way_capacity(0.0, 0.9) == 1.0
    with pytest.raises(DomainError):
        cap.one_way_capacity(0.51, 0.2)


def test_two_way_capacity():
    assert cap.two_way_capacity(0.0) == 1.0
    assert cap.two_way_capacity(1.0) == 0.0
    assert abs(cap.two_way_capacity(0.3) - 0.7) < 1e-15
    with pytest.raises(DomainError):
        cap.two_way_capacity(-0.1)


def test_complement_capacities():
    assert abs(cap.complement_two_way_capacity(0.5, 0.0) - 0.5) < 1e-15
    assert cap.complement_two_way_capacity(0.3, 0.5) == 0.0
    assert cap.complement_two_way_capacity(0.0, 0.3) == 0.0
    assert cap.complement_one_way_capacity(0.4, 0.2) == 0.0
    # the relative-entropy bound extends to every lambda
    assert abs(cap.er_bound_complement(0.9, 0.0) - 0.9) < 1e-15
    with pytest.raises(DomainError):
        cap.complement_two_way_capacity(0.6, 0.1)


def test_erasure_capacities():
    assert cap.erasure_capacities(0.5) == (0.0, 0.5)
    assert cap.erasure_capacities(0.0) == (1.0, 1.0)
    assert cap.erasure_capacities(1.0) == (0.0, 0.0)


def test_lower_bound():
    assert abs(cap.coherent_info_lower_bound(0.6, 0.5) - 0.4) < 1e-12
    assert cap.coherent_info_lower_bound(1.0, 0.0) == 0.0
    assert abs(cap.coherent_info_lower_bound(0.5001, 1e-4) - 5.37e-4) < 1e-6
    assert abs(binary_entropy(1e-4) - 1.47303e-3) < 1e-8


def test_upper_bound():
    assert cap.continuity_upper_bound(0.3, 0.0) == 0.0
    assert abs(cap.continuity_upper_bound(0.6, 0.5) - 0.4) < 1e-12
    val = cap.continuity_upper_bound(0.5001, 1e-4)
    assert val < 1.0 - 0.5001
    assert abs(val - 0.404) < 1e-3
    # entropic branch evaluated directly
    eps = 4 * 0.5001 * np.sqrt(1e-4 * (1 - 1e-4))
    direct = 4 * eps + 2 * (2 + eps) * binary_entropy(eps / (2 + eps))
    assert abs(val - direct) < 1e-15


def _edge_grid(n):
    # n values in [0, 1]: a uniform grid with -0.0 and the float edges
    edges = [-0.0, 5e-324, 2.0**-53, 0.5 - 2.0**-54, 0.5 + 2.0**-53, 1.0 - 2.0**-53]
    return np.concatenate([np.linspace(0.0, 1.0, n - len(edges)), edges])


def _selected_bounds(lam, p):
    # the bounds written as selections, the form the ufuncs replaced
    one = cap._one_way(lam, p)
    two, entropic = cap._two_way(lam), cap._continuity_entropic(lam, p)
    return np.where(one > 0.0, one, 0.0), np.where(entropic < two, entropic, two)


def test_bound_ufuncs_match_the_selections_bit_for_bit():
    lam, p = np.meshgrid(_edge_grid(1009), _edge_grid(1009))
    for got, want in zip((cap._lower_bound(lam, p), cap._continuity_bound(lam, p)),
                         _selected_bounds(lam, p)):
        assert got.tobytes() == want.tobytes()
    for lam in _edge_grid(34):
        for p in _edge_grid(34):
            got = (cap.coherent_info_lower_bound(lam, p), cap.continuity_upper_bound(lam, p))
            want = tuple(float(v) for v in _selected_bounds(lam, p))
            assert np.array(got).tobytes() == np.array(want).tobytes(), (lam, p)


def test_diamond_distance():
    est, ana = cap.diamond_distance_to_T(0.5, 0.0)
    assert est == 0.0 and ana == 0.0

    est, ana = cap.diamond_distance_to_T(0.5, 0.5)
    assert abs(ana - 1.0) < 1e-15
    assert est <= ana + 1e-9
    assert est >= ana - 1e-3

    # the objective scales with lam sqrt(p): tiny values are not ties
    est, ana = cap.diamond_distance_to_T(0.5, 1e-100)
    assert abs(est - ana) <= 1e-12 * ana


def test_diamond_optimum_at_basis_one_input():
    # |1>_A (x) |0>_R realizes the analytic value without any search
    lam, p = 0.6, 0.3
    psi = np.zeros(4, dtype=complex)
    psi[2] = 1.0
    rho = np.outer(psi, psi.conj())
    delta = (
        chn.apply_with_reference(chn.channel_N(lam, p), rho, 2).matrix
        - chn.apply_with_reference(chn.comparison_channel_T(lam, p), rho, 2).matrix
    )
    tn = float(np.abs(np.linalg.eigvalsh(delta)).sum())
    assert abs(tn - 4 * lam * np.sqrt(p * (1 - p))) < 1e-12


def test_degrading_map():
    # lam = 0: trace-and-replace with the flag
    r = cap.degrading_map(0.0, 0.3)
    rho4 = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    out = chn.apply(r, rho4).matrix
    assert np.abs(out - np.diag([1.0, 0.0, 0.0])).max() < 1e-12

    for lam, p in [(0.0, 0.0), (0.5, 0.3), (0.3, 0.7), (0.25, 1.0)]:
        assert cap.verify_degradable(lam, p) < 1e-10
    with pytest.raises(DomainError):
        cap.degrading_map(0.51, 0.3)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(lam=st.floats(0.0, 0.5), p=st.floats(0.0, 1.0))
@example(lam=0.0, p=0.0)
@example(lam=0.0, p=0.5)
@example(lam=0.0, p=1.0)
@example(lam=0.0, p=5e-324)
@example(lam=0.5, p=0.0)
@example(lam=0.5, p=0.5)
@example(lam=0.5, p=1.0)
@example(lam=0.5, p=5e-324)
def test_degrading_composition_is_the_complement(lam, p):
    assert cap.verify_degradable(lam, p) < 1e-10


def test_ic_conjugation_residual():
    dz, dx = cap.ic_conjugation_residual(0.4, 0.3, PI)
    assert dz == 0.0 and dx == 0.0

    ket0 = np.diag([1.0, 0.0]).astype(complex)
    dz, _ = cap.ic_conjugation_residual(0.4, 0.3, ket0)
    assert dz < 1e-12

    rng = np.random.default_rng(12)
    for _ in range(20):
        rho = random_density_matrix(rng, 2)
        dz, dx = cap.ic_conjugation_residual(0.4, 0.3, rho)
        assert dz < 1e-9 and dx < 1e-9


def test_derivative_check():
    curve = lambda l: 4.0 * l - 1.0  # noqa: E731
    analytic, numeric = cap.derivative_check(curve, 0.28)
    assert analytic > 0.0
    assert abs(analytic - numeric) < 1e-5

    # constant curve: derivative H(p0) - 2 < 0 always
    analytic, numeric = cap.derivative_check(lambda l: 0.3, 0.3)
    assert abs(analytic - (binary_entropy(0.3) - 2.0)) < 1e-9
    assert abs(analytic - numeric) < 1e-5

    with pytest.raises(DomainError):
        cap.derivative_check(curve, 0.2500001)  # p(lam) too close to 0
    with pytest.raises(DomainError):
        cap.derivative_check(lambda l: 0.3, 0.4999999)  # stencil leaves [0, 1/2]
    # the stencil guard rejects NaN and the ends of [0, 1/2]
    for lam in (0.0, np.nan, -0.1, 0.6):
        with pytest.raises(DomainError):
            cap.derivative_check(lambda l: 0.3, lam)


@pytest.mark.parametrize("edge", [0.0, 1.0])
@pytest.mark.parametrize("sides", [(1.0,), (-1.0,), (1.0, -1.0)], ids=["plus", "minus", "both"])
def test_derivative_check_refuses_a_curve_that_reaches_an_end(edge, sides):
    # the curve is 0.3 at lam but exactly 0 or 1 one stencil step away: the
    # open interval (0, 1) refuses it, a closed one would not
    lam = 0.3
    reached = {lam + s * 1e-6 for s in sides}
    with pytest.raises(DomainError, match="curve leaves \\(0, 1\\)"):
        cap.derivative_check(lambda l: edge if l in reached else 0.3, lam)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    ends=st.lists(_finite, min_size=3, max_size=3, unique=True).map(sorted),
    root_at_hi=st.booleans(),
    kind=st.sampled_from(["linear", "tanh", "step"]),
)
@example(ends=[0.0, 5e-324, 1e-323], root_at_hi=False, kind="linear")
@example(ends=[0.0, 5e-324, 1e-300], root_at_hi=True, kind="step")
@example(ends=[1e308, 1.5e308, 1.7e308], root_at_hi=False, kind="linear")
@example(ends=[-1.7e308, 0.0, 1.7e308], root_at_hi=False, kind="tanh")
@example(ends=[0.0, 0.25, 1.0], root_at_hi=True, kind="linear")
def test_bisect_bracket_invariants(ends, root_at_hi, kind):
    lo, root, hi = ends
    if root_at_hi:
        root = hi
    # increasing functions that turn nonnegative at ``root``
    g = {
        "linear": lambda x: x - root,
        "tanh": lambda x: math.tanh(x - root),
        "step": lambda x: -1.0 if x < root else 0.0,
    }[kind]
    seen = []

    def f(x):
        seen.append(x)
        return g(x)

    assert g(lo) < 0.0 <= g(hi)
    result = cap.bisect(f, lo, hi)
    assert lo <= result <= hi
    # the final bracket: the innermost points on either side of the turn
    below = max([x for x in seen if g(x) < 0.0], default=lo)
    above = min([x for x in seen if g(x) >= 0.0], default=hi)
    assert below < above
    assert np.nextafter(below, np.inf) == above  # it cannot be split
    assert result in (below, above)
    assert g(np.nextafter(result, lo)) < 0.0


def test_sequence_golden_values():
    items, meta = cap.default_sequence(5)
    assert abs(meta["upper_crossing"] - GOLDEN_UPPER_CROSSING) < 1e-6 * GOLDEN_UPPER_CROSSING
    assert meta["b_used"] == 1e-4
    assert meta["nominal_range_end"] == 2e-4
    for item, golden in zip(items, GOLDEN_SEQUENCE_X):
        assert abs(item.x_n - golden) <= 1e-6 * golden


def test_sequence_invariants():
    items, meta = cap.default_sequence(5)
    q_lb, q_ub, q_tw = cap.sequence_bound_curves()
    assert all(b.x_n < a.x_n for a, b in zip(items, items[1:]))
    assert all(b.q_ub < a.q_lb for a, b in zip(items, items[1:]))
    assert items[0].q_ub < q_lb(meta["b_used"])
    assert all(b.q_two_way >= a.q_two_way for a, b in zip(items, items[1:]))
    assert all(it.q_lb <= it.q_ub for it in items)
    # the bounds meet at the left endpoint
    assert q_lb(0.0) == q_ub(0.0) == 0.0


def test_sequence_precondition_checks():
    q_lb, q_ub, q_tw = cap.sequence_bound_curves()
    with pytest.raises(PreconditionViolated):
        # upper bound not strictly above with a crossing inside the range
        cap.alternating_bounds_sequence(q_lb, q_ub, q_tw, 0.0, 1e-3, 3)
    with pytest.raises(PreconditionViolated):
        # bounds do not meet at a
        cap.alternating_bounds_sequence(lambda x: x + 0.1, q_ub, q_tw, 0.0, 1e-4, 3)
    with pytest.raises(DomainError):
        cap.alternating_bounds_sequence(q_lb, q_ub, q_tw, 0.0, 1e-4, 0)
    # on [0, 1]: lb = x and ub = 2x meet at 0, and ub stays below tw = 4 - x
    # a NaN step in the lower bound (at one interior grid point) is a violation
    lb, ub, tw = (lambda x: x), (lambda x: 2.0 * x), (lambda x: 4.0 - x)
    nan_lb = lambda x: math.nan if 0.4 < x < 0.41 else x  # noqa: E731
    for curves, match in [
        ((nan_lb, ub, tw), "lower bound not strictly increasing"),
        ((lambda x: min(x, 0.5), ub, tw), "lower bound not strictly increasing"),
        ((lb, lambda x: min(2.0 * x, 1.0), tw), "upper bound not strictly increasing"),
        ((lb, ub, lambda x: 4.0), "two-way value not strictly decreasing"),
    ]:
        with pytest.raises(PreconditionViolated, match=match):
            cap.alternating_bounds_sequence(*curves, 0.0, 1.0, 3)


def test_sequence_nan_where_the_bounds_meet():
    # abs(NaN - ub) > 1e-9 is False, so the meeting check must be written to fail on NaN
    lb = lambda x: math.nan if x == 0.0 else x  # noqa: E731
    with pytest.raises(PreconditionViolated, match="do not meet") as info:
        cap.alternating_bounds_sequence(lb, lambda x: 2.0 * x, lambda x: 4.0 - x, 0.0, 1.0, 3)
    assert "lb=nan, ub=0.0" in str(info.value)
    # grid points print as plain floats
    with pytest.raises(PreconditionViolated, match=r"not strictly increasing at x=0\.5\d*$"):
        cap.alternating_bounds_sequence(
            lambda x: min(x, 0.5), lambda x: 2.0 * x, lambda x: 4.0 - x, 0.0, 1.0, 3)


def test_sequence_term_one_is_checked_against_b():
    # x_1 = 0.25 falls in a window of the two-way curve that holds no grid
    # node, where the curve drops to 0, below q_two_way(b) = 3
    tw = lambda x: 0.0 if 0.245 < x < 0.251 else 4.0 - x  # noqa: E731
    assert not any(0.245 < x < 0.251 for x in np.linspace(0.0, 1.0, 100))
    with pytest.raises(PreconditionViolated, match="between terms 0 and 1"):
        cap.alternating_bounds_sequence(lambda x: x, lambda x: 2.0 * x, tw, 0.0, 1.0, 3)


def test_bisect_refuses_nan():
    with pytest.raises(PreconditionViolated, match=r"NaN at x=0\.5$"):
        cap.bisect(lambda x: math.nan, 0.0, 1.0)
    # a NaN met after the bracket has moved names the point it was met at
    with pytest.raises(PreconditionViolated, match=r"NaN at x=0\.25$"):
        cap.bisect(lambda x: math.nan if x < 0.3 else x - 0.1, 0.0, 1.0)


def test_sequence_underflow_raises():
    with pytest.raises(PreconditionViolated):
        cap.default_sequence(8)


def test_sweep_fig3():
    pts = cap.sweep(cap.FIG3, 100)
    assert len(pts) == 100
    assert pts[0].x == 0.25 and abs(pts[0].one_way - 0.5) < 1e-9 and pts[0].two_way == 0.75
    assert abs(pts[-1].one_way - 0.628524) < 1e-6 and pts[-1].two_way == 0.6875
    one = np.array([p.one_way for p in pts])
    two = np.array([p.two_way for p in pts])
    assert np.all(np.diff(one) > 1e-9)
    assert np.all(np.diff(two) < -1e-9)
    with pytest.raises(DomainError):
        cap.sweep(cap.FIG3, 1)


def test_sweep_fig4():
    pts = cap.sweep(cap.FIG4, 100)
    assert abs(pts[-1].lam - 0.5) < 1e-12
    assert abs(pts[-1].one_way - 0.5) < 1e-9
    assert abs(pts[-1].two_way - 0.5) < 1e-9
    # all points stay in the certified regime under the base-2 reading
    assert all(cap.degradable(p.lam, p.p) for p in pts)
    # under this reading both columns strictly decrease toward their meeting at p = 1/2
    assert np.all(np.diff(pts.one_way) < 0) and np.all(np.diff(pts.two_way) < 0)


def test_sweep_custom():
    pts = cap.sweep(cap.custom_curve(0.5, 1.0, 0.1, 0.1), 5)
    assert pts[0].one_way is not None
    assert all(p.one_way is None for p in pts[1:])
    assert all(p.lower_bound is not None and p.upper_bound is not None for p in pts)
    with pytest.raises(DomainError):
        cap.custom_curve(0.2, 0.2, 0.1, 0.1)  # nothing varies


@settings(derandomize=True, deadline=None, max_examples=150)
@given(
    vary_lambda=st.booleans(),
    fixed=st.floats(0.0, 1.0),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda e: e[0] != e[1]),
    points=st.integers(2, 9),
)
@example(vary_lambda=True, fixed=0.0, ends=(0.0, 1.0), points=3)
@example(vary_lambda=True, fixed=1.0, ends=(0.5, 1.0), points=2)
@example(vary_lambda=True, fixed=5e-324, ends=(0.0, 0.5), points=5)
@example(vary_lambda=False, fixed=0.5, ends=(0.0, 1.0), points=3)
@example(vary_lambda=False, fixed=0.0, ends=(0.0, 5e-324), points=4)
@example(vary_lambda=False, fixed=1.0, ends=(5e-324, 0.5), points=3)
def test_custom_curve_rows(vary_lambda, fixed, ends, points):
    lo, hi = sorted(ends)
    lam_ends, p_ends = ((lo, hi), (fixed, fixed)) if vary_lambda else ((fixed, fixed), (lo, hi))
    pts = cap.sweep(cap.custom_curve(*lam_ends, *p_ends), points)
    assert len(pts) == points
    for pt in pts:
        assert pt.x == (pt.lam if vary_lambda else pt.p)
        assert (pt.p if vary_lambda else pt.lam) == fixed
        assert (pt.one_way is None) == (not cap.degradable(pt.lam, pt.p))
        if pt.one_way is not None:
            assert pt.lower_bound <= pt.one_way <= pt.two_way


def _glued_scalar_row(lam, p):
    one = cap.one_way_capacity(lam, p) if cap.degradable(lam, p) else None
    return (lam, p, one, cap.two_way_capacity(lam), cap.coherent_info_lower_bound(lam, p),
            cap.continuity_upper_bound(lam, p))


def _fig6_scalar_row(p):
    lam = wt.fig6_lambda(p)
    return (lam, p, wt.one_way_secrecy_capacity(lam, p), wt.two_way_secrecy_capacity(lam),
            None, None)


# each figure's x -> scalar (lam, p, one_way, two_way, lower_bound, upper_bound)
SCALAR_FIGURES = {
    "fig3": (cap.FIG3, lambda x: _glued_scalar_row(x, 4.0 * x - 1.0)),
    "fig4": (cap.FIG4, lambda x: _glued_scalar_row(cap.fig4_lambda(x), x)),
    "fig6": (wt.FIG6, _fig6_scalar_row),
}


def _assert_rows_bitwise(pts, expected):
    """Every row of a sweep equals the scalar closed forms bit for bit, None where absent."""
    def bits(v):
        return None if v is None else v.hex()

    assert len(pts) == len(expected)
    for pt, (x, *row) in zip(pts, expected):
        got = (pt.x, pt.lam, pt.p, pt.one_way, pt.two_way, pt.lower_bound, pt.upper_bound)
        assert [bits(v) for v in got] == [bits(v) for v in (x, *row)], x


@pytest.mark.parametrize("points", [2, 100, 777])
@pytest.mark.parametrize("name", sorted(SCALAR_FIGURES))
def test_figure_sweeps_match_scalar_closed_forms(name, points):
    curve, scalar_row = SCALAR_FIGURES[name]
    xs = np.linspace(*curve.x_range, points).tolist()
    _assert_rows_bitwise(cap.sweep(curve, points), [(x, *scalar_row(x)) for x in xs])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    vary_lambda=st.booleans(),
    fixed=st.floats(0.0, 1.0),
    ends=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)).filter(lambda e: e[0] != e[1]),
    points=st.integers(2, 40),
)
@example(vary_lambda=True, fixed=0.0, ends=(0.0, 1.0), points=3)
@example(vary_lambda=True, fixed=0.5, ends=(0.0, 1.0), points=5)
@example(vary_lambda=True, fixed=1.0, ends=(0.0, 1.0), points=3)
@example(vary_lambda=True, fixed=5e-324, ends=(0.0, 1.0), points=9)
@example(vary_lambda=False, fixed=0.0, ends=(0.0, 1.0), points=3)
@example(vary_lambda=False, fixed=0.5, ends=(0.0, 1.0), points=5)
@example(vary_lambda=False, fixed=1.0, ends=(0.0, 5e-324), points=4)
def test_custom_sweeps_match_scalar_closed_forms(vary_lambda, fixed, ends, points):
    lo, hi = sorted(ends)
    lam_ends, p_ends = ((lo, hi), (fixed, fixed)) if vary_lambda else ((fixed, fixed), (lo, hi))
    xs = np.linspace(lo, hi, points).tolist()
    expected = [(x, *_glued_scalar_row(*((x, fixed) if vary_lambda else (fixed, x)))) for x in xs]
    _assert_rows_bitwise(cap.sweep(cap.custom_curve(*lam_ends, *p_ends), points), expected)


def test_sweep_table_reads_as_rows():
    pts = cap.sweep(cap.custom_curve(0.25, 0.75, 0.3, 0.3), 3)
    assert isinstance(pts, cap.SweepTable)
    rows = list(pts)
    assert [pt.x for pt in rows] == [0.25, 0.5, 0.75]
    assert pts[-1] == rows[2] and pts[1:] == rows[1:]
    assert [pt.one_way is None for pt in pts] == [False, False, True]
    assert np.isnan(pts.one_way[2]) and pts.column("lambda") is pts.lam
    assert pts.lower_bound is not None and cap.sweep(wt.FIG6, 2).upper_bound is None
    with pytest.raises(IndexError):
        pts[3]
    with pytest.raises(ValueError):
        pts.two_way[0] = 0.0  # the columns are read-only


@pytest.mark.parametrize("row", [
    # NaN outside the absent one-way slots, a missing certified value, broken orderings
    lambda lam, p: (1.0 - lam, np.full_like(lam, np.nan), None, None),
    lambda lam, p: (np.full_like(lam, np.nan), 1.0 - lam, None, None),
    lambda lam, p: (1.0 - lam, 1.0 - lam, np.full_like(lam, np.nan), 0.0 * lam),
    lambda lam, p: (1.0 - lam, 1.0 - lam, 1.0 - lam + 1e-6, 0.0 * lam),
    lambda lam, p: (1.0 - lam + 1e-6, 1.0 - lam, None, None),
    lambda lam, p: (1.0 - lam, 1.5 - lam, None, None),
])
def test_sweep_rejects_invalid_rows(row):
    curve = cap.Curve(x_range=(0.1, 0.4), params=lambda x: (x, x), row=row, meta=dict)
    with pytest.raises(DomainError):
        cap.sweep(curve, 4)


# lambda at and around the edges of today's certified region [0, 1/2], and NaN
REGION_LAMBDAS = (0.0, 5e-324, 0.25, 0.5, math.nextafter(0.5, 1.0), 0.75, 1.0, math.nan)
REGION_PS = (0.0, 0.5, 1.0)
# each region-checked scalar function, beside the predicate it is checked by
# and the regime its refusal names
REGION_CHECKED = {
    "one_way_capacity": (cap.one_way_capacity, cap.degradable, "degradable"),
    "complement_one_way_capacity": (cap.complement_one_way_capacity, cap.degradable, "degradable"),
    "complement_two_way_capacity": (cap.complement_two_way_capacity, cap.degradable, "degradable"),
    "degrading_map": (cap.degrading_map, cap.degradable, "degradable"),
    "one_way_secrecy_capacity": (wt.one_way_secrecy_capacity, wt.degraded, "degraded"),
    "degrading_stochastic_map": (wt.degrading_stochastic_map, wt.degraded, "degraded"),
}


@pytest.mark.parametrize("lam", REGION_LAMBDAS)
@pytest.mark.parametrize("p", REGION_PS)
def test_predicates_are_the_certified_region(lam, p):
    for region in (cap.degradable, wt.degraded):
        assert bool(region(lam, p)) == (0.0 <= lam <= 0.5)
        grid = region(np.array([lam, lam]), np.array([p, p]))
        assert grid.tolist() == [bool(region(lam, p))] * 2


@pytest.mark.parametrize("lam", REGION_LAMBDAS)
@pytest.mark.parametrize("p", REGION_PS)
@pytest.mark.parametrize("name", sorted(REGION_CHECKED))
def test_scalar_functions_refuse_exactly_outside_their_region(name, lam, p):
    function, region, regime = REGION_CHECKED[name]
    if region(lam, p):
        function(lam, p)
    else:
        refusal = f"lambda must lie in the {regime} regime [0, 1/2], got {lam!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(refusal)}$"):
            function(lam, p)


@pytest.mark.parametrize("lam", REGION_LAMBDAS[:-1])
def test_sweep_rows_leave_one_way_out_exactly_outside_the_region(lam):
    # a p sweep at fixed lambda whose three points are exactly REGION_PS
    pts = cap.sweep(cap.custom_curve(lam, lam, 0.0, 1.0), len(REGION_PS))
    assert pts.p.tolist() == list(REGION_PS)
    assert np.isnan(pts.one_way).tolist() == [not cap.degradable(lam, p) for p in REGION_PS]


@pytest.mark.parametrize("lam", REGION_LAMBDAS)
@pytest.mark.parametrize("p", REGION_PS)
def test_curve_point_needs_one_way_exactly_inside_the_region(lam, p):
    def build():
        return cap.CapacityCurvePoint(x=lam, lam=lam, p=p, one_way=None, two_way=0.0)

    if math.isnan(lam):  # a NaN lambda fails the range rule first
        with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
            build()
    elif cap.degradable(lam, p):
        with pytest.raises(DomainError, match="lacks a one-way value"):
            build()
    else:
        assert build().one_way is None


def test_sweep_refuses_params_with_p_above_one():
    curve = cap.Curve(x_range=(0.1, 0.4), params=lambda x: (x, x + 1.0), row=cap._glued_row,
                      meta=dict)
    with pytest.raises(DomainError, match=r"outside \[0, 1\]"):
        cap.sweep(curve, 4)


@pytest.mark.parametrize("ends", [
    (0.8, 0.2, 0.0, 1.0),  # a p sweep with a reversed lambda range
    (0.1, 0.9, 0.7, 0.3),  # a lambda sweep with a reversed p range
])
def test_custom_curve_fixed_parameter_needs_one_value(ends):
    fixed = "lambda" if ends[2] < ends[3] else "p"
    with pytest.raises(DomainError, match=f"fixes {fixed}"):
        cap.custom_curve(*ends)


def test_simulate_two_way_protocol():
    rate, err = cap.simulate_two_way_protocol(0.0, 0.3, 1000, 1)
    assert rate == 1.0 and err == 0.0
    rate, err = cap.simulate_two_way_protocol(1.0, 0.3, 1000, 1)
    assert rate == 0.0

    rate, err = cap.simulate_two_way_protocol(0.3, 0.5, 100_000, 7)
    assert abs(rate - 0.7) <= 3.0 * err
    assert abs(err - np.sqrt(0.3 * 0.7 / 100_000)) < 1e-15

    # determinism for a fixed seed
    again, _ = cap.simulate_two_way_protocol(0.3, 0.5, 100_000, 7)
    assert again == rate
    other, _ = cap.simulate_two_way_protocol(0.3, 0.5, 100_000, 8)
    assert other != rate

    with pytest.raises(DomainError):
        cap.simulate_two_way_protocol(0.3, 0.5, 0, 7)


def _two_way_reference(lam, p, uses, seed):
    """The protocol's earlier rate: one full-length uniform draw, counted below p_kept."""
    k0 = chn.channel_N(lam, p).kraus[0]
    p_kept = float(np.trace(k0 @ (np.eye(2, dtype=complex) / 2) @ k0.conj().T).real)
    return int(np.count_nonzero(stream_rng(seed, 0).random(uses) < p_kept)) / uses


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    lam=st.floats(0.0, 1.0),
    p=st.floats(0.0, 1.0),
    uses=st.integers(1, 5000),
    seed=st.integers(0, 2**64 - 1),
)
@example(lam=0.0, p=0.3, uses=1, seed=0)
@example(lam=1.0, p=0.3, uses=65535, seed=1)
@example(lam=0.0, p=5e-324, uses=65536, seed=2)
@example(lam=1.0, p=5e-324, uses=65537, seed=2**64 - 1)
@example(lam=0.3, p=0.5, uses=131073, seed=3)
@example(lam=5e-324, p=1.0, uses=65537, seed=4)
def test_two_way_protocol_matches_the_earlier_body_bit_for_bit(lam, p, uses, seed):
    # chunks of positioned raw words, counted against a word threshold, give the same rate
    rate, err = cap.simulate_two_way_protocol(lam, p, uses, seed)
    assert rate.hex() == _two_way_reference(lam, p, uses, seed).hex()
    assert err.hex() == float(np.sqrt(lam * (1.0 - lam) / uses)).hex()


def test_two_way_postselected_fidelity():
    for lam in (0.0, 0.3, 0.99, 1.0):
        assert abs(1.0 - cap.two_way_postselected_fidelity(lam, 0.4)) <= 1e-10


_ROW = dict(x=0.3, lam=0.3, p=0.1, one_way=0.5, two_way=0.7, lower_bound=0.4, upper_bound=0.7)


@pytest.mark.parametrize("change, accepted", [
    ({}, True),
    ({"one_way": None, "lower_bound": None, "upper_bound": None}, False),
    ({"one_way": None}, False),
    ({"one_way": None, "lam": 0.5}, False),
    ({"one_way": None, "lam": 0.6}, True),
    ({"x": math.nan}, False),
    ({"two_way": math.nan}, False),
    ({"lower_bound": math.nan}, False),
    ({"p": -2e-12}, False),
    ({"upper_bound": -2e-12}, False),
    ({"lower_bound": 0.5 + 2e-12}, False),
    ({"one_way": 0.7 + 2e-9}, False),
], ids=["complete", "no-values", "no-one-way", "no-one-way-at-half", "no-one-way-above-half",
        "nan-x", "nan-two-way", "nan-lower", "negative-p", "negative-upper", "lower-above-one-way",
        "one-way-above-two-way"])
def test_row_type_and_table_refuse_the_same_rows(change, accepted):
    row = {**_ROW, **change}
    one_way = math.nan if row["one_way"] is None else row["one_way"]
    columns = {k: None if v is None else np.array([v]) for k, v in {**row, "one_way": one_way}.items()}
    for build in (lambda: cap.CapacityCurvePoint(**row), lambda: cap.SweepTable(**columns)):
        if accepted:
            build()
        else:
            with pytest.raises(DomainError):
                build()


def test_curve_point_validation():
    with pytest.raises(DomainError):
        cap.CapacityCurvePoint(x=0.3, lam=0.3, p=0.1, one_way=0.9, two_way=0.7)
    with pytest.raises(DomainError):
        cap.CapacityCurvePoint(x=0.3, lam=0.3, p=0.1, one_way=1.2, two_way=0.7)
