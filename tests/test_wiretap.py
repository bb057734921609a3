import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chancap import capacity as cap
from chancap import wiretap as wt
from chancap.errors import DomainError, NotADistribution
from chancap.qmath import binary_entropy
from chancap.sampling import STREAM_WIRETAP_PROTOCOL, stream_rng


def test_build_wiretap_structure():
    ch = wt.build_wiretap(0.2, 0.1)
    t = ch.table
    assert t.shape == (2, 2, 2, 2)
    # conditional slices sum to one, flag weight is input independent
    assert np.abs(t.sum(axis=(1, 2, 3)) - 1.0).max() < 1e-12
    assert np.abs(t[:, :, :, 0].sum(axis=(1, 2)) - 0.2).max() < 1e-12
    # flag 1: z = x and y flips with probability p
    assert abs(t[0, 0, 0, 0] - 0.2 * 0.9) < 1e-15
    assert abs(t[0, 1, 0, 0] - 0.2 * 0.1) < 1e-15
    assert t[0, 1, 1, 0] == 0.0
    # flag 2: y = x, z uniform
    assert abs(t[0, 0, 0, 1] - 0.8 * 0.5) < 1e-15
    assert t[0, 1, 0, 1] == 0.0


def test_build_wiretap_extremes():
    ch0 = wt.build_wiretap(0.0, 0.3)
    # Bob sees x perfectly, Eve uniform noise
    bob = ch0.bob_given_x()
    assert abs(bob[0, 0, 1] - 1.0) < 1e-15
    eve = ch0.eve_given_x()
    assert np.abs(eve[:, :, 1] - 0.5).max() < 1e-15

    ch1 = wt.build_wiretap(1.0, 0.0)
    assert abs(ch1.table[0, 0, 0, 0] - 1.0) < 1e-15  # both see x

    with pytest.raises(DomainError):
        wt.build_wiretap(1.2, 0.0)


def test_mutual_information_examples():
    assert wt.mutual_information(np.full((2, 2), 0.25)) == 0.0
    assert abs(wt.mutual_information(np.diag([0.5, 0.5])) - 1.0) < 1e-12
    p = 0.1
    bsc = 0.5 * np.array([[1 - p, p], [p, 1 - p]])
    assert abs(wt.mutual_information(bsc) - (1.0 - binary_entropy(p))) < 1e-12
    assert abs(wt.mutual_information(bsc) - 0.531004) < 1e-6
    with pytest.raises(NotADistribution):
        wt.mutual_information(np.array([[0.5, 0.2], [0.1, 0.1]]))


def test_secrecy_capacity_bruteforce():
    value, q = wt.secrecy_capacity_bruteforce(wt.build_wiretap(0.2, 0.1))
    assert abs(value - 0.706201) < 1e-6
    assert abs(q - 0.5) < 1e-6

    value, q = wt.secrecy_capacity_bruteforce(wt.build_wiretap(0.0, 0.7))
    assert abs(value - 1.0) < 1e-9
    assert abs(q - 0.5) < 1e-4

    value, _ = wt.secrecy_capacity_bruteforce(wt.build_wiretap(1.0, 0.0))
    assert abs(value) < 1e-12

    with pytest.raises(DomainError):
        wt.secrecy_capacity_bruteforce(wt.build_wiretap(0.2, 0.1), grid=50)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(lam=st.floats(0.0, 1.0), p=st.floats(0.0, 1.0))
@example(lam=0.0, p=0.0)
@example(lam=0.0, p=0.5)
@example(lam=0.0, p=1.0)
@example(lam=0.5, p=0.0)
@example(lam=0.5, p=0.5)
@example(lam=0.5, p=1.0)
@example(lam=1.0, p=0.0)
@example(lam=1.0, p=0.5)
@example(lam=1.0, p=1.0)
@example(lam=0.0, p=5e-324)
@example(lam=0.5, p=5e-324)
@example(lam=1.0, p=5e-324)
@example(lam=0.75, p=0.2)
def test_secrecy_argmax_is_the_uniform_input(lam, p):
    ch = wt.build_wiretap(lam, p)
    value, q = wt.secrecy_capacity_bruteforce(ch)
    assert value >= wt.secrecy_objective(ch, 0.5) - 1e-12
    if lam <= 0.5 and 1.0 - lam * (1.0 + binary_entropy(p)) > 1e-6:
        assert abs(q - 0.5) <= 1e-4
        assert abs(value - wt.one_way_secrecy_capacity(lam, p)) <= 1e-4
    qs = np.linspace(0.0, 1.0, 1001)
    if wt._secrecy_objectives(wt._views(ch)[:, None], qs).max() <= 0.0:
        assert (value, q) == (0.0, 0.0)


def _scalar_bruteforce(ch, grid=201):
    """The one-channel golden-section search that ``_secrecy_capacity_search``
    batches, kept as its reference: one objective call per point."""
    qs = np.linspace(0.0, 1.0, grid)
    vals = np.array([wt.secrecy_objective(ch, q) for q in qs])
    i = int(np.argmax(vals))
    lo, hi = qs[max(0, i - 1)], qs[min(grid - 1, i + 1)]
    c, d = hi - wt.GOLDEN * (hi - lo), lo + wt.GOLDEN * (hi - lo)
    fc, fd = wt.secrecy_objective(ch, c), wt.secrecy_objective(ch, d)
    while hi - lo > 1e-10:
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - wt.GOLDEN * (hi - lo)
            fc = wt.secrecy_objective(ch, c)
        else:
            lo, c, fc = c, d, fd
            d = lo + wt.GOLDEN * (hi - lo)
            fd = wt.secrecy_objective(ch, d)
    q_best = 0.5 * (lo + hi)
    f_best = wt.secrecy_objective(ch, q_best)
    if vals[i] >= f_best:
        return float(vals[i]), float(qs[i])
    return f_best, float(q_best)


EDGES = [(lam, p) for lam in (0.0, 0.5, 1.0) for p in (0.0, 0.5, 1.0)]
# interior maxima beside maxima at q = 0, a grid end, whose half-width
# brackets stop some rounds earlier; (1/2, 1/2) and (0.75, 0.2) are ties
# that report q = 0
MIXED = [(0.3, 0.2), (0.5, 0.5), (0.1, 0.9), (0.75, 0.2), (0.0, 0.7), (1.0, 0.0)]


def _hex(pairs):
    return [tuple(float(x).hex() for x in pair) for pair in pairs]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(params=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
                       min_size=1, max_size=5))
@example(params=EDGES)
@example(params=[(0.5, 0.5), (0.75, 0.2)])
@example(params=MIXED)
def test_batched_golden_search_matches_one_search_per_channel(params):
    chs = [wt.build_wiretap(lam, p) for lam, p in params]
    batch = _hex(zip(*wt._secrecy_capacity_search(chs, 201)))
    assert batch == _hex(wt.secrecy_capacity_bruteforce(ch) for ch in chs)
    assert batch == _hex(_scalar_bruteforce(ch) for ch in chs)


def test_the_mixed_batch_holds_searches_of_both_bracket_widths():
    qs = np.linspace(0.0, 1.0, 201)
    ends = [int(np.argmax(wt._secrecy_objectives(wt._views(wt.build_wiretap(*lp))[:, None], qs)))
            in (0, 200) for lp in MIXED]
    assert any(ends) and not all(ends)
    values, qs = wt._secrecy_capacity_search([wt.build_wiretap(*lp) for lp in MIXED], 201)
    assert (values[1], qs[1]) == (0.0, 0.0)
    assert (values[3], qs[3]) == (0.0, 0.0)


def test_secrecy_objective_grid_matches_scalar():
    qs = np.linspace(0.0, 1.0, 201)
    for lam in (0.0, 0.5, 1.0):
        for p in (0.0, 0.5, 1.0):
            ch = wt.build_wiretap(lam, p)
            grid = wt._secrecy_objectives(wt._views(ch)[:, None], qs)
            scalar = np.array([wt.secrecy_objective(ch, q) for q in qs])
            assert np.abs(grid - scalar).max() <= 1e-14, (lam, p)


def test_secrecy_closed_forms():
    assert abs(wt.one_way_secrecy_capacity(0.2, 0.1) - 0.706201) < 1e-6
    assert wt.one_way_secrecy_capacity(0.0, 0.9) == 1.0
    assert wt.two_way_secrecy_capacity(0.0) == 1.0
    assert abs(wt.two_way_secrecy_capacity(0.2) - 0.8) < 1e-15
    lam_end = 1.0 / (2.0 * np.log2(6.0))
    assert abs(lam_end - 0.193426) < 1e-6
    assert abs(wt.one_way_secrecy_capacity(lam_end, 1.0) - 0.806574) < 1e-6
    assert abs(wt.two_way_secrecy_capacity(lam_end) - 0.806574) < 1e-6
    with pytest.raises(DomainError):
        wt.one_way_secrecy_capacity(0.51, 0.1)


def test_degrading_stochastic_map():
    t = wt.degrading_stochastic_map(0.0, 0.2)
    # always flag 2 with a uniform bit
    assert np.abs(t[:, :, :, 0]).max() == 0.0
    assert np.abs(t.sum(axis=(2, 3)) - 1.0).max() < 1e-15

    t5 = wt.degrading_stochastic_map(0.5, 0.2)  # mixing probability exactly 1
    assert abs(t5[0, 1, 0, 0] - 1.0) < 1e-15
    with pytest.raises(DomainError):
        wt.degrading_stochastic_map(0.51, 0.2)


def test_verify_degraded_grid():
    for lam in np.linspace(0.0, 0.5, 6):
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert wt.verify_degraded(wt.build_wiretap(lam, p)) <= 1e-12


def test_decomposition_identity():
    rng = np.random.default_rng(21)
    for _ in range(10):
        lam, p, q = rng.uniform(0, 1, size=3)
        assert wt.decomposition_residual(wt.build_wiretap(lam, p), q) <= 1e-12


def test_simulate_feedback_protocol():
    throughput, leakage = wt.simulate_feedback_protocol(0.0, 0.3, 10_000, 3)
    assert throughput == 1.0
    assert leakage < 1e-2

    throughput, leakage = wt.simulate_feedback_protocol(0.3, 0.1, 100_000, 11)
    sigma = np.sqrt(0.3 * 0.7 / 100_000)
    assert abs(throughput - 0.7) <= 3.0 * sigma
    assert leakage <= 1e-2

    # determinism
    again = wt.simulate_feedback_protocol(0.3, 0.1, 100_000, 11)
    assert again == (throughput, leakage)

    with pytest.raises(DomainError):
        wt.simulate_feedback_protocol(0.3, 0.1, 0, 1)


def _feedback_reference(lam, p, uses, seed):
    """The protocol's earlier body: int64 draws, np.where and four masked counts."""
    rng = stream_rng(seed, STREAM_WIRETAP_PROTOCOL)
    x = rng.integers(0, 2, size=uses)
    flag2 = rng.random(uses) >= lam
    z = np.where(flag2, rng.integers(0, 2, size=uses), x)
    accepted = int(np.count_nonzero(flag2))
    throughput = accepted / uses
    if accepted == 0:
        return throughput, 0.0
    counts = np.zeros((2, 2))
    for xv in range(2):
        for zv in range(2):
            counts[xv, zv] = np.count_nonzero(flag2 & (x == xv) & (z == zv))
    return throughput, wt.mutual_information(counts / accepted)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    lam=st.floats(0.0, 1.0),
    p=st.floats(0.0, 1.0),
    uses=st.integers(1, 5000),
    seed=st.integers(0, 2**64 - 1),
)
@example(lam=0.0, p=0.0, uses=1, seed=0)
@example(lam=0.0, p=0.5, uses=2, seed=1)
@example(lam=0.0, p=1.0, uses=3, seed=2)
@example(lam=0.5, p=0.0, uses=65537, seed=3)
@example(lam=0.5, p=0.5, uses=1, seed=2**64 - 1)
@example(lam=0.5, p=1.0, uses=2, seed=5)
@example(lam=1.0, p=0.0, uses=3, seed=6)
@example(lam=1.0, p=0.5, uses=65537, seed=7)
@example(lam=1.0, p=1.0, uses=1, seed=8)
@example(lam=0.5, p=5e-324, uses=65537, seed=9)
@example(lam=0.3, p=5e-324, uses=3, seed=10)
@example(lam=0.5, p=0.2, uses=131073, seed=11)
@example(lam=0.3, p=0.9, uses=3 * 2**16 + 1, seed=2**64 - 1)
def test_feedback_protocol_matches_the_earlier_body_bit_for_bit(lam, p, uses, seed):
    # chunks of positioned raw words, counted as bool, give the same two floats
    got = wt.simulate_feedback_protocol(lam, p, uses, seed)
    want = _feedback_reference(lam, p, uses, seed)
    assert [v.hex() for v in got] == [float(v).hex() for v in want]


def test_sweep_fig6():
    pts = cap.sweep(wt.FIG6, 100)
    assert len(pts) == 100
    assert abs(pts[0].x - 0.8687) < 1e-15
    assert abs(pts[0].lam - 0.155790863611258) < 1e-12
    assert abs(pts[0].two_way - (1.0 - 0.155790863611258)) < 1e-12
    expected_first = 1.0 - pts[0].lam * (1.0 + binary_entropy(0.8687))
    assert abs(pts[0].one_way - expected_first) < 1e-12
    assert abs(pts[-1].one_way - 0.806574) < 1e-6
    assert abs(pts[-1].two_way - 0.806574) < 1e-6

    one = np.array([p.one_way for p in pts])
    two = np.array([p.two_way for p in pts])
    assert np.all(np.diff(one) > 1e-9)
    assert np.all(np.diff(two) < -1e-9)


def test_fig6_crossover_left_of_grid_resolution():
    p_star = wt.fig6_crossover()
    # recomputed, close to but not asserted equal to the display endpoint
    assert 0.86 < p_star < 0.87
    assert abs(p_star - 0.8687) < 1e-2
