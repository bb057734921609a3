import numpy as np
import pytest

from chancap import capacity as cap
from chancap import wiretap as wt
from chancap.errors import DomainError
from chancap.sampling import STREAM_WIRETAP_PROTOCOL, stream_rng

PROTOCOLS = (cap.simulate_two_way_protocol, wt.simulate_feedback_protocol)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("uses", [2.7, float("nan"), float("inf"), "5", True, -1, None])
def test_protocols_reject_bad_uses(protocol, uses):
    with pytest.raises(DomainError, match="uses"):
        protocol(0.3, 0.2, uses, 7)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("seed", [2.5, -1, 2**64, "5", True, float("nan"), None])
def test_protocols_reject_bad_seeds(protocol, seed):
    with pytest.raises(DomainError, match="seed"):
        protocol(0.3, 0.2, 1000, seed)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_protocols_accept_numpy_integers(protocol):
    expected = protocol(0.3, 0.2, 1000, 7)
    assert protocol(0.3, 0.2, np.int64(1000), np.int64(7)) == expected
    assert protocol(0.3, 0.2, np.int32(1000), np.uint64(7)) == expected
    # the seed range is [0, 2**64): both ends run
    assert protocol(0.3, 0.2, 1000, 0) == protocol(0.3, 0.2, 1000, np.uint64(0))
    top = protocol(0.3, 0.2, 1000, 2**64 - 1)
    assert protocol(0.3, 0.2, 1000, np.uint64(2**64 - 1)) == top


@pytest.mark.parametrize("n", [1, 2, 7, 64, 65537, 100_000])
def test_int32_bit_draws_equal_int64_draws(n):
    # the wiretap protocol draws its bits as int32; its output bytes rely on
    # numpy drawing a 0/1 range from the same 32-bit words in both dtypes,
    # so this fails loudly if a numpy upgrade changes that
    a = stream_rng(11, STREAM_WIRETAP_PROTOCOL)
    b = stream_rng(11, STREAM_WIRETAP_PROTOCOL)
    first = a.integers(0, 2, size=n, dtype=np.int32)
    assert first.dtype == np.int32
    assert np.array_equal(first, b.integers(0, 2, size=n))
    assert np.array_equal(a.random(n), b.random(n))
    assert np.array_equal(a.integers(0, 2, size=n, dtype=np.int32), b.integers(0, 2, size=n))
    # the same words consumed, the odd 32-bit half word included
    assert str(a.bit_generator.state) == str(b.bit_generator.state)
