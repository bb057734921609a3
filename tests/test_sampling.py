import tracemalloc

import numpy as np
import pytest

from chancap import capacity as cap
from chancap import sampling
from chancap import wiretap as wt
from chancap.errors import DomainError
from chancap.sampling import (
    CHUNK_USES,
    STREAM_WIRETAP_PROTOCOL,
    draw_chunks,
    least_word_at_least,
    philox_at,
    stream_rng,
)

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
    # the wiretap protocol's bytes were pinned with int64 bit draws and are
    # now read as the int32 ones (draw_chunks); they rely on numpy drawing a
    # 0/1 range from the same 32-bit words in both dtypes, so this fails
    # loudly if a numpy upgrade changes that
    a = stream_rng(11, STREAM_WIRETAP_PROTOCOL)
    b = stream_rng(11, STREAM_WIRETAP_PROTOCOL)
    first = a.integers(0, 2, size=n, dtype=np.int32)
    assert first.dtype == np.int32
    assert np.array_equal(first, b.integers(0, 2, size=n))
    assert np.array_equal(a.random(n), b.random(n))
    assert np.array_equal(a.integers(0, 2, size=n, dtype=np.int32), b.integers(0, 2, size=n))
    # the same words consumed, the odd 32-bit half word included
    assert str(a.bit_generator.state) == str(b.bit_generator.state)


# The numpy facts that draw_chunks reproduces without a Generator.  A numpy
# upgrade that changes one of them fails here, with its name, before the
# protocol digests do.

SIZES = [1, 2, 7, 65537]


def _concat(chunks, i):
    return np.concatenate([chunk[i] for chunk in chunks])


@pytest.mark.parametrize("n", SIZES)
def test_a_positioned_philox_reads_the_unpositioned_stream(n):
    whole = np.random.Philox(key=np.array([11, 1], dtype=np.uint64)).random_raw(n + 9)
    for word in (0, 1, 3, 4, 5, 8, 9):
        assert np.array_equal(philox_at(11, 1, word).random_raw(n), whole[word:word + n]), (
            f"Philox(counter=w // 4) after w % 4 words no longer starts at word {word}"
        )


@pytest.mark.parametrize("n", SIZES)
def test_bit_draws_are_the_top_bit_of_each_half_word_low_half_first(n):
    words = philox_at(11, 1, 0).random_raw((n + 1) // 2)
    tops = np.column_stack([(words & np.uint64(0xFFFFFFFF)) >> np.uint64(31),
                            words >> np.uint64(63)]).ravel()[:n]
    drawn = stream_rng(11, 1).integers(0, 2, size=n, dtype=np.int32)
    assert np.array_equal(drawn, tops), (
        "integers(0, 2, dtype=int32) no longer takes the top bit of each 32-bit half word, "
        "low half first"
    )


@pytest.mark.parametrize("n", SIZES)
def test_uniform_draws_are_the_top_53_bits_of_a_word(n):
    words = philox_at(11, 0, 0).random_raw(n)
    assert np.array_equal(stream_rng(11, 0).random(n), (words >> np.uint64(11)) * 2.0**-53), (
        "Generator.random() is no longer (w >> 11) * 2**-53 of one raw word"
    )


def test_an_odd_bit_draw_carries_its_high_half_across_a_uniform_draw():
    rng = stream_rng(11, 1)
    rng.integers(0, 2, size=7, dtype=np.int32)  # words 0-3, the high half of word 3 pending
    rng.random(5)  # words 4-8
    after = rng.integers(0, 2, size=3, dtype=np.int32)
    word3, word9 = philox_at(11, 1, 3).random_raw(), philox_at(11, 1, 9).random_raw()
    assert list(after) == [word3 >> 63, (word9 >> 31) & 1, word9 >> 63], (
        "the generator's pending 32-bit half word no longer survives a random() draw"
    )


@pytest.mark.parametrize("t", [0.0, 5e-324, 0.5, 1.0 - 2**-53, 1.0])
def test_the_least_word_at_least_a_threshold(t):
    least = least_word_at_least(t)
    value = lambda w: (w >> 11) * 2.0**-53  # noqa: E731
    assert least == 2**64 or value(least) >= t
    assert least == 0 or value(least - 1) < t
    assert (least == 2**64) == (t == 1.0)  # no word meets t = 1
    got = _concat(list(draw_chunks(11, 0, 5000, (t,))), 0)
    assert np.array_equal(got, stream_rng(11, 0).random(5000) >= t)


def _generator_calls(seed, stream, n, draws):
    rng = stream_rng(seed, stream)
    return [rng.integers(0, 2, size=n, dtype=np.int32).astype(bool) if t is None
            else rng.random(n) >= t for t in draws]


@pytest.mark.parametrize("n", SIZES + [2 * CHUNK_USES + 1])
def test_draw_chunks_equal_the_generator_calls(n):
    draws = (None, 0.5, None)
    chunks = list(draw_chunks(2**64 - 1, STREAM_WIRETAP_PROTOCOL, n, draws))
    assert [len(c[0]) for c in chunks[:-1]] == [CHUNK_USES] * (len(chunks) - 1)
    want = _generator_calls(2**64 - 1, STREAM_WIRETAP_PROTOCOL, n, draws)
    for i, values in enumerate(want):
        assert np.array_equal(_concat(chunks, i), values), (n, i)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@pytest.mark.parametrize("draws", [(None, 0.5, None), (None, None, 0.3, None), (0.7,), (None,)])
def test_draw_chunks_carry_the_half_word_across_every_chunk_edge(monkeypatch, chunk, draws):
    monkeypatch.setattr(sampling, "CHUNK_USES", chunk)
    for n in range(1, 12):
        chunks = list(draw_chunks(9, 1, n, draws))
        for i, values in enumerate(_generator_calls(9, 1, n, draws)):
            assert np.array_equal(_concat(chunks, i), values), (n, i)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_protocol_memory_does_not_grow_with_uses(protocol):
    protocol(0.3, 0.2, 1000, 7)  # caches filled outside the trace
    tracemalloc.start()
    try:
        protocol(0.3, 0.2, 2**20, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, f"{protocol.__name__} peaked at {peak} bytes for 2**20 uses"
