"""Seeded randomness used by simulations, estimators, and test suites.

All stochastic code draws from Philox (4x64, 10 rounds) as implemented by
``numpy.random.Philox``, a counter-based generator whose state transition is
documented bit-exactly and reproduces across platforms.  Independent streams
are derived from the 128-bit key ``(seed, stream)``, so every simulation is a
pure function of its inputs and seed.  Word ``i`` of a stream is a pure
function of the key and ``i``, so ``draw_chunks`` can read each draw one
chunk at a time, and ``sum_chunks`` counts a long run chunk by chunk on the
calling thread, in memory that does not grow with the run.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator, Sequence
from typing import Optional

import numpy as np

from .errors import DomainError
from .qmath import check_count

# Fixed stream indices, one per independent consumer of randomness.
STREAM_QUANTUM_PROTOCOL = 0
STREAM_WIRETAP_PROTOCOL = 1

CHUNK_USES = 2**15  # uses per chunk of ``draw_chunks``


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream)."""
    return np.random.Generator(philox_at(seed, stream, 0))


def check_run(uses, seed) -> tuple[int, int]:
    """A Monte Carlo run's ``(uses, seed)``: ints with uses >= 1 and 0 <= seed < 2**64."""
    uses, seed = check_count("uses", uses, 1), check_count("seed", seed)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be in [0, 2**64), got {seed!r}")
    return uses, seed


def philox_at(seed: int, stream: int, word: int) -> np.random.Philox:
    """Philox keyed by (seed, stream) whose next raw word is word ``word`` of the stream.

    Philox steps its counter before each block of four words, so counter
    ``word // 4`` starts at the block holding ``word``.
    """
    bitgen = np.random.Philox(key=np.array([seed, stream], dtype=np.uint64), counter=word // 4)
    bitgen.random_raw(word % 4)
    return bitgen


def least_word_at_least(t: float) -> int:
    """The least raw word ``w`` whose ``Generator.random()`` value ``(w >> 11) * 2**-53`` is >= t.

    2**64, which no word reaches, for t > 1 - 2**-53.  ``t * 2**53`` is exact,
    so the integer test ``w >> 11 >= ceil(t * 2**53)`` is the float test.
    """
    return math.ceil(min(max(t, 0.0), 1.0) * 2.0**53) << 11


def _bits(seed: int, stream: int, word: int, carry: Optional[int]):
    """Reader of ``integers(0, 2, dtype=np.int32)`` values from ``word`` on.

    Each value is the top bit of a 32-bit half word, low half first.  An odd
    count leaves the high half pending, as the generator's 32-bit buffer does;
    ``carry`` is the word whose high half is pending when the draw starts.
    """
    bitgen = philox_at(seed, stream, word)
    pending = [] if carry is None else [bool(philox_at(seed, stream, carry).random_raw() >> 63)]

    def read(n: int) -> np.ndarray:
        words = bitgen.random_raw((n - len(pending) + 1) // 2)
        out = np.empty(len(pending) + 2 * words.size, dtype=bool)
        out[:len(pending)] = pending
        halves = words.astype("<u8", copy=False).view("<u4")  # low half first
        np.greater_equal(halves, 1 << 31, out=out[len(pending):])
        pending[:] = out[n:]
        return out[:n]

    return read


def _uniforms(seed: int, stream: int, word: int, t: float):
    """Reader of ``random() >= t`` for the uniforms drawn from ``word`` on, one word each."""
    bitgen, least = philox_at(seed, stream, word), least_word_at_least(t)

    def read(n: int) -> np.ndarray:
        words = bitgen.random_raw(n)
        return words >= np.uint64(least) if least < 2**64 else np.zeros(n, dtype=bool)

    return read


def draw_chunks(
    seed: int, stream: int, uses: int, draws: Sequence[Optional[float]],
) -> Iterator[tuple[np.ndarray, ...]]:
    """The draws of one ``stream_rng(seed, stream)``, ``CHUNK_USES`` uses at a time.

    ``draws`` lists the generator's calls in order, each of ``uses`` values:
    None for ``integers(0, 2, size=uses, dtype=np.int32)``, yielded as bool,
    and a float t for ``random(uses) >= t``.  Each chunk is a tuple with one
    bool array per draw, and the chunks concatenated equal those calls'
    values bit for bit.  A bit draw reads ceil(n/2) words for its n values; a
    uniform draw reads one word per value and leaves a pending high half for
    the next bit draw, so after an odd bit draw the next bit draw starts with
    the high half of its last word.
    """
    readers, word, carry = [], 0, None
    for t in draws:
        if t is None:
            readers.append(_bits(seed, stream, word, carry))
            n = uses - (carry is not None)
            word += (n + 1) // 2
            carry = word - 1 if n % 2 else None
        else:
            readers.append(_uniforms(seed, stream, word, t))
            word += uses
    for start in range(0, uses, CHUNK_USES):
        yield tuple(read(min(CHUNK_USES, uses - start)) for read in readers)


def sum_chunks(
    seed: int, stream: int, uses: int, draws: Sequence[Optional[float]],
    count: Callable[..., tuple[int, ...]],
) -> tuple[int, ...]:
    """The sum over the chunks of ``draw_chunks(seed, stream, uses, draws)`` of
    ``count(*chunk)``, a tuple of ints, counted one chunk at a time on the
    calling thread."""
    counts = (count(*chunk) for chunk in draw_chunks(seed, stream, uses, draws))
    return tuple(map(sum, zip(*counts)))


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (g + g.conj().T) / 2


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random state from the Ginibre ensemble."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-ish random unitary via QR of a Ginibre matrix."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))
