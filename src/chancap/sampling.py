"""Seeded randomness used by simulations, estimators, and test suites.

All stochastic code draws from Philox (4x64, 10 rounds) as implemented by
``numpy.random.Philox``, a counter-based generator whose state transition is
documented bit-exactly and reproduces across platforms.  Independent streams
are derived from the 128-bit key ``(seed, stream)``, so every simulation is a
pure function of its inputs and seed.  Word ``i`` of a stream is a pure
function of the key and ``i``, so ``draw_chunks`` can read each draw from any
use on, one chunk at a time, and ``sum_chunks`` can read a long run as
contiguous spans of chunks, one per usable CPU, on threads (Philox releases
the GIL while it fills a chunk).  The words read are the same either way.
"""

from __future__ import annotations

import math
import os
import threading
from collections.abc import Callable, Iterator, Sequence
from itertools import takewhile
from typing import Optional

import numpy as np

from .errors import DomainError
from .qmath import check_count

# Fixed stream indices, one per independent consumer of randomness.
STREAM_QUANTUM_PROTOCOL = 0
STREAM_WIRETAP_PROTOCOL = 1

CHUNK_USES = 2**15  # uses per chunk of ``draw_chunks``
SPAN_USES = 2**17  # least uses one thread of ``sum_chunks`` reads, >= CHUNK_USES

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
    lo: int = 0, hi: Optional[int] = None,
) -> Iterator[tuple[np.ndarray, ...]]:
    """The draws of one ``stream_rng(seed, stream)`` for uses ``lo`` to ``hi``
    (all ``uses`` by default), ``CHUNK_USES`` uses at a time.

    ``draws`` lists the generator's calls in order, each of ``uses`` values:
    None for ``integers(0, 2, size=uses, dtype=np.int32)``, yielded as bool,
    and a float t for ``random(uses) >= t``.  Each chunk is a tuple with one
    bool array per draw, and the chunks concatenated equal those calls' values
    ``lo`` to ``hi`` bit for bit.  A bit draw reads ceil(n/2) words for its n
    values; a uniform draw reads one word per value and leaves a pending high
    half for the next bit draw, so after an odd bit draw the next bit draw
    starts with the high half of its last word.  Each reader starts at use
    ``lo`` of its draw: a uniform at word ``lo`` of the draw, a bit at half
    word ``lo``, which is the pending high half of a word when it is odd.
    """
    hi = uses if hi is None else hi
    readers, word, carry = [], 0, None
    for t in draws:
        if t is None:
            half = lo - (carry is not None)  # -1: value lo is the carried high half
            pending = carry if half < 0 else word + half // 2 if half % 2 else None
            readers.append(_bits(seed, stream, word + (half + 1) // 2, pending))
            n = uses - (carry is not None)
            word += (n + 1) // 2
            carry = word - 1 if n % 2 else None
        else:
            readers.append(_uniforms(seed, stream, word + lo, t))
            word += uses
    for start in range(lo, hi, CHUNK_USES):
        n = min(CHUNK_USES, hi - start)
        yield tuple(read(n) for read in readers)


def sum_chunks(
    seed: int, stream: int, uses: int, draws: Sequence[Optional[float]],
    count: Callable[..., tuple[int, ...]],
) -> tuple[int, ...]:
    """The sum over the chunks of ``draw_chunks(seed, stream, uses, draws)`` of
    ``count(*chunk)``, a tuple of ints.

    The chunks are split into contiguous spans, one per thread, with
    ``min(usable_cpus(), uses // SPAN_USES)`` threads, at least one: below
    ``2 * SPAN_USES`` uses the run is read serially.
    The calling thread reads the first span and daemon helpers the others,
    and every helper is joined before the call returns.  Integer sums do not
    depend on the order they are added in, so the result is the serial one.
    An exception in any span is raised from this call, the first span's
    first; it stops the other spans at their next chunk.
    """
    chunks = -(-uses // CHUNK_USES)
    threads = max(1, uses // SPAN_USES)  # at most ``chunks``, as SPAN_USES >= CHUNK_USES
    if threads > 1:  # a serial run does not read the CPU count
        threads = min(threads, usable_cpus())
    edges = [min(uses, chunks * i // threads * CHUNK_USES) for i in range(threads + 1)]
    sums: list[list[int]] = [[]] * threads
    errors: list[Optional[BaseException]] = [None] * threads
    stop = threading.Event()

    def span(i: int) -> None:
        read = draw_chunks(seed, stream, uses, draws, edges[i], edges[i + 1])
        counts = (count(*chunk) for chunk in takewhile(lambda _: not stop.is_set(), read))
        sums[i] = [sum(column) for column in zip(*counts)]

    def helper(i: int) -> None:
        try:
            span(i)
        except BaseException as exc:  # raised from the call, not lost to threading.excepthook
            errors[i] = exc
            stop.set()

    helpers = [threading.Thread(target=helper, args=(i,), daemon=True)
               for i in range(1, threads)]
    for thread in helpers:
        thread.start()
    try:
        span(0)
        for thread in helpers:
            thread.join()
    finally:  # on an exception here, the helpers stop at their next chunk
        stop.set()
        for thread in helpers:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return tuple(map(sum, zip(*sums)))


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
