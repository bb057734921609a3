"""Seeded randomness used by simulations, estimators, and test suites.

All stochastic code draws from Philox (4x64, 10 rounds) as implemented by
``numpy.random.Philox``, a counter-based generator whose state transition is
documented bit-exactly and reproduces across platforms.  Independent streams
are derived from the 128-bit key ``(seed, stream)``, so every simulation is a
pure function of its inputs and seed.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError
from .qmath import check_count

# Fixed stream indices, one per independent consumer of randomness.
STREAM_QUANTUM_PROTOCOL = 0
STREAM_WIRETAP_PROTOCOL = 1


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream)."""
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def check_run(uses, seed) -> tuple[int, int]:
    """A Monte Carlo run's ``(uses, seed)``: ints with uses >= 1 and 0 <= seed < 2**64."""
    uses, seed = check_count("uses", uses, 1), check_count("seed", seed)
    if not 0 <= seed < 2**64:
        raise DomainError(f"seed must be in [0, 2**64), got {seed!r}")
    return uses, seed


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (g + g.conj().T) / 2


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
