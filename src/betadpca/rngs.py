"""Deterministic named RNG streams derived from a single user seed.

Each consumer owns a stream tag, so adding draws to one stream never shifts
the values produced by another.  Streams are keyed through SeedSequence,
which also makes per-replicate child seeds cheap to derive.
"""

from numpy.random import PCG64, Generator, SeedSequence

from .errors import InvalidInput

POPULATION = 1
NOISE_EIGENVALUES = 2
DATA = 3
FOLDS = 4
REPLICATE = 5
MINIMIZER = 7


def _entropy(seed: int, key) -> list[int]:
    seed = int(seed)
    if seed < 0:
        raise InvalidInput(f"seed must be non-negative, got {seed}")
    return [seed, *(int(k) for k in key)]


def stream(seed: int, *key: int) -> Generator:
    """Generator for the (seed, *key) stream; a negative seed raises InvalidInput."""
    return Generator(PCG64(SeedSequence(_entropy(seed, key))))


def child_seed(seed: int, *key: int) -> int:
    """Derive an integer seed for a nested component (e.g. one replicate)."""
    return int(SeedSequence(_entropy(seed, key)).generate_state(1, dtype="uint64")[0])
