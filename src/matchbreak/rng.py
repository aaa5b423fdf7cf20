"""Deterministic randomness helpers.

Every stochastic operation in the package takes an explicit seed or an
already-derived :class:`numpy.random.Generator`. Streams are built on the
counter-based Philox bit generator, and substreams are derived through
``SeedSequence`` spawn keys, so two streams with the same root seed but
different keys are statistically independent and reproducible across runs.
"""

from __future__ import annotations

import zlib

import numpy as np

MAX_SEED = 2**64 - 1

SeedLike = int | np.random.Generator


def _key_to_int(key: int | str) -> int:
    if isinstance(key, str):
        return zlib.crc32(key.encode("utf-8"))
    if isinstance(key, (int, np.integer)):
        k = int(key)
        if k < 0:
            raise ValueError(f"substream key must be nonnegative, got {k}")
        return k
    raise TypeError(f"substream key must be int or str, got {type(key).__name__}")


def check_seed(seed: int) -> int:
    """Require an integer root seed in ``[0, 2**64)``."""
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
    seed = int(seed)
    if not 0 <= seed <= MAX_SEED:
        raise ValueError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def make_rng(seed: int, *keys: int | str) -> np.random.Generator:
    """Create a Philox generator for ``seed``, optionally scoped by ``keys``."""
    ss = np.random.SeedSequence(check_seed(seed), spawn_key=tuple(_key_to_int(k) for k in keys))
    return np.random.Generator(np.random.Philox(ss))


def as_generator(seed: SeedLike) -> np.random.Generator:
    """A generator for ``seed``, or ``seed`` itself if it is one."""
    return seed if isinstance(seed, np.random.Generator) else make_rng(seed)


def random_unit_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw a direction uniformly from the unit sphere in ``dim`` dimensions."""
    return random_unit_vectors(rng, dim, 1)[0]


def random_unit_vectors(rng: np.random.Generator, dim: int, count: int) -> np.ndarray:
    """Draw ``count`` directions as the rows of a ``(count, dim)`` array.

    One ``standard_normal((count, dim))`` call consumes the stream as
    ``count`` calls of :func:`random_unit_vector` would, and each row is
    divided by the square root of ``np.vecdot(row, row)``: the same BLAS dot
    product ``np.linalg.norm`` takes of a vector (``einsum`` sums in another
    order), so the rows equal those calls' results bit for bit. A zero row
    (probability zero) is redrawn after the whole batch is drawn.
    """
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    rows = rng.standard_normal((count, dim))
    sq_norms = np.vecdot(rows, rows)
    for i in np.flatnonzero(sq_norms == 0.0):  # probability zero, but it would divide by zero
        while sq_norms[i] == 0.0:
            rows[i] = rng.standard_normal(dim)
            sq_norms[i] = rows[i].dot(rows[i])
    rows /= np.sqrt(sq_norms)[:, None]
    return rows
