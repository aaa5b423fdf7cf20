"""Deterministic randomness helpers.

Every stochastic operation in the package takes an explicit seed or an
already-derived :class:`numpy.random.Generator`. Streams are built on the
counter-based Philox bit generator, and substreams are derived through
``SeedSequence`` spawn keys, so two streams with the same root seed but
different keys are statistically independent and reproducible across runs.
"""

from __future__ import annotations

import math
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


def simplex_directions(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw ``dim + 1`` directions as the rows of a ``(dim + 1, dim)`` array:
    the vertices of a unit regular simplex centred on the origin, turned by
    two Householder reflections about directions drawn from ``rng``.

    The rows sum to zero and their Gram matrix ``U^T U`` is ``(dim + 1) /
    dim`` times the identity, which is what lets :func:`linalg.sphere_center`
    solve rays along them in closed form. The draw costs ``2 * dim``
    normals and O(dim^2) arithmetic, where ``dim + 1`` random directions
    cost ``(dim + 1) * dim`` normals.

    The simplex ``S`` has the vertices ``a (e_i - c 1)`` for ``i < dim`` and
    ``-1 / sqrt(dim)`` times the all-ones vector, with ``a = sqrt((dim + 1) /
    dim)`` and ``c = (1 - 1 / sqrt(dim + 1)) / dim``. It is never built on
    its own: the turned rows are ``S H1 H2 = S - 2 (S v1) v1^T - 2 (S H1 v2)
    v2^T``, with ``S H1 v2 = S v2 - 2 (v1 . v2) S v1``, and ``S`` is added
    to the rank-two term in place.

    Two reflections move only a 2-plane, so every draw stays near one fixed
    simplex (seeds 1 and 2: median row cosine 0.950 at d=128, 0.987 at
    d=512), and an oracle that screens probes sees it from every attacker.
    """
    v = random_unit_vectors(rng, dim, 2)
    a = math.sqrt((dim + 1) / dim)
    c = (1.0 - 1.0 / math.sqrt(dim + 1)) / dim
    sums = v.sum(axis=1)
    along = np.empty((dim + 1, 2))  # S v1, S v2
    along[:dim] = a * (v.T - c * sums)
    along[dim] = -sums / math.sqrt(dim)
    along[:, 1] -= (2.0 * (v[0] @ v[1])) * along[:, 0]
    rows = (-2.0 * along) @ v
    rows[:dim] -= a * c
    diagonal = np.arange(dim)
    rows[diagonal, diagonal] += a
    rows[dim] -= 1.0 / math.sqrt(dim)
    return rows


def orthonormal_directions(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Draw ``dim`` orthonormal directions as the rows of a ``(dim, dim)``
    array: the identity turned by two Householder reflections about
    directions drawn from ``rng`` (``2 * dim`` normals, O(dim^2)), as
    :func:`simplex_directions` turns its simplex. The rows are ``H1 H2 = I
    - 2 v1 v1^T - 2 (H1 v2) v2^T``, with ``H1 v2 = v2 - 2 (v1 . v2) v1``.

    Two reflections move only a 2-plane, so the rows stay near the standard
    basis (seed 1: median ``|P_ii|`` 0.980 at d=128, 0.995 at d=512).
    """
    v = random_unit_vectors(rng, dim, 2)
    along = v.T.copy()  # v1, H1 v2
    along[:, 1] -= (2.0 * (v[0] @ v[1])) * v[0]
    rows = (-2.0 * along) @ v
    rows[np.diag_indices(dim)] += 1.0
    return rows
