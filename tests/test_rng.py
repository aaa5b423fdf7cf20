import numpy as np
import pytest

from matchbreak.rng import (
    as_generator,
    make_rng,
    orthonormal_directions,
    random_unit_vector,
    random_unit_vectors,
    simplex_directions,
)


def test_same_seed_same_stream():
    a = make_rng(123).standard_normal(10)
    b = make_rng(123).standard_normal(10)
    assert np.array_equal(a, b)


def test_different_seeds_differ():
    a = make_rng(1).standard_normal(10)
    b = make_rng(2).standard_normal(10)
    assert not np.array_equal(a, b)


def test_substreams_are_independent_of_order():
    """Deriving stream (seed, key) never depends on other streams being drawn."""
    first = make_rng(9, "alpha", 3).standard_normal(5)
    make_rng(9, "beta", 0).standard_normal(100)
    second = make_rng(9, "alpha", 3).standard_normal(5)
    assert np.array_equal(first, second)


def test_substream_keys_separate_streams():
    a = make_rng(5, "x").standard_normal(8)
    b = make_rng(5, "y").standard_normal(8)
    c = make_rng(5).standard_normal(8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_string_and_int_keys():
    assert np.array_equal(make_rng(0, "k", 1).random(3), make_rng(0, "k", 1).random(3))


def test_as_generator_passthrough():
    gen = make_rng(4)
    assert as_generator(gen) is gen


def test_as_generator_from_seed():
    assert np.array_equal(as_generator(11).random(4), make_rng(11).random(4))


@pytest.mark.parametrize("bad", [-1, 2**64, 1.5, "seed", None, True])
def test_invalid_seeds_rejected(bad):
    with pytest.raises((TypeError, ValueError)):
        make_rng(bad)


def test_negative_key_rejected():
    with pytest.raises(ValueError):
        make_rng(0, -3)


def test_random_unit_vector_norm():
    rng = make_rng(2)
    for dim in (1, 2, 17, 300):
        v = random_unit_vector(rng, dim)
        assert v.shape == (dim,)
        assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


def test_random_unit_vector_deterministic():
    a = random_unit_vector(make_rng(8), 16)
    b = random_unit_vector(make_rng(8), 16)
    assert np.array_equal(a, b)


def test_random_unit_vector_bad_dim():
    with pytest.raises(ValueError):
        random_unit_vector(make_rng(0), 0)


@pytest.mark.parametrize(("dim", "count"), [(1, 4), (7, 9), (512, 3), (128, 1100)])
def test_random_unit_vectors_equal_successive_single_draws(dim, count):
    """Bit for bit equal to single draws, and to the reference definition:
    one ``standard_normal(dim)`` per direction over ``np.linalg.norm``."""
    rows = random_unit_vectors(make_rng(12), dim, count)
    rng = make_rng(12)
    assert rows.shape == (count, dim)
    assert np.array_equal(rows, np.stack([random_unit_vector(rng, dim) for _ in range(count)]))
    rng = make_rng(12)
    draws = [rng.standard_normal(dim) for _ in range(count)]
    assert np.array_equal(rows, np.stack([v / np.linalg.norm(v) for v in draws]))
    assert np.allclose(np.linalg.norm(rows, axis=1), 1.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize(("dim", "count"), [(0, 3), (3, 0), (-1, 1)])
def test_random_unit_vectors_bad_sizes(dim, count):
    with pytest.raises(ValueError):
        random_unit_vectors(make_rng(0), dim, count)


def test_random_unit_vectors_redraw_a_zero_row():
    class ZeroRowFirst:
        """Hands out a zero first row, then the real stream."""

        def __init__(self, seed):
            self.rng = make_rng(seed)
            self.first = True

        def standard_normal(self, size):
            draw = self.rng.standard_normal(size)
            if self.first:
                self.first = False
                draw[0] = 0.0
            return draw

    rows = random_unit_vectors(ZeroRowFirst(6), 5, 3)
    # the stub's first draw holds stream rows 0-2; the redraw is stream row 3
    stream = [row / np.linalg.norm(row) for row in make_rng(6).standard_normal((4, 5))]
    assert np.array_equal(rows, np.stack([stream[3], stream[1], stream[2]]))


@pytest.mark.parametrize("dim", [1, 2, 3, 16, 128])
def test_simplex_directions_are_a_turned_regular_simplex(dim):
    """Unit rows that sum to zero with ``U^T U = (d + 1) / d * I``, turned
    by the stream: two draws differ, one seed repeats, and the draw takes
    ``2 * dim`` normals."""
    rng = make_rng(3)
    u = simplex_directions(rng, dim)
    assert u.shape == (dim + 1, dim)
    assert np.allclose(np.vecdot(u, u), 1.0, rtol=0, atol=1e-14)
    assert np.allclose(u.sum(axis=0), 0.0, rtol=0, atol=1e-14)
    assert np.allclose(u.T @ u, (dim + 1) / dim * np.eye(dim), rtol=0, atol=1e-14)
    assert np.array_equal(u, simplex_directions(make_rng(3), dim))
    after = make_rng(3)
    after.standard_normal((2, dim))
    assert np.array_equal(rng.standard_normal(3), after.standard_normal(3))
    if dim > 1:
        assert not np.allclose(u, simplex_directions(make_rng(4), dim))


def test_simplex_directions_bad_dim():
    with pytest.raises(ValueError, match="dim"):
        simplex_directions(make_rng(0), 0)


@pytest.mark.parametrize("dim", [1, 2, 32, 512])
def test_orthonormal_directions_are_a_turned_basis(dim):
    """Orthonormal rows, ``P P^T = I``, turned by the stream: two draws
    differ, one seed repeats, and the draw takes ``2 * dim`` normals."""
    rng = make_rng(3)
    p = orthonormal_directions(rng, dim)
    assert p.shape == (dim, dim)
    assert np.allclose(p @ p.T, np.eye(dim), rtol=0, atol=1e-12)
    assert np.array_equal(p, orthonormal_directions(make_rng(3), dim))
    after = make_rng(3)
    after.standard_normal((2, dim))
    assert np.array_equal(rng.standard_normal(3), after.standard_normal(3))
    if dim > 1:
        assert not np.allclose(p, orthonormal_directions(make_rng(4), dim))
