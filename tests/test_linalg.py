"""The guarded solve behind :func:`sphere_center` is exercised
construct-then-solve: systems are built from a known solution, so
correctness is checked against ground truth rather than against another
solver. A LAPACK cross-check is kept as a second, independent route on
random well-conditioned systems.
"""

import os
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchbreak import linalg
from matchbreak.attacks import boundary_points
from matchbreak.errors import SingularSystemError
from matchbreak.linalg import (
    _PROBES,
    MAX_CONDITION,
    _probe_matrix,
    _simplex_solve_and_bound,
    _guarded_solve,
    _solve_and_bound,
    sphere_center,
)
from matchbreak.matcher import MatchingOracle, Metric, OracleConfig, OracleMode, Threshold
from matchbreak.rng import make_rng, random_unit_vector, simplex_directions


def guarded_solve(a, b):
    """The guarded LU solve of ``a @ x == b``, on float arrays as
    :func:`sphere_center` hands it them."""
    return _guarded_solve(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64))


def test_identity_system():
    assert np.array_equal(guarded_solve(np.eye(3), [4.0, 5.0, 6.0]), [4.0, 5.0, 6.0])


def test_diagonal_system():
    x = guarded_solve([[2.0, 0.0], [0.0, 4.0]], [2.0, 8.0])
    assert np.allclose(x, [1.0, 2.0], rtol=0, atol=1e-15)


def test_permuted_diagonal_needs_pivoting():
    # without row exchanges the first pivot would be zero
    a = [[0.0, 1.0], [1.0, 0.0]]
    x = guarded_solve(a, [3.0, 7.0])
    assert np.allclose(x, [7.0, 3.0], rtol=0, atol=1e-15)


def test_scaled_pivoting_handles_badly_scaled_rows():
    # naive partial pivoting would pick the 1e10 row first and lose accuracy
    a = np.array([[1e10, 1e10], [1.0, 2.0]])
    x_true = np.array([1.0, -1.0])
    x = guarded_solve(a, a @ x_true)
    assert np.allclose(x, x_true, rtol=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5, 64])
def test_recovers_known_solution(n):
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n))
    x_true = rng.standard_normal(n)
    x = guarded_solve(a, a @ x_true)
    assert np.allclose(x, x_true, rtol=1e-8, atol=1e-10)


def test_agrees_with_lapack():
    rng = np.random.default_rng(99)
    for _ in range(10):
        a = rng.standard_normal((32, 32))
        b = rng.standard_normal(32)
        assert np.allclose(guarded_solve(a, b), np.linalg.solve(a, b), rtol=1e-9, atol=1e-12)


def test_residual_bound():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((48, 48))
    b = rng.standard_normal(48)
    x = guarded_solve(a, b)
    residual = np.max(np.abs(a @ x - b))
    assert residual <= 1e-9 * max(1.0, np.max(np.abs(b)))


def test_zero_matrix_is_singular():
    with pytest.raises(SingularSystemError, match="singular"):
        guarded_solve(np.zeros((3, 3)), np.ones(3))


def test_duplicated_rows_are_singular():
    a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [1.0, 2.0, 3.0]])
    with pytest.raises(SingularSystemError):
        guarded_solve(a, np.ones(3))


def test_near_singular_pivot_rejected():
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-14]])
    with pytest.raises(SingularSystemError):
        guarded_solve(a, [1.0, 2.0])


def test_non_square_rejected():
    # d + 2 points would make a (d + 1)-by-d difference system
    with pytest.raises(ValueError, match="need exactly 4 points"):
        sphere_center(np.random.default_rng(0).standard_normal((5, 3)))


def test_non_finite_rejected():
    pts = np.random.default_rng(0).standard_normal((4, 3))
    pts[1, 2] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        sphere_center(pts)


class TestSphereCenter:
    def test_interval_midpoint(self):
        # in 1-D the "sphere" is two points; the center is their midpoint
        assert np.allclose(sphere_center([[-1.0], [3.0]]), [1.0])

    def test_unit_circle(self):
        pts = [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]
        assert np.allclose(sphere_center(pts), [0.0, 0.0], atol=1e-14)

    def test_random_sphere_shared_radius(self):
        rng = np.random.default_rng(17)
        d = 16
        center = rng.standard_normal(d)
        dirs = rng.standard_normal((d + 1, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        pts = center + 3.0 * dirs
        rec = sphere_center(pts)
        assert float(np.sum((rec - center) ** 2)) < 1e-18

    def test_shared_radius_value_is_irrelevant(self):
        # the radius cancels in the pairwise subtraction; only the geometry matters
        rng = np.random.default_rng(4)
        d = 8
        center = rng.standard_normal(d)
        dirs = rng.standard_normal((d + 1, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        small = sphere_center(center + 0.1 * dirs)
        large = sphere_center(center + 50.0 * dirs)
        assert np.allclose(small, center, atol=1e-9)
        assert np.allclose(large, center, atol=1e-6)

    def test_ill_conditioned_system_rejected(self):
        # two of the four points on the sphere nearly coincide; the system is
        # solvable but its row-scaled condition number is above the guard
        center = np.array([0.3, -0.2, 0.5])
        eps = 1e-7
        dirs = np.array([[1.0, 0.0, 0.0], [np.cos(eps), np.sin(eps), 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        pts = center + 2.0 * dirs
        a = 2.0 * (pts[-1] - pts[:-1])
        assert np.linalg.cond(a / np.max(np.abs(a), axis=1)[:, None]) > MAX_CONDITION
        with pytest.raises(SingularSystemError, match="condition number"):
            sphere_center(pts)

    def test_coincident_points_rejected(self):
        pts = np.ones((4, 3))
        with pytest.raises(SingularSystemError):
            sphere_center(pts)

    def test_wrong_point_count(self):
        with pytest.raises(ValueError, match="points"):
            sphere_center(np.ones((3, 3)))


def _row_max(a):
    return np.max(np.abs(a), axis=1)


def _scaled(a):
    return a / _row_max(a)[:, None]


def _bound(a):
    """The guard's probe bound on the row-scaled condition number of ``a``."""
    return _solve_and_bound(a, np.zeros(len(a)), _row_max(a))[1]


def _backward_error(a, x, b):
    """Normwise backward error of ``x`` as a solution of ``a @ x == b``."""
    residual = np.linalg.norm(b - a @ x, np.inf)
    return residual / (np.linalg.norm(a, np.inf) * np.linalg.norm(x, np.inf) + np.linalg.norm(b, np.inf))


def _check_accepted_solution(a, b, x):
    """An accepted solution is column 0 of LAPACK's one-thread solve of
    ``a`` against ``[b | D G]`` (``D`` the row maxima, ``G`` the probe
    columns), bit for bit, and as good a solution of ``a @ x == b`` as the
    one-column solve's, by the backward-error bound of an LU solve."""
    joint = np.column_stack([b, _row_max(a)[:, None] * _probe_matrix(len(a))])
    with linalg._one_blas_thread():
        assert np.array_equal(x, np.linalg.solve(a, joint)[:, 0])
        alone = np.linalg.solve(a, b)
    limit = len(a) * np.finfo(float).eps
    assert _backward_error(a, x, b) <= limit
    assert _backward_error(a, alone, b) <= limit


@pytest.mark.parametrize(("kappa", "cleared_by_bound", "accepted"), [
    (1e3, True, True),
    (4e6, False, True),
    (9.9e6, False, True),
    (1.01e7, False, False),
])
def test_guard_decides_as_the_exact_condition_number(kappa, cleared_by_bound, accepted, monkeypatch):
    """The cheap probe bound only ever clears a system early; near the
    limit the exact condition number decides, so the verdict is always that
    of the exact rule on the row-scaled matrix. Either way the system is
    factorised once, and an accepted one keeps that solution."""
    d = 64
    rng = np.random.default_rng(int(kappa))
    u, _ = np.linalg.qr(rng.standard_normal((d, d)))
    v, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = (u * np.geomspace(1.0, 1.0 / kappa, d)) @ v.T
    b = a @ rng.standard_normal(d)
    assert (_bound(a) <= MAX_CONDITION / 2) == cleared_by_bound
    assert bool(np.linalg.cond(_scaled(a)) <= MAX_CONDITION) == accepted
    real_solve = np.linalg.solve
    solves = []

    def counting_solve(a, b):
        solves.append(np.shape(b))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    if accepted:
        x = guarded_solve(a, b)
        monkeypatch.undo()
        _check_accepted_solution(a, b, x)
    else:
        with pytest.raises(SingularSystemError, match="condition number"):
            guarded_solve(a, b)
    assert solves == [(d, 1 + _PROBES)]


def test_guard_falls_back_when_the_probe_solve_fails(monkeypatch):
    """When LAPACK cannot factorise ``a`` in the joint solve (the one
    against ``[b | D G]``), the guard falls back on nothing: the system is
    refused at once, with no SVD and no second solve, which would fail the
    same way since the factorisation depends on ``a`` alone."""
    real_solve = np.linalg.solve
    solves, conds = [], []

    def failing_joint_solve(a, b):
        solves.append(np.shape(b))
        if np.shape(b) == (len(a), 1 + _PROBES):
            raise np.linalg.LinAlgError("Singular matrix")
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", failing_joint_solve)
    monkeypatch.setattr(np.linalg, "cond", lambda a: conds.append(a.shape))
    for a in ([[2.0, 1.0], [1.0, 3.0]], [[1.0, 1.0], [1.0, 1.0 + 1e-12]]):
        with pytest.raises(SingularSystemError, match="could not factorise") as info:
            guarded_solve(a, [3.0, 4.0])
        assert isinstance(info.value.__cause__, np.linalg.LinAlgError)
    assert solves == [(2, 1 + _PROBES)] * 2
    assert conds == []


def _guard_verdict(a, b):
    """Whether the guarded solve accepts ``a``; an accepted solution
    is checked by :func:`_check_accepted_solution`."""
    try:
        x = guarded_solve(a, b)
    except SingularSystemError:
        return False
    _check_accepted_solution(a, b, x)
    return True


def test_guard_bound_holds_on_random_systems():
    """Over systems with condition numbers from 1e1 to 1e9 and uneven row
    scales, the probe bound is never below the row-scaled kappa_2 and the
    guard's verdict is always the exact rule's."""
    rng = np.random.default_rng(2024)
    cleared = refused = 0
    for kappa in np.geomspace(1e1, 1e9, 200):
        d = int(rng.integers(2, 49))
        u, _ = np.linalg.qr(rng.standard_normal((d, d)))
        v, _ = np.linalg.qr(rng.standard_normal((d, d)))
        a = (u * np.geomspace(1.0, 1.0 / kappa, d)) @ v.T
        a *= np.exp(rng.uniform(-5.0, 5.0, d))[:, None]
        scaled_kappa = np.linalg.cond(_scaled(a))
        bound = _bound(a)
        assert bound >= scaled_kappa
        assert _guard_verdict(a, rng.standard_normal(d)) == (scaled_kappa <= MAX_CONDITION)
        cleared += bound <= MAX_CONDITION / 2
        refused += scaled_kappa > MAX_CONDITION
    assert cleared > 50 and refused > 20  # both sides of the limit were exercised


def test_guard_bound_holds_on_real_sphere_systems():
    """The systems ``binary-ours`` solves: d + 1 bisected boundary points
    of a d=128 threshold sphere. Each is cleared by the bound, which stays
    within a small factor of kappa_2."""
    d, threshold = 128, 0.5
    for seed in range(4):
        truth = random_unit_vector(make_rng(seed, "truth"), d)
        oracle = MatchingOracle(OracleConfig(metric=Metric.SED, mode=OracleMode.BINARY,
                                             threshold=Threshold(threshold, Metric.SED)))
        oracle.enroll("t", truth)
        start = truth + 0.9 * np.sqrt(threshold) * random_unit_vector(make_rng(seed, "start"), d)
        points, _, _ = boundary_points(oracle, "t", start, np.sqrt(threshold), 20, make_rng(seed), d + 1)
        a = 2.0 * (points[-1] - points[:-1])
        scaled_kappa = np.linalg.cond(_scaled(a))
        bound = _bound(a)
        assert scaled_kappa <= bound <= min(10.0 * scaled_kappa, MAX_CONDITION / 2)
        sq_norms = np.einsum("ij,ij->i", points, points)
        assert _guard_verdict(a, sq_norms[-1] - sq_norms[:-1])


def test_solve_runs_on_one_blas_thread_and_restores_the_count(monkeypatch):
    calls = linalg._openblas_threads()
    if calls is None:
        pytest.skip("numpy has no bundled OpenBLAS to set")
    get, set_ = calls
    original = get()
    set_(2)  # OpenBLAS caps this at what it supports, so read it back
    before = get()
    seen = []
    real_solve = np.linalg.solve

    def spying_solve(a, b):
        seen.append(("solve", get()))
        return real_solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", spying_solve)
    try:
        assert np.allclose(guarded_solve([[2.0, 1.0], [1.0, 3.0]], [3.0, 4.0]), [1.0, 1.0])
        assert seen == [("solve", 1)]
        assert get() == before
        with pytest.raises(SingularSystemError):
            guarded_solve([[1.0, 1.0], [1.0, 1.0 + 1e-12]], [1.0, 1.0])
        assert get() == before
    finally:
        set_(original)


def test_one_thread_blocks_nest_in_a_thread_and_queue_across_threads(monkeypatch):
    """A block nested in the same thread re-enters the lock and restores the
    outer block's count; a block in another thread waits until the first
    has restored the process-wide count, then sets and restores it itself."""
    threads = [4]
    log = []

    def set_(n):
        threads[0] = n
        log.append(n)

    monkeypatch.setattr(linalg, "_openblas_threads", lambda: (lambda: threads[0], set_))
    entered = threading.Event()
    seen = []

    def other():
        with linalg._one_blas_thread():
            entered.set()

    def outer():
        with linalg._one_blas_thread():
            with linalg._one_blas_thread():
                seen.append(threads[0])
            seen.append(threads[0])
            worker.start()
            seen.append(entered.wait(0.2))

    worker = threading.Thread(target=other, daemon=True)
    first = threading.Thread(target=outer, daemon=True)
    first.start()
    first.join(timeout=5.0)
    assert not first.is_alive(), "the nested block deadlocked"
    worker.join(timeout=5.0)
    assert seen == [1, 1, False]
    assert entered.is_set() and not worker.is_alive()
    assert threads == [4]
    assert log == [1, 1, 1, 4, 1, 4]


def test_solve_without_a_bundled_openblas(monkeypatch):
    monkeypatch.setattr(linalg, "_openblas_threads", lambda: None)
    assert np.allclose(guarded_solve([[2.0, 1.0], [1.0, 3.0]], [3.0, 4.0]), [1.0, 1.0])


_RANDOM_RAY_SOLVES = """
import sys
from matchbreak.linalg import sphere_center
from matchbreak.rng import make_rng, random_unit_vectors
for seed in range(5):
    rng = make_rng(seed, "random-rays")
    center = rng.standard_normal(128)
    sys.stdout.buffer.write(sphere_center(center + random_unit_vectors(rng, 128, 129)).tobytes())
"""


def test_solution_bits_do_not_depend_on_the_blas_thread_count():
    """What the one-thread pin pays for: without it, these d=128 LU solves
    give other bits under two OpenBLAS threads than under one."""
    src = str(Path(linalg.__file__).resolve().parents[1])
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _RANDOM_RAY_SOLVES], capture_output=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr.decode()
        outputs.append(proc.stdout)
    assert len(outputs[0]) == 5 * 128 * 8
    assert outputs[0] == outputs[1]


@st.composite
def simplex_rays(draw):
    """Rays ``start + t_i u_i`` along a turned regular simplex in d = 1 to
    64, with lengths spread on purpose: log-uniform over up to 8 decades,
    and up to two rays pinched to lengths down to 1e-12, which makes their
    difference rows nearly equal. ``|start|`` stays below the shortest ray,
    so that rounding the points moves each within a few ulps of its ray's
    length and the points' system is the rays' system to working
    precision. Returns the points, ``(start, t, u)`` and the difference
    system ``(a, b)`` of the points that LAPACK solves."""
    d = draw(st.integers(1, 64))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    spread = draw(st.floats(0.0, 8.0))
    t = 10.0 ** rng.uniform(-spread / 2, spread / 2, d + 1)
    pinched = rng.choice(d + 1, size=min(d + 1, draw(st.integers(0, 2))), replace=False)
    t[pinched] = 10.0 ** -draw(st.floats(3.0, 12.0))
    start = rng.standard_normal(d)
    start *= draw(st.floats(0.0, 1.0)) * t.min() / np.linalg.norm(start)
    u = simplex_directions(make_rng(int(rng.integers(2**32))), d)
    points = t[:, None] * u + start
    sq = np.einsum("ij,ij->i", points, points)
    return points, (start, t, u), 2.0 * (points[-1] - points[:-1]), sq[-1] - sq[:-1]


class TestSimplexClosedForm:
    """``sphere_center(points, rays=...)``: the closed-form centre and the
    structured guard, against LAPACK and the exact condition number."""

    @settings(max_examples=150, deadline=None)
    @given(simplex_rays())
    def test_equals_lapack_within_the_benchmark_gap_bound(self, case):
        points, rays, a, b = case
        try:
            center = sphere_center(points, rays=rays)
        except SingularSystemError:
            assert np.linalg.cond(_scaled(a)) > MAX_CONDITION
            return
        solved = np.linalg.solve(a, b)
        kappa = np.linalg.cond(a)
        allowed = 8.0 * len(a) * kappa * np.finfo(float).eps * max(1.0, float(np.linalg.norm(solved)))
        assert np.linalg.norm(center - solved) <= allowed

    @settings(max_examples=150, deadline=None)
    @given(simplex_rays())
    def test_structured_bound_is_at_least_the_condition_number(self, case):
        points, (start, t, u), a, _ = case
        _, bound = _simplex_solve_and_bound(a, start, t, u, _row_max(a))
        assert bound >= np.linalg.cond(_scaled(a))

    @settings(max_examples=150, deadline=None)
    @given(simplex_rays())
    def test_a_bound_above_half_the_limit_goes_to_the_svd(self, case):
        points, (start, t, u), a, _ = case
        _, bound = _simplex_solve_and_bound(a, start, t, u, _row_max(a))
        with mock.patch.object(np.linalg, "cond", wraps=np.linalg.cond) as cond:
            try:
                sphere_center(points, rays=(start, t, u))
            except SingularSystemError:
                pass
        assert cond.called == (not bound <= MAX_CONDITION / 2)

    @settings(max_examples=150, deadline=None)
    @given(simplex_rays())
    def test_refuses_exactly_the_systems_above_the_limit(self, case):
        points, rays, a, _ = case
        if np.linalg.cond(_scaled(a)) > MAX_CONDITION:
            with pytest.raises(SingularSystemError, match="condition number"):
                sphere_center(points, rays=rays)
        else:
            sphere_center(points, rays=rays)

    def test_pinched_rays_are_refused_and_the_lu_path_agrees(self):
        """Two rays of length 1e-9 beside rays of length 1 make two nearly
        equal difference rows: both routes refuse the system."""
        d = 16
        t = np.ones(d + 1)
        t[[2, 5]] = 1e-9
        u = simplex_directions(make_rng(3), d)
        points = t[:, None] * u
        assert np.linalg.cond(_scaled(2.0 * (points[-1] - points[:-1]))) > MAX_CONDITION
        with pytest.raises(SingularSystemError, match="condition number"):
            sphere_center(points, rays=(np.zeros(d), t, u))
        with pytest.raises(SingularSystemError, match="condition number"):
            sphere_center(points)

    def test_finds_the_centre_without_a_factorisation(self, monkeypatch):
        """The closed form takes no LU; the centre is the sphere's."""
        monkeypatch.setattr(np.linalg, "solve", None)
        d = 32
        rng = np.random.default_rng(8)
        center = rng.standard_normal(d)
        radius = 1.5
        start = center + 0.4 * random_unit_vector(make_rng(9), d)
        u = simplex_directions(make_rng(10), d)
        # the ray start + t u leaves the sphere at t = -(w.u) + sqrt((w.u)^2 + radius^2 - |w|^2), w = start - center
        w = start - center
        wu = u @ w
        t = -wu + np.sqrt(wu**2 + radius**2 - w @ w)
        recovered = sphere_center(t[:, None] * u + start, rays=(start, t, u))
        assert np.allclose(recovered, center, rtol=0, atol=1e-13)

    @pytest.mark.parametrize(("rays", "match"), [
        (lambda s, t, u: (s, t, u[:-1]), "one ray direction per point"),
        (lambda s, t, u: (s, -t, u), "positive"),
        (lambda s, t, u: (s[:-1], t, u), "dimension"),
        (lambda s, t, u: (s, t, u * np.nan), "non-finite"),
    ])
    def test_bad_rays_refused(self, rays, match):
        d = 4
        u = simplex_directions(make_rng(1), d)
        t, start = np.ones(d + 1), np.zeros(d)
        with pytest.raises(ValueError, match=match):
            sphere_center(u, rays=rays(start, t, u))
