"""The guarded sphere-centre solve of ``binary-ours``.

LAPACK (``np.linalg.solve``) does the solving behind a conditioning guard,
because the attack needs a hard failure signal: when its boundary points
yield a system whose row-scaled 2-norm condition number exceeds
:data:`MAX_CONDITION`, the solver raises :class:`SingularSystemError` so the
caller can replace a point instead of accepting an unreliable solution.
The guard and the solve run on one BLAS thread (:func:`_one_blas_thread`).

The exact condition number costs an SVD, about eight solves at d=512, so
the guard first tries a cheap upper bound and takes the SVD only when the
bound is above ``MAX_CONDITION / 2``. The bound needs ``Y = A_s^-1 G`` for
the row-scaled matrix ``A_s = diag(1/s) a`` and :data:`_PROBES` fixed
Gaussian columns ``G`` (:func:`_probe_matrix`):

    B = ||A_s||_F ||Y||_F / sqrt(_PROBES / 2).

Since ``A_s^-1 = a^-1 diag(s)``, ``Y`` is ``a^-1 (diag(s) G)``, so one LU
factorisation of ``a`` solves ``[b | diag(s) G]``: column 0 is the
solution and the other columns are ``Y``. A system the bound cannot clear
goes to the SVD and, if accepted, keeps that column 0 too; a matrix
LAPACK cannot factorise is refused without one.

``||Y||_F^2`` is at least ``sigma_max(A_s^-1)^2`` times a chi-square
variable with :data:`_PROBES` degrees of freedom, and ``||A_s||_F`` is at
least ``sigma_max(A_s)``, so ``B >= kappa_2 sqrt(chi2 / 32)``. A system with
``kappa_2 > MAX_CONDITION`` is cleared by ``B <= MAX_CONDITION / 2`` only if
the chi-square draw is below 8, which has probability about 1.5e-18. ``G``
comes from its own fixed Philox stream, so it is independent of every
matrix the attacks draw; the bound never changes the verdict of the exact
rule except with that probability.

Dividing by ``sqrt(_PROBES)`` would only estimate ``||A_s||_F ||A_s^-1||_F``;
``sqrt(_PROBES / 2)`` is what makes ``B`` a bound. 64 columns make the tail
that thin while their triangular solves cost about as much as the LU
factorisation they share: at d=512 on one thread of a 2-vCPU VM,
``np.linalg.solve`` took 5.7 ms against one right-hand side and 6.1 ms
against 65, where the former separate bound and solve factorised twice.

:func:`sphere_center` solves points in one of two ways. Points in general
position go through the LU solve above. Points on rays ``start + t_i u_i``
along the vertices ``u_i`` of a regular simplex (``binary-ours``' default
design) have a closed-form centre, one matrix-vector product; their system
``a = -2 M U`` has a structured inverse, which gives ``Y`` in O(d^2
_PROBES) with no factorisation, and the same bound, divisor and SVD
fall-back decide (:func:`_simplex_solve_and_bound`). At d=512 a
``sphere_center`` call took 2.3-2.9 ms in closed form on the same VM,
against 7.6-9.1 ms by LU (medians of 30 calls, three runs), and the
simplex systems of real recoveries had a row-scaled
condition number of 44 in the median and 350 at most, against 5.6e4 and
2.1e6 on random rays.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from pathlib import Path

import numpy as np

from .errors import SingularSystemError
from .rng import make_rng
from .validation import as_matrix, as_vector

# Sphere systems from binary-ours boundary points on random rays have a
# row-scaled condition number of about 4e3 (d=128) to 3e4-6e4 (d=512) in the
# median and stay below about 2e6 in practice; a draw above 1e7 has been seen
# to lose the template. On simplex rays the median is 17 (d=128) to 44 (d=512).
MAX_CONDITION = 1e7

# Probe columns and divisor of the condition bound (see the module docstring).
_PROBES = 64
_PROBE_DIVISOR = math.sqrt(_PROBES / 2)

# OpenBLAS's thread-count calls as the numpy wheels' scipy-openblas builds
# export them: 64-bit integer builds with a suffix, 32-bit ones without.
_OPENBLAS_THREAD_CALLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


def _guarded_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x == b`` for a finite square ``a`` and a finite ``b`` of
    its size, which the caller has checked.

    Raises :class:`SingularSystemError` when ``a`` has a zero row, when
    LAPACK cannot factorise it, or when the condition number of ``a``
    with each row divided by its largest magnitude is above
    :data:`MAX_CONDITION` (or not finite).
    """
    return _guarded(a, lambda scale: _solve_and_bound(a, b, scale))


def _guarded(a: np.ndarray, solve_and_bound) -> np.ndarray:
    """The solution ``solve_and_bound(scale)`` returns for the system ``a``,
    with the probe bound it returns beside it, where ``scale[i]`` is the
    largest magnitude in row ``i`` of ``a``; refused when ``a`` has a zero
    row or its row-scaled condition number is above :data:`MAX_CONDITION`
    (or not finite)."""
    scale = np.max(np.abs(a), axis=1)
    if np.any(scale == 0.0):
        raise SingularSystemError("singular system: zero row in coefficient matrix")
    with _one_blas_thread():
        # The exact condition number costs an SVD; the bound comes with the
        # solution and clears the systems well inside the limit, which is
        # nearly all.
        x, bound = solve_and_bound(scale)
        if not bound <= MAX_CONDITION / 2:
            kappa = float(np.linalg.cond(a / scale[:, None]))
            if not kappa <= MAX_CONDITION:
                raise SingularSystemError(
                    f"singular system: condition number {kappa:.3g} exceeds {MAX_CONDITION:.3g}"
                )
        return x


def _solve_and_bound(a, b, scale):
    """Solve ``a`` against ``[b | diag(scale) G]`` in one factorisation, for
    the fixed probe matrix ``G`` of :func:`_probe_matrix` and ``scale[i]``
    the largest magnitude in row ``i`` of ``a``. With ``A_s`` the matrix
    ``a`` with each row divided by its scale, returns ``a^-1 b`` and
    ``||A_s||_F ||A_s^-1 G||_F / sqrt(32)``, which is at least the 2-norm
    condition number of ``A_s`` except with probability about 1.5e-18 (a
    chi-square with 64 degrees of freedom below 8; see the module
    docstring). On the sphere systems of 40 d=512 ``binary-ours``
    recoveries the bound was at most 3.4 times the condition number.
    Raises :class:`SingularSystemError` when LAPACK cannot factorise ``a``."""
    n = a.shape[0]
    rhs = np.empty((n, 1 + _PROBES))
    rhs[:, 0] = b
    np.multiply(scale[:, None], _probe_matrix(n), out=rhs[:, 1:])
    try:
        solved = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError("singular system: LAPACK could not factorise the coefficient matrix") from exc
    return solved[:, 0].copy(), _probe_bound(a, scale, solved[:, 1:])


def _simplex_solve_and_bound(a, start, t, directions, scale):
    """:func:`_solve_and_bound` for the sphere system ``a`` of the points
    ``start + t[i] * directions[i]``, where the rows of ``directions`` are
    the unit vertices of a regular simplex (see :func:`sphere_center`).
    Returns the centre in closed form and the same probe bound, with
    ``a^-1 diag(scale) G`` from the structured inverse of ``a = -2 M U``
    in O(d^2 _PROBES): ``U`` the first ``d`` directions, whose inverse is
    ``U^T (d / (d + 1)) (I + 1 1^T)``, and ``M = diag(t[:-1]) + t[-1] 1 1^T``,
    inverted by Sherman-Morrison."""
    d = a.shape[0]
    inv_t = 1.0 / t
    rho = -t.sum() / inv_t.sum()
    center = start + (d / (d + 1.0)) * (0.5 * (t + rho * inv_t) @ directions)

    probes = scale[:, None] * _probe_matrix(d)
    head = inv_t[:-1]
    w = head[:, None] * probes  # M^-1 probes: D^-1 probes, then the rank-one term
    w -= np.outer(head, (t[-1] / (1.0 + t[-1] * head.sum())) * (head @ probes))
    w += w.sum(axis=0)  # (I + 1 1^T) w
    y = (-0.5 * d / (d + 1.0)) * (directions[:-1].T @ w)
    return center, _probe_bound(a, scale, y)


def _probe_bound(a, scale, y):
    """``||A_s||_F ||y||_F / sqrt(_PROBES / 2)`` for ``y = A_s^-1 G``."""
    scaled_norm = math.sqrt(float(np.sum(np.vecdot(a, a) / scale**2)))
    return scaled_norm * float(np.linalg.norm(y)) / _PROBE_DIVISOR


@functools.lru_cache(maxsize=8)
def _probe_matrix(n: int) -> np.ndarray:
    """The ``(n, _PROBES)`` standard-normal probe columns of the condition
    bound, from a fixed Philox stream of their own; read-only, since every
    solve of size ``n`` shares them."""
    probes = make_rng(0, "condition-probes", n).standard_normal((n, _PROBES))
    probes.setflags(write=False)
    return probes


@functools.cache
def _openblas_threads():
    """The ``(get, set)`` thread-count calls of the OpenBLAS bundled with
    numpy (``numpy.libs``, as in the numpy wheels), or None where there is
    none or it exports none of those calls."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    # NOLOAD: only look the library up if numpy has already loaded it
    mode = getattr(os, "RTLD_NOLOAD", 0) | getattr(os, "RTLD_NOW", 0)
    for path in sorted(libs.glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path), mode=mode)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_THREAD_CALLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


_blas_lock = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.

    One thread makes the solution's bits independent of the thread count:
    without the pin, LU solves of 20 random systems each at d=128 and
    d=512, and 5 random-ray :func:`sphere_center` solves at d=128, gave
    other bits under ``OPENBLAS_NUM_THREADS=2`` than under ``=1`` (2-vCPU
    VM). It also keeps a solve off a busy second CPU: OpenBLAS splits a
    d=512 guard and solve between two threads and waits for the slower, so
    beside a process busy 40% of the time the call took 49 ms in the mean
    and up to 300 ms, against 34 ms and at most 50 ms on one thread. Its
    worker also spins for a while after every call, so with a solve every
    80 ms it never rests and a recovery loop burns 1.6 CPUs instead of 1.

    The count is process-wide, so the block holds a lock: a block in another
    thread waits until this one has restored the count, and one nested in
    the same thread re-enters it. Without a bundled OpenBLAS the block runs
    as numpy has it.
    """
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_lock:
        before = get()
        set_(1)
        try:
            yield
        finally:
            set_(before)


def sphere_center(points, *, rays=None) -> np.ndarray:
    """Recover the center of a sphere from ``d + 1`` points on its surface.

    Each point ``q_i`` satisfies ``||q_i - c||^2 == s`` for one unknown
    ``s``. Subtracting the last point's equation from the others cancels
    both ``||c||^2`` and ``s``, leaving the d-by-d linear system

        2 (q_last - q_i) . c  ==  ||q_last||^2 - ||q_i||^2.

    ``rays = (start, t, directions)`` says that the points are ``start +
    t[i] * directions[i]`` with every ``t[i] > 0`` and the rows of
    ``directions`` the unit vertices of a regular simplex, as
    :func:`rng.simplex_directions` draws them (they sum to zero and
    ``U^T U = (d + 1) / d * I``). The equal-radius system then has the
    closed-form solution

        c = start + d / (d + 1) * sum_i g_i u_i,
        g_i = (t_i + rho / t_i) / 2,  rho = -sum_i t_i / sum_i (1 / t_i),

    one matrix-vector product, and the guard bounds the system's condition
    number through its structured inverse instead of an LU factorisation
    (:func:`_simplex_solve_and_bound`). The same systems are refused.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got shape {pts.shape}")
    n, d = pts.shape
    if n != d + 1:
        raise ValueError(f"need exactly {d + 1} points in dimension {d}, got {n}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")
    a = 2.0 * (pts[-1] - pts[:-1])
    if rays is not None:
        start, t, directions = rays
        start = as_vector(start, name="ray start", dim=d)
        t = as_vector(t, name="ray lengths", dim=n)
        directions = as_matrix(directions, name="ray directions", dim=d)
        if len(directions) != n:
            raise ValueError(f"need one ray direction per point, got {len(directions)} for {n}")
        if not np.all(t > 0.0):
            raise ValueError("ray lengths must be positive")
        return _guarded(a, lambda scale: _simplex_solve_and_bound(a, start, t, directions, scale))

    sq_norms = np.einsum("ij,ij->i", pts, pts)
    rhs = sq_norms[-1] - sq_norms[:-1]
    # Finite points make finite coefficients unless their squared norms
    # overflow, and then the right-hand side is not finite.
    rhs = as_vector(rhs, name="right-hand side")
    return _guarded_solve(a, rhs)
