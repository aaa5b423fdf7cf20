"""Dense linear solving for the geometric reconstruction attacks.

LAPACK (``np.linalg.solve``) does the solving behind a conditioning guard,
because the attacks need a hard failure signal: when the chosen probe
geometry yields a system whose row-scaled 2-norm condition number exceeds
:data:`MAX_CONDITION`, the solver raises :class:`SingularSystemError` so the
caller can resample its probes instead of accepting an unreliable solution.
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
from .validation import as_vector

# Sphere systems from binary-ours boundary points have a row-scaled condition
# number of about 4e3 (d=128) to 3e4 (d=512) in the median and stay below
# 2e6 in practice; a draw above 1e7 has been seen to lose the template.
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


def solve_linear_system(a, b) -> np.ndarray:
    """Solve ``a @ x == b`` for square ``a``.

    Raises :class:`SingularSystemError` when ``a`` has a zero row, when
    LAPACK cannot factorise it, or when the condition number of ``a``
    with each row divided by its largest magnitude is above
    :data:`MAX_CONDITION` (or not finite).
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"coefficient matrix must be square and nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficient matrix contains non-finite values")
    return _guarded_solve(a, as_vector(b, name="right-hand side", dim=a.shape[0]))


def _guarded_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """:func:`solve_linear_system` for a finite square ``a`` and a finite
    ``b`` of its size, which the caller has checked."""
    scale = np.max(np.abs(a), axis=1)
    if np.any(scale == 0.0):
        raise SingularSystemError("singular system: zero row in coefficient matrix")
    with _one_blas_thread():
        # The exact condition number costs an SVD; the bound comes with the
        # solution and clears the systems well inside the limit, which is
        # nearly all.
        x, bound = _solve_and_bound(a, b, scale)
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
    bound = float(np.linalg.norm(a / scale[:, None]) * np.linalg.norm(solved[:, 1:]) / _PROBE_DIVISOR)
    return solved[:, 0].copy(), bound


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


_blas_lock = threading.Lock()
_blas_holders = 0
_blas_threads_before = 0


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with OpenBLAS on one thread, then restore its count.

    On two CPUs OpenBLAS splits a d=512 guard and solve between two
    threads and waits for the slower, so the call slows down whenever the
    other CPU is busy: beside a process busy 40% of the time it took 49 ms
    in the mean and up to 300 ms, against 34 ms and at most 50 ms on one
    thread. Its worker also spins for a while after every call, so with a
    solve every 80 ms it never rests and a recovery loop burns 1.6 CPUs
    instead of 1. One thread also makes the solution's bits independent of
    the machine's CPU count.

    The count is process-wide: the first block in sets it and the last one
    out restores it, so blocks in several threads may overlap. Without a
    bundled OpenBLAS the block runs as numpy has it.
    """
    global _blas_holders, _blas_threads_before
    calls = _openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    with _blas_lock:
        if _blas_holders == 0:
            _blas_threads_before = get()
            set_(1)
        _blas_holders += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_holders -= 1
            if _blas_holders == 0:
                set_(_blas_threads_before)


def sphere_center(points, sq_distances=None) -> np.ndarray:
    """Recover the center of a sphere from ``d + 1`` points on its surface.

    Each point ``q_i`` satisfies ``||q_i - c||^2 == s_i``. Subtracting the last
    point's equation from the others cancels both ``||c||^2`` and, when all
    distances are equal, the unknown radius, leaving the d-by-d linear system

        2 (q_last - q_i) . c  ==  (s_i - s_last) + ||q_last||^2 - ||q_i||^2.

    ``sq_distances`` supplies per-point squared distances; omit it when all
    points share one (unknown) radius.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError(f"points must be a 2-D array, got shape {pts.shape}")
    n, d = pts.shape
    if n != d + 1:
        raise ValueError(f"need exactly {d + 1} points in dimension {d}, got {n}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points contain non-finite values")

    sq_norms = np.einsum("ij,ij->i", pts, pts)
    rhs = sq_norms[-1] - sq_norms[:-1]
    if sq_distances is not None:
        s = as_vector(sq_distances, name="sq_distances", dim=n)
        rhs = rhs + (s[:-1] - s[-1])
    # Finite points make finite coefficients unless their squared norms
    # overflow, and then the right-hand side is not finite.
    rhs = as_vector(rhs, name="right-hand side")
    return _guarded_solve(2.0 * (pts[-1] - pts[:-1]), rhs)
