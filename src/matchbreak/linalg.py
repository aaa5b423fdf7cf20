"""Dense linear solving for the geometric reconstruction attacks.

LAPACK (``np.linalg.solve``) does the solving behind a conditioning guard,
because the attacks need a hard failure signal: when the chosen probe
geometry yields a system whose row-scaled 2-norm condition number exceeds
:data:`MAX_CONDITION`, the solver raises :class:`SingularSystemError` so the
caller can resample its probes instead of accepting an unreliable solution.
"""

from __future__ import annotations

import numpy as np

from .errors import SingularSystemError
from .validation import as_vector

# Sphere systems from binary-ours boundary points have a row-scaled condition
# number of about 4e3 (d=128) to 3e4 (d=512) in the median and stay below
# 2e6 in practice; a draw above 1e7 has been seen to lose the template.
MAX_CONDITION = 1e7


def solve_linear_system(a, b) -> np.ndarray:
    """Solve ``a @ x == b`` for square ``a``.

    Raises :class:`SingularSystemError` when ``a`` has a zero row, or when
    the condition number of ``a`` with each row divided by its largest
    magnitude is above :data:`MAX_CONDITION` (or not finite).
    """
    a = np.array(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise ValueError(f"coefficient matrix must be square and nonempty, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("coefficient matrix contains non-finite values")
    b = as_vector(b, name="right-hand side", dim=a.shape[0])

    scale = np.max(np.abs(a), axis=1)
    if np.any(scale == 0.0):
        raise SingularSystemError("singular system: zero row in coefficient matrix")
    kappa = float(np.linalg.cond(a / scale[:, None]))
    if not kappa <= MAX_CONDITION:
        raise SingularSystemError(
            f"singular system: condition number {kappa:.3g} exceeds {MAX_CONDITION:.3g}"
        )
    return np.linalg.solve(a, b)


def sphere_center(points, sq_distances=None) -> np.ndarray:
    """Recover the center of a sphere from ``d + 1`` points on its surface.

    Each point ``q_i`` satisfies ``||q_i - c||^2 == s_i``. Subtracting the last
    point's equation from the others cancels both ``||c||^2`` and, when all
    distances are equal, the unknown radius, leaving the d-by-d linear system

        2 (q_last - q_i) . c  ==  (s_i - s_last) + ||q_last||^2 - ||q_i||^2.

    ``sq_distances`` supplies per-point squared distances; omit it when all
    points share one (unknown) radius.
    """
    pts = np.array(points, dtype=np.float64)
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
    coeffs = 2.0 * (pts[-1] - pts[:-1])
    return solve_linear_system(coeffs, rhs)
