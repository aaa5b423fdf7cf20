"""Correctness checks computed with the benchmark's own numpy code.

Nothing here calls into ``matchbreak``. The enrolled truth, the breaking
sets and the calibrated threshold are regenerated from the documented
seeding scheme (Philox behind ``SeedSequence`` spawn keys, string keys
hashed with CRC-32), so a check compares the program against an
independent reading of its own specification, never against a stored
copy of earlier output.
"""

from __future__ import annotations

import math
import zlib

import numpy as np


def philox(seed: int, *keys) -> np.random.Generator:
    spawn_key = tuple(zlib.crc32(k.encode("utf-8")) if isinstance(k, str) else int(k) for k in keys)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(int(seed), spawn_key=spawn_key)))


def model_centers(dim: int, identities: int, model_seed: int) -> np.ndarray:
    raw = philox(model_seed, "centers").standard_normal((identities, dim))
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def enrolled_truth(centers: np.ndarray, sigma: float, model_seed: int, identity: int) -> np.ndarray:
    rng = philox(model_seed, "enroll", identity)
    values = centers[identity] + sigma * rng.standard_normal(centers.shape[1])
    return values / np.linalg.norm(values)


def breaking_set(centers: np.ndarray, sigma: float, exclude: int, size: int, rng) -> np.ndarray:
    """Members cycle round-robin over every identity but ``exclude``."""
    others = np.array([i for i in range(centers.shape[0]) if i != exclude])
    labels = others[np.arange(size) % others.size]
    values = centers[labels] + sigma * rng.standard_normal((size, centers.shape[1]))
    return values / np.linalg.norm(values, axis=1, keepdims=True)


def sed(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum((np.asarray(a) - np.asarray(b)) ** 2, axis=-1)


def impostor_threshold(centers, sigma, pairs, fmr, rng, *, chunk=20000) -> float:
    """The most permissive SED cut whose impostor false-match rate stays at
    or below ``fmr``, on ``pairs`` fresh pairs of distinct identities."""
    n, d = centers.shape
    scores = np.empty(pairs)
    done = 0
    while done < pairs:
        m = min(chunk, pairs - done)
        i = rng.integers(0, n, size=m)
        j = (i + rng.integers(1, n, size=m)) % n
        a = centers[i] + sigma * rng.standard_normal((m, d))
        b = centers[j] + sigma * rng.standard_normal((m, d))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        diff = a - b
        scores[done:done + m] = np.einsum("ij,ij->i", diff, diff)
        done += m
    ordered = np.sort(scores)
    k = int(math.floor(fmr * pairs))
    if 0 < k < pairs and ordered[k] == ordered[k - 1]:
        k = int(np.argmax(ordered == ordered[k - 1]))
    return float(ordered[k - 1]) if k > 0 else float(np.nextafter(ordered[0], -np.inf))


def impostor_fmr(centers, sigma, threshold, pairs, rng) -> float:
    """Share of fresh impostor pairs at or below ``threshold``."""
    n, d = centers.shape
    i = rng.integers(0, n, size=pairs)
    j = (i + rng.integers(1, n, size=pairs)) % n
    a = centers[i] + sigma * rng.standard_normal((pairs, d))
    b = centers[j] + sigma * rng.standard_normal((pairs, d))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    return float(np.mean(sed(a, b) <= threshold))


def fmr_window(fmr: float, pairs: int) -> tuple[float, float]:
    """Six binomial standard deviations around ``fmr``, plus one sample."""
    half = 6.0 * math.sqrt(fmr * (1.0 - fmr) / pairs) + 1.0 / pairs
    return fmr - half, fmr + half


def bracket_eps(threshold: float, precision: int) -> float:
    """How far from ``T`` the squared distance of a bisected boundary point
    may be: the final bracket is ``2 sqrt(T) / 2**P`` long, the midpoint is
    within half of that of the crossing, and the squared distance changes by
    at most ``2 sqrt(T)`` per unit step there, plus the second-order term."""
    return threshold / 2.0 ** (precision - 1) + threshold / 4.0**precision


def sphere_system(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The linear system a sphere solve makes of ``d + 1`` equidistant
    points: the last point's sphere equation subtracted from the others
    gives ``A c = b`` with rows ``2 (q_last - q_i)``."""
    sq = np.einsum("ij,ij->i", points, points)
    return 2.0 * (points[-1] - points[:-1]), sq[-1] - sq[:-1]


def draw_loss_ceiling(points: np.ndarray, eps: float) -> tuple[float, float]:
    """Ceiling on the SED loss of the sphere centre solved from ``points``.

    Each boundary point is within ``eps`` of the threshold, so each entry of
    ``b`` is off by at most ``2 eps`` and the centre by at most
    ``2 eps sqrt(d) / sigma_min(A)``; rounding in the solve adds ``d kappa``
    machine epsilons. Returns the ceiling and ``kappa``, the condition
    number of ``A``.
    """
    d = points.shape[1]
    sv = np.linalg.svd(sphere_system(points)[0], compute_uv=False)
    kappa = float(sv[0] / sv[-1])
    error = 2.0 * eps * math.sqrt(d) / float(sv[-1]) * (1.0 + 1e-6) + d * kappa * np.finfo(float).eps
    return error**2, kappa


def check_draw(f: "Findings", tag: str, points: np.ndarray, recovered: np.ndarray, truth: np.ndarray,
               threshold: float, precision: int) -> float:
    """Loss and pass of one ``binary-ours`` recovery, from the boundary
    points its sphere solve used. Returns the loss."""
    eps = bracket_eps(threshold, precision)
    off = float(np.max(np.abs(sed(points, truth) - threshold)))
    f.expect(off <= eps * (1.0 + 1e-6) + 1e-12,
             f"{tag}: a boundary point is {off:.3e} from T in squared distance, bracket allows {eps:.3e}")
    loss = float(sed(recovered, truth))
    ceiling, kappa = draw_loss_ceiling(points, eps)
    a, b = sphere_system(points)
    solved = np.linalg.solve(a, b)
    gap = float(np.linalg.norm(recovered - solved))
    f.expect(gap <= 8.0 * points.shape[1] * kappa * np.finfo(float).eps * max(1.0, float(np.linalg.norm(solved))),
             f"{tag}: recovered centre is {gap:.3e} from LAPACK's solve of the same system (kappa {kappa:.3e})")
    f.expect(loss <= ceiling, f"{tag}: loss {loss:.3e} above the draw's ceiling {ceiling:.3e} (kappa {kappa:.3e})")
    f.expect(loss <= threshold, f"{tag}: recovered template does not pass (loss {loss:.3e} > T {threshold:.4f})")
    return loss


def first_within(members: np.ndarray, truth: np.ndarray, threshold: float) -> int | None:
    hits = np.flatnonzero(sed(members, truth) <= threshold)
    return int(hits[0]) if hits.size else None


class Findings:
    """Collects the failed checks of a run; empty means correct."""

    def __init__(self):
        self.failures: list[str] = []
        self.passed = 0

    def expect(self, ok: bool, message: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(message)

    @property
    def ok(self) -> bool:
        return not self.failures
